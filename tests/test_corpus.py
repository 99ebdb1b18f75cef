"""Counts, splits, stratification, builders' label plumbing, manifest I/O, schemas."""

import concurrent.futures
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import emforge.synth.jamming as jamming
from emforge import builders, corpus, manifest, png, raster, views
from emforge.corpus import (
    ENCODER_THREAD_PREFIX,
    CorpusSpec,
    RecordError,
    BENCH_COMPOSITION,
    BENCH_COMPOSITION_TOTAL,
    assign_split,
    build_corpus,
    desk_scale_counts,
    stratified_bench,
    task_format_split,
)
from emforge.manifest import (
    VIEW_ORDER,
    ConfigError,
    ManifestRecord,
    gold_prediction,
    read_manifest,
    write_manifest,
)
from emforge.views import render_labels, render_view

# How far each jammer kind reaches either side of its centre, as a fraction
# of the sample rate (phase-code: its main lobe).
JAMMER_HALF_EXTENT = {
    "tone": 0.0,
    "multitone": jamming.MULTITONE_SPACING_FRACTION,
    "noise-band": jamming.NOISE_BAND_WIDTH_FRACTION / 2,
    "lfm-sweep": jamming.SWEEP_SPAN_FRACTION / 2,
    "phase-code": jamming.CHIP_RATE_FRACTION,
}

SMALL_GRIDS = {
    "SSD": (-10.0, 0.0, 10.0, 20.0),
    "SPE": (-20.0, 0.0, 20.0),
    "MR": (-20.0, 0.0, 18.0),
    "PR": (-20.0, 0.0, 18.0),
}


def _small_spec(**overrides):
    return CorpusSpec.default_desk(per_task=12, snr_grids=dict(SMALL_GRIDS), **overrides)


def _task_records(task, openqa, mcqa):
    """The records of a plan build of one task, sorted by sample_id, with no SNR promotion."""
    spec = _small_spec(per_bin_min=0)
    spec.counts = {task: (openqa, mcqa)}
    train, bench = build_corpus(spec, render=False)
    return sorted(train + bench, key=lambda r: r.sample_id)


def _oracle_largest_remainder(total):
    """Independent largest-remainder allocation over the 12 table cells."""
    cells = []
    for task, (openqa, mcqa) in BENCH_COMPOSITION.items():
        cells.append((task, "openqa", openqa))
        cells.append((task, "mcqa", mcqa))
    quotas = [(task, fmt, total * c / BENCH_COMPOSITION_TOTAL) for task, fmt, c in cells]
    alloc = {(task, fmt): int(q) for task, fmt, q in quotas}
    leftover = total - sum(alloc.values())
    by_fraction = sorted(
        enumerate(quotas), key=lambda p: (-(p[1][2] - int(p[1][2])), p[0])
    )
    for _, (task, fmt, _) in by_fraction[:leftover]:
        alloc[(task, fmt)] += 1
    return {
        task: (alloc[(task, "openqa")], alloc[(task, "mcqa")])
        for task in BENCH_COMPOSITION
    }


class TestDeskScaleCounts:
    def test_full_scale_reproduces_bench_table(self):
        assert desk_scale_counts(8458) == {
            "SPE": (2250, 750),
            "SSD": (1700, 300),
            "MR": (0, 500),
            "PR": (0, 500),
            "EI": (0, 458),
            "AJSD": (2000, 0),
        }

    def test_tenth_scale_against_oracle(self):
        got = desk_scale_counts(846)
        assert got == _oracle_largest_remainder(846)
        assert got["SPE"] == (225, 75)
        assert got["AJSD"] == (200, 0)
        assert sum(o + m for o, m in got.values()) == 846

    @pytest.mark.parametrize("total", [97, 600, 1234, 4229])
    def test_sums_and_oracle(self, total):
        got = desk_scale_counts(total)
        assert sum(o + m for o, m in got.values()) == total
        assert got == _oracle_largest_remainder(total)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_proportionality(self, k):
        got = desk_scale_counts(k * 8458)
        assert got == {t: (k * o, k * m) for t, (o, m) in BENCH_COMPOSITION.items()}

    def test_zero_and_tiny_totals_error(self):
        with pytest.raises(ValueError):
            desk_scale_counts(0)
        with pytest.raises(ValueError):
            desk_scale_counts(59)

    def test_smallest_total_that_covers_the_default_grids(self):
        # The README's floor for --total at the default 2 dB grids.
        with pytest.raises(ConfigError) as err:
            CorpusSpec.from_total(330).validate()
        assert err.value.field == "per_bin_min"
        CorpusSpec.from_total(331).validate()

    def test_task_format_split(self):
        assert task_format_split("MR", 100) == (0, 100)
        assert task_format_split("AJSD", 100) == (100, 0)
        assert task_format_split("SPE", 100) == (75, 25)
        assert task_format_split("SSD", 100) == (85, 15)


class TestAssignSplit:
    def test_stable(self):
        for sid in ("mr-00001", "spe-00042"):
            assert assign_split(sid, "salt", 0.2) == assign_split(sid, "salt", 0.2)

    def test_binomial_fraction(self):
        ids = [f"id-{i:06d}" for i in range(10000)]
        bench = sum(assign_split(sid, "emforge-split-v1", 0.1) == "bench" for sid in ids)
        assert abs(bench / 10000 - 0.10) <= 0.01

    def test_salt_changes_assignment(self):
        ids = [f"id-{i:04d}" for i in range(500)]
        a = [assign_split(sid, "salt-a", 0.5) for sid in ids]
        b = [assign_split(sid, "salt-b", 0.5) for sid in ids]
        assert a != b


class TestBuildTask:
    def test_mr_count_contract(self):
        records = _task_records("MR", 0, 22)
        assert len(records) == 22
        assert all(r.format == "MCQA" and len(r.options) == 5 for r in records)
        assert all("Unable to answer" in r.options for r in records)

    def test_ssd_covers_all_three_classes(self):
        records = _task_records("SSD", 9, 0)
        assert {r.ground_truth["segment_class"] for r in records} == {
            "radar",
            "communication",
            "noise",
        }

    def test_ssd_noise_records_unlabeled(self):
        for r in _task_records("SSD", 9, 0):
            if r.ground_truth["segment_class"] == "noise":
                assert r.snr_db is None
            else:
                assert r.snr_db in SMALL_GRIDS["SSD"]

    def test_spe_answer_equals_synthesis_parameter(self):
        for r in _task_records("SPE", 8, 0):
            gt = r.ground_truth
            assert gt["value"] == gt["pulse_spec"][gt["parameter"]]
            payload = r.answer.removeprefix("<value>").removesuffix("</value>")
            assert float(payload) == gt["value"]

    def test_ei_unlabeled_and_long_tailed(self):
        records = _task_records("EI", 0, 36)
        assert all(r.snr_db is None for r in records)
        counts = {}
        for r in records:
            counts[r.ground_truth["device_id"]] = counts.get(r.ground_truth["device_id"], 0) + 1
        sizes = sorted(counts.values(), reverse=True)
        assert sizes[0] > sizes[-1]  # long tail

    def test_ajsd_reference_matches_scene(self):
        records = _task_records("AJSD", 8, 0)
        noise_only = [r for r in records if r.ground_truth["noise_only"]]
        jammed = [r for r in records if not r.ground_truth["noise_only"]]
        assert noise_only and jammed
        for r in noise_only:
            assert "No jamming is detected" in r.answer
        for r in jammed:
            assert "detected" in r.answer and r.tag == "none"


class TestStratifiedBench:
    def _records(self, n, task="MR", grid=(-20.0, 0.0, 18.0)):
        recs = []
        for i in range(n):
            sid = f"{task.lower()}-{i:05d}"
            recs.append(
                ManifestRecord(
                    sample_id=sid,
                    task=task,
                    format="MCQA",
                    view_paths=("a", "b", "c", "d"),
                    question="q",
                    options=("1", "2", "3", "4", "Unable to answer"),
                    answer="A",
                    tag="answer",
                    snr_db=grid[i % len(grid)],
                    ground_truth={},
                    split=assign_split(sid, "s", 0.2),
                    content_hash="0" * 64,
                )
            )
        return recs

    def test_every_bin_represented(self):
        grid = (-20.0, 0.0, 18.0)
        records = self._records(30, grid=grid)
        bench_ids = stratified_bench(records, grid, per_bin_min=1)
        for snr in grid:
            assert any(r.sample_id in bench_ids and r.snr_db == snr for r in records)

    def test_per_bin_min_zero_is_noop(self):
        records = self._records(30)
        base = {r.sample_id for r in records if r.split == "bench"}
        assert stratified_bench(records, (-20.0, 0.0, 18.0), per_bin_min=0) == base

    def test_empty_bin_error_names_bin(self):
        records = self._records(30, grid=(-20.0, 0.0))
        with pytest.raises(ValueError, match="18 dB"):
            stratified_bench(records, (-20.0, 0.0, 18.0), per_bin_min=1)

    @pytest.mark.parametrize("task", ["SSD", "MR"])
    def test_validate_rejects_exactly_what_stratification_cannot_fill(self, task):
        # SSD's noise segments carry no SNR, so its bins fill slower than MR's.
        grid = SMALL_GRIDS[task]
        for n in range(1, 3 * len(grid) + 4):
            counts = (n, 0) if task == "SSD" else (0, n)
            records = _task_records(task, *counts)
            for per_bin_min in (1, 2, 3):
                spec = _small_spec(per_bin_min=per_bin_min)
                spec.counts = {task: counts}
                try:
                    stratified_bench(records, grid, per_bin_min)
                    fills = True
                except ValueError:
                    fills = False
                if fills:
                    spec.validate()
                else:
                    with pytest.raises(ConfigError, match=f"{task} SNR bin .* per_bin_min"):
                        spec.validate()


class TestBuildCorpus:
    def test_plan_build_leak_free_and_deterministic(self):
        spec = _small_spec()
        train_a, bench_a = build_corpus(spec, render=False)
        train_b, bench_b = build_corpus(spec, render=False)
        assert [r.to_dict() for r in train_a] == [r.to_dict() for r in train_b]
        assert [r.to_dict() for r in bench_a] == [r.to_dict() for r in bench_b]
        ids_train = {r.sample_id for r in train_a}
        ids_bench = {r.sample_id for r in bench_a}
        assert not ids_train & ids_bench
        hashes_train = {r.content_hash for r in train_a}
        hashes_bench = {r.content_hash for r in bench_a}
        assert not hashes_train & hashes_bench

    def test_snr_coverage_for_labeled_tasks(self):
        spec = _small_spec()
        _, bench = build_corpus(spec, render=False)
        for task in ("SSD", "SPE", "MR", "PR"):
            covered = {r.snr_db for r in bench if r.task == task and r.snr_db is not None}
            assert covered == set(SMALL_GRIDS[task]), task

    def test_ei_and_ajsd_not_stratified(self):
        spec = _small_spec()
        train, bench = build_corpus(spec, render=False)
        for r in train + bench:
            if r.task in ("EI", "AJSD"):
                assert r.snr_db is None
                assert r.split == assign_split(r.sample_id, spec.split_salt, spec.bench_fraction)

    def test_plan_hash_is_a_pure_redraft(self):
        """Every record, EI included, re-drafts from (task, index, format, spec) alone."""
        spec = _small_spec()
        train, bench = build_corpus(spec, render=False)
        assert {r.task for r in train + bench} == set(corpus.TASK_ORDER)
        for r in train + bench:
            index = int(r.sample_id.rsplit("-", 1)[1])
            draft = builders.draft_record(r.task, index, r.format, spec)
            want = hashlib.sha256(draft.signal.samples.tobytes() + b"\x00" + draft.answer.encode())
            assert r.content_hash == want.hexdigest(), r.sample_id
            assert r.answer == draft.answer

    def test_worker_pool_output_identical(self):
        spec = _small_spec()
        train_a, bench_a = build_corpus(spec, render=False, workers=1)
        train_b, bench_b = build_corpus(spec, render=False, workers=3)
        assert [r.to_dict() for r in train_a] == [r.to_dict() for r in train_b]
        assert [r.to_dict() for r in bench_a] == [r.to_dict() for r in bench_b]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected_before_writing(self, tmp_path, workers):
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="workers"):
            build_corpus(_small_spec(), out, workers=workers)
        assert not out.exists()


class TestRecordErrors:
    """A failure names its record, and no encoder thread outlives the build."""

    SPEC = {"counts": {"MR": [0, 4]}, "per_bin_min": 0}

    @staticmethod
    def _encoder_threads():
        return [t for t in threading.enumerate() if t.name.startswith(ENCODER_THREAD_PREFIX)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compress_failure_names_record(self, tmp_path, monkeypatch, workers):
        spec = CorpusSpec.from_dict(self.SPEC)
        draft = builders.draft_record("MR", 2, "MCQA", spec)
        params = corpus._render_params(spec, draft.constellation_stride)
        target = png.scanlines(render_view(draft.signal, "fft_spectrum", params))
        deflate = png.deflate_scanlines

        def failing(rows):
            if np.array_equal(rows, target):
                raise RuntimeError("injected compress failure")
            return deflate(rows)

        monkeypatch.setattr(png, "deflate_scanlines", failing)
        with pytest.raises(RecordError, match="^mr-00002: RuntimeError: injected") as err:
            build_corpus(spec, out_dir=str(tmp_path), workers=workers)
        assert err.value.sample_id == "mr-00002"
        assert not self._encoder_threads()

    @pytest.mark.parametrize("render", [True, False])
    def test_draft_failure_names_record(self, monkeypatch, render):
        spec = CorpusSpec.from_dict(self.SPEC)
        draft_record = builders.draft_record

        def failing(task, index, *args):
            if index == 1:
                raise ValueError("injected draft failure")
            return draft_record(task, index, *args)

        monkeypatch.setattr(builders, "draft_record", failing)
        with pytest.raises(RecordError, match="^mr-00001: ValueError: injected") as err:
            build_corpus(spec, render=render)
        assert err.value.sample_id == "mr-00001"
        assert not self._encoder_threads()


class TestWorkerShares:
    """`workers=N` runs the record loop once on each interleaved share of the
    jobs, in one worker process per non-empty share."""

    SPEC = {"counts": {"MR": [4, 8]}, "per_bin_min": 0}

    @pytest.fixture
    def pool(self, monkeypatch):
        """What an in-process stand-in for the process pool was asked to do."""
        seen = {"max_workers": [], "calls": []}

        class InProcessPool:
            def __init__(self, max_workers):
                seen["max_workers"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                calls = list(zip(*iterables))
                seen["calls"] += [(fn, args[0]) for args in calls]
                return [fn(*args) for args in calls]

        # build_corpus imports the pool class when it needs one, so it gets this one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return seen

    def _jobs(self, spec):
        return [job for task in corpus.TASK_ORDER for job in corpus._task_jobs(task, spec)]

    def test_each_worker_builds_every_nth_record_in_one_loop(self, pool):
        spec = CorpusSpec.from_dict(self.SPEC)
        jobs = self._jobs(spec)
        assert len(jobs) == 12
        assert build_corpus(spec, render=False, workers=2) == build_corpus(spec, render=False)
        assert pool["max_workers"] == [2]
        loop = corpus._build_records
        assert pool["calls"] == [(loop, jobs[0::2]), (loop, jobs[1::2])]

    def test_no_more_workers_than_records(self, pool):
        spec = CorpusSpec.from_dict(self.SPEC)
        jobs = self._jobs(spec)
        assert build_corpus(spec, render=False, workers=50) == build_corpus(spec, render=False)
        assert pool["max_workers"] == [12]
        assert pool["calls"] == [(corpus._build_records, [job]) for job in jobs]


def _tree(root: Path) -> dict:
    """Relative path -> bytes of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestEncoderThreads:
    """Encoder threads deflate every view; drafting, hashing and writing stay on the caller."""

    SPEC = {"counts": {"MR": [2, 4]}, "per_bin_min": 0}
    TIMEOUT_S = 10

    def test_views_deflate_on_encoder_threads_records_finish_on_the_caller(self, monkeypatch):
        spec = CorpusSpec.from_dict(self.SPEC)
        calls = {"deflate": [], "draft": [], "build_one": []}

        def on_thread(name, fn, delay=0.0):
            def recorded(*args, **kwargs):
                calls[name].append(threading.current_thread())
                time.sleep(delay)
                return fn(*args, **kwargs)

            return recorded

        # Slow deflates keep the encoders busy, so a loop that deflates on
        # the calling thread when they are busy does so here.
        slow_deflate = on_thread("deflate", png.deflate_scanlines, 0.02)
        monkeypatch.setattr(png, "deflate_scanlines", slow_deflate)
        monkeypatch.setattr(builders, "draft_record", on_thread("draft", builders.draft_record))
        monkeypatch.setattr(corpus, "_build_one", on_thread("build_one", corpus._build_one))
        train, bench = build_corpus(spec)

        records = len(train) + len(bench)
        assert len(calls["deflate"]) == 4 * records
        assert all(t.name.startswith(ENCODER_THREAD_PREFIX) for t in calls["deflate"])
        assert len({t.name for t in calls["deflate"]}) <= corpus._ENCODER_THREADS
        caller = threading.current_thread()
        assert calls["draft"] == [caller] * records
        assert calls["build_one"] == [caller] * records

    def test_held_first_record_writes_the_same_tree(self, tmp_path, monkeypatch):
        spec = CorpusSpec.from_dict(self.SPEC)
        want = build_corpus(spec, out_dir=str(tmp_path / "want"))
        first = builders.draft_record("MR", 0, "OpenQA", spec)
        params = corpus._render_params(spec, first.constellation_stride)
        held_rows = png.label_scanlines(*render_labels(first.signal, VIEW_ORDER[0], params))
        deflate = png.deflate_scanlines
        overtaken = threading.Event()
        held = []

        def gated(rows):
            if np.array_equal(rows, held_rows):
                held.append(rows)
                # The first record's first view waits until a view of a
                # later record is deflated; a loop that cannot run ahead
                # of its oldest record fails here.
                if not overtaken.wait(self.TIMEOUT_S):
                    raise RuntimeError("no later view was deflated while the first was held")
                return deflate(rows)
            data = deflate(rows)
            overtaken.set()
            return data

        monkeypatch.setattr(png, "deflate_scanlines", gated)
        got = build_corpus(spec, out_dir=str(tmp_path / "got"))
        assert len(held) == 1 and overtaken.is_set()
        assert got == want
        assert _tree(tmp_path / "got") == _tree(tmp_path / "want")


class TestBuildWritesRowsFromLabels:
    """A rendered build writes each view's PNG rows from its labels and never paints."""

    SPEC = {"counts": {"MR": [1, 1], "SPE": [1, 1]}, "per_bin_min": 0}

    @staticmethod
    def _drafts(spec):
        """(sample_id, draft, render params) of every record of `spec`."""
        for task in corpus.TASK_ORDER:
            for _, index, fmt in corpus._task_jobs(task, spec):
                draft = builders.draft_record(task, index, fmt, spec)
                params = corpus._render_params(spec, draft.constellation_stride)
                yield builders.record_id(task, index), draft, params

    def test_build_without_paint_writes_the_painted_pngs(self, tmp_path, monkeypatch):
        spec = CorpusSpec.from_dict(self.SPEC)
        want = build_corpus(spec, out_dir=str(tmp_path / "want"))

        def no_paint(*args):
            raise AssertionError("a rendered build painted a view")

        monkeypatch.setattr(raster, "paint", no_paint)
        monkeypatch.setattr(views, "paint", no_paint)
        got = build_corpus(spec, out_dir=str(tmp_path / "got"))
        one = corpus.build_record(spec, "spe-00001", tmp_path / "one")
        monkeypatch.undo()

        tree = _tree(tmp_path / "got")
        assert got == want
        assert tree == _tree(tmp_path / "want")
        assert _tree(tmp_path / "one") == {p: tree[p] for p in one.view_paths}
        # Every PNG holds the bytes encode_png writes for the painted view.
        for sample_id, draft, params in self._drafts(spec):
            for kind, rel_path in zip(VIEW_ORDER, manifest.canonical_view_paths(sample_id)):
                assert tree[rel_path] == png.encode_png(render_view(draft.signal, kind, params))

    def test_render_view_paints_render_labels(self):
        spec = CorpusSpec.from_dict(self.SPEC)
        for _, draft, params in self._drafts(spec):
            for kind in VIEW_ORDER:
                labels, palette = render_labels(draft.signal, kind, params)
                assert labels.shape == (spec.image_size, spec.image_size)
                assert labels.dtype in (np.bool_, np.uint8)
                assert palette.dtype == np.uint8 and palette.shape[1] == 3
                assert not palette.flags.writeable
                assert int(labels.max()) < len(palette)
                assert np.array_equal(
                    render_view(draft.signal, kind, params), raster.paint(labels, palette)
                )


class TestConfigValidation:
    def test_snr_grid_outside_paper_range(self):
        spec = _small_spec()
        spec.snr_grids["MR"] = (-30.0, 0.0)
        with pytest.raises(ConfigError) as err:
            spec.validate()
        assert err.value.field == "snr_grids"

    def test_bench_fraction_bounds(self):
        spec = _small_spec()
        spec.bench_fraction = 1.5
        with pytest.raises(ConfigError) as err:
            spec.validate()
        assert err.value.field == "bench_fraction"

    def test_ajsd_mcqa_rejected(self):
        spec = _small_spec()
        spec.counts["AJSD"] = (0, 5)
        with pytest.raises(ConfigError):
            spec.validate()

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError):
            CorpusSpec.from_dict({"ghost_field": 1})

    def test_gridded_task_without_grid_rejected_before_writing(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(ConfigError) as err:
            build_corpus(CorpusSpec(counts={"MR": (0, 4)}, snr_grids={}), out, render=False)
        assert err.value.field == "snr_grids"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["counts", "sample_rates"])
    def test_unknown_task_key_rejected(self, field):
        spec = CorpusSpec(counts={"MR": (0, 4)}, per_bin_min=0)
        getattr(spec, field)["mr"] = (0, 4) if field == "counts" else 2e6
        with pytest.raises(ConfigError, match="unknown task family 'mr'") as err:
            spec.validate()
        assert err.value.field == field

    def test_sample_rate_outside_window_only_matters_when_built(self):
        spec = CorpusSpec(counts={"MR": (0, 4)}, per_bin_min=0)
        spec.sample_rates["PR"] = 1e6
        spec.validate()
        spec.counts["PR"] = (0, 1)
        with pytest.raises(ConfigError) as err:
            spec.validate()
        assert err.value.field == "sample_rates"

    def test_sample_rate_window_edges_are_pinned(self):
        # The SSD and SPE edges derive from the builders' draw ranges; any
        # change to a range or to the derivation must show here, bit for bit.
        windows = builders.SAMPLE_RATE_WINDOWS_HZ
        assert all(type(edge) is float for window in windows.values() for edge in window)
        assert {
            task: tuple(float.hex(edge) for edge in window)
            for task, window in windows.items()
        } == {
            "SSD": ("0x1.e848000000000p+21", "0x1.e0c4ec4ec4ec6p+24"),
            "SPE": ("0x1.e848000000000p+20", "0x1.069ae4089ae40p+24"),
            "MR": ("0x1.cc31b9797657cp-995", "0x1.45f306dc9c882p+1015"),
            "PR": ("0x1.6e36000000000p+22", "inf"),
            "EI": ("0x1.0000000000000p-1022", "inf"),
            "AJSD": ("0x1.5cc5b6db6db6ep+23", "0x1.fffffffffffffp+517"),
        }

    @pytest.mark.parametrize("task", ["SSD", "SPE", "MR", "PR", "EI", "AJSD"])
    def test_sample_rate_window_edges_draw_whole_records(self, task):
        # Just inside each end of the window every draft has finite samples
        # and, for the radar tasks, a pulse train that fits the record. An
        # open top end is probed at the largest float.
        lo, hi = builders.SAMPLE_RATE_WINDOWS_HZ[task]
        fmt = "OpenQA" if task in ("SSD", "SPE", "AJSD") else "MCQA"
        samples = builders.MR_SAMPLES if task == "MR" else builders.SEGMENT_SAMPLES
        for rate in (lo * (1 + 1e-9), min(hi, sys.float_info.max)):
            spec = CorpusSpec.default_desk(global_seed=3)
            spec.sample_rates[task] = rate
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for index in range(24):
                    draft = builders.draft_record(task, index, fmt, spec)
                    assert len(draft.signal) == samples
                    # Every labelled jammer, centre and extent, stays inside the band.
                    for jammer in draft.ground_truth.get("jammers", ()):
                        reach = abs(jammer["center_offset_hz"])
                        reach += JAMMER_HALF_EXTENT[jammer["kind"]] * rate
                        assert reach < rate / 2, (index, jammer)

    def test_ei_device_count_beyond_the_inventory_rejected(self):
        spec = CorpusSpec(counts={"EI": (0, 40)}, ei_device_count=16)
        spec.validate()
        spec.ei_device_count = 17
        with pytest.raises(ConfigError) as err:
            spec.validate()
        assert err.value.field == "ei_device_count"

    def test_roundtrip_through_dict(self):
        spec = _small_spec()
        again = CorpusSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.to_dict() == spec.to_dict()


class TestManifestIo:
    def _records(self):
        return _task_records("MR", 0, 6)

    def test_roundtrip(self, tmp_path):
        records = self._records()
        path = tmp_path / "manifest.jsonl"
        write_manifest(records, path)
        back = read_manifest(path)
        assert [r.to_dict() for r in back] == [r.to_dict() for r in records]
        assert len(path.read_text().splitlines()) == len(records)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        records = self._records()[:2]
        write_manifest(records, path)
        with open(path, "a") as fh:
            fh.write("{broken\n")
        with pytest.raises(ValueError, match=":3:"):
            read_manifest(path)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_off_during_the_read_and_restored(self, tmp_path, monkeypatch, enabled):
        path = tmp_path / "manifest.jsonl"
        write_manifest(self._records()[:2], path)
        seen = []
        from_dict = ManifestRecord.from_dict

        def spy(data):
            seen.append(gc.isenabled())
            return from_dict(data)

        monkeypatch.setattr(ManifestRecord, "from_dict", staticmethod(spy))
        try:
            (gc.enable if enabled else gc.disable)()
            assert len(read_manifest(path)) == 2
            assert gc.isenabled() is enabled
            with open(path, "a") as fh:
                fh.write('{"sample_id": "x"}\n')
            with pytest.raises(ValueError, match=":3: malformed manifest line"):
                read_manifest(path)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == [False] * 5

    def test_record_invariants(self):
        with pytest.raises(ValueError, match="5 options"):
            ManifestRecord(
                "x", "MR", "MCQA", ("a", "b", "c", "d"), "q",
                ("1", "2"), "A", "answer", 0.0, {}, "train", "0" * 64,
            )

    def test_gold_prediction_forms(self):
        records = self._records()
        mcqa = records[0]
        assert gold_prediction(mcqa) == f"<answer>{mcqa.answer}</answer>"
        openqa = _task_records("SPE", 2, 0)[0]
        assert gold_prediction(openqa) == openqa.answer

    @pytest.mark.parametrize(
        "task,tag,answer,ok",
        [
            ("MR", "mode", "<mode>QPSK</mode>", True),
            ("MR", "mode", "<mode>two\nlines</mode>", True),
            ("MR", "mode", "QPSK", False),
            ("MR", "mode", "<mode></mode>", False),
            ("MR", "mode", "<mode>QPSK</mode> trailing", False),
            ("MR", "mode", "<segment>QPSK</segment>", False),
            ("SSD", "segment", "<segment>radar</segment>", True),
            ("AJSD", "none", "free text, no tag", True),
        ],
    )
    def test_openqa_answer_wrapped_in_its_tag(self, task, tag, answer, ok):
        args = ("x", task, "OpenQA", ("a", "b", "c", "d"), "q", None, answer, tag, None, {},
                "train", "0" * 64)
        if ok:
            ManifestRecord(*args)
        else:
            with pytest.raises(ValueError, match="tag-wrapped"):
                ManifestRecord(*args)


def _objects(value):
    """Every dict and list inside a ground_truth value, itself included."""
    found = []
    if isinstance(value, dict):
        found.append(value)
        for v in value.values():
            found += _objects(v)
    elif isinstance(value, list):
        found.append(value)
        for v in value:
            found += _objects(v)
    return found


class TestSharedManifestRecords:
    """read_manifest shares equal strings and options tuples, never a container."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        train, bench = build_corpus(_small_spec(), render=False)
        path = tmp_path_factory.mktemp("shared") / "manifest.jsonl"
        write_manifest(train + bench, path)
        return path

    def test_equal_values_are_one_object(self, manifest):
        records = read_manifest(manifest)
        assert {r.task for r in records} == set(corpus.TASK_ORDER)
        for name in ("task", "format", "tag", "split", "question", "answer", "options"):
            first = {}
            for r in records:
                value = getattr(r, name)
                if value is not None:
                    assert first.setdefault(value, value) is value, (name, r.sample_id)
            assert len(first) < len(records), name
        keys, strings = {}, {}
        for r in records:
            for obj in _objects(r.ground_truth):
                if isinstance(obj, dict):
                    for k, v in obj.items():
                        assert keys.setdefault(k, k) is k
                        if isinstance(v, str):
                            assert strings.setdefault(v, v) is v
        assert {"segment_class", "modulation", "jammers", "kind"} <= keys.keys()
        # Distinct option tuples still share their strings.
        unable = {id(o) for r in records if r.options for o in r.options if o == "Unable to answer"}
        assert len(unable) == 1

    def test_records_share_no_container(self, manifest):
        records, original = read_manifest(manifest), read_manifest(manifest)
        containers = [obj for r in records for obj in _objects(r.ground_truth)]
        assert len({id(obj) for obj in containers}) == len(containers)
        ajsd = next(r for r in records if r.task == "AJSD" and r.ground_truth["jammers"])
        ajsd.ground_truth["jammers"][0]["kind"] = "changed"
        ajsd.ground_truth["jammers"].append({})
        ajsd.ground_truth["added"] = 1
        records[0].ground_truth.clear()
        changed = [r.sample_id for r, o in zip(records, original) if r != o]
        assert changed == sorted([records[0].sample_id, ajsd.sample_id])
        assert read_manifest(manifest) == original

    def test_numbers_keep_their_types(self, tmp_path):
        # True == 1 == 1.0, so sharing numbers would hand one record another's type.
        row = {
            "sample_id": "ajsd-00000", "task": "AJSD", "format": "OpenQA",
            "view_paths": ["a", "b", "c", "d"], "question": "q", "options": None,
            "answer": "text", "tag": "none", "snr_db": None, "split": "bench",
            "content_hash": "0" * 64,
        }
        values = [True, 1, 1.0, "1", [1.0, True], {"1": 1}]
        path = tmp_path / "manifest.jsonl"
        path.write_text("".join(
            json.dumps({**row, "sample_id": f"ajsd-{i:05d}", "ground_truth": {"v": v}}) + "\n"
            for i, v in enumerate(values)
        ))
        got = [r.ground_truth["v"] for r in read_manifest(path)]
        assert got == values
        assert [type(v) for v in got] == [type(v) for v in values]
        assert [type(v) for v in got[4]] == [float, bool]
        assert type(got[5]["1"]) is int

    def test_deep_ground_truth_reads_as_deep_as_json_does(self, manifest, tmp_path):
        # Sharing rebuilds ground_truth recursively; it must not hit the
        # recursion limit before json.loads does.
        row = json.loads(manifest.read_text().splitlines()[0])
        del row["ground_truth"]
        nested = '{"k": [' * 300 + '"s"' + "]}" * 300  # 600 levels
        line = json.dumps(row)[:-1] + ', "ground_truth": ' + nested + "}"
        path = tmp_path / "manifest.jsonl"
        path.write_text(line + "\n")
        assert read_manifest(path)[0].ground_truth == json.loads(line)["ground_truth"]

    def test_write_of_read_reproduces_the_file(self, manifest, tmp_path):
        again = tmp_path / "again.jsonl"
        write_manifest(read_manifest(manifest), again)
        assert again.read_bytes() == manifest.read_bytes()

    def test_slotted_record_pickles_back_equal(self, manifest):
        records = read_manifest(manifest)
        assert not hasattr(records[0], "__dict__")
        with pytest.raises(AttributeError):
            records[0].extra = 1
        assert pickle.loads(pickle.dumps(records)) == records

    def test_two_worker_build_returns_equal_records(self):
        spec = _small_spec()
        assert build_corpus(spec, render=False, workers=2) == build_corpus(spec, render=False)

    def test_errors_name_path_and_line(self, manifest, tmp_path):
        lines = manifest.read_text().splitlines(keepends=True)
        path = tmp_path / "manifest.jsonl"
        bad_row = {**json.loads(lines[0]), "sample_id": "zz-00000", "question": 5}
        for extra, message in [
            (lines[1], "duplicate sample_id"),
            (json.dumps(bad_row) + "\n", r"malformed manifest line \(question must be a string\)"),
            ("[1, 2]\n", "malformed manifest line"),
        ]:
            path.write_text(lines[0] + lines[1] + extra)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: {message}"):
                read_manifest(path)

    def test_import_starts_no_process_machinery(self):
        # Only a multi-worker build needs multiprocessing; importing emforge loads none of it.
        code = (
            "import sys, emforge\n"
            "from emforge import builders, corpus, metrics, png\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
            " if m in sys.modules))\n"
        )
        src = str(Path(corpus.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


def _stored_paths(record):
    """What a record's view_paths slot holds: None for the canonical paths."""
    paths = manifest._STORED_VIEW_PATHS.__get__(record)
    return None if paths is manifest._CANONICAL else paths


class TestDerivedViewPaths:
    """A record stores view_paths only where they differ from images/<sample_id>_<view>.png."""

    @pytest.fixture(scope="class")
    def manifests(self, tmp_path_factory):
        """(canonical, custom): one plan build's manifest, and the same with other paths."""
        train, bench = build_corpus(_small_spec(), render=False)
        directory = tmp_path_factory.mktemp("paths")
        canonical, custom = directory / "canonical.jsonl", directory / "custom.jsonl"
        write_manifest(train + bench, canonical)
        # Same lengths, so only where the paths live differs between the two reads.
        custom.write_text(canonical.read_text().replace('"images/', '"IMAGES/'))
        return canonical, custom

    def test_canonical_paths_follow_the_sample_id(self):
        assert manifest.canonical_view_paths("mr-00042") == tuple(
            f"images/mr-00042_{kind}.png" for kind in VIEW_ORDER
        )

    def test_write_of_read_reproduces_either_manifest(self, manifests, tmp_path):
        for path in manifests:
            again = tmp_path / "again.jsonl"
            write_manifest(read_manifest(path), again)
            assert again.read_bytes() == path.read_bytes(), path.name

    def test_only_non_canonical_paths_are_stored(self, manifests):
        canonical, custom = map(read_manifest, manifests)
        assert all(_stored_paths(r) is None for r in canonical)
        assert all(_stored_paths(r) == r.view_paths for r in custom)
        assert all(r.view_paths[0].startswith("IMAGES/") for r in custom)
        assert [r.view_paths for r in canonical] == [
            manifest.canonical_view_paths(r.sample_id) for r in canonical
        ]

    def test_canonical_records_retain_no_path_strings(self, manifests):
        def retained_per_record(path):
            read_manifest(path)  # warm any import-time caches
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                records = read_manifest(path)
                return (tracemalloc.get_traced_memory()[0] - before) / len(records)
            finally:
                tracemalloc.stop()

        canonical, custom = map(retained_per_record, manifests)
        assert custom - canonical >= 300, (canonical, custom)

    def test_assigning_view_paths_updates_to_dict(self, manifests):
        record = read_manifest(manifests[0])[0]
        other = ("w.png", "x.png", "y.png", "z.png")
        record.view_paths = other
        assert record.to_dict()["view_paths"] == other
        record.view_paths = list(manifest.canonical_view_paths(record.sample_id))
        assert _stored_paths(record) is None
        assert record.to_dict()["view_paths"] == manifest.canonical_view_paths(record.sample_id)

    def test_canonical_and_stored_paths_compare_equal(self, manifests):
        record = read_manifest(manifests[0])[0]
        args = [getattr(record, name) for name in manifest.MANIFEST_FIELDS]
        assert ManifestRecord(*args) == record
        custom = read_manifest(manifests[1])[0]
        assert custom != record
        custom.view_paths = record.view_paths
        assert custom == record

    def test_pickling_keeps_records_equal_and_paths_derived(self, manifests):
        for path in manifests:
            records = read_manifest(path)
            back = pickle.loads(pickle.dumps(records))
            assert back == records
            assert [_stored_paths(r) for r in back] == [_stored_paths(r) for r in records]

    def test_pool_workers_return_records_without_stored_paths(self):
        # TestSharedManifestRecords checks that these records are == to a 1-worker build's.
        train, bench = build_corpus(_small_spec(), render=False, workers=2)
        assert all(_stored_paths(r) is None for r in train + bench)

    @pytest.mark.parametrize(
        "paths",
        ["abcd", ["a", "b", "c", 4], ["a", "b", "c"], None, {"a": 1, "b": 2, "c": 3, "d": 4}],
    )
    def test_malformed_paths_name_path_and_line(self, manifests, tmp_path, paths):
        lines = manifests[0].read_text().splitlines(keepends=True)
        bad_row = {**json.loads(lines[2]), "view_paths": paths}
        path = tmp_path / "manifest.jsonl"
        path.write_text(lines[0] + lines[1] + json.dumps(bad_row) + "\n")
        message = r"malformed manifest line \(view_paths must list exactly 4 view paths\)"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: {message}"):
            read_manifest(path)

    def test_a_non_string_sample_id_is_reported_as_such(self, manifests):
        row = json.loads(manifests[0].read_text().splitlines()[0])
        with pytest.raises(ValueError, match="^sample_id must be a string$"):
            ManifestRecord.from_dict({**row, "sample_id": 7})


def _schema_section(title: str) -> str:
    """The text of docs/manifest_schema.md's `## <title>` section, up to the next heading."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "manifest_schema.md").read_text("utf-8")
    return re.split(r"^#", doc.split(f"\n## {title}", 1)[1], maxsplit=1, flags=re.MULTILINE)[0]


class TestSchemas:
    """Each field list outside a dataclass matches the dataclass's fields."""

    def test_manifest_doc_table_lists_record_fields(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "manifest_schema.md").read_text("utf-8")
        table = doc.split("## Manifest records", 1)[1].split("###", 1)[0]
        names = re.findall(r"^\| `(\w+)`", table, re.MULTILINE)
        assert names == [f.name for f in dataclasses.fields(ManifestRecord)]

    def test_report_doc_lists_report_fields(self):
        section = _schema_section("Score report")
        names = re.findall(r"^\* `(\w+)`", section, re.MULTILINE)
        assert names == list(manifest._REPORT_TYPES)

    def test_per_record_doc_lists_outcome_row_keys(self):
        names = re.findall(r"`(\w+)`", _schema_section("Per-record outcomes"))
        tagged = manifest.Outcome("mr-00000", "MR", "MCQA", 0.0, True, True)
        free_text = manifest.Outcome("ajsd-00000", "AJSD", "OpenQA", None, True,
                                     text_scores=(1.0, 1.0, 0.5, None))
        assert list(dict.fromkeys(names)) == list(tagged.to_row() | free_text.to_row())

    def test_config_readers_cover_spec_fields(self):
        assert list(corpus._FIELD_READERS) == [f.name for f in dataclasses.fields(CorpusSpec)]
