"""Corpus building: the spec, counts, splits, stratification and the record loop.

The canonical benchmark composition (SPE 2250/750, SSD 1700/300,
MR -/500, PR -/500, EI -/458, AJSD 2000/-) scales to any total via
largest-remainder rounding. Split assignment hashes (salt, sample_id)
so it is stable under regeneration; SNR-stratified bench coverage then
promotes the lowest train sample_ids of any under-filled bin. The record
format and the manifest files are `emforge.manifest`'s.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import get_type_hints

from . import builders, manifest, png
from .builders import largest_remainder
from .manifest import ANSWER_TAGS, VIEW_ORDER, ConfigError, ManifestRecord, json_is

# perfbench's tracer patches builders.draft_record and, here, _build_one, render_view,
# encode_png, assign_split, stratified_bench and write_manifest by name, and it reads
# manifests through read_manifest here: keep them. The build itself calls neither
# render_view nor encode_png (it writes PNG rows straight from render_labels), so
# both are imported only for the tracer.
from .manifest import read_manifest, write_manifest  # noqa: F401
from .png import encode_png  # noqa: F401
from .views import (  # noqa: F401
    DEFAULT_IMAGE_SIZE,
    RenderParams,
    StftParams,
    render_labels,
    render_view,
)


# Per-task (OpenQA, MCQA) bench counts; the cell order fixes largest-
# remainder tie-breaking.
BENCH_COMPOSITION = {
    "SPE": (2250, 750),
    "SSD": (1700, 300),
    "MR": (0, 500),
    "PR": (0, 500),
    "EI": (0, 458),
    "AJSD": (2000, 0),
}
BENCH_COMPOSITION_TOTAL = sum(o + m for o, m in BENCH_COMPOSITION.values())

TASK_SNR_RANGES_DB = {
    "SSD": (-10.0, 20.0),
    "SPE": (-20.0, 20.0),
    "MR": (-20.0, 18.0),
    "PR": (-20.0, 18.0),
}

# Each default grid walks its task's SNR range in 2 dB steps.
DEFAULT_SNR_GRIDS = {
    task: tuple(float(s) for s in range(int(lo), int(hi) + 1, 2))
    for task, (lo, hi) in TASK_SNR_RANGES_DB.items()
}

DEFAULT_SAMPLE_RATES = {
    "SSD": 20e6,
    "SPE": 10e6,
    "MR": 1e6,
    "PR": 10e6,
    "EI": 10e6,
    "AJSD": 20e6,
}

DEFAULT_SPLIT_SALT = "emforge-split-v1"
TASK_ORDER = tuple(BENCH_COMPOSITION)

# Each build process runs one record loop with two PNG encoder threads for
# the whole build. The record thread drafts each record and hands the
# encoders one job per record, which renders, lays out and deflates its four
# views; it keeps at most _RECORDS_IN_FLIGHT records submitted and not yet
# written. In process a limit of 3, 4 or 6 gave the same wall time and 2 was
# slower.
_ENCODER_THREADS = 2
_RECORDS_IN_FLIGHT = 4
ENCODER_THREAD_PREFIX = "emforge-encode"


def desk_scale_counts(total: int) -> dict[str, tuple[int, int]]:
    """Scale the benchmark composition to `total` records.

    Largest-remainder rounding on the 12 (task, format) cells; exact
    multiples of the table total reproduce it exactly.
    """
    if total < 60:
        raise ConfigError("total", "must be >= 60 to populate every task cell")
    cells = [c for task in TASK_ORDER for c in BENCH_COMPOSITION[task]]
    quotas = [total * c / BENCH_COMPOSITION_TOTAL for c in cells]
    alloc = largest_remainder(quotas, total)
    return {task: (alloc[2 * i], alloc[2 * i + 1]) for i, task in enumerate(TASK_ORDER)}


def task_format_split(task: str, n: int) -> tuple[int, int]:
    """Split n records of one task into (OpenQA, MCQA) at its table ratio."""
    openqa, mcqa = BENCH_COMPOSITION[task]
    o, m = largest_remainder([n * openqa / (openqa + mcqa), n * mcqa / (openqa + mcqa)], n)
    return o, m


@dataclass
class CorpusSpec:
    """Everything that determines a corpus build, byte for byte."""

    global_seed: int = 20260810
    counts: dict = field(default_factory=dict)  # task -> (openqa, mcqa)
    snr_grids: dict = field(default_factory=lambda: dict(DEFAULT_SNR_GRIDS))
    sample_rates: dict = field(default_factory=lambda: dict(DEFAULT_SAMPLE_RATES))
    bench_fraction: float = 0.2
    split_salt: str = DEFAULT_SPLIT_SALT
    per_bin_min: int = 1
    image_size: int = DEFAULT_IMAGE_SIZE
    stft_window: int = StftParams.window_len
    stft_hop: int = StftParams.hop
    ei_device_count: int = 12

    @classmethod
    def default_desk(cls, per_task: int = 100, **overrides) -> "CorpusSpec":
        """Uniform per-task desk corpus; format mix follows the table ratios."""
        counts = {task: task_format_split(task, per_task) for task in TASK_ORDER}
        return cls(counts=counts, **overrides)

    @classmethod
    def from_total(cls, total: int, **overrides) -> "CorpusSpec":
        """Table-proportional corpus of `total` records."""
        return cls(counts=desk_scale_counts(total), **overrides)

    def validate(self) -> None:
        for name in ("counts", "sample_rates"):
            for task in getattr(self, name):
                if task not in TASK_ORDER:
                    raise ConfigError(name, f"unknown task family {task!r}")
        for task, pair in self.counts.items():
            if len(pair) != 2 or any(int(c) < 0 for c in pair):
                raise ConfigError("counts", f"{task} counts must be two nonnegative integers")
        if self.counts.get("AJSD", (0, 0))[1] > 0:
            raise ConfigError("counts", "AJSD supports OpenQA only")
        if not 0.0 < self.bench_fraction < 1.0:
            raise ConfigError("bench_fraction", "must lie in (0, 1)")
        if self.per_bin_min < 0:
            raise ConfigError("per_bin_min", "must be nonnegative")
        built = {task for task, pair in self.counts.items() if sum(int(c) for c in pair)}
        if "EI" in built:
            if self.ei_device_count < 4:
                raise ConfigError("ei_device_count", "need >= 4 devices for MCQA distractors")
            try:
                builders.make_device_profiles(self.ei_device_count)
            except ValueError as exc:
                raise ConfigError(
                    "ei_device_count", f"cannot make {self.ei_device_count} devices ({exc})"
                ) from exc
        if not self.split_salt:
            raise ConfigError("split_salt", "must be nonempty")
        for task, grid in self.snr_grids.items():
            if task not in TASK_SNR_RANGES_DB:
                raise ConfigError("snr_grids", f"{task} does not take an SNR grid")
            if not grid or not all(map(math.isfinite, grid)) or list(grid) != sorted(grid):
                raise ConfigError(
                    "snr_grids", f"{task} grid must be a sorted nonempty list of finite values"
                )
            lo, hi = TASK_SNR_RANGES_DB[task]
            if grid[0] < lo or grid[-1] > hi:
                raise ConfigError(
                    "snr_grids", f"{task} grid must stay within [{lo:g}, {hi:g}] dB"
                )
        for task in TASK_SNR_RANGES_DB:
            if task in built and task not in self.snr_grids:
                raise ConfigError("snr_grids", f"{task} records need an SNR grid")
        for task in TASK_ORDER:
            rate = self.sample_rates.get(task, 0)
            lo, hi = builders.SAMPLE_RATE_WINDOWS_HZ[task] if task in built else (0.0, math.inf)
            if not (math.isfinite(rate) and lo < rate <= hi):
                window = f"({lo / 1e6:.4g}, {hi / 1e6:.4g}] MHz"
                raise ConfigError("sample_rates", f"{task} needs a finite rate in {window}")
        try:
            stft = StftParams(self.stft_window, self.stft_hop)
        except ValueError as exc:
            raise ConfigError("stft_window/stft_hop", str(exc)) from exc
        samples = builders.MR_SAMPLES if "MR" in built else builders.SEGMENT_SAMPLES
        if self.stft_window > samples:
            raise ConfigError(
                "stft_window", f"must not exceed the {samples} samples of the shortest record built"
            )
        try:
            RenderParams(size=self.image_size, stft=stft)
        except ValueError as exc:
            raise ConfigError("image_size", str(exc)) from exc
        # Stratification needs per_bin_min records in every SNR bin of a built task.
        for task, grid in self.snr_grids.items():
            n = sum(int(c) for c in self.counts.get(task, (0, 0)))
            if not (n and self.per_bin_min):
                continue
            held = Counter(builders.record_snr(task, i, grid) for i in range(n))
            for snr in grid:
                if held[snr] < self.per_bin_min:
                    raise ConfigError(
                        "per_bin_min",
                        f"{task} SNR bin {snr:g} dB would hold {held[snr]} of {n} {task} "
                        f"records, fewer than per_bin_min={self.per_bin_min}",
                    )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusSpec":
        if not isinstance(data, dict):
            raise ConfigError("config", f"a config is a JSON object, not {type(data).__name__}")
        for key in data:
            if key not in _FIELD_READERS:
                raise ConfigError(key, "unknown config field")
        merged = cls.default_desk().to_dict() | data
        values = {}
        for name, read in _FIELD_READERS.items():
            try:
                values[name] = read(merged[name])
            except (TypeError, ValueError, AttributeError) as exc:
                raise ConfigError(name, f"cannot read {merged[name]!r} ({exc})") from exc
        return cls(**values)


def _reader(kind):
    def read(value):
        if not json_is(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return kind(value)

    return read


_int, _float, _object = _reader(int), _reader(float), _reader(dict)

# Config field -> reader from its JSON value: the `_reader` of each scalar
# field's declared type, and for the per-task maps a hand-written reader. counts replaces the
# whole map (it defines what to build); grids and rates merge per task onto
# the defaults.
_FIELD_READERS = {name: _reader(kind) for name, kind in get_type_hints(CorpusSpec).items()} | {
    "counts": lambda m: {t: tuple(map(_int, pair)) for t, pair in _object(m).items()},
    "snr_grids": lambda m: {
        t: tuple(map(_float, g)) for t, g in (DEFAULT_SNR_GRIDS | _object(m)).items()
    },
    "sample_rates": lambda m: {
        t: _float(r) for t, r in (DEFAULT_SAMPLE_RATES | _object(m)).items()
    },
}


def assign_split(sample_id: str, salt: str, bench_fraction: float) -> str:
    """Deterministic hash split, stable under corpus regeneration."""
    import hashlib  # here, so commands that hash nothing never load OpenSSL

    digest = hashlib.sha256(f"{salt}\x1f{sample_id}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    return "bench" if u < bench_fraction else "train"


def stratified_bench(records, snr_grid, per_bin_min: int) -> set[str]:
    """Bench sample_ids for one task after SNR-coverage promotion.

    Starts from the records' hash-assigned split; any grid bin with fewer
    than per_bin_min bench items promotes its lowest train sample_ids. A
    bin holding fewer than per_bin_min records raises ValueError.
    Unlabeled records (snr_db None) keep their hash assignment.
    """
    bench_ids = {r.sample_id for r in records if r.split == "bench"}
    for snr in snr_grid:
        in_bin = sorted((r.sample_id for r in records if r.snr_db == snr))
        if len(in_bin) < per_bin_min:
            task = records[0].task if records else "?"
            raise ValueError(
                f"{task} SNR bin {snr:g} dB holds {len(in_bin)} records, "
                f"fewer than per_bin_min={per_bin_min}"
            )
        have = sum(1 for sid in in_bin if sid in bench_ids)
        if have < per_bin_min:
            candidates = [sid for sid in in_bin if sid not in bench_ids]
            bench_ids.update(candidates[: per_bin_min - have])
    return bench_ids


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def _render_params(spec: CorpusSpec, stride: int) -> RenderParams:
    return RenderParams(
        size=spec.image_size,
        stft=StftParams(spec.stft_window, spec.stft_hop),
        constellation_stride=stride,
    )


class RecordError(RuntimeError):
    """A record failed to build; the message starts with its sample_id."""

    def __init__(self, sample_id: str, reason: str):
        # Both values stay in args so the error pickles back from a pool worker.
        super().__init__(sample_id, reason)
        self.sample_id = sample_id

    def __str__(self) -> str:
        return f"{self.args[0]}: {self.args[1]}"


@contextmanager
def _naming(sample_id: str):
    """Re-raise a failure inside as a RecordError naming `sample_id`."""
    try:
        yield
    except RecordError:
        raise
    except Exception as exc:
        raise RecordError(sample_id, f"{type(exc).__name__}: {exc}") from exc


def _build_one(sample_id: str, task: str, fmt: str, draft, spec: CorpusSpec, out_dir, pngs):
    """Hash one drafted record, write its PNGs, and assemble its manifest record.

    `pngs` holds the four PNG byte strings in VIEW_ORDER, or None in plan
    mode, which hashes the raw IQ content the views derive from instead.
    """
    import hashlib  # here, so commands that hash nothing never load OpenSSL

    paths = manifest.canonical_view_paths(sample_id)
    hasher = hashlib.sha256()
    if pngs is None:
        hasher.update(draft.signal.samples)
    else:
        for rel_path, data in zip(paths, pngs):
            hasher.update(data)
            if out_dir is not None:
                with open(os.path.join(out_dir, rel_path), "wb") as fh:
                    fh.write(data)
    hasher.update(b"\x00")
    hasher.update(draft.answer.encode())

    return ManifestRecord(
        sample_id=sample_id,
        task=task,
        format=fmt,
        view_paths=paths,
        question=draft.question,
        options=draft.options,
        answer=draft.answer,
        tag=ANSWER_TAGS[task, fmt].value,
        snr_db=draft.snr_db,
        ground_truth=draft.ground_truth,
        split=assign_split(sample_id, spec.split_salt, spec.bench_fraction),
        content_hash=hasher.hexdigest(),
    )


def _encode_views(draft, spec: CorpusSpec) -> list:
    """The PNG byte strings of a drafted record's four views, in VIEW_ORDER."""
    params = _render_params(spec, draft.constellation_stride)
    return [
        png.deflate_scanlines(png.label_scanlines(*render_labels(draft.signal, kind, params)))
        for kind in VIEW_ORDER
    ]


def _drafted(jobs, spec: CorpusSpec):
    """(sample_id, task, format, draft) of each job in order; a failed draft names its record."""
    for task, index, fmt in jobs:
        sample_id = builders.record_id(task, index)
        with _naming(sample_id):
            draft = builders.draft_record(task, index, fmt, spec)
        yield sample_id, task, fmt, draft


def _finished(args, encoded, spec: CorpusSpec, out_dir) -> ManifestRecord:
    """`_build_one` of drafted `args`, on the PNG bytes the future `encoded`
    holds, or on none in plan mode; a failure of either names the record."""
    with _naming(args[0]):
        return _build_one(*args, spec, out_dir, None if encoded is None else encoded.result())


def _build_records(jobs, spec: CorpusSpec, out_dir, render: bool) -> list:
    """The record loop of a build process: one ManifestRecord per job, in job order.

    This thread drafts, hashes and writes every record, so
    `builders.draft_record` and `_build_one` always run on it (perfbench's
    tracer wraps both and keeps one span stack for every thread). Plan mode
    starts no thread. A rendered build opens one pool of two encoder
    threads for all of `jobs`, and each drafted record becomes one job that
    renders its views' labels, writes PNG scanlines straight from them and
    deflates them, in VIEW_ORDER. With _RECORDS_IN_FLIGHT records submitted,
    this thread writes the oldest before it drafts the next. Each view is
    encoded on its own by the same functions, whichever encoder runs it, so
    no output byte depends on the threads. Any failure re-raises as a
    RecordError naming its record; the `with` block joins the encoders on
    every exit.
    """
    drafted = _drafted(jobs, spec)
    if not render:
        return [_finished(args, None, spec, out_dir) for args in drafted]
    with ThreadPoolExecutor(_ENCODER_THREADS, thread_name_prefix=ENCODER_THREAD_PREFIX) as encoder:
        in_flight, records = deque(), []
        for args in drafted:
            in_flight.append((args, encoder.submit(_encode_views, args[3], spec)))
            if len(in_flight) == _RECORDS_IN_FLIGHT:
                records.append(_finished(*in_flight.popleft(), spec, out_dir))
        return records + [_finished(*job, spec, out_dir) for job in in_flight]


def _task_jobs(task: str, spec: CorpusSpec):
    openqa, mcqa = spec.counts.get(task, (0, 0))
    return [(task, i, "OpenQA" if i < openqa else "MCQA") for i in range(openqa + mcqa)]


def build_record(spec: CorpusSpec, sample_id: str, out_dir) -> ManifestRecord:
    """Build one record of the corpus `spec` defines, writing its four PNGs
    under out_dir/images.

    The PNGs and the record are those build_corpus makes for `sample_id`,
    except `split`, which stays the hash assignment: stratifying the whole
    task may still promote the record to bench. An id that names no record
    of `spec` raises ConfigError before anything is created.
    """
    spec.validate()
    jobs = [
        job
        for task in TASK_ORDER
        for job in _task_jobs(task, spec)
        if builders.record_id(task, job[1]) == sample_id
    ]
    if not jobs:
        raise ConfigError("sample-id", f"{sample_id!r} names no record of this corpus")
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    return _build_records(jobs, spec, out_dir, render=True)[0]


def build_corpus(spec: CorpusSpec, out_dir=None, workers: int = 1, render: bool = True):
    """Build every task, stratify the bench, and write the two manifests.

    Returns (train_records, bench_records). With `workers` N > 1 and more
    than one record, min(N, records) worker processes each run the record
    loop once, on every N-th job. Output is independent of the worker
    count: records are pure functions of (spec, sample_id) and the
    manifests are sorted. Fewer than one worker raises ConfigError before
    anything is written.
    """
    if workers < 1:
        raise ConfigError("workers", f"need at least 1 worker process, got {workers}")
    spec.validate()
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)

    jobs = [job for task in TASK_ORDER for job in _task_jobs(task, spec)]
    shares = [jobs[i::workers] for i in range(min(workers, len(jobs)))]
    if len(shares) > 1:
        # One worker process per share, each running the record loop once
        # with its own two encoder threads. This process starts no encoder
        # thread, so none is alive when the pool forks its workers.
        # Imported here: multiprocessing costs every other command its import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            parts = pool.map(_build_records, shares, repeat(spec), repeat(out_dir), repeat(render))
            records = [record for part in parts for record in part]
    else:
        records = _build_records(jobs, spec, out_dir, render)

    for task, grid in spec.snr_grids.items():
        task_records = [r for r in records if r.task == task]
        if task_records:
            bench_ids = stratified_bench(task_records, grid, spec.per_bin_min)
            for record in task_records:
                record.split = "bench" if record.sample_id in bench_ids else "train"

    records.sort(key=lambda r: r.sample_id)
    train = [r for r in records if r.split == "train"]
    bench = [r for r in records if r.split == "bench"]
    if out_dir is not None:
        write_manifest(train, os.path.join(out_dir, "manifest_train.jsonl"))
        write_manifest(bench, os.path.join(out_dir, "manifest_bench.jsonl"))
        with open(os.path.join(out_dir, "config_used.json"), "w", encoding="utf-8") as fh:
            json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return train, bench

