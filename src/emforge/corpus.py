"""Corpus orchestration: counts, splits, stratification, and manifest I/O.

The canonical benchmark composition (SPE 2250/750, SSD 1700/300,
MR -/500, PR -/500, EI -/458, AJSD 2000/-) scales to any total via
largest-remainder rounding. Split assignment hashes (salt, sample_id)
so it is stable under regeneration; SNR-stratified bench coverage then
promotes the lowest train sample_ids of any under-filled bin.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

from . import builders, png
from .instrgen import OPTION_LETTERS, TASK_TAGS, TagKind, UNABLE_TO_ANSWER

# perfbench's tracer patches builders.draft_record and, here, _build_one, render_view,
# encode_png, assign_split, stratified_bench and write_manifest by name: keep them.
from .views import RenderParams, StftParams, VIEW_ORDER, encode_png, render_view  # noqa: F401


class TaskFamily(str, Enum):
    SSD = "SSD"
    SPE = "SPE"
    MR = "MR"
    PR = "PR"
    EI = "EI"
    AJSD = "AJSD"


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

DEFAULT_SNR_GRIDS = {
    "SSD": tuple(float(s) for s in range(-10, 21, 2)),
    "SPE": tuple(float(s) for s in range(-20, 21, 2)),
    "MR": tuple(float(s) for s in range(-20, 19, 2)),
    "PR": tuple(float(s) for s in range(-20, 19, 2)),
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

# Each build process runs one PNG encoder thread, with one view queued
# behind the view it compresses: more threads or a deeper queue bought no
# wall time and cost memory. Pool workers take jobs in chunks.
_ENCODER_THREADS = 1
_QUEUED_VIEWS = 1
_POOL_CHUNK = 8
ENCODER_THREAD_PREFIX = "emforge-encode"


class ConfigError(ValueError):
    """Invalid corpus configuration; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def _largest_remainder(quotas: list[float], total: int) -> list[int]:
    floors = [int(q) for q in quotas]
    remainder = total - sum(floors)
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - floors[i]), i))
    for i in order[:remainder]:
        floors[i] += 1
    return floors


def desk_scale_counts(total: int) -> dict[str, tuple[int, int]]:
    """Scale the benchmark composition to `total` records.

    Largest-remainder rounding on the 12 (task, format) cells; exact
    multiples of the table total reproduce it exactly.
    """
    if total < 60:
        raise ConfigError("total", "must be >= 60 to populate every task cell")
    cells = [c for task in TASK_ORDER for c in BENCH_COMPOSITION[task]]
    quotas = [total * c / BENCH_COMPOSITION_TOTAL for c in cells]
    alloc = _largest_remainder(quotas, total)
    return {task: (alloc[2 * i], alloc[2 * i + 1]) for i, task in enumerate(TASK_ORDER)}


def task_format_split(task: str, n: int) -> tuple[int, int]:
    """Split n records of one task into (OpenQA, MCQA) at its table ratio."""
    openqa, mcqa = BENCH_COMPOSITION[task]
    if openqa == 0:
        return 0, n
    if mcqa == 0:
        return n, 0
    quotas = [n * openqa / (openqa + mcqa), n * mcqa / (openqa + mcqa)]
    o, m = _largest_remainder(quotas, n)
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
    image_size: int = 384
    stft_window: int = 256
    stft_hop: int = 64
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
        for task in self.counts:
            if task not in TASK_ORDER:
                raise ConfigError("counts", f"unknown task family {task!r}")
        for task, pair in self.counts.items():
            if len(pair) != 2 or any(int(c) < 0 for c in pair):
                raise ConfigError("counts", f"{task} counts must be two nonnegative integers")
        if self.counts.get("AJSD", (0, 0))[1] > 0:
            raise ConfigError("counts", "AJSD supports OpenQA only")
        if not 0.0 < self.bench_fraction < 1.0:
            raise ConfigError("bench_fraction", "must lie in (0, 1)")
        if self.per_bin_min < 0:
            raise ConfigError("per_bin_min", "must be nonnegative")
        if self.ei_device_count < 4:
            raise ConfigError("ei_device_count", "need >= 4 devices for MCQA distractors")
        if not self.split_salt:
            raise ConfigError("split_salt", "must be nonempty")
        for task, grid in self.snr_grids.items():
            if task not in TASK_SNR_RANGES_DB:
                raise ConfigError("snr_grids", f"{task} does not take an SNR grid")
            if not grid or list(grid) != sorted(grid):
                raise ConfigError("snr_grids", f"{task} grid must be a sorted nonempty list")
            lo, hi = TASK_SNR_RANGES_DB[task]
            if grid[0] < lo or grid[-1] > hi:
                raise ConfigError(
                    "snr_grids", f"{task} grid must stay within [{lo:g}, {hi:g}] dB"
                )
        for task in TASK_ORDER:
            if self.sample_rates.get(task, 0) <= 0:
                raise ConfigError("sample_rates", f"{task} needs a positive sample rate")
        try:
            stft = StftParams(self.stft_window, self.stft_hop)
        except ValueError as exc:
            raise ConfigError("stft_window/stft_hop", str(exc)) from exc
        if self.stft_window > builders.MR_SAMPLES:
            raise ConfigError(
                "stft_window", f"must not exceed the {builders.MR_SAMPLES} samples of an MR record"
            )
        try:
            RenderParams(size=self.image_size, stft=stft)
        except ValueError as exc:
            raise ConfigError("image_size", str(exc)) from exc

    def to_dict(self) -> dict:
        return {
            "global_seed": self.global_seed,
            "counts": {t: list(c) for t, c in self.counts.items()},
            "snr_grids": {t: list(g) for t, g in self.snr_grids.items()},
            "sample_rates": dict(self.sample_rates),
            "bench_fraction": self.bench_fraction,
            "split_salt": self.split_salt,
            "per_bin_min": self.per_bin_min,
            "image_size": self.image_size,
            "stft_window": self.stft_window,
            "stft_hop": self.stft_hop,
            "ei_device_count": self.ei_device_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusSpec":
        for key in data:
            if key not in _FIELD_READERS:
                raise ConfigError(key, "unknown config field")
        merged = cls.default_desk().to_dict() | data
        fields = {}
        for name, read in _FIELD_READERS.items():
            try:
                fields[name] = read(merged[name])
            except (TypeError, ValueError, AttributeError) as exc:
                raise ConfigError(name, f"cannot read {merged[name]!r} ({exc})") from exc
        return cls(**fields)


# Config field -> reader from its JSON value. counts replaces the whole
# per-task map (it defines what to build); grids and rates merge per task
# onto the defaults.
_FIELD_READERS = {
    "global_seed": int,
    "counts": lambda m: {t: tuple(int(c) for c in pair) for t, pair in m.items()},
    "snr_grids": lambda m: {
        t: tuple(float(s) for s in g) for t, g in (DEFAULT_SNR_GRIDS | dict(m)).items()
    },
    "sample_rates": lambda m: {t: float(r) for t, r in (DEFAULT_SAMPLE_RATES | dict(m)).items()},
    "bench_fraction": float,
    "split_salt": str,
    "per_bin_min": int,
    "image_size": int,
    "stft_window": int,
    "stft_hop": int,
    "ei_device_count": int,
}


MANIFEST_FIELDS = (
    "sample_id",
    "task",
    "format",
    "view_paths",
    "question",
    "options",
    "answer",
    "tag",
    "snr_db",
    "ground_truth",
    "split",
    "content_hash",
)


@dataclass
class ManifestRecord:
    sample_id: str
    task: str
    format: str
    view_paths: tuple
    question: str
    options: tuple | None
    answer: str
    tag: str
    snr_db: float | None
    ground_truth: dict
    split: str
    content_hash: str

    def __post_init__(self):
        if len(self.view_paths) != 4:
            raise ValueError("records reference exactly 4 views")
        if self.format == "MCQA":
            if self.options is None or len(self.options) != 5:
                raise ValueError("MCQA records carry exactly 5 options")
            if UNABLE_TO_ANSWER not in self.options:
                raise ValueError(f'MCQA options must include "{UNABLE_TO_ANSWER}"')
            if self.answer not in OPTION_LETTERS:
                raise ValueError("MCQA answer must be an option letter")
            if self.tag != TagKind.ANSWER.value:
                raise ValueError("MCQA records use the answer tag")
        else:
            if self.options is not None:
                raise ValueError("OpenQA records carry no options")
            if self.tag != TASK_TAGS[self.task].value:
                raise ValueError(f"{self.task} OpenQA records use the {TASK_TAGS[self.task].value} tag")
            if self.tag != TagKind.NONE.value and not re.fullmatch(
                rf"<{self.tag}>.+</{self.tag}>", self.answer, re.DOTALL
            ):
                raise ValueError("tagged OpenQA answers must be tag-wrapped")
        if self.split not in ("train", "bench"):
            raise ValueError("split must be 'train' or 'bench'")

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "task": self.task,
            "format": self.format,
            "view_paths": list(self.view_paths),
            "question": self.question,
            "options": None if self.options is None else list(self.options),
            "answer": self.answer,
            "tag": self.tag,
            "snr_db": self.snr_db,
            "ground_truth": self.ground_truth,
            "split": self.split,
            "content_hash": self.content_hash,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ManifestRecord":
        missing = [k for k in MANIFEST_FIELDS if k not in data]
        if missing:
            raise ValueError(f"missing fields: {', '.join(missing)}")
        return cls(
            sample_id=data["sample_id"],
            task=data["task"],
            format=data["format"],
            view_paths=tuple(data["view_paths"]),
            question=data["question"],
            options=None if data["options"] is None else tuple(data["options"]),
            answer=data["answer"],
            tag=data["tag"],
            snr_db=data["snr_db"],
            ground_truth=data["ground_truth"],
            split=data["split"],
            content_hash=data["content_hash"],
        )


def assign_split(sample_id: str, salt: str, bench_fraction: float) -> str:
    """Deterministic hash split, stable under corpus regeneration."""
    digest = hashlib.sha256(f"{salt}\x1f{sample_id}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    return "bench" if u < bench_fraction else "train"


def stratified_bench(records, snr_grid, per_bin_min: int) -> set[str]:
    """Bench sample_ids for one task after SNR-coverage promotion.

    Starts from the records' hash-assigned split; any grid bin with fewer
    than per_bin_min bench items promotes its lowest train sample_ids.
    Unlabeled records (snr_db None) keep their hash assignment.
    """
    bench_ids = {r.sample_id for r in records if r.split == "bench"}
    if per_bin_min == 0:
        return bench_ids
    for snr in snr_grid:
        in_bin = sorted((r.sample_id for r in records if r.snr_db == snr))
        if not in_bin:
            task = records[0].task if records else "?"
            raise ValueError(f"SNR bin {snr:g} dB has no {task} records")
        have = sum(1 for sid in in_bin if sid in bench_ids)
        if have >= per_bin_min:
            continue
        candidates = [sid for sid in in_bin if sid not in bench_ids]
        need = per_bin_min - have
        if need > len(candidates):
            raise ValueError(
                f"SNR bin {snr:g} dB holds only {len(in_bin)} records; "
                f"cannot reach per_bin_min={per_bin_min}"
            )
        bench_ids.update(candidates[:need])
    return bench_ids


def gold_prediction(record: ManifestRecord) -> str:
    """The prediction text a perfect model would emit for this record."""
    if record.format == "MCQA":
        return f"<answer>{record.answer}</answer>"
    return record.answer


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def _render_params(spec: CorpusSpec, stride: int) -> RenderParams:
    return RenderParams(
        size=spec.image_size,
        stft=StftParams(spec.stft_window, spec.stft_hop),
        constellation_stride=stride,
    )


def _view_paths(sample_id: str) -> tuple:
    return tuple(f"images/{sample_id}_{kind.value}.png" for kind in VIEW_ORDER)


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
    paths = _view_paths(sample_id)
    hasher = hashlib.sha256()
    if pngs is None:
        hasher.update(draft.signal.samples.tobytes())
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
        tag=draft.tag,
        snr_db=draft.snr_db,
        ground_truth=draft.ground_truth,
        split=assign_split(sample_id, spec.split_salt, spec.bench_fraction),
        content_hash=hasher.hexdigest(),
    )


def _build_records(jobs, spec: CorpusSpec, out_dir, render: bool) -> list:
    """The record loop of every build: one ManifestRecord per job, in job order.

    A rendered build is a two-stage pipeline. This thread drafts each
    record, renders its views and lays out their PNG scanlines; one
    encoder thread compresses view k while view k+1 renders, with at
    most one view queued behind it. The PNG bytes come back in
    VIEW_ORDER and are hashed and written on this thread, so no output
    byte depends on the encoder. Plan mode renders nothing and starts no
    thread. Any failure re-raises as a RecordError naming its record,
    and the encoder thread is joined on every exit.
    """
    records = []
    pending = deque()  # (record args, futures) of unfinished records, in job order

    def settle(limit: int) -> None:
        # Wait until at most `limit` views are still compressing or queued,
        # then finish every leading record whose four PNGs are done.
        unfinished = [f for _, futures in pending for f in futures if not f.done()]
        wait(unfinished[: max(0, len(unfinished) - limit)])
        while pending:
            args, futures = pending[0]
            if len(futures) < len(VIEW_ORDER) or not all(f.done() for f in futures):
                break
            pending.popleft()
            with _naming(args[0]):
                pngs = [f.result() for f in futures]
                records.append(_build_one(*args, spec, out_dir, pngs))

    encoder = (
        ThreadPoolExecutor(max_workers=_ENCODER_THREADS, thread_name_prefix=ENCODER_THREAD_PREFIX)
        if render
        else None
    )
    try:
        for task, index, fmt, ei_plan in jobs:
            sample_id = builders.record_id(task, index)
            with _naming(sample_id):
                draft = builders.draft_record(task, index, fmt, spec, ei_plan)
                args = (sample_id, task, fmt, draft)
                if encoder is None:
                    records.append(_build_one(*args, spec, out_dir, None))
                    continue
                futures = []
                pending.append((args, futures))
                params = _render_params(spec, draft.constellation_stride)
                for kind in VIEW_ORDER:
                    rows = png.scanlines(render_view(draft.signal, kind, params).pixels)
                    settle(_QUEUED_VIEWS)
                    futures.append(encoder.submit(png.deflate_scanlines, rows))
        settle(0)
    finally:
        if encoder is not None:
            encoder.shutdown(wait=True, cancel_futures=True)
    return records


def _task_jobs(task: str, spec: CorpusSpec):
    openqa, mcqa = spec.counts.get(task, (0, 0))
    formats = ["OpenQA"] * openqa + ["MCQA"] * mcqa
    ei_plan = None
    if task == "EI" and formats:
        profiles = builders.make_device_profiles(spec.ei_device_count)
        sequence = []
        for dev, n in enumerate(builders.device_record_counts(len(formats), len(profiles))):
            sequence.extend([dev] * n)
        ei_plan = (tuple(sequence), profiles)
    return [(task, i, fmt, ei_plan) for i, fmt in enumerate(formats)]


def build_task(task: str, spec: CorpusSpec, out_dir=None, render: bool = True):
    """All records of one task family, sorted by sample_id."""
    spec.validate()
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    records = _build_records(_task_jobs(task, spec), spec, out_dir, render)
    return sorted(records, key=lambda r: r.sample_id)


def build_corpus(spec: CorpusSpec, out_dir=None, workers: int = 1, render: bool = True):
    """Build every task, stratify the bench, and write the two manifests.

    Returns (train_records, bench_records). Output is independent of the
    worker count: records are pure functions of (spec, sample_id) and the
    manifests are sorted.
    """
    spec.validate()
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)

    jobs = [job for task in TASK_ORDER for job in _task_jobs(task, spec)]
    if workers > 1:
        # This process starts no encoder thread, so none is alive when the
        # pool forks; each worker runs the record loop, with its own encoder, per chunk.
        chunks = [jobs[i : i + _POOL_CHUNK] for i in range(0, len(jobs), _POOL_CHUNK)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_build_records, chunks, repeat(spec), repeat(out_dir), repeat(render))
            records = [record for part in parts for record in part]
    else:
        records = _build_records(jobs, spec, out_dir, render)

    by_task: dict[str, list] = {}
    for record in records:
        by_task.setdefault(record.task, []).append(record)
    for task, task_records in by_task.items():
        grid = spec.snr_grids.get(task)
        if grid and spec.counts.get(task, (0, 0)) != (0, 0):
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


def build_summary(train, bench) -> dict:
    """Per-task counts and the SNR histogram of the whole build."""
    summary: dict = {"total": len(train) + len(bench), "train": len(train), "bench": len(bench)}
    per_task: dict = {}
    snr_hist: dict = {}
    for record in train + bench:
        task = per_task.setdefault(
            record.task, {"OpenQA": 0, "MCQA": 0, "train": 0, "bench": 0}
        )
        task[record.format] += 1
        task[record.split] += 1
        if record.snr_db is not None:
            key = f"{record.snr_db:g}"
            snr_hist[key] = snr_hist.get(key, 0) + 1
    summary["per_task"] = {t: per_task[t] for t in sorted(per_task)}
    summary["snr_histogram"] = {k: snr_hist[k] for k in sorted(snr_hist, key=float)}
    return summary


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------


def write_manifest(records, path, append: bool = False) -> None:
    """Line-delimited JSON records, sorted by sample_id for stable diffs."""
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8", newline="\n") as fh:
        for record in sorted(records, key=lambda r: r.sample_id):
            fh.write(json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def read_manifest(path) -> list[ManifestRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(ManifestRecord.from_dict(json.loads(line)))
            except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed manifest line ({exc})") from exc
    return records
