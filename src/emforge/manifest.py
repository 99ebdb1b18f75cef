"""The files the scorer reads and writes: manifests, predictions, score reports
and per-record outcomes (docs/manifest_schema.md), with the answer tags and view
names a manifest uses, as the plain strings its files hold. Standard library
only: `score` never loads the build stack, and `report` and `budget` never load
numpy.
"""

from __future__ import annotations

import gc
import json
import math
import re
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import get_type_hints

UNABLE_TO_ANSWER = "Unable to answer"
OPTION_LETTERS = ("A", "B", "C", "D", "E")

# task -> the tag that wraps its OpenQA answer; AJSD answers are free text.
TASK_TAGS = {
    "SSD": "segment",
    "SPE": "value",
    "MR": "mode",
    "PR": "protocol",
    "EI": "device",
    "AJSD": "none",
}
# Record formats, in the order per-task report rows list them.
FORMATS = ("MCQA", "OpenQA")
# (task, format) -> the tag that wraps a record's answer: `answer` for MCQA,
# else the task's own.
ANSWER_TAGS = {
    (task, fmt): "answer" if fmt == "MCQA" else tag
    for task, tag in TASK_TAGS.items()
    for fmt in FORMATS
}
# Each tag's <tag>...</tag> pattern, across lines; group 1 is the payload.
TAG_PATTERNS = {
    tag: re.compile(rf"<{tag}>(.*?)</{tag}>", re.DOTALL)
    for tag in ("answer", *TASK_TAGS.values())
    if tag != "none"
}

# The four view names, in the order of a record's view_paths.
VIEW_ORDER = ("constellation", "fft_spectrum", "stft_spectrogram", "iq_waveform")


class ConfigError(ValueError):
    """Invalid configuration or command input; `field` names the config field or flag."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def json_is(value, kind) -> bool:
    """Whether a JSON value is of the declared type or union `kind`: a float takes any
    number, and a bool is never a number, though Python counts it as an int."""
    return not isinstance(value, bool) and (
        isinstance(value, kind) or isinstance(value, int) and isinstance(0.0, kind))


def _is_finite_number(x) -> bool:
    """Whether a JSON value is a number that is finite as a float."""
    try:
        return json_is(x, float) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(slots=True)
class ManifestRecord:
    """One manifest line; see docs/manifest_schema.md for the fields.

    Slotted, so a record holds no per-instance dict. Records from one
    `read_manifest` call share their equal strings and `options` tuples;
    no record shares a dict or list with another.

    `view_paths` is derived: a record whose paths are the canonical
    `images/<sample_id>_<view>.png` of each view stores none and builds
    them from `sample_id` on each read, so they follow a later change of
    `sample_id`. Any other paths are stored as given.
    """

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
        for name in ("sample_id", "question", "answer", "content_hash"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        if self.snr_db is not None and not _is_finite_number(self.snr_db):
            raise ValueError("snr_db must be a finite number or null")
        paths = _STORED_VIEW_PATHS.__get__(self)
        if paths is not _CANONICAL:
            if not _is_str_list(paths) or len(paths) != 4:
                raise ValueError("view_paths must list exactly 4 view paths")
            _STORED_VIEW_PATHS.__set__(self, tuple(paths))
        if self.options is not None and not _is_str_list(self.options):
            raise ValueError("options must be null or a list of strings")
        if self.options is not None:
            self.options = tuple(self.options)
        if self.task not in TASK_TAGS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        tag = ANSWER_TAGS[self.task, self.format]
        if self.tag != tag:
            raise ValueError(f"{self.task} {self.format} records use the {tag} tag")
        if self.format == "MCQA":
            if self.options is None or len(self.options) != 5:
                raise ValueError("MCQA records carry exactly 5 options")
            if UNABLE_TO_ANSWER not in self.options:
                raise ValueError(f'MCQA options must include "{UNABLE_TO_ANSWER}"')
            if self.answer not in OPTION_LETTERS:
                raise ValueError("MCQA answer must be an option letter")
        elif self.options is not None:
            raise ValueError("OpenQA records carry no options")
        elif tag != "none" and not (
            (wrapped := TAG_PATTERNS[tag].fullmatch(self.answer)) and wrapped.group(1)
        ):
            raise ValueError("tagged OpenQA answers must be tag-wrapped")
        if not isinstance(self.ground_truth, dict):
            raise ValueError("ground_truth must be an object")
        if self.task == "SPE":
            value, tolerance = self.ground_truth.get("value"), self.ground_truth.get("tolerance")
            if not (_is_finite_number(value) and _is_finite_number(tolerance) and tolerance >= 0):
                raise ValueError("SPE ground_truth needs a numeric 'value' and 'tolerance', "
                                 "both finite, the tolerance not negative")
        if self.split not in ("train", "bench"):
            raise ValueError("split must be 'train' or 'bench'")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in MANIFEST_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "ManifestRecord":
        if not (type(data) is dict and data.keys() >= _MANIFEST_FIELD_SET):
            missing = [k for k in MANIFEST_FIELDS if k not in data]
            if missing:
                raise ValueError(f"missing fields: {', '.join(missing)}")
        return cls(*map(data.__getitem__, MANIFEST_FIELDS))


MANIFEST_FIELDS = tuple(f.name for f in fields(ManifestRecord))
_MANIFEST_FIELD_SET = frozenset(MANIFEST_FIELDS)

# What follows "images/<sample_id>" in each view's path, in VIEW_ORDER.
_VIEW_SUFFIXES = tuple(f"_{view}.png" for view in VIEW_ORDER)


def canonical_view_paths(sample_id: str) -> tuple:
    """The canonical relative path of each view of `sample_id`, in VIEW_ORDER."""
    prefix = "images/" + sample_id
    return tuple([prefix + suffix for suffix in _VIEW_SUFFIXES])


# The view_paths slot holds _CANONICAL for canonical paths. The property
# below replaces the slot's descriptor on the class and reads and writes the
# slot through it, so the constructor, ==, to_dict and pickling all see paths.
_STORED_VIEW_PATHS = ManifestRecord.view_paths
_CANONICAL = object()


def _get_view_paths(record: ManifestRecord) -> tuple:
    paths = _STORED_VIEW_PATHS.__get__(record)
    return canonical_view_paths(record.sample_id) if paths is _CANONICAL else paths


def _set_view_paths(record: ManifestRecord, paths) -> None:
    # Canonical paths, as a list read from JSON or a tuple, are not stored.
    # Anything else is stored as given, for __post_init__ to check.
    sample_id = record.sample_id
    if isinstance(sample_id, str) and type(paths) in (list, tuple) and len(paths) == 4:
        prefix = "images/" + sample_id
        first, second, third, fourth = _VIEW_SUFFIXES
        if (
            paths[0] == prefix + first
            and paths[1] == prefix + second
            and paths[2] == prefix + third
            and paths[3] == prefix + fourth
        ):
            paths = _CANONICAL
    _STORED_VIEW_PATHS.__set__(record, paths)


ManifestRecord.view_paths = property(_get_view_paths, _set_view_paths)


def _is_str_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(isinstance, value, repeat(str)))


def gold_prediction(record: ManifestRecord) -> str:
    """The prediction text a perfect model would emit for this record."""
    if record.format == "MCQA":
        return f"<answer>{record.answer}</answer>"
    return record.answer


def write_manifest(records, path) -> None:
    """Line-delimited JSON records, sorted by sample_id for stable diffs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in sorted(records, key=lambda r: r.sample_id):
            fh.write(json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def read_jsonl(path, kind: str, parse) -> dict:
    """{sample_id: value} of a JSON-lines file, in file order; blank lines are skipped.

    `parse` maps each line's JSON value to (sample_id, value). A line that is
    not UTF-8, not JSON (or nests past the recursion limit) or that `parse`
    rejects raises ValueError naming path:line as a malformed `kind` line,
    and so does a repeated sample_id.
    """
    rows = {}
    # Undecodable bytes read as surrogates, so the strict decode below names their line.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                sample_id, value = parse(json.loads(line))
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed {kind} line ({exc})") from exc
            if sample_id in rows:
                raise ValueError(f"{path}:{lineno}: duplicate sample_id {sample_id!r}")
            rows[sample_id] = value
    return rows


# The string fields whose values repeat across a manifest. sample_id and
# content_hash are unique per record, so sharing them would only grow the
# table; canonical view_paths are not stored at all (see ManifestRecord).
_SHARED_STRINGS = ("task", "format", "tag", "split", "question", "answer")


def read_manifest(path) -> list[ManifestRecord]:
    """The records of a manifest; a malformed line or a repeated sample_id raises ValueError.

    Equal values are one object across the returned records: the `task`,
    `format`, `tag`, `split`, `question` and `answer` strings, the `options`
    tuples and their strings, and every string key and string value inside
    `ground_truth`. Only strings and tuples of strings are shared, never
    numbers (True == 1 == 1.0 would alias values of different types) and
    never a container: each record gets its own `ground_truth` dicts and
    lists, in the file's key order. The sharing table lives for this call only.
    A record keeps its `view_paths` only where they differ from the
    canonical `images/<sample_id>_<view>.png`.

    The cyclic garbage collector is off for the call and back in its
    previous state on return or raise: nothing the read builds forms a
    cycle, and everything it builds stays alive, so each collection would
    only walk the records built so far again.
    """
    table = {}
    setdefault = table.setdefault

    # Values come from json.loads, so their types are exact. One frame per
    # nesting level (no comprehension frames), so any depth json.loads
    # accepted stays within the recursion limit.
    def share(value):
        kind = type(value)
        if kind is str:
            return setdefault(value, value)
        if kind is dict:
            rebuilt = {}
            for k, v in value.items():
                rebuilt[setdefault(k, k)] = share(v)
            return rebuilt
        if kind is list:
            return list(map(share, value))
        return value

    # The record validates the values as read, then takes the shared ones.
    def row(data) -> tuple[str, ManifestRecord]:
        record = ManifestRecord.from_dict(data)
        for name in _SHARED_STRINGS:
            value = getattr(record, name)
            setattr(record, name, setdefault(value, value))
        if record.options is not None:
            options = tuple(map(share, record.options))
            record.options = setdefault(options, options)
        record.ground_truth = share(record.ground_truth)
        return record.sample_id, record

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return list(read_jsonl(path, "manifest", row).values())
    finally:
        if was_enabled:
            gc.enable()


TEXT_METRICS = ("bleu4", "rouge_l", "meteor", "cider")


@dataclass(slots=True)
class Outcome:
    """One scored record. AJSD free text has no `correct`: its per-item
    (bleu4, rouge_l, meteor, cider) sit in `text_scores` instead."""

    sample_id: str
    task: str
    format: str
    snr_db: float | None
    parseable: bool
    correct: bool | None = None
    text_scores: tuple | None = None

    def to_row(self) -> dict:
        row = {name: getattr(self, name) for name in _OUTCOME_KEYS}
        if self.text_scores is None:
            row["correct"] = self.correct
        else:
            row.update(zip(TEXT_METRICS, self.text_scores))
        return row


# The row keys every outcome carries; `correct` or the text metrics follow.
_OUTCOME_KEYS = tuple(f.name for f in fields(Outcome) if f.name not in ("correct", "text_scores"))


@dataclass
class ScoreReport:
    per_task: dict = field(default_factory=dict)
    ajsd: dict | None = None
    snr_tables: dict = field(default_factory=dict)
    unparseable: int = 0
    total: int = 0
    # Per-record outcomes in manifest order; not part of the report JSON.
    outcomes: list = field(default_factory=list, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _REPORT_TYPES}

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreReport":
        """The report of a JSON object; a non-object, or a field of another shape than
        docs/manifest_schema.md lists, raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a report is a JSON object, not {type(data).__name__}")
        for name, kind in _REPORT_TYPES.items():
            if name in data:
                _check_type(name, data[name], kind)
        for task, cell in data.get("per_task", {}).items():
            _check_type(f"per_task.{task}", cell, dict)
            for stats in _FORMAT_STATS:
                if cell.keys() & stats.keys():
                    _check_object(f"per_task.{task}", cell, stats)
        if data.get("ajsd") is not None:
            _check_object("ajsd", data["ajsd"], _AJSD_TYPES)
        for task, rows in data.get("snr_tables", {}).items():
            _check_type(f"snr_tables.{task}", rows, list)
            for i, row in enumerate(rows):
                _check_object(f"snr_tables.{task}[{i}]", row, _SNR_ROW_TYPES)
        return cls(**{name: data[name] for name in _REPORT_TYPES if name in data})


# The report's JSON fields and their types; the per-record outcomes stay out.
_REPORT_TYPES = {
    name: kind for name, kind in get_type_hints(ScoreReport).items() if name != "outcomes"
}
# The keys and types of the report's nested objects. A per-task cell holds
# the accuracy and the count of each format its task has records in.
_FORMAT_STATS = [
    {f"{fmt.lower()}_accuracy_pct": float, f"{fmt.lower()}_count": int} for fmt in FORMATS
]
_AJSD_TYPES = dict.fromkeys(TEXT_METRICS, float) | {
    "cider": float | None, "composite": float | None, "count": int
}
_SNR_ROW_TYPES = {"snr_db": float, "count": int, "accuracy_pct": float | None}


def _check_type(where: str, value, kind) -> None:
    """Raise ValueError unless the report value at `where` is of the type `kind`."""
    if not json_is(value, kind):
        raise ValueError(f"field {where!r} cannot be {type(value).__name__}")


def _check_object(where: str, value, types: dict) -> None:
    """Raise ValueError unless the report value at `where` is an object that
    holds every key of `types`, each with a value of its type."""
    _check_type(where, value, dict)
    for key, kind in types.items():
        if key not in value:
            raise ValueError(f"field {where!r} lacks {key!r}")
        _check_type(f"{where}.{key}", value[key], kind)


def _prediction_row(row) -> tuple[str, str]:
    sample_id, text = row["sample_id"], row["text"]
    if not isinstance(sample_id, str) or not isinstance(text, str):
        raise ValueError("sample_id and text must be strings")
    return sample_id, text


def load_predictions(path) -> dict:
    """Parse a line-delimited {sample_id, text} prediction file."""
    return read_jsonl(path, "prediction", _prediction_row)


def format_report_table(report: ScoreReport) -> str:
    """Human-readable headline table."""
    lines = [f"{'task':6s} {'format':8s} {'count':>6s} {'score':>9s}"]
    for task, stats in sorted(report.per_task.items()):
        for fmt in FORMATS:
            key = fmt.lower()
            if f"{key}_accuracy_pct" in stats:
                lines.append(
                    f"{task:6s} {fmt:8s} {stats[f'{key}_count']:>6d} "
                    f"{stats[f'{key}_accuracy_pct']:>8.2f}%"
                )
    if report.ajsd:
        a = report.ajsd
        composite = "n/a" if a["composite"] is None else f"{a['composite']:.2f}"
        cider_text = "n/a" if a["cider"] is None else f"{a['cider']:.3f}"
        lines.append(
            f"{'AJSD':6s} {'OpenQA':8s} {a['count']:>6d} {composite:>8s}  "
            f"(bleu4 {a['bleu4']:.3f}, rouge {a['rouge_l']:.3f}, "
            f"meteor {a['meteor']:.3f}, cider {cider_text})"
        )
    lines.append(f"unparseable predictions: {report.unparseable} of {report.total}")
    return "\n".join(lines)


def snr_tables_csv(report: ScoreReport) -> str:
    """CSV export of the per-task SNR-binned accuracy tables."""
    lines = ["task,snr_db,count,accuracy_pct"]
    for task, rows in sorted(report.snr_tables.items()):
        for row in rows:
            acc = "" if row["accuracy_pct"] is None else f"{row['accuracy_pct']}"
            lines.append(f"{task},{row['snr_db']},{row['count']},{acc}")
    return "\n".join(lines) + "\n"
