"""Correctness checks run after each timed call, outside the timed region.

Each check records its failures in a Tally. An operation is one record
built or one prediction scored; a failure that cannot be pinned on one
operation (a wrong digest, an undecodable PNG) counts against every
operation or against one, as the check's docstring or call says.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from collections import Counter

from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
BUILD_OUTPUTS = ("manifest_train.jsonl", "manifest_bench.jsonl", "config_used.json")
REDRAFTS_PER_TASK = 2


class Tally:
    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed_ids: set[str] = set()
        self.failed_extra = 0
        self.errors: list[str] = []

    def fail(self, message: str, sample_id: str | None = None, count: int = 1) -> None:
        if sample_id is not None:
            self.failed_ids.add(sample_id)
        else:
            self.failed_extra += count
        if len(self.errors) < 8:
            self.errors.append(message)

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failed_ids) + self.failed_extra)


def build_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in BUILD_OUTPUTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\x00" + fh.read() + b"\x00")
    return h.hexdigest()


def check_pinned(tally: Tally, workload: str, seed: int, digest: str, numpy_version: str) -> None:
    """At DEFAULT_SEED the output digest must equal the pinned one (fails every operation)."""
    if seed != DEFAULT_SEED:
        return
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    want = pinned["digests"].get(workload)
    if want is not None and want != digest:
        python_version = sys.version.split()[0]
        tally.fail(
            f"output digest {digest} != pinned {want} (pinned under python "
            f"{pinned['python']}, numpy {pinned['numpy']}; this run: python "
            f"{python_version}, numpy {numpy_version})",
            count=tally.attempted,
        )


def _read_lines(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_build(tally: Tally, spec, records, out_dir: str, render: bool, emforge) -> None:
    """Counts, SNR coverage, manifests on disk, and each record's content_hash."""
    have = Counter((r.task, r.format) for r in records)
    for task, (openqa, mcqa) in spec.counts.items():
        for fmt, want in (("OpenQA", openqa), ("MCQA", mcqa)):
            if have[(task, fmt)] != want:
                tally.fail(f"{task} {fmt}: built {have[(task, fmt)]}, spec asks {want}",
                           count=abs(have[(task, fmt)] - want))
    ids = [r.sample_id for r in records]
    if len(set(ids)) != len(ids):
        tally.fail("duplicate sample_ids", count=len(ids) - len(set(ids)))

    for task, grid in spec.snr_grids.items():
        if spec.counts.get(task, (0, 0)) == (0, 0):
            continue
        covered = {r.snr_db for r in records if r.task == task and r.split == "bench"}
        for snr in grid:
            if snr not in covered:
                tally.fail(f"{task} SNR bin {snr:g} dB has no bench record")

    by_id = {r.sample_id: r for r in records}
    for split in ("train", "bench"):
        rows = _read_lines(os.path.join(out_dir, f"manifest_{split}.jsonl"))
        want = sorted(r.sample_id for r in records if r.split == split)
        if [row["sample_id"] for row in rows] != want:
            tally.fail(f"manifest_{split}.jsonl does not list the {split} records in order",
                       count=abs(len(rows) - len(want)) or 1)
        for row in rows:
            record = by_id.get(row["sample_id"])
            if record is None or row["split"] != split or row["content_hash"] != record.content_hash:
                tally.fail(f"manifest row {row['sample_id']} disagrees with the build",
                           row["sample_id"])

    if render:
        _check_images(tally, records, out_dir, spec.image_size, emforge.png.decode_png)
    else:
        _check_redrafts(tally, records, spec, emforge.builders)


def _check_images(tally: Tally, records, out_dir: str, size: int, decode_png) -> None:
    for r in records:
        h = hashlib.sha256()
        try:
            for rel in r.view_paths:
                with open(os.path.join(out_dir, rel), "rb") as fh:
                    h.update(fh.read())
        except OSError as exc:
            tally.fail(f"{r.sample_id}: {exc}", r.sample_id)
            continue
        h.update(b"\x00")
        h.update(r.answer.encode())
        if h.hexdigest() != r.content_hash:
            tally.fail(f"{r.sample_id}: PNGs + answer do not hash to content_hash", r.sample_id)
    if records:
        # One PNG per view kind, from the first record.
        for rel in records[0].view_paths:
            with open(os.path.join(out_dir, rel), "rb") as fh:
                shape = decode_png(fh.read()).shape
            if shape != (size, size, 3):
                tally.fail(f"{rel} decodes to {shape}, expected {(size, size, 3)}")


def _check_redrafts(tally: Tally, records, spec, builders) -> None:
    """Plan mode hashes the raw IQ: re-draft a few records per task and re-hash.

    EI drafts need the device plan that build_corpus makes internally, so
    EI is covered by the counts and the pinned digest only.
    """
    rng = random.Random(spec.global_seed)
    by_task: dict[str, list] = {}
    for r in records:
        if r.task != "EI":
            by_task.setdefault(r.task, []).append(r)
    for task, task_records in sorted(by_task.items()):
        for r in rng.sample(task_records, min(REDRAFTS_PER_TASK, len(task_records))):
            index = int(r.sample_id.rsplit("-", 1)[1])
            draft = builders.draft_record(task, index, r.format, spec)
            h = hashlib.sha256(draft.signal.samples.tobytes())
            h.update(b"\x00")
            h.update(draft.answer.encode())
            if h.hexdigest() != r.content_hash:
                tally.fail(f"{r.sample_id}: re-drafted IQ + answer do not hash to content_hash",
                           r.sample_id)


def check_score(tally: Tally, report: dict, expected: dict) -> None:
    """Compare the report with the prediction generator's own record."""
    if report["total"] != expected["total"]:
        tally.fail(f"report total {report['total']} != {expected['total']}",
                   count=abs(report["total"] - expected["total"]) or 1)
    if report["unparseable"] != expected["unparseable"]:
        tally.fail(f"unparseable {report['unparseable']} != {expected['unparseable']}",
                   count=abs(report["unparseable"] - expected["unparseable"]))
    for task, formats in expected["per_task"].items():
        stats = report["per_task"].get(task, {})
        for fmt, (count, correct) in formats.items():
            got_count = stats.get(f"{fmt.lower()}_count")
            got_pct = stats.get(f"{fmt.lower()}_accuracy_pct")
            if got_count != count or got_pct != round(100.0 * correct / count, 4):
                got_correct = round((got_pct or 0.0) * count / 100.0)
                tally.fail(f"{task} {fmt}: {got_pct}% of {got_count}, expected "
                           f"{correct} of {count}", count=max(1, abs(got_correct - correct)))
    for task, bins in expected["snr"].items():
        rows = {repr(float(row["snr_db"])): row for row in report["snr_tables"].get(task, [])}
        for snr, (count, correct) in bins.items():
            row = rows.get(snr, {})
            if row.get("count") != count or row.get("accuracy_pct") != round(100.0 * correct / count, 4):
                tally.fail(f"{task} SNR {snr} dB row {row}, expected {correct} of {count}")
    ajsd = report.get("ajsd") or {}
    if ajsd.get("count") != expected["ajsd_count"]:
        tally.fail(f"AJSD count {ajsd.get('count')} != {expected['ajsd_count']}",
                   count=abs((ajsd.get("count") or 0) - expected["ajsd_count"]))
