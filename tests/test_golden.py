"""Golden digest: the bytes of a small build, pinned across commits.

Criterion 11 compares two builds made by the same code; this test
compares one build with digests stored here, so a change to any PNG
byte or manifest line between commits fails it. The pin depends on
the numpy FFT and zlib in use: a dependency upgrade that moves it is
an explicit re-pin (new digests and versions below, logged in
CHANGES.md), never a skip.
"""

import hashlib
import json
import platform
import random
import re
import sys
import zlib

import numpy as np

from emforge import png
from emforge.corpus import CorpusSpec, build_corpus
from emforge.manifest import format_report_table
from emforge.metrics import score_predictions

# Every (task, format) cell the builder supports, one record each, with
# SNR grids trimmed so every bin holds a record.
GOLDEN_CONFIG = {
    "counts": {
        "SSD": [1, 1],
        "SPE": [1, 1],
        "MR": [1, 1],
        "PR": [1, 1],
        "EI": [1, 1],
        "AJSD": [1, 0],
    },
    "snr_grids": {
        "SSD": [-10, 20],
        "SPE": [-20, 20],
        "MR": [-20, 18],
        "PR": [-20, 18],
    },
}

PINNED_VERSIONS = {"python": "3.11.7", "numpy": "2.4.6"}
# PNG bytes also move with the deflate of the zlib linked at run time.
PNG_PINNED_VERSIONS = PINNED_VERSIONS | {"zlib": "1.2.13"}


def running_versions() -> dict:
    """The running counterparts of PNG_PINNED_VERSIONS."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
    }


PINNED_DIGESTS = {
    "images": "a4ca59ab72ad6b27ebf82cac643c70293620e3d2eb0c3ab31f8ee1f5292ed087",
    "manifest_train.jsonl": "8fd5a8d08f43f620ee68f37bd74935923ed503a739d65ae6cd34a08268bf3007",
    "manifest_bench.jsonl": "404cf956116d98150aa179a723476a57e0a6aa2e296410ceb966793686c6b9b3",
    "pixels": "529bc871acb3e7b9a48b0f43c199d8e4b2b6d46d37ce942c722cc79861e77739",
}


def pixel_digest(images) -> str:
    """sha256 of every decoded (H, W, 3) array (name and pixels, in name order).

    It pins what the views look like apart from how the PNG encoder
    stores them, so an encoder change that keeps every pixel keeps it.
    """
    digest = hashlib.sha256()
    for path in sorted(images.iterdir()):
        digest.update(path.name.encode())
        digest.update(png.decode_png(path.read_bytes()).tobytes())
    return digest.hexdigest()


def golden_digests(out) -> dict:
    """sha256 of every PNG (name and bytes, in name order), of each manifest, and of the pixels."""
    images = hashlib.sha256()
    for path in sorted((out / "images").iterdir()):
        images.update(path.name.encode())
        images.update(path.read_bytes())
    digests = {"images": images.hexdigest()}
    for name in ("manifest_train.jsonl", "manifest_bench.jsonl"):
        digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    digests["pixels"] = pixel_digest(out / "images")
    return digests


def _check_golden(tmp_path, workers):
    out = tmp_path / "golden"
    spec = CorpusSpec.from_dict(GOLDEN_CONFIG)
    train, bench = build_corpus(spec, out_dir=str(out), workers=workers)
    assert len(train) + len(bench) == 11
    assert golden_digests(out) == PINNED_DIGESTS, (
        f"golden build bytes changed; pinned with {PNG_PINNED_VERSIONS}, "
        f"running {running_versions()}"
    )


def test_small_build_matches_pinned_digests(tmp_path):
    _check_golden(tmp_path, workers=1)


def test_small_build_with_two_workers_matches_pinned_digests(tmp_path):
    """The process pool, each worker with its own encoder thread, writes the same bytes."""
    _check_golden(tmp_path, workers=2)


def test_small_build_under_fast_thread_switching(tmp_path):
    """Switching between the main and encoder threads every microsecond moves no byte."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _check_golden(tmp_path, workers=1)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Score report of a mixed prediction set, pinned across commits.
# ---------------------------------------------------------------------------

PINNED_MIXED_REPORT = "62e1d6689b8115897cec0567ab9dcec465bf6969c5945962cc5b3e56990d1f51"
PINNED_MIXED_TABLE = """\
task   format    count     score
EI     MCQA         46    45.65%
MR     MCQA         50    52.00%
PR     MCQA         50    50.00%
SPE    MCQA         75    58.67%
SPE    OpenQA      225    61.33%
SSD    MCQA         30    26.67%
SSD    OpenQA      170    51.18%
AJSD   OpenQA      200    42.08  (bleu4 0.310, rouge 0.544, meteor 0.558, cider 0.272)
unparseable predictions: 217 of 846"""
OPTION_LETTERS = "ABCDE"


def _payload(record) -> str:
    if record.format == "MCQA":
        return record.answer
    return re.fullmatch(rf"<{record.tag}>(.*)</{record.tag}>", record.answer, re.DOTALL).group(1)


def _garble(text: str, rng: random.Random) -> str:
    """Drop, inflect, repeat and swap words of a free-text reference."""
    words = []
    for word in text.split():
        roll = rng.random()
        if roll < 0.2:
            continue
        if roll < 0.3 and word.isalpha():
            word += rng.choice(("s", "ed", "ing"))
        words.append(word)
        if roll > 0.95:
            words.append(word)
    words = words or text.split()[:1]
    for _ in range(len(words) // 4):
        i = rng.randrange(max(len(words) - 1, 1))
        words[i : i + 2] = words[i : i + 2][::-1]
    return " ".join(words)


def mixed_predictions(records, seed: int) -> dict:
    """Seeded {sample_id: text}: gold, near misses, wrong answers, wrong or
    missing tags, missing lines, and garbled AJSD free text."""
    rng = random.Random(seed)
    labels: dict[str, list] = {}
    for r in records:
        if r.format == "OpenQA" and r.task not in ("AJSD", "SPE"):
            labels.setdefault(r.task, []).append(_payload(r))
    predictions = {}
    for r in records:
        if r.task == "AJSD":
            variant = rng.choices(("gold", "garbled", "shouted", "blank", "missing"),
                                  (15, 60, 5, 5, 15))[0]
            text = {
                "gold": r.answer,
                "garbled": _garble(r.answer, rng),
                "shouted": r.answer.upper().replace(".", " !"),
                "blank": "  \n ",
                "missing": None,
            }[variant]
        else:
            tag, payload = r.tag, _payload(r)
            if r.format == "MCQA":
                near = f"  {payload.lower()} "
                wrong = rng.choice([x for x in OPTION_LETTERS if x != payload])
            elif r.task == "SPE":
                value, tol = r.ground_truth["value"], r.ground_truth["tolerance"]
                near = f"{value + rng.uniform(-0.9, 0.9) * tol:.4f}"
                wrong = f"{value + rng.choice((-1, 1)) * (1.5 * tol + 0.5):.4f}"
            else:
                near = payload.upper()
                wrong = rng.choice(sorted(set(labels[r.task]) - {payload}) or ["none"])
            other = "value" if tag != "value" else "answer"
            variant = rng.choices(
                ("gold", "near", "wordy", "wrong", "wrong_tag", "bare", "missing"),
                (40, 10, 5, 20, 8, 7, 10),
            )[0]
            text = {
                "gold": f"<{tag}>{payload}</{tag}>",
                "near": f"<{tag}>{near}</{tag}>",
                "wordy": f"I think it is <{tag}>{payload}</{tag}>, or <{tag}>{wrong}</{tag}>.",
                "wrong": f"<{tag}>{wrong}</{tag}>",
                "wrong_tag": f"<{other}>{payload}</{other}>",
                "bare": payload,
                "missing": None,
            }[variant]
        if text is not None:
            predictions[r.sample_id] = text
    return predictions


def test_mixed_score_report_matches_pinned_digest():
    """Scoring right, wrong, unparseable and garbled predictions writes pinned bytes."""
    spec = CorpusSpec.from_total(846, global_seed=5)
    train, bench = build_corpus(spec, None, workers=1, render=False)
    records = train + bench
    scored = score_predictions(records, mixed_predictions(records, seed=5))
    report = scored.to_dict()
    assert report["total"] == 846 and report["ajsd"]["count"] == 200
    assert 0 < report["unparseable"] < 846
    payload = json.dumps(report, indent=2, sort_keys=True)
    running = {"python": platform.python_version(), "numpy": np.__version__}
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_MIXED_REPORT, (
        f"mixed score report changed; pinned with {PINNED_VERSIONS}, running {running}"
    )
    assert format_report_table(scored) == PINNED_MIXED_TABLE
