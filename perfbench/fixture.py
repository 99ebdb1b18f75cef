"""The score_paper fixture: one paper-scale manifest plus seeded mixed predictions.

The generator keeps its own record of which predictions it made right,
wrong or unparseable, so the expected accuracies never come from the
scorer under test. Mixed predictions keep the scorer off the
all-identical fast cases (LCS of equal strings, always-gold tags).
"""

from __future__ import annotations

import json
import os
import random
import re

# Fixed mix for tagged records (MCQA and the tagged OpenQA tasks).
TAGGED_MIX = (
    ("gold", 45), ("near", 10), ("wrong", 20), ("wrong_tag", 8), ("bare", 7), ("missing", 10)
)
# Fixed mix for AJSD free-text references.
AJSD_MIX = (("gold", 20), ("dropped_shuffled", 70), ("missing", 10))
OPTION_LETTERS = "ABCDE"


def _pick(rng: random.Random, mix) -> str:
    names, weights = zip(*mix)
    return rng.choices(names, weights)[0]


def _payload(answer: str, tag: str) -> str:
    return re.fullmatch(rf"<{tag}>(.*)</{tag}>", answer, re.DOTALL).group(1).strip()


def _drop_and_shuffle(text: str, rng: random.Random) -> str:
    tokens = [t for t in text.split() if rng.random() >= 0.2] or text.split()[:1]
    for _ in range(len(tokens) // 5):
        i = rng.randrange(len(tokens) - 1)
        tokens[i : i + 2] = tokens[i : i + 2][::-1]
    return " ".join(tokens)


def make_predictions(records, seed: int):
    """({sample_id: text} with missing lines left out, expected outcomes)."""
    rng = random.Random(seed)
    labels: dict[str, set] = {}
    for r in records:
        if r.format == "OpenQA" and r.task not in ("AJSD", "SPE"):
            labels.setdefault(r.task, set()).add(_payload(r.answer, r.tag).lower())

    predictions: dict[str, str] = {}
    outcomes = []  # (record, correct, parseable)
    for r in records:
        if r.task == "AJSD":
            variant = _pick(rng, AJSD_MIX)
            if variant == "gold":
                predictions[r.sample_id] = r.answer
            elif variant == "dropped_shuffled":
                predictions[r.sample_id] = _drop_and_shuffle(r.answer, rng)
            outcomes.append((r, None, variant != "missing"))
            continue

        variant = _pick(rng, TAGGED_MIX)
        # "near" is right but not verbatim: lower-case letter, upper-case label,
        # or a value inside the tolerance window but off the ground truth.
        if r.format == "MCQA":
            tag, payload = "answer", r.answer
            near = f" {payload.lower()} "
            wrong = rng.choice([x for x in OPTION_LETTERS if x != r.answer])
        else:
            tag, payload = r.tag, _payload(r.answer, r.tag)
            if r.task == "SPE":
                gt = r.ground_truth
                near = f"{gt['value'] + 0.75 * gt['tolerance']:.3f}"
                wrong = f"{gt['value'] + 2 * gt['tolerance'] + 1.0:.3f}"
            else:
                near = payload.upper()
                others = sorted(labels[r.task] - {payload.lower()})
                wrong = rng.choice(others) if others else "none of these"
        other_tag = "value" if tag != "value" else "answer"
        text = {
            "gold": f"<{tag}>{payload}</{tag}>",
            "near": f"<{tag}>{near}</{tag}>",
            "wrong": f"<{tag}>{wrong}</{tag}>",
            "wrong_tag": f"<{other_tag}>{payload}</{other_tag}>",
            "bare": payload,
            "missing": None,
        }[variant]
        if text is not None:
            predictions[r.sample_id] = text
        outcomes.append((r, variant in ("gold", "near"), variant in ("gold", "near", "wrong")))
    return predictions, expected_report(outcomes)


def expected_report(outcomes) -> dict:
    """Per-task and per-SNR-bin [count, correct] plus the unparseable count."""
    per_task: dict = {}
    snr: dict = {}
    unparseable = 0
    for r, correct, parseable in outcomes:
        unparseable += not parseable
        if correct is None:
            continue
        cell = per_task.setdefault(r.task, {}).setdefault(r.format, [0, 0])
        cell[0] += 1
        cell[1] += correct
        if r.snr_db is not None:
            cell = snr.setdefault(r.task, {}).setdefault(repr(float(r.snr_db)), [0, 0])
            cell[0] += 1
            cell[1] += correct
    return {
        "total": len(outcomes),
        "unparseable": unparseable,
        "ajsd_count": sum(1 for r, correct, _ in outcomes if correct is None),
        "per_task": per_task,
        "snr": snr,
    }


def build(corpus, spec, seed: int, fixture_dir: str) -> None:
    """Plan-build the spec, write it as one manifest, and write the predictions."""
    train, bench = corpus.build_corpus(spec, None, workers=1, render=False)
    records = sorted(train + bench, key=lambda r: r.sample_id)
    os.makedirs(fixture_dir, exist_ok=True)
    corpus.write_manifest(records, os.path.join(fixture_dir, "manifest.jsonl"))
    predictions, expected = make_predictions(records, seed)
    with open(os.path.join(fixture_dir, "predictions.jsonl"), "w", encoding="utf-8") as fh:
        for sample_id, text in predictions.items():
            fh.write(json.dumps({"sample_id": sample_id, "text": text}) + "\n")
    with open(os.path.join(fixture_dir, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, sort_keys=True)
