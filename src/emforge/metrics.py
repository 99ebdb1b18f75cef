"""Scoring: tag parsing, accuracies, text metrics, and report assembly.

All four text metrics share one tokenizer (case-fold, detach punctuation,
whitespace split; decimals like "2.5" stay one token). BLEU4 uses
add-epsilon smoothing for zero n-gram precisions; ROUGE is the LCS
F-measure with beta = 1.2; METEOR uses exact-then-stem matching with
alpha = 0.9, beta = 3.0, gamma = 0.5 and no synonym resource; CIDEr is
the mean over n of TF-IDF n-gram cosine similarity at scale 1.0.
Unparseable or missing predictions count as incorrect.

Scoring a bench makes one outcome per record, in manifest order; the
per-task accuracies, the unparseable count and the SNR tables are folds
over that list, so each prediction is checked once.

Free text has one scoring path, `_text_scores`, with exactly one
reference per item. References repeat (they come from rule tables), so
it works once per distinct reference, in two passes. The first interns
each distinct reference's tokens to ints and counts CIDEr's document
frequencies, each weighted by how many items use that reference. The
second walks the items grouped by reference: each group builds its
reference's 1-4-gram counts, TF-IDF weights and norms once, then scores
its candidates. Each candidate is tokenised once, and one walk per order
over its n-grams sums BLEU's clipped matches, CIDEr's dot product and
the candidate's TF-IDF norm together. Only one reference's counters are
alive at a time; scores come back in record order. ROUGE-L's LCS length
is bit-parallel over Python ints (Allison & Dix 1986; Hyyrö 2004);
METEOR looks each token, then each stem, up in a map to its unused
reference positions. `score_predictions` and all four public metrics
run `_text_scores`: `bleu4`, `rouge_l` and `meteor` as a one-pair corpus.
Every per-item formula keeps one order of operations (float sums run
left to right over the candidate's, or the reference's, n-grams in
first-occurrence order) and corpus means are sums of per-item lists in
record order, so a score does not depend on which caller computed it.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .corpus import FORMATS, read_jsonl
from .instrgen import TagKind, answer_tag

BLEU_EPSILON = 1e-9
ROUGE_BETA = 1.2
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5
NGRAM_ORDER = 4  # BLEU4 and CIDEr both use the 1-4-grams
_LOG_EPSILON = math.log(BLEU_EPSILON)

_TOKEN_RE = re.compile(r"\d+\.\d+|\w+|[^\w\s]")
_STEM_SUFFIXES = ("ing", "ed", "es", "s")


def tokenize(text: str) -> list[str]:
    """Shared metric tokenizer: case-fold, detach punctuation, split."""
    return _TOKEN_RE.findall(text.lower())


def _stem(token: str) -> str:
    for suffix in _STEM_SUFFIXES:
        if token.endswith(suffix) and len(token) > len(suffix) + 2:
            return token[: -len(suffix)]
    return token


def _ngrams(tokens: list, n: int):
    """The n-grams of `tokens`: the tokens themselves for n = 1, tuples above."""
    return tokens if n == 1 else zip(*(tokens[k:] for k in range(n)))


class _Vocab:
    """Token -> int id for one scoring call, and each token id's stem id."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.stem_ids: dict[str, int] = {}
        self.stem_of: list[int] = []

    def intern(self, text: str) -> list[int]:
        ids = self.ids
        tokens = tokenize(text)
        for tok in tokens:
            if tok not in ids:
                ids[tok] = len(ids)
                self.stem_of.append(self.stem_ids.setdefault(_stem(tok), len(self.stem_ids)))
        return [ids[tok] for tok in tokens]


def bleu4(candidate: str, reference: str) -> float:
    """Geometric mean of clipped 1-4-gram precisions times brevity penalty."""
    return _text_scores([reference], [candidate])[0][0]


def _lcs_len(a: list, b: list) -> int:
    """LCS length, bit-parallel over Python ints (Allison & Dix 1986; Hyyrö 2004).

    Bit i of a token's mask marks a[i]; after each token of b, the zero
    bits of v count the LCS so far.
    """
    masks: dict = {}
    for i, tok in enumerate(a):
        masks[tok] = masks.get(tok, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for tok in b:
        m = masks.get(tok)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def _rouge_l(cand: list, ref: list) -> float:
    if not cand or not ref:
        return 0.0
    lcs = _lcs_len(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    beta_sq = ROUGE_BETA**2
    return (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)


def rouge_l(candidate: str, reference: str) -> float:
    """LCS-based F-measure with beta weighting recall."""
    return _text_scores([reference], [candidate])[0][1]


def _meteor_alignment(cand: list, ref: list, stem) -> list[tuple[int, int]]:
    """Greedy two-stage alignment: exact matches first, then stem matches.

    Each pass walks the candidate left to right and takes the earliest
    unused reference position with the same key, which keeps identical
    sentences in one contiguous chunk. The unused positions of each key
    sit in a list, earliest last.
    """
    pairs: dict[int, int] = {}
    for cand_keys, ref_keys in ((cand, ref), (map(stem, cand), map(stem, ref))):
        used = set(pairs.values())
        free: dict = {}
        for j, key in reversed(list(enumerate(ref_keys))):
            if j not in used:
                free.setdefault(key, []).append(j)
        for i, key in enumerate(cand_keys):
            if i not in pairs:
                slots = free.get(key)
                if slots:
                    pairs[i] = slots.pop()
        if len(pairs) == len(cand):
            break
    return sorted(pairs.items())


def _meteor(cand: list, ref: list, stem) -> float:
    if not cand or not ref:
        return 0.0
    pairs = _meteor_alignment(cand, ref, stem)
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    f_mean = precision * recall / (METEOR_ALPHA * precision + (1 - METEOR_ALPHA) * recall)
    chunks = 1
    for (ci, ri), (cj, rj) in zip(pairs, pairs[1:]):
        if cj != ci + 1 or rj != ri + 1:
            chunks += 1
    penalty = METEOR_GAMMA * (chunks / m) ** METEOR_BETA
    return f_mean * (1 - penalty)


def meteor(candidate: str, reference: str) -> float:
    """Harmonic-mean F with a fragmentation (chunk) penalty."""
    return _text_scores([reference], [candidate])[0][2]


def _idf_tables(refs: list, n_docs: int) -> list[dict]:
    """Per n, log(N / document frequency) of every reference n-gram.

    `refs` holds (tokens, items) per distinct reference; each counts as
    one document per item that uses it.
    """
    df = [Counter() for _ in range(NGRAM_ORDER)]
    for toks, items in refs:
        weight = len(items)
        for n, counts in enumerate(df, 1):
            for g in set(_ngrams(toks, n)):
                counts[g] += weight
    return [{g: math.log(n_docs / c) for g, c in d.items()} for d in df]


def _reference_tables(ref: list, idf_by_n: list) -> list[tuple]:
    """Per n: (n-gram -> (count, idf, TF-IDF weight), TF-IDF norm) of one reference."""
    tables = []
    for n, idf in enumerate(idf_by_n, 1):
        grams = {}
        sq = 0.0
        for g, c in Counter(_ngrams(ref, n)).items():
            g_idf = idf[g]
            w = c * g_idf
            grams[g] = (c, g_idf, w)
            sq += w * w
        tables.append((grams, idf, math.sqrt(sq)))
    return tables


def _bleu4_cider(cand: list, ref_len: int, tables: list, default: float) -> tuple[float, float]:
    """BLEU4 and CIDEr of one candidate against its reference's `tables`.

    Each order's candidate n-grams are walked once, in first-occurrence
    order: the walk sums BLEU's clipped matches, CIDEr's dot product and
    the candidate's squared TF-IDF norm together. N-grams absent from
    every reference get the maximum IDF, `default` = log(N).
    """
    cand_len = len(cand)
    log_sum = 0.0
    cider_sum = 0.0
    for n, (grams, idf, ref_norm) in enumerate(tables, 1):
        matched = 0
        dot = 0.0
        sq = 0.0
        for g, c in Counter(_ngrams(cand, n)).items():
            hit = grams.get(g)
            if hit is None:
                w = c * idf.get(g, default)
            else:
                ref_c, g_idf, ref_w = hit
                matched += c if c < ref_c else ref_c
                w = c * g_idf
                dot += w * ref_w
            sq += w * w
        # A match implies at least one of the cand_len - n + 1 candidate n-grams.
        log_sum += math.log(matched / (cand_len - n + 1)) if matched else _LOG_EPSILON
        norm = math.sqrt(sq)
        cider_sum += 0.0 if norm == 0.0 or ref_norm == 0.0 else dot / (norm * ref_norm)
    cider_score = cider_sum / NGRAM_ORDER
    if not cand_len:
        return 0.0, cider_score
    bp = 1.0 if cand_len > ref_len else math.exp(1 - ref_len / cand_len)
    return bp * math.exp(log_sum / 4), cider_score


def cider(candidates: list[str], references: list[str]) -> tuple[list[float], float]:
    """Per-item and corpus-mean TF-IDF n-gram cosine scores, one reference per item.

    IDF is computed over the references (one document per item);
    n-grams absent from every reference get the maximum IDF, log(N).
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must pair up")
    n_docs = len(candidates)
    if n_docs < 2:
        raise ValueError("CIDEr needs a corpus of >= 2 items for meaningful IDF")
    per_item = [scores[3] for scores in _text_scores(references, candidates)]
    return per_item, sum(per_item) / n_docs


def _text_scores(references: list[str], candidates: list[str]) -> list[tuple]:
    """(bleu4, rouge_l, meteor, cider) per (reference, candidate) pair, in order.

    Pass 1 interns each distinct reference once and counts CIDEr's
    document frequencies, weighted by how many items use it. Pass 2 walks
    the items grouped by reference: each group builds its reference's
    n-gram tables once and scores its candidates against them, so only
    one reference's counters are alive at a time. CIDEr is None below
    two items.
    """
    if not references:
        return []
    vocab = _Vocab()
    items: dict[str, list[int]] = {}
    for i, text in enumerate(references):
        items.setdefault(text, []).append(i)
    refs = [(vocab.intern(text), rows) for text, rows in items.items()]
    n_docs = len(references)
    idf_by_n = _idf_tables(refs, n_docs)
    default = math.log(n_docs)
    stem = vocab.stem_of.__getitem__
    scores: list = [None] * n_docs
    for ref, rows in refs:
        tables = _reference_tables(ref, idf_by_n)
        for i in rows:
            cand = vocab.intern(candidates[i])
            bleu, cider_score = _bleu4_cider(cand, len(ref), tables, default)
            scores[i] = (
                bleu,
                _rouge_l(cand, ref),
                _meteor(cand, ref, stem),
                cider_score if n_docs >= 2 else None,
            )
    return scores


def mean_of_four(b: float, r: float, m: float, c: float) -> float:
    """Arithmetic mean of the four text metrics."""
    return (b + r + m + c) / 4.0


def ajsd_composite(b: float, r: float, m: float, c: float) -> float:
    """Average of the four metrics times 100."""
    for v in (b, r, m, c):
        if not 0.0 <= v <= 10.0:
            raise ValueError("metric inputs must lie in [0, 10]")
    return mean_of_four(b, r, m, c) * 100.0


def parse_tag(text: str, tag: TagKind) -> str | None:
    """First well-formed <tag>...</tag> payload, trimmed; None if absent."""
    if tag is TagKind.NONE:
        return text.strip() or None
    match = re.search(rf"<{tag.value}>(.*?)</{tag.value}>", text, re.DOTALL)
    return match.group(1).strip() if match else None


# ---------------------------------------------------------------------------
# Prediction-file scoring against a bench manifest.
# ---------------------------------------------------------------------------


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
        """The report of a JSON object; a non-object or a mistyped field raises ValueError.

        No field takes a bool, although Python counts one as an int.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a report is a JSON object, not {type(data).__name__}")
        for name, kind in _REPORT_TYPES.items():
            if name in data and (isinstance(data[name], bool) or not isinstance(data[name], kind)):
                raise ValueError(f"field {name!r} cannot be {type(data[name]).__name__}")
        return cls(**{name: data[name] for name in _REPORT_TYPES if name in data})


# The report's JSON fields and their types; the per-record outcomes stay out.
_REPORT_TYPES = {
    name: kind for name, kind in get_type_hints(ScoreReport).items() if name != "outcomes"
}


def _prediction_row(row) -> tuple[str, str]:
    sample_id, text = row["sample_id"], row["text"]
    if not isinstance(sample_id, str) or not isinstance(text, str):
        raise ValueError("sample_id and text must be strings")
    return sample_id, text


def load_predictions(path) -> dict:
    """Parse a line-delimited {sample_id, text} prediction file."""
    return read_jsonl(path, "prediction", _prediction_row)


def record_correctness(record, text: str) -> tuple[bool, bool]:
    """(correct, parseable) for one prediction text against its record.

    Missing or malformed tags are incorrect; MCQA compares the letter,
    SPE OpenQA applies the record's numeric tolerance window, all other
    OpenQA payloads match the canonical label under case folding.
    """
    tag = answer_tag(record.task, record.format)
    payload = parse_tag(text, tag) if text else None
    if payload is None:
        return False, False
    if record.format == "MCQA":
        return payload.strip().upper() == record.answer.strip().upper(), True
    if record.task == "SPE":
        try:
            value = float(payload)
        except ValueError:
            return False, True
        gt = float(record.ground_truth["value"])
        return abs(value - gt) <= float(record.ground_truth["tolerance"]), True
    gt = parse_tag(record.answer, tag)
    return payload.strip().lower() == (gt or "").strip().lower(), True


def _tagged_outcome(record, text: str) -> Outcome:
    correct, parseable = record_correctness(record, text)
    return Outcome(record.sample_id, record.task, record.format, record.snr_db, parseable, correct)


def _snr_rows(outcomes, bins) -> list[dict]:
    count = Counter(o.snr_db for o in outcomes)
    correct = Counter(o.snr_db for o in outcomes if o.correct)
    return [
        {
            "snr_db": snr,
            "count": count[snr],
            "accuracy_pct": round(100.0 * correct[snr] / count[snr], 4) if count[snr] else None,
        }
        for snr in sorted(bins)
    ]


def snr_binned_report(predictions: dict, records, bins) -> list[dict]:
    """Accuracy per SNR bin; rows sorted by bin value.

    Empty bins report count 0 and a None accuracy marker.
    """
    return _snr_rows([_tagged_outcome(r, predictions.get(r.sample_id, "")) for r in records], bins)


def score_predictions(records, predictions: dict) -> ScoreReport:
    """Fold a {sample_id: text} prediction map against manifest records.

    One pass makes an outcome per record, in manifest order; every
    number of the report is a fold over that list. A prediction for a
    sample_id the records lack raises ValueError.
    """
    known = {r.sample_id for r in records}
    for sample_id in predictions:
        if sample_id not in known:
            raise ValueError(f"prediction for unknown sample_id {sample_id!r}")

    ajsd_records = [r for r in records if r.task == "AJSD"]
    text_scores = iter(
        _text_scores(
            [r.answer for r in ajsd_records],
            [predictions.get(r.sample_id, "") for r in ajsd_records],
        )
    )
    outcomes = []
    for r in records:
        text = predictions.get(r.sample_id, "")
        if r.task == "AJSD":
            outcomes.append(Outcome(r.sample_id, r.task, r.format, r.snr_db, bool(text.strip()),
                                    text_scores=next(text_scores)))
        else:
            outcomes.append(_tagged_outcome(r, text))

    report = ScoreReport(
        total=len(records),
        unparseable=sum(not o.parseable for o in outcomes),
        outcomes=outcomes,
    )
    for task in sorted({o.task for o in outcomes} - {"AJSD"}):
        task_outcomes = [o for o in outcomes if o.task == task]
        stats: dict = {}
        for fmt in FORMATS:
            correct = [o.correct for o in task_outcomes if o.format == fmt]
            if correct:
                key = fmt.lower()
                stats[f"{key}_accuracy_pct"] = round(100.0 * sum(correct) / len(correct), 4)
                stats[f"{key}_count"] = len(correct)
        report.per_task[task] = stats
        labeled = [o for o in task_outcomes if o.snr_db is not None]
        if labeled:
            report.snr_tables[task] = _snr_rows(labeled, {o.snr_db for o in labeled})

    if ajsd_records:
        n = len(ajsd_records)
        columns = zip(*(o.text_scores for o in outcomes if o.task == "AJSD"))
        # Below two items CIDEr is None per item, so its mean and the
        # composite built on it are reported as null.
        means = [None if None in column else sum(column) / n for column in columns]
        report.ajsd = {
            name: None if mean is None else round(mean, 6)
            for name, mean in zip(TEXT_METRICS, means)
        }
        report.ajsd["composite"] = None if None in means else round(ajsd_composite(*means), 4)
        report.ajsd["count"] = n
    return report


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
