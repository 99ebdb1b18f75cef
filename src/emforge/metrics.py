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
over that list, so each prediction is checked once. AJSD free text is
scored in two streaming passes. The first tokenises every reference once,
interning tokens to ints, and counts CIDEr's document frequencies. The
second takes one item at a time: it tokenises the candidate once, counts
the 1-4-grams of candidate and reference once each, and feeds all four
metrics from those tokens and counts. No n-gram counter outlives its
item, so memory does not grow with the bench. ROUGE-L's LCS length is
bit-parallel over Python ints (Allison & Dix 1986; Hyyrö 2004); METEOR
looks each token, then each stem, up in a map to its unused reference
positions. The public `bleu4`, `rouge_l`, `meteor` and `cider` run the
same token-level kernels. Every per-item formula keeps one order of
operations and corpus means are sums of per-item lists in record order,
so a score does not depend on which path computed it.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import reduce

from .instrgen import TASK_TAGS, TagKind

BLEU_EPSILON = 1e-9
ROUGE_BETA = 1.2
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5
CIDER_SCALE = 1.0
CIDER_N_MAX = 4

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


def _ngram_counts(tokens: list, n_max: int) -> list[Counter]:
    """Counts of the 1..n_max-grams of `tokens`, keyed by tuple, in first-occurrence order."""
    return [Counter(zip(*(tokens[k:] for k in range(n)))) for n in range(1, n_max + 1)]


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


def _bleu4(cand_len: int, cand_grams: list, ref_lens: list[int], clip_grams: list) -> float:
    """BLEU4 from 1-4-gram counts; `clip_grams` holds each gram's highest reference count."""
    if not cand_len or not ref_lens:
        return 0.0

    log_sum = 0.0
    for counts, clip in zip(cand_grams, clip_grams):
        total = sum(counts.values())
        if total == 0:
            log_sum += math.log(BLEU_EPSILON)
            continue
        matched = sum(min(c, clip.get(g, 0)) for g, c in counts.items())
        precision = matched / total
        log_sum += math.log(precision) if precision > 0 else math.log(BLEU_EPSILON)

    c = cand_len
    r = min((abs(n - c), n) for n in ref_lens)[1]  # closest ref length
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(log_sum / 4)


def bleu4(candidate: str, references: list[str] | str) -> float:
    """Geometric mean of clipped 1-4-gram precisions times brevity penalty."""
    if isinstance(references, str):
        references = [references]
    cand = tokenize(candidate)
    refs = [tokenize(r) for r in references]
    ref_grams = [_ngram_counts(ref, 4) for ref in refs]
    clip_grams = [reduce(operator.or_, per_n) for per_n in zip(*ref_grams)]
    return _bleu4(len(cand), _ngram_counts(cand, 4), [len(ref) for ref in refs], clip_grams)


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
    return _rouge_l(tokenize(candidate), tokenize(reference))


def _meteor_alignment(cand: list, ref: list, stem=_stem) -> list[tuple[int, int]]:
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


def _meteor(cand: list, ref: list, stem=_stem) -> float:
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
    return _meteor(tokenize(candidate), tokenize(reference))


def _idf_tables(ref_sets, n_docs: int, n_max: int) -> list[dict]:
    """Per n, log(N / document frequency) of every reference n-gram (one document per item)."""
    df = [Counter() for _ in range(n_max)]
    for refs in ref_sets:
        for n in range(1, n_max + 1):
            seen = set()
            for toks in refs:
                seen.update(zip(*(toks[k:] for k in range(n))))
            df[n - 1].update(seen)
    return [{g: math.log(n_docs / max(c, 1)) for g, c in d.items()} for d in df]


def _tfidf_vec(counts: Counter, idf: dict, default: float) -> dict:
    return {g: c * idf.get(g, default) for g, c in counts.items()}


def _cosine(u: dict, v: dict) -> float:
    dot = sum(val * v[g] for g, val in u.items() if g in v)
    nu = math.sqrt(sum(val * val for val in u.values()))
    nv = math.sqrt(sum(val * val for val in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def _cider(cand_grams: list, refs_grams: list, idf_by_n: list, n_docs: int, scale: float) -> float:
    """One item's mean over n of TF-IDF cosines; n-grams absent from every reference get log(N)."""
    default = math.log(n_docs)
    score_n = []
    for n, idf in enumerate(idf_by_n):
        u = _tfidf_vec(cand_grams[n], idf, default)
        sims = [_cosine(u, _tfidf_vec(grams[n], idf, default)) for grams in refs_grams]
        score_n.append(sum(sims) / len(sims) if sims else 0.0)
    return scale * sum(score_n) / len(idf_by_n)


def cider(
    candidates: list[str],
    references: list[list[str]],
    n_max: int = CIDER_N_MAX,
    scale: float = CIDER_SCALE,
) -> tuple[list[float], float]:
    """Per-item and corpus-mean TF-IDF n-gram cosine scores.

    IDF is computed over the reference sets (one document per item);
    n-grams absent from every reference get the maximum IDF, log(N).
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must pair up")
    n_docs = len(candidates)
    if n_docs < 2:
        raise ValueError("CIDEr needs a corpus of >= 2 items for meaningful IDF")

    ref_tokens = [[tokenize(r) for r in refs] for refs in references]
    idf_by_n = _idf_tables(ref_tokens, n_docs, n_max)
    per_item = [
        _cider(
            _ngram_counts(tokenize(cand), n_max),
            [_ngram_counts(toks, n_max) for toks in refs],
            idf_by_n,
            n_docs,
            scale,
        )
        for cand, refs in zip(candidates, ref_tokens)
    ]
    return per_item, sum(per_item) / n_docs


def _ajsd_text_scores(records, predictions: dict):
    """(bleu4, rouge_l, meteor, cider) per AJSD record, in order, in two streaming passes.

    Pass 1 tokenises every reference once and counts CIDEr's document
    frequencies; pass 2 tokenises one candidate, counts its and its
    reference's n-grams once, and feeds all four metrics. CIDEr is None
    below two items.
    """
    vocab = _Vocab()
    refs = [vocab.intern(r.answer) for r in records]
    n_docs = len(refs)
    idf_by_n = _idf_tables([[ref] for ref in refs], n_docs, CIDER_N_MAX) if n_docs >= 2 else None
    stem = vocab.stem_of.__getitem__
    for record, ref in zip(records, refs):
        cand = vocab.intern(predictions.get(record.sample_id, ""))
        cand_grams = _ngram_counts(cand, 4)
        ref_grams = _ngram_counts(ref, 4)
        cider_item = None
        if idf_by_n is not None:
            cider_item = _cider(cand_grams, [ref_grams], idf_by_n, n_docs, CIDER_SCALE)
        yield (
            _bleu4(len(cand), cand_grams, [len(ref)], ref_grams),
            _rouge_l(cand, ref),
            _meteor(cand, ref, stem),
            cider_item,
        )


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
        return {name: getattr(self, name) for name in _REPORT_KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreReport":
        return cls(**{name: data[name] for name in _REPORT_KEYS if name in data})


_REPORT_KEYS = tuple(f.name for f in fields(ScoreReport) if f.name != "outcomes")


def load_predictions(path) -> dict:
    """Parse a line-delimited {sample_id, text} prediction file."""
    import json

    predictions: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                sample_id = row["sample_id"]
                text = row["text"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed prediction line ({exc})") from exc
            if not isinstance(sample_id, str) or not isinstance(text, str):
                raise ValueError(
                    f"{path}:{lineno}: malformed prediction line (sample_id and text must be strings)"
                )
            if sample_id in predictions:
                raise ValueError(f"{path}:{lineno}: duplicate sample_id {sample_id!r}")
            predictions[sample_id] = text
    return predictions


def record_correctness(record, text: str) -> tuple[bool, bool]:
    """(correct, parseable) for one prediction text against its record.

    Missing or malformed tags are incorrect; MCQA compares the letter,
    SPE OpenQA applies the record's numeric tolerance window, all other
    OpenQA payloads match the canonical label under case folding.
    """
    tag = TagKind.ANSWER if record.format == "MCQA" else TASK_TAGS[record.task]
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
    gt = parse_tag(record.answer, TASK_TAGS[record.task])
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
    text_scores = _ajsd_text_scores(ajsd_records, predictions)
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
        for fmt in ("MCQA", "OpenQA"):
            correct = [o.correct for o in task_outcomes if o.format == fmt]
            if correct:
                key = "mcqa_accuracy_pct" if fmt == "MCQA" else "openqa_accuracy_pct"
                stats[key] = round(100.0 * sum(correct) / len(correct), 4)
                stats[f"{fmt.lower()}_count"] = len(correct)
        report.per_task[task] = stats
        labeled = [o for o in task_outcomes if o.snr_db is not None]
        if labeled:
            report.snr_tables[task] = _snr_rows(labeled, {o.snr_db for o in labeled})

    if ajsd_records:
        n = len(ajsd_records)
        bleu, rouge, met, cid = zip(*(o.text_scores for o in outcomes if o.task == "AJSD"))
        b, r_l, m = sum(bleu) / n, sum(rouge) / n, sum(met) / n
        # CIDEr's IDF needs at least two items; below that, it and the
        # composite built on it are reported as null.
        c_mean = sum(cid) / n if n >= 2 else None
        report.ajsd = {
            "bleu4": round(b, 6),
            "rouge_l": round(r_l, 6),
            "meteor": round(m, 6),
            "cider": None if c_mean is None else round(c_mean, 6),
            "composite": None if c_mean is None else round(ajsd_composite(b, r_l, m, c_mean), 4),
            "count": n,
        }
    return report


def format_report_table(report: ScoreReport) -> str:
    """Human-readable headline table."""
    lines = [f"{'task':6s} {'format':8s} {'count':>6s} {'score':>9s}"]
    for task, stats in sorted(report.per_task.items()):
        if "mcqa_accuracy_pct" in stats:
            lines.append(
                f"{task:6s} {'MCQA':8s} {stats['mcqa_count']:>6d} "
                f"{stats['mcqa_accuracy_pct']:>8.2f}%"
            )
        if "openqa_accuracy_pct" in stats:
            lines.append(
                f"{task:6s} {'OpenQA':8s} {stats['openqa_count']:>6d} "
                f"{stats['openqa_accuracy_pct']:>8.2f}%"
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
