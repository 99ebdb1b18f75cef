"""Scoring: tag parsing, accuracies, text metrics, and report assembly.

All four text metrics share one tokenizer (case-fold, detach punctuation,
whitespace split; decimals like "2.5" stay one token). BLEU4 uses
add-epsilon smoothing for zero n-gram precisions; ROUGE is the LCS
F-measure with beta = 1.2; METEOR uses exact-then-stem matching with
alpha = 0.9, beta = 3.0, gamma = 0.5 and no synonym resource; CIDEr is
the mean over n of TF-IDF n-gram cosine similarity at scale 1.0.
Unparseable or missing predictions count as incorrect.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

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


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu4(candidate: str, references: list[str] | str) -> float:
    """Geometric mean of clipped 1-4-gram precisions times brevity penalty."""
    if isinstance(references, str):
        references = [references]
    cand = tokenize(candidate)
    refs = [tokenize(r) for r in references]
    if not cand or not refs:
        return 0.0

    log_sum = 0.0
    for n in range(1, 5):
        counts = _ngrams(cand, n)
        total = sum(counts.values())
        if total == 0:
            log_sum += math.log(BLEU_EPSILON)
            continue
        clip = Counter()
        for ref in refs:
            ref_counts = _ngrams(ref, n)
            for gram in counts:
                clip[gram] = max(clip[gram], ref_counts.get(gram, 0))
        matched = sum(min(counts[g], clip[g]) for g in counts)
        precision = matched / total
        log_sum += math.log(precision) if precision > 0 else math.log(BLEU_EPSILON)

    c = len(cand)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]  # closest ref length
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(log_sum / 4)


def _lcs_len(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> float:
    """LCS-based F-measure with beta weighting recall."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_len(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    beta_sq = ROUGE_BETA**2
    return (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)


def _meteor_alignment(cand: list[str], ref: list[str]) -> list[tuple[int, int]]:
    """Greedy two-stage alignment: exact matches first, then stem matches.

    Each pass walks the candidate left to right and takes the earliest
    unused reference position, which keeps identical sentences in one
    contiguous chunk.
    """
    used_ref: set[int] = set()
    pairs: dict[int, int] = {}
    for key in (lambda t: t, _stem):
        for i, tok in enumerate(cand):
            if i in pairs:
                continue
            want = key(tok)
            for j, rtok in enumerate(ref):
                if j not in used_ref and key(rtok) == want:
                    pairs[i] = j
                    used_ref.add(j)
                    break
    return sorted(pairs.items())


def meteor(candidate: str, reference: str) -> float:
    """Harmonic-mean F with a fragmentation (chunk) penalty."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    pairs = _meteor_alignment(cand, ref)
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


def _tfidf_vec(tokens: list[str], n: int, idf: dict) -> dict:
    counts = _ngrams(tokens, n)
    return {g: c * idf.get(g, 0.0) for g, c in counts.items()}


def _cosine(u: dict, v: dict) -> float:
    dot = sum(val * v[g] for g, val in u.items() if g in v)
    nu = math.sqrt(sum(val * val for val in u.values()))
    nv = math.sqrt(sum(val * val for val in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


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
    idf_by_n: list[dict] = []
    for n in range(1, n_max + 1):
        df = Counter()
        for refs in ref_tokens:
            seen = set()
            for toks in refs:
                seen.update(_ngrams(toks, n).keys())
            df.update(seen)
        idf_by_n.append({g: math.log(n_docs / max(c, 1)) for g, c in df.items()})

    def idf_for(n: int, gram) -> float:
        return idf_by_n[n - 1].get(gram, math.log(n_docs))

    per_item = []
    for cand_text, refs in zip(candidates, ref_tokens):
        cand = tokenize(cand_text)
        score_n = []
        for n in range(1, n_max + 1):
            idf = idf_by_n[n - 1]
            u = {g: c * idf_for(n, g) for g, c in _ngrams(cand, n).items()}
            sims = [_cosine(u, _tfidf_vec(toks, n, idf)) for toks in refs]
            score_n.append(sum(sims) / len(sims) if sims else 0.0)
        per_item.append(scale * sum(score_n) / n_max)
    return per_item, sum(per_item) / n_docs


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


@dataclass
class ScoreReport:
    per_task: dict = field(default_factory=dict)
    ajsd: dict | None = None
    snr_tables: dict = field(default_factory=dict)
    unparseable: int = 0
    total: int = 0

    def to_dict(self) -> dict:
        return {
            "per_task": self.per_task,
            "ajsd": self.ajsd,
            "snr_tables": self.snr_tables,
            "unparseable": self.unparseable,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreReport":
        return cls(
            per_task=data.get("per_task", {}),
            ajsd=data.get("ajsd"),
            snr_tables=data.get("snr_tables", {}),
            unparseable=data.get("unparseable", 0),
            total=data.get("total", 0),
        )


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


def snr_binned_report(predictions: dict, records, bins) -> list[dict]:
    """Accuracy per SNR bin; rows sorted by bin value.

    Empty bins report count 0 and a None accuracy marker.
    """
    rows = []
    for snr in sorted(bins):
        in_bin = [r for r in records if r.snr_db == snr]
        n = len(in_bin)
        correct = sum(
            1 for r in in_bin if record_correctness(r, predictions.get(r.sample_id, ""))[0]
        )
        rows.append(
            {
                "snr_db": snr,
                "count": n,
                "accuracy_pct": round(100.0 * correct / n, 4) if n else None,
            }
        )
    return rows


def score_predictions(records, predictions: dict) -> ScoreReport:
    """Fold a {sample_id: text} prediction map against manifest records."""
    known = {r.sample_id for r in records}
    for sample_id in predictions:
        if sample_id not in known:
            raise KeyError(f"prediction for unknown sample_id {sample_id!r}")

    report = ScoreReport(total=len(records))
    by_task: dict[str, list] = {}
    for record in records:
        by_task.setdefault(record.task, []).append(record)

    for task, task_records in sorted(by_task.items()):
        if task == "AJSD":
            continue
        stats: dict = {}
        for fmt in ("MCQA", "OpenQA"):
            fmt_records = [r for r in task_records if r.format == fmt]
            if not fmt_records:
                continue
            n_correct = 0
            for r in fmt_records:
                ok, parseable = record_correctness(r, predictions.get(r.sample_id, ""))
                if not parseable:
                    report.unparseable += 1
                n_correct += ok
            key = "mcqa_accuracy_pct" if fmt == "MCQA" else "openqa_accuracy_pct"
            stats[key] = round(100.0 * n_correct / len(fmt_records), 4)
            stats[f"{fmt.lower()}_count"] = len(fmt_records)
        report.per_task[task] = stats

    ajsd_records = by_task.get("AJSD", [])
    if ajsd_records:
        cands = []
        for r in ajsd_records:
            text = predictions.get(r.sample_id, "").strip()
            if not text:
                report.unparseable += 1
            cands.append(text)
        refs = [[r.answer] for r in ajsd_records]
        b = sum(bleu4(c, rs) for c, rs in zip(cands, refs)) / len(cands)
        r_l = sum(rouge_l(c, rs[0]) for c, rs in zip(cands, refs)) / len(cands)
        m = sum(meteor(c, rs[0]) for c, rs in zip(cands, refs)) / len(cands)
        # CIDEr's IDF needs at least two items; below that, it and the
        # composite built on it are reported as null.
        c_mean = cider(cands, refs)[1] if len(cands) >= 2 else None
        report.ajsd = {
            "bleu4": round(b, 6),
            "rouge_l": round(r_l, 6),
            "meteor": round(m, 6),
            "cider": None if c_mean is None else round(c_mean, 6),
            "composite": None if c_mean is None else round(ajsd_composite(b, r_l, m, c_mean), 4),
            "count": len(ajsd_records),
        }

    for task, task_records in sorted(by_task.items()):
        if task == "AJSD":
            continue
        labeled = [r for r in task_records if r.snr_db is not None]
        snrs = sorted({r.snr_db for r in labeled})
        if snrs:
            report.snr_tables[task] = snr_binned_report(predictions, labeled, snrs)
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
