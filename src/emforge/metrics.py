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
reference per item. Items repeat (references come from rule tables, and
items that share a reference can share a prediction too), so it scores
each distinct (reference, candidate) pair once and gives the tuple to
every item that has it. Pass 1 interns the distinct references and walks them
once, in chunks, numbering their 1-4-grams per order and counting
CIDEr's document frequencies, each reference weighted by how many items
use it. Pass 2 walks the distinct pairs grouped by reference, in chunks
of whole groups so that no array grows with the corpus: ROUGE-L and
METEOR per pair, then one array pass per order over the chunk's
references and candidates for BLEU's clipped matches, CIDEr's dot
products and both TF-IDF norms. ROUGE-L's LCS length is bit-parallel
over Python ints (Allison & Dix 1986; Hyyrö 2004); METEOR looks each
token, then each stem, up in a map to its unused reference positions,
and builds the exact-match map once per reference. `score_predictions`
and all four public metrics run `_text_scores`: `bleu4`, `rouge_l` and
`meteor` as a one-pair corpus. Every per-item formula keeps one order of
operations: float sums run left to right over the candidate's, or the
reference's, n-grams in first-occurrence order (`np.bincount` adds in
index order, and its entries are laid out in that order), logs, exps
and square roots are scalar `math` calls, and corpus means are sums of
per-item lists in record order, so a score does not depend on which
caller computed it.

Pass 2 runs on two processes when `os.fork` exists, more than one CPU is
usable, no second thread is alive (forking a threaded process can
deadlock the child), and at least two reference groups hold at least
2 * _CHUNK_TOKENS of estimated work: a forked child scores the groups
past the point where the running work estimate passes half, and pipes
its tuples back. No byte depends on the split, because a pair's floats
depend only on the references, the n-gram tables and the pair's own
tokens (see `_text_scores`). The one-pair calls never fork.
"""

from __future__ import annotations

import math
import os
import pickle
import re
import threading
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import get_type_hints

import numpy as np

from .manifest import ANSWER_TAGS, FORMATS, TAG_PATTERNS, TagKind, read_jsonl

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


def _free_positions(keys, used=frozenset()) -> dict:
    """Each key's reference positions outside `used`, in a list, earliest last."""
    free: dict = {}
    for j, key in reversed(list(enumerate(keys))):
        if j not in used:
            free.setdefault(key, []).append(j)
    return free


def _take(keys, free: dict, pairs: dict) -> None:
    """Align each unaligned candidate position to its key's earliest free reference position."""
    for i, key in enumerate(keys):
        if i not in pairs:
            slots = free.get(key)
            if slots:
                pairs[i] = slots.pop()


def _meteor_alignment(cand: list, ref: list, stem, exact: dict | None = None) -> list[tuple]:
    """Greedy two-stage alignment: exact matches first, then stem matches.

    Each pass walks the candidate left to right and takes the earliest
    unused reference position with the same key, which keeps identical
    sentences in one contiguous chunk. `exact` is the reference's
    `_free_positions`, which a caller scoring many candidates against one
    reference builds once; the exact pass takes from a copy of it.
    """
    if exact is None:
        exact = _free_positions(ref)
    pairs: dict[int, int] = {}
    _take(cand, {key: slots.copy() for key, slots in exact.items()}, pairs)
    if len(pairs) < len(cand):
        _take(map(stem, cand), _free_positions(map(stem, ref), set(pairs.values())), pairs)
    return sorted(pairs.items())


def _meteor(cand: list, ref: list, stem, exact: dict | None = None) -> float:
    if not cand or not ref:
        return 0.0
    pairs = _meteor_alignment(cand, ref, stem, exact)
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


# Sequences are coded and scored in chunks of about this many tokens
# (whole references, or whole reference groups), which bounds the arrays.
_CHUNK_TOKENS = 4096


def _chunks(items, size):
    """Consecutive runs of `items`, each closed once its `size`s reach _CHUNK_TOKENS."""
    run, total = [], 0
    for item in items:
        run.append(item)
        total += size(item)
        if total >= _CHUNK_TOKENS:
            yield run
            run, total = [], 0
    if run:
        yield run


def _flatten(seqs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`seqs` end to end: (tokens, each token's sequence, tokens left in its sequence from it)."""
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    tokens = np.fromiter(chain.from_iterable(seqs), np.int64, int(lengths.sum()))
    seq = np.repeat(np.arange(len(seqs)), lengths)
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(tokens))
    return tokens, seq, left


def _distinct(seq: np.ndarray, codes: np.ndarray):
    """(sequence, code, count) of each sequence's distinct codes, sequence
    by sequence, each in order of first occurrence. `seq` must be sorted."""
    n = len(codes)
    # The (code, position) keys are unique, so any sort orders them the same way,
    # and each sequence's occurrences of a code end up in one run, earliest first.
    order = np.argsort(codes * n + np.arange(n))
    by_code, by_seq = codes[order], seq[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (by_code[1:] != by_code[:-1]) | (by_seq[1:] != by_seq[:-1])
    starts = np.flatnonzero(new)
    heads = order[starts]  # each run's first position
    first = np.zeros(n, dtype=bool)
    first[heads] = True
    count = np.zeros(n, dtype=np.int64)
    count[heads] = np.diff(np.r_[starts, n])
    return seq[first], codes[first], count[first]


def _rows(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Each key's row in the sorted `table`, or len(table) where it is absent."""
    order = np.argsort(keys)
    rows = np.empty_like(order)
    # searchsorted walks sorted queries much faster than scattered ones.
    rows[order] = np.searchsorted(table, keys[order])
    found = rows < len(table)
    found[found] = table[rows[found]] == keys[found]
    rows[~found] = len(table)
    return rows


def _log_ratios(n_docs: int, counts: np.ndarray) -> np.ndarray:
    """math.log(n_docs / c) per count c: one scalar call per distinct count,
    because np.log may differ from math.log in the last place."""
    values, inverse = np.unique(counts, return_inverse=True)
    return np.array([math.log(n_docs / c) for c in values.tolist()])[inverse]


class _NgramTables:
    """BLEU4 and CIDEr of candidates against a fixed set of distinct references.

    N-grams are numbered per order n. An n-gram's key is its (n-1)-gram's
    code times `n_tokens` plus its last token, so a key stays below
    (tokens)^2 for any vocabulary size. Per order, a table sorted by key
    gives each reference n-gram's code; codes are handed out chunk by
    chunk as n-grams first appear, so no code ever changes. Token ids
    below `n_tokens` are exactly the reference tokens: the vocabulary
    interned the references first. The constructor walks the references
    once, in chunks, filling the tables and CIDEr's document frequencies.

    Every float sum is an `np.bincount` with weights over entries laid out
    sequence by sequence, each sequence's distinct n-grams in order of
    first occurrence. bincount adds each bin's weights in index order, so
    every norm and dot product is summed in the order of a left-to-right
    loop over the n-grams: the byte-identical report depends on this.
    Logs, exps and square roots stay scalar `math` calls.
    """

    def __init__(self, refs: list, uses: list[int], n_docs: int, n_tokens: int):
        self.n_tokens = n_tokens
        # Per order: the sorted keys of the reference n-grams and each key's code.
        self.tables = [(np.empty(0, np.int64), np.empty(0, np.int64))] * NGRAM_ORDER
        df = [np.zeros(0)] * NGRAM_ORDER
        for rows in _chunks(range(len(refs)), lambda r: len(refs[r])):
            tokens, seq, left = _flatten([refs[r] for r in rows])
            weight = np.array([uses[r] for r in rows], dtype=np.float64)
            for n, (at, code, width) in enumerate(self._codes(tokens, left, n_tokens, learn=True)):
                ref, gram, _ = _distinct(seq[at], code)
                # CIDEr's document frequency: one document per item using the reference.
                counts = np.zeros(width)
                counts[: len(df[n])] = df[n]
                counts += np.bincount(gram, weights=weight[ref], minlength=width)
                df[n] = counts
        # A trailing entry holds the IDF of n-grams absent from every reference: log(N).
        self.idf = [np.append(_log_ratios(n_docs, counts), math.log(n_docs)) for counts in df]

    def _codes(self, tokens: np.ndarray, left: np.ndarray, vocab_size: int, learn: bool = False):
        """Per order: (start positions, codes, code bound) of the n-grams of flat `tokens`.

        An n-gram missing from its table gets a code from the table's size
        up, numbered per call in the order of its fresh key, which is unique
        because every token id is below `vocab_size`. With `learn` the fresh
        n-grams join the tables: `vocab_size` is then `n_tokens`, so their
        fresh keys are table keys.
        """
        codes = np.zeros_like(tokens)  # order 0 has one n-gram, coded 0
        out = []
        for n, (keys, key_codes) in enumerate(self.tables):
            at = np.flatnonzero(left > n)
            prev, nxt = codes[at], tokens[at + n]
            row = _rows(keys, prev * self.n_tokens + nxt)
            code = np.append(key_codes, -1)[row]
            # A token the references lack could alias another n-gram's key.
            miss = (row == len(keys)) | (nxt >= self.n_tokens)
            fresh, code[miss] = np.unique(prev[miss] * vocab_size + nxt[miss], return_inverse=True)
            code[miss] += len(keys)
            width = len(keys) + len(fresh)
            if learn:
                keys = np.append(keys, fresh)
                by_key = np.argsort(keys)
                key_codes = np.append(key_codes, np.arange(len(key_codes), width))
                self.tables[n] = keys[by_key], key_codes[by_key]
            codes[at] = code
            out.append((at, code, width))
        return out

    def score(self, groups: list, vocab_size: int) -> list[tuple[float, float]]:
        """(BLEU4, CIDEr) of every candidate of the (reference, candidates) groups, in order.

        The references and candidates are coded together. Candidate n-grams
        no reference has get fresh codes and the maximum IDF.
        """
        refs = [ref for ref, _ in groups]
        cands = [cand for _, group in groups for cand in group]
        ref_of = np.repeat(np.arange(len(groups)), [len(group) for _, group in groups])
        tokens, seq, left = _flatten(refs + cands)
        sums = []
        for (at, code, width), idf in zip(self._codes(tokens, left, vocab_size), self.idf):
            s, gram, count = _distinct(seq[at], code)
            w = count * idf[np.minimum(gram, len(idf) - 1)]
            split = np.searchsorted(s, len(refs))
            ref, ref_gram, ref_count, ref_w = s[:split], gram[:split], count[:split], w[:split]
            ref_sq = np.bincount(ref, weights=ref_w * ref_w, minlength=len(refs))
            ref_norm = np.array([math.sqrt(x) for x in ref_sq.tolist()])
            # The (reference, n-gram) keys sorted, with a trailing row for absent n-grams.
            ref_keys = ref * width + ref_gram
            by_key = np.argsort(ref_keys)
            ref_keys = ref_keys[by_key]
            clip = np.append(ref_count[by_key], 0)
            ref_w = np.append(ref_w[by_key], 0.0)
            pair, gram, count, w = s[split:] - len(refs), gram[split:], count[split:], w[split:]
            # Each candidate n-gram's row in its own reference's table.
            row = _rows(ref_keys, ref_of[pair] * width + gram)
            # Per pair: clipped matches, dot product and squared norm, then the reference norm.
            sums.append([
                np.bincount(pair, weights=weights, minlength=len(cands)).tolist()
                for weights in (np.minimum(count, clip[row]), w * ref_w[row], w * w)
            ] + [ref_norm[ref_of].tolist()])
        scores = []
        for i, (cand, r) in enumerate(zip(cands, ref_of.tolist())):
            cand_len, ref_len = len(cand), len(refs[r])
            log_sum = 0.0
            cider_sum = 0.0
            for n, (matched, dot, sq, ref_norm) in enumerate(sums):
                # A match implies at least one of the cand_len - n candidate (n+1)-grams.
                log_sum += math.log(matched[i] / (cand_len - n)) if matched[i] else _LOG_EPSILON
                norm = math.sqrt(sq[i])
                if norm != 0.0 and ref_norm[i] != 0.0:
                    cider_sum += dot[i] / (norm * ref_norm[i])
            cider_score = cider_sum / NGRAM_ORDER
            if not cand_len:
                scores.append((0.0, cider_score))
                continue
            bp = 1.0 if cand_len > ref_len else math.exp(1 - ref_len / cand_len)
            scores.append((bp * math.exp(log_sum / 4), cider_score))
        return scores


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork(n_groups: int, work: int) -> bool:
    """Whether pass 2 is worth a second process and safe to fork for.

    Forking a process with a second thread alive can deadlock the child.
    """
    return (
        n_groups >= 2
        and work >= 2 * _CHUNK_TOKENS
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and _usable_cpus() > 1
    )


def _forked_split(scored, cut: int, n_groups: int) -> list:
    """scored(0, cut) + scored(cut, n_groups), the second part scored by a forked child.

    The child sends its list, or its error text, back over a pipe with
    pickle and always leaves through os._exit, so it never flushes
    inherited stdio or runs exit handlers. The parent scores the first
    part meanwhile. On any exit the parent kills the child if it may
    still be running and reaps it.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = True, scored(cut, n_groups)
            except BaseException as exc:
                result = False, f"{type(exc).__name__}: {exc}"
            with open(write_fd, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            head = scored(0, cut)
            sent = pipe.read()
    except BaseException:
        import signal  # only a failed split needs it

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status or not sent:
        raise RuntimeError("the scoring child process exited without a result")
    ok, tail = pickle.loads(sent)
    if not ok:
        raise RuntimeError(f"the scoring child process failed: {tail}")
    return head + tail


def _text_scores(references: list[str], candidates: list[str]) -> list[tuple]:
    """(bleu4, rouge_l, meteor, cider) per (reference, candidate) pair, in order.

    Each distinct pair is scored once and its tuple given to every item
    that has it. Pass 1 interns the distinct references and builds the
    n-gram tables, where CIDEr's document frequencies count every item.
    Pass 2 interns and scores the distinct pairs reference group by
    reference group: ROUGE-L and METEOR per pair, BLEU4 and CIDEr per
    chunk of whole groups. CIDEr is None below two items.

    Pass 2 runs on two processes where `_can_fork` allows: the groups are
    cut where the running work estimate, reference tokens times (1 +
    distinct candidates) per group, passes half, and a forked child
    scores the second part. No byte depends on the split. A pair's floats
    depend only on the references, the tables and the pair's own tokens;
    candidate tokens the references lack act only through equality (their
    n-grams take the trailing IDF, and `_distinct` orders by position, not
    by code), and chunk boundaries enter no per-item sum.
    """
    if not references:
        return []
    groups: dict[str, dict[str, list[int]]] = {}
    for i, (ref, cand) in enumerate(zip(references, candidates, strict=True)):
        groups.setdefault(ref, {}).setdefault(cand, []).append(i)
    vocab = _Vocab()
    refs = [vocab.intern(text) for text in groups]
    n_docs = len(references)
    uses = [sum(map(len, group.values())) for group in groups.values()]
    tables = _NgramTables(refs, uses, n_docs, len(vocab.ids))
    stem = vocab.stem_of.__getitem__
    cand_texts = [list(group) for group in groups.values()]

    def scored(lo: int, hi: int) -> list[tuple]:
        """The score tuple of each distinct pair of reference groups lo..hi-1, in order."""

        def scored_groups():
            # Per reference: its tokens, its candidates' tokens and their (ROUGE-L, METEOR).
            for ref, texts in zip(refs[lo:hi], cand_texts[lo:hi]):
                exact = _free_positions(ref)
                cands = [vocab.intern(text) for text in texts]
                yield ref, cands, [(_rouge_l(cand, ref), _meteor(cand, ref, stem, exact))
                                   for cand in cands]

        out = []
        for chunk in _chunks(scored_groups(), lambda g: len(g[0]) + sum(map(len, g[1]))):
            bleu_cider = tables.score([(ref, cands) for ref, cands, _ in chunk], len(vocab.ids))
            rows = chain.from_iterable(rows for _, _, rows in chunk)
            out += [(bleu, rouge, met, cider_score if n_docs >= 2 else None)
                    for (rouge, met), (bleu, cider_score) in zip(rows, bleu_cider)]
        return out

    work = np.cumsum([len(ref) * (1 + len(texts)) for ref, texts in zip(refs, cand_texts)])
    if _can_fork(len(refs), int(work[-1])):
        cut = min(int(np.searchsorted(work, work[-1] / 2)) + 1, len(refs) - 1)
        pairs = _forked_split(scored, cut, len(refs))
    else:
        pairs = scored(0, len(refs))
    scores: list = [None] * n_docs
    items = chain.from_iterable(group.values() for group in groups.values())
    for pair_items, scored_pair in zip(items, pairs, strict=True):
        for i in pair_items:
            scores[i] = scored_pair
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
    match = TAG_PATTERNS[tag].search(text)
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
    tag = ANSWER_TAGS[record.task, record.format]
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
