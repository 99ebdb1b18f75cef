"""Text metrics against independent brute-force implementations, tag
parsing, accuracy folds, and report formatting.

The scorer's O(n*m) dynamic-programming LCS, its scan-based METEOR
alignment and its per-item streaming text scorer live on here as exact
oracles for the bit-parallel LCS, the indexed alignment and the scorer
grouped by reference that replaced them.
"""

import json
import math
import os
import threading
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emforge import metrics
from emforge.corpus import CorpusSpec, build_corpus
from emforge.manifest import ManifestRecord, ScoreReport, load_predictions
from emforge.metrics import (
    _CHUNK_TOKENS,
    BLEU_EPSILON,
    METEOR_ALPHA,
    METEOR_BETA,
    METEOR_GAMMA,
    NGRAM_ORDER,
    ROUGE_BETA,
    _matches,
    _meteor,
    _rouge_l,
    _stem,
    _text_scores,
    _Vocab,
    ajsd_composite,
    bleu4,
    cider,
    mean_of_four,
    meteor,
    parse_tag,
    rouge_l,
    score_predictions,
    snr_binned_report,
    tokenize,
)

# ---------------------------------------------------------------------------
# Brute-force oracles, written independently of the package implementations.
# ---------------------------------------------------------------------------


def _grams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def oracle_bleu4(candidate, reference):
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand:
        return 0.0
    product = 1.0
    for n in (1, 2, 3, 4):
        cand_grams = _grams(cand, n)
        if not cand_grams:
            product *= BLEU_EPSILON
            continue
        ref_counts = Counter(_grams(ref, n))
        hits = 0
        cand_counts = Counter(cand_grams)
        for gram, count in cand_counts.items():
            hits += min(count, ref_counts.get(gram, 0))
        p = hits / len(cand_grams)
        product *= p if p > 0 else BLEU_EPSILON
    bp = 1.0 if len(cand) > len(ref) else math.exp(1 - len(ref) / len(cand))
    return bp * product**0.25


def oracle_rouge_l(candidate, reference):
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    table = [[0] * (len(ref) + 1) for _ in range(len(cand) + 1)]
    for i in range(1, len(cand) + 1):
        for j in range(1, len(ref) + 1):
            if cand[i - 1] == ref[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    lcs = table[-1][-1]
    if lcs == 0:
        return 0.0
    p = lcs / len(cand)
    r = lcs / len(ref)
    b2 = ROUGE_BETA**2
    return (1 + b2) * p * r / (r + b2 * p)


def oracle_cider(candidates, references):
    all_cand = [tokenize(c) for c in candidates]
    all_refs = [tokenize(r) for r in references]
    n_docs = len(candidates)
    scores = []
    for cand, ref in zip(all_cand, all_refs):
        per_n = []
        for n in (1, 2, 3, 4):
            def idf(gram):
                df = sum(1 for toks in all_refs if gram in _grams(toks, n))
                return math.log(n_docs / max(df, 1))

            u = {g: c * idf(g) for g, c in Counter(_grams(cand, n)).items()}
            v = {g: c * idf(g) for g, c in Counter(_grams(ref, n)).items()}
            dot = sum(val * v.get(g, 0.0) for g, val in u.items())
            nu = math.sqrt(sum(x * x for x in u.values()))
            nv = math.sqrt(sum(x * x for x in v.values()))
            per_n.append(0.0 if nu == 0 or nv == 0 else dot / (nu * nv))
        scores.append(sum(per_n) / 4)
    return scores, sum(scores) / n_docs


def oracle_lcs_len(a, b):
    """Row-by-row dynamic programming over every (i, j) cell."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def oracle_meteor_alignment(cand, ref):
    """Exact pass then stem pass; each candidate token scans the reference
    for the earliest unused position with an equal key."""
    used_ref = set()
    pairs = {}
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


def oracle_meteor(candidate, reference):
    cand = tokenize(candidate)
    ref = tokenize(reference)
    pairs = oracle_meteor_alignment(cand, ref)
    if not pairs:
        return 0.0
    m = len(pairs)
    p = m / len(cand)
    r = m / len(ref)
    f = p * r / (METEOR_ALPHA * p + (1 - METEOR_ALPHA) * r)
    chunks = 1 + sum(
        1 for (ci, ri), (cj, rj) in zip(pairs, pairs[1:]) if (cj, rj) != (ci + 1, ri + 1)
    )
    return f * (1 - METEOR_GAMMA * (chunks / m) ** METEOR_BETA)


# The per-item streaming scorer the grouped one replaced, verbatim but for
# the oracle_ prefix: every reference tokenised up front, every item's
# n-gram counters built, scored and dropped in record order.


def _ngrams(tokens: list, n: int):
    return zip(*(tokens[k:] for k in range(n)))


def _ngram_counts(tokens: list) -> list[Counter]:
    """Counts of the 1-4-grams of `tokens`, keyed by tuple, in first-occurrence order."""
    return [Counter(_ngrams(tokens, n)) for n in range(1, NGRAM_ORDER + 1)]


def _bleu4(cand_len: int, cand_grams: list, ref_len: int, ref_grams: list) -> float:
    """BLEU4 from the 1-4-gram counts of a candidate and its reference."""
    if not cand_len:
        return 0.0

    log_sum = 0.0
    for counts, clip in zip(cand_grams, ref_grams):
        total = sum(counts.values())
        if total == 0:
            log_sum += math.log(BLEU_EPSILON)
            continue
        matched = sum(min(c, clip.get(g, 0)) for g, c in counts.items())
        precision = matched / total
        log_sum += math.log(precision) if precision > 0 else math.log(BLEU_EPSILON)

    bp = 1.0 if cand_len > ref_len else math.exp(1 - ref_len / cand_len)
    return bp * math.exp(log_sum / 4)


def _idf_tables(refs: list, n_docs: int) -> list[dict]:
    """Per n, log(N / document frequency) of every reference n-gram (one document per item)."""
    df = [Counter() for _ in range(NGRAM_ORDER)]
    for toks in refs:
        for n, counts in enumerate(df, 1):
            counts.update(set(_ngrams(toks, n)))
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


def _cider(cand_grams: list, ref_grams: list, idf_by_n: list, n_docs: int) -> float:
    """One item's mean over n of TF-IDF cosines; n-grams absent from every reference get log(N)."""
    default = math.log(n_docs)
    score_n = [
        _cosine(_tfidf_vec(cand, idf, default), _tfidf_vec(ref, idf, default))
        for cand, ref, idf in zip(cand_grams, ref_grams, idf_by_n)
    ]
    return sum(score_n) / len(idf_by_n)


def oracle_text_scores(references: list[str], candidates):
    """(bleu4, rouge_l, meteor, cider) per (reference, candidate) pair, in order.

    `candidates` may be any iterable; it is read one item at a time after
    every reference is tokenised. CIDEr is None below two items.
    """
    vocab = _Vocab()
    refs = [vocab.intern(r) for r in references]
    n_docs = len(refs)
    idf_by_n = _idf_tables(refs, n_docs) if n_docs >= 2 else None
    stem = vocab.stem_of.__getitem__
    for ref, candidate in zip(refs, candidates):
        cand = vocab.intern(candidate)
        cand_grams = _ngram_counts(cand)
        ref_grams = _ngram_counts(ref)
        ((lcs, pairs),) = _matches(ref, [cand], stem)
        yield (
            _bleu4(len(cand), cand_grams, len(ref), ref_grams),
            _rouge_l(lcs, len(cand), len(ref)),
            _meteor(pairs, len(cand), len(ref)),
            None if idf_by_n is None else _cider(cand_grams, ref_grams, idf_by_n, n_docs),
        )


_WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
# Words that collide under the stemmer, so METEOR's second pass has work.
_STEM_WORDS = ["jump", "jumps", "jumped", "jumping", "alpha", "alphas", "echo", "echoes"]


def _random_sentence(rng, max_len=10, words=_WORDS):
    n = int(rng.integers(1, max_len + 1))
    return " ".join(words[i] for i in rng.integers(0, len(words), n))


class TestBleu:
    def test_identical_is_one(self):
        text = "alpha bravo charlie delta echo"
        assert abs(bleu4(text, text) - 1.0) < 1e-12

    def test_disjoint_is_zero(self):
        assert bleu4("alpha bravo", "charlie delta") < 1e-6

    def test_worked_example(self):
        got = bleu4("a b c d e", "a b c d f")
        expected = (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        assert abs(got - expected) < 1e-9

    def test_oracle_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            cand, ref = _random_sentence(rng), _random_sentence(rng)
            assert abs(bleu4(cand, ref) - oracle_bleu4(cand, ref)) < 1e-9

    def test_oracle_sweep_long_sentences(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            cand, ref = _random_sentence(rng, 80), _random_sentence(rng, 80)
            assert abs(bleu4(cand, ref) - oracle_bleu4(cand, ref)) < 1e-9


class TestRouge:
    def test_identical_is_one(self):
        assert abs(rouge_l("alpha bravo charlie", "alpha bravo charlie") - 1.0) < 1e-12

    def test_disjoint_is_zero(self):
        assert rouge_l("alpha bravo", "charlie delta") == 0.0

    def test_lcs_worked_example(self):
        # LCS("a b c", "a c b") = 2; with P = R the F-measure equals P.
        assert abs(rouge_l("a b c", "a c b") - 2 / 3) < 1e-9

    def test_oracle_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cand, ref = _random_sentence(rng), _random_sentence(rng)
            assert abs(rouge_l(cand, ref) - oracle_rouge_l(cand, ref)) < 1e-9

    def test_oracle_sweep_long_sentences(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            cand, ref = _random_sentence(rng, 80), _random_sentence(rng, 80)
            assert abs(rouge_l(cand, ref) - oracle_rouge_l(cand, ref)) < 1e-9

    @pytest.mark.parametrize("n_words", [1, 2, 8])
    def test_bit_parallel_lcs_matches_dp(self, n_words):
        # 63/64/65 straddle a 64-bit word; 1-2 word vocabularies repeat heavily.
        rng = np.random.default_rng(n_words)
        for len_a, len_b in product((0, 1, 63, 64, 65, 200, 500), repeat=2):
            a = [_WORDS[i] for i in rng.integers(0, n_words, len_a)]
            b = [_WORDS[i] for i in rng.integers(0, n_words, len_b)]
            # Masks over the reference a, the bit-parallel loop over the candidate b.
            [(lcs, _)] = _matches(a, [b], _stem)
            assert lcs == oracle_lcs_len(a, b), (len_a, len_b)


class TestMeteor:
    def test_zero_matches(self):
        assert meteor("alpha bravo", "charlie delta") == 0.0

    def test_identical_ten_tokens_closed_form(self):
        text = " ".join(_WORDS + ["india", "juliett"])
        assert len(tokenize(text)) == 10
        expected = 1.0 * (1 - METEOR_GAMMA * (1 / 10) ** METEOR_BETA)
        assert abs(meteor(text, text) - expected) < 1e-12

    def test_alignment_matches_scan(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            cand = tokenize(_random_sentence(rng, 30, _STEM_WORDS))
            ref = tokenize(_random_sentence(rng, 30, _STEM_WORDS))
            want = oracle_meteor_alignment(cand, ref)
            [(_, pairs)] = _matches(ref, [cand], _stem)
            assert pairs == want
            vocab = _Vocab()
            ids = vocab.intern(" ".join(ref)), vocab.intern(" ".join(cand))
            [(_, pairs)] = _matches(ids[0], [ids[1]], vocab.stem_of.__getitem__)
            assert pairs == want

    def test_a_groups_position_map_is_unchanged_after_scoring_its_candidates(self, monkeypatch):
        # One reference's position map and masks serve all its candidates; none takes from them.
        built = []
        positions = metrics._positions

        def recorded(keys, skip=()):
            found = positions(keys, skip)
            built.append((keys, found))
            return found

        monkeypatch.setattr(metrics, "_positions", recorded)
        rng = np.random.default_rng(15)
        for _ in range(50):
            ref = tokenize(_random_sentence(rng, 30, _STEM_WORDS))
            cands = [tokenize(_random_sentence(rng, 30, _STEM_WORDS)) for _ in range(5)]
            built.clear()
            got = list(_matches(ref, cands, _stem))
            assert [pairs for _, pairs in got] == [oracle_meteor_alignment(c, ref) for c in cands]
            assert [lcs for lcs, _ in got] == [oracle_lcs_len(ref, c) for c in cands]
            [group_map] = [found for keys, found in built if keys is ref]
            assert group_map == {tok: [j for j, t in enumerate(ref) if t == tok] for tok in ref}

    def test_oracle_sweep_long_sentences(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            cand = _random_sentence(rng, 80, _STEM_WORDS)
            ref = _random_sentence(rng, 80, _STEM_WORDS)
            assert meteor(cand, ref) == oracle_meteor(cand, ref)

    def test_reorder_scores_strictly_less(self):
        ref = "alpha bravo charlie delta echo foxtrot"
        reordered = "alpha charlie bravo delta foxtrot echo"
        assert meteor(reordered, ref) < meteor(ref, ref)

    @pytest.mark.parametrize(
        "cand,ref,m,chunks,cl,rl",
        [
            ("alpha bravo", "alpha bravo", 2, 1, 2, 2),
            ("alpha bravo charlie", "alpha bravo", 2, 1, 3, 2),
            ("bravo alpha", "alpha bravo", 2, 2, 2, 2),
            ("alpha charlie", "alpha bravo charlie", 2, 2, 2, 3),
            ("alpha bravo charlie delta", "delta charlie bravo alpha", 4, 4, 4, 4),
            ("alpha alpha", "alpha", 1, 1, 2, 1),
            ("jumping", "jump", 1, 1, 1, 1),  # stem-stage match
            ("alpha jumping bravo", "alpha jumped bravo", 3, 1, 3, 3),
            ("echo foxtrot golf hotel", "echo golf foxtrot hotel", 4, 4, 4, 4),
            ("alpha", "alpha bravo charlie delta echo", 1, 1, 1, 5),
        ],
    )
    def test_closed_form_fixtures(self, cand, ref, m, chunks, cl, rl):
        precision, recall = m / cl, m / rl
        f = precision * recall / (METEOR_ALPHA * precision + (1 - METEOR_ALPHA) * recall)
        expected = f * (1 - METEOR_GAMMA * (chunks / m) ** METEOR_BETA)
        assert abs(meteor(cand, ref) - expected) < 1e-12


class TestCider:
    def test_identical_single_reference(self):
        cands = ["alpha bravo charlie delta echo", "foxtrot golf hotel alpha bravo"]
        per_item, mean = cider(cands, cands)
        assert all(abs(s - 1.0) < 1e-12 for s in per_item)
        assert abs(mean - 1.0) < 1e-12

    def test_disjoint_ngrams(self):
        per_item, _ = cider(
            ["alpha bravo", "charlie delta"],
            ["echo foxtrot", "golf hotel"],
        )
        assert per_item[0] == 0.0

    def test_three_item_oracle(self):
        cands = [
            "alpha bravo charlie delta",
            "alpha bravo golf hotel",
            "echo foxtrot alpha delta",
        ]
        refs = [
            "alpha bravo charlie echo",
            "alpha bravo golf golf",
            "echo foxtrot alpha bravo",
        ]
        got_items, got_mean = cider(cands, refs)
        want_items, want_mean = oracle_cider(cands, refs)
        for g, w in zip(got_items, want_items):
            assert abs(g - w) < 1e-9
        assert abs(got_mean - want_mean) < 1e-9

    def test_oracle_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            cands = [_random_sentence(rng) for _ in range(n)]
            refs = [_random_sentence(rng) for _ in range(n)]
            got_items, got_mean = cider(cands, refs)
            want_items, want_mean = oracle_cider(cands, refs)
            assert np.allclose(got_items, want_items, atol=1e-9)
            assert abs(got_mean - want_mean) < 1e-9

    def test_oracle_sweep_long_sentences(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            n = int(rng.integers(2, 6))
            cands = [_random_sentence(rng, 80) for _ in range(n)]
            refs = [_random_sentence(rng, 80) for _ in range(n)]
            got_items, got_mean = cider(cands, refs)
            want_items, want_mean = oracle_cider(cands, refs)
            assert np.allclose(got_items, want_items, atol=1e-9)
            assert abs(got_mean - want_mean) < 1e-9

    def test_needs_two_items(self):
        with pytest.raises(ValueError, match=">= 2"):
            cider(["alpha"], ["alpha"])


def _candidate(rng, reference, words):
    """The reference itself, the reference with words dropped, or unrelated words."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return reference
    if kind == 1:
        return " ".join(t for t in reference.split() if rng.random() >= 0.3)
    return _random_sentence(rng, 30, words)


class TestGroupedTextScores:
    """The scorer grouped by reference returns the streaming oracle's tuples, with ==."""

    @staticmethod
    def _check(references, candidates):
        got = _text_scores(references, candidates)
        assert got == list(oracle_text_scores(references, candidates))
        return got

    @pytest.mark.parametrize("words", [_WORDS, _STEM_WORDS], ids=["plain", "stem_collisions"])
    def test_references_from_small_pools(self, words):
        # 1-4 reference texts, each used by 1-10 items, interleaved in record order.
        rng = np.random.default_rng(31 if words is _WORDS else 32)
        for _ in range(150):
            pool = [_random_sentence(rng, 30, words) for _ in range(int(rng.integers(1, 5)))]
            refs = [text for text in pool for _ in range(int(rng.integers(1, 11)))]
            rng.shuffle(refs)
            self._check(refs, [_candidate(rng, ref, words) for ref in refs])

    def test_blank_and_punctuation_candidates(self):
        refs = ["alpha bravo charlie", "jumped echoes , delta", "alpha bravo charlie"] * 3
        cands = ["", "   ", "\n\t ", "?!", ". , ;", "...", "alpha", "jumping echo", "-"]
        got = self._check(refs, cands)
        for (bleu, rouge, met, cid), cand in zip(got, cands):
            if not cand.strip():
                assert (bleu, rouge, met, cid) == (0.0, 0.0, 0.0, 0.0), cand

    def test_one_item_has_no_cider(self):
        (scores,) = self._check(["alpha bravo charlie delta"], ["alpha bravo delta"])
        assert scores[3] is None
        assert self._check([], []) == []

    def test_blank_and_punctuation_references(self):
        refs = ["", "?!", "alpha bravo", "", ". ,", "alpha bravo"]
        cands = ["alpha", "", "alpha bravo", "", "?!", ". ,"]
        self._check(refs, cands)

    def test_unpaired_items_rejected(self):
        with pytest.raises(ValueError):
            _text_scores(["alpha bravo", "charlie"], ["alpha"])

    def test_one_item_with_an_empty_candidate(self):
        (scores,) = self._check(["alpha bravo"], [""])
        assert scores == (0.0, 0.0, 0.0, None)

    def test_all_distinct_references(self):
        rng = np.random.default_rng(33)
        refs = [f"{_random_sentence(rng, 30)} ref{i}" for i in range(300)]
        self._check(refs, [_candidate(rng, ref, _WORDS) for ref in refs])

    def test_repeated_pairs_interleaved(self):
        # Each (reference, candidate) pair recurs between others in record order.
        rng = np.random.default_rng(34)
        pool = [_random_sentence(rng, 30, _STEM_WORDS) for _ in range(10)]
        pairs = [(ref, _candidate(rng, ref, _STEM_WORDS)) for ref in pool for _ in range(3)]
        items = [pairs[i] for i in rng.integers(0, len(pairs), 200)]
        assert len(set(items)) < len(items)
        got = self._check([ref for ref, _ in items], [cand for _, cand in items])
        for item, scores in zip(items, got):
            assert scores == got[items.index(item)]

    def test_many_chunks(self):
        # Enough distinct references for several chunks of the reference pass,
        # and enough candidates for several chunks of the scoring pass.
        rng = np.random.default_rng(35)
        pool = [_random_sentence(rng, 40, _STEM_WORDS) for _ in range(600)]
        refs = [pool[i] for i in rng.integers(0, len(pool), 1200)]
        cands = [_candidate(rng, ref, _STEM_WORDS) for ref in refs]
        assert sum(len(tokenize(ref)) for ref in set(refs)) > 2 * _CHUNK_TOKENS
        assert sum(len(tokenize(cand)) for cand in cands) > 3 * _CHUNK_TOKENS
        self._check(refs, cands)

    def test_vocabulary_past_int64_token_id_4grams(self):
        # Above 55,108 distinct tokens, a 4-gram code made straight from four
        # token ids would overflow int64; prefix codes keep the keys small.
        words = [f"w{i}" for i in range(55_200)]
        refs = [" ".join(words[i : i + 200]) for i in range(0, len(words), 200)]
        rng = np.random.default_rng(36)
        cands = [
            " ".join(ref.split()[j] for j in sorted(rng.choice(200, 12, replace=False)))
            + f" new{i} w{i} new{i + 1}"
            for i, ref in enumerate(refs)
        ]
        assert len({tok for ref in refs for tok in tokenize(ref)}) > 55_108
        self._check(refs, cands)

    def test_mixed_golden_corpus(self):
        # The AJSD records and predictions of the pinned mixed-report test.
        from test_golden import mixed_predictions

        train, bench = build_corpus(CorpusSpec.from_total(846, global_seed=5), None, render=False)
        records = train + bench
        predictions = mixed_predictions(records, seed=5)
        ajsd = [r for r in records if r.task == "AJSD"]
        assert len(ajsd) == 200 and len({r.answer for r in ajsd}) < len(ajsd)
        self._check([r.answer for r in ajsd], [predictions.get(r.sample_id, "") for r in ajsd])


def _split_work(references, candidates) -> int:
    """The work estimate `_text_scores` weighs a fork against."""
    groups: dict = {}
    for ref, cand in zip(references, candidates):
        groups.setdefault(ref, set()).add(cand)
    return sum(len(tokenize(ref)) * (1 + len(cands)) for ref, cands in groups.items())


def _repeated_pair_corpus():
    rng = np.random.default_rng(37)
    pool = [_random_sentence(rng, 40, _STEM_WORDS) for _ in range(400)]
    refs = [pool[i] for i in rng.integers(0, len(pool), 900)]
    return refs, [_candidate(rng, ref, _STEM_WORDS) for ref in refs]


def _all_distinct_corpus():
    rng = np.random.default_rng(38)
    refs = [f"{_random_sentence(rng, 30)} ref{i}" for i in range(400)]
    return refs, [_candidate(rng, ref, _WORDS) + f" cand{i}" for i, ref in enumerate(refs)]


class TestForkedSplit:
    """Pass 2 split across a forked child gives the in-process tuples, with ==."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # Fork on any machine: the split's bytes must not depend on the CPU count.
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)

    @staticmethod
    def _counted_forks(monkeypatch) -> list:
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    @staticmethod
    def _no_fork(monkeypatch):
        def refuse():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", refuse)

    @pytest.mark.parametrize("corpus", [_repeated_pair_corpus, _all_distinct_corpus],
                             ids=["repeated-pairs", "all-distinct"])
    def test_forked_equals_in_process(self, monkeypatch, corpus):
        refs, cands = corpus()
        assert _split_work(refs, cands) >= 2 * _CHUNK_TOKENS
        with monkeypatch.context() as m:
            forks = self._counted_forks(m)
            forked = _text_scores(refs, cands)
        assert forks == [os.getpid()]
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            in_process = _text_scores(refs, cands)
        assert forked == in_process
        if corpus is _repeated_pair_corpus:
            assert len(set(zip(refs, cands))) < len(refs)

    def test_forked_equals_the_streaming_oracle(self, monkeypatch):
        refs, cands = _all_distinct_corpus()
        forks = self._counted_forks(monkeypatch)
        assert _text_scores(refs, cands) == list(oracle_text_scores(refs, cands))
        assert len(forks) == 1

    @pytest.mark.parametrize("failure,message", [
        ("child", "the scoring child process failed: ValueError: poisoned candidate"),
        ("child-exits", "the scoring child process exited without a result"),
        ("parent", "poisoned candidate"),
    ])
    def test_a_failing_kernel_raises_and_leaves_no_child(self, monkeypatch, failure, message):
        refs, cands = _repeated_pair_corpus()
        # The last reference group always goes to the child, the first to the parent.
        at = 0 if failure == "parent" else len(refs)
        refs.insert(at, "a reference no other item has")
        cands.insert(at, " ".join(["zulu"] * 97))
        rouge = metrics._rouge_l

        def poisoned(lcs, cand_len, ref_len):
            if cand_len == 97:
                if failure == "child-exits":
                    os._exit(3)
                raise ValueError("poisoned candidate")
            return rouge(lcs, cand_len, ref_len)

        monkeypatch.setattr(metrics, "_rouge_l", poisoned)
        forks = self._counted_forks(monkeypatch)
        with pytest.raises(ValueError if failure == "parent" else RuntimeError) as raised:
            _text_scores(refs, cands)
        assert str(raised.value) == message
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_for_one_pair(self, monkeypatch):
        self._no_fork(monkeypatch)
        long_text = " ".join(f"w{i}" for i in range(3 * _CHUNK_TOKENS))
        assert bleu4(long_text, long_text) == 1.0
        assert rouge_l("alpha bravo", "alpha bravo charlie") > 0.0
        assert meteor(long_text, long_text) > 0.99
        # One reference group never forks, however much work it holds.
        assert len(_text_scores([long_text] * 3, [long_text, "w1", "w2"])) == 3

    def test_no_fork_below_the_threshold(self, monkeypatch):
        refs, cands = _all_distinct_corpus()
        while _split_work(refs, cands) >= 2 * _CHUNK_TOKENS:
            refs, cands = refs[:-10], cands[:-10]
        assert len(refs) > 100
        self._no_fork(monkeypatch)
        assert _text_scores(refs, cands) == list(oracle_text_scores(refs, cands))

    def test_no_fork_with_a_second_thread_alive(self, monkeypatch):
        refs, cands = _repeated_pair_corpus()
        expected = _text_scores(refs, cands)
        self._no_fork(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _text_scores(refs, cands) == expected
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestComposites:
    def test_ajsd_composite_headline_value(self):
        assert abs(ajsd_composite(0.253, 0.559, 0.515, 0.617) - 48.59) <= 0.05

    def test_composite_bounds(self):
        assert ajsd_composite(0, 0, 0, 0) == 0.0
        assert ajsd_composite(1, 1, 1, 1) == 100.0
        with pytest.raises(ValueError):
            ajsd_composite(-0.1, 0, 0, 0)

    def test_mean_of_four_values(self):
        assert abs(mean_of_four(0.094, 0.374, 0.267, 0.447) - 0.2955) < 1e-12
        assert abs(mean_of_four(0.253, 0.559, 0.515, 0.617) - 0.486) < 1e-12
        assert mean_of_four(0.3, 0.3, 0.3, 0.3) == 0.3

    def test_composite_is_mean_times_100(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = rng.uniform(0, 1, 4)
            assert abs(ajsd_composite(*q) - mean_of_four(*q) * 100.0) < 1e-12


class TestParseTag:
    def test_answer_tag(self):
        assert parse_tag("<answer>A</answer>", "answer") == "A"

    def test_first_match_with_noise(self):
        assert parse_tag("noise text <mode>QPSK</mode> trailing", "mode") == "QPSK"

    def test_unterminated_absent(self):
        assert parse_tag("<answer>A", "answer") is None

    def test_whitespace_trimmed(self):
        assert parse_tag("<value>  10.5 </value>", "value") == "10.5"


def _record(sample_id, task, fmt, answer, snr=None, gt=None, options=None):
    return ManifestRecord(
        sample_id=sample_id,
        task=task,
        format=fmt,
        view_paths=tuple(f"images/{sample_id}_{v}.png" for v in "abcd"),
        question="q",
        options=options,
        answer=answer,
        tag="answer" if fmt == "MCQA" else {"SPE": "value", "MR": "mode", "AJSD": "none"}.get(task, "segment"),
        snr_db=snr,
        ground_truth=gt or {},
        split="bench",
        content_hash="0" * 64,
    )


_OPTS = ("1.0", "2.0", "3.0", "4.0", "Unable to answer")


class TestAccuracy:
    def test_mcqa_all_correct_all_absent(self):
        records = [
            _record(f"mr-{i:05d}", "MR", "MCQA", "B", snr=0.0, options=_OPTS) for i in range(4)
        ]
        gold = {r.sample_id: "<answer>B</answer>" for r in records}
        assert score_predictions(records, gold).per_task["MR"]["mcqa_accuracy_pct"] == 100.0
        report = score_predictions(records, {})
        assert report.per_task["MR"]["mcqa_accuracy_pct"] == 0.0
        assert report.unparseable == 4

    def test_three_of_four(self):
        records = [
            _record(f"mr-{i:05d}", "MR", "MCQA", "A", snr=0.0, options=_OPTS) for i in range(4)
        ]
        preds = {r.sample_id: "<answer>A</answer>" for r in records[:3]}
        preds[records[3].sample_id] = "<answer>C</answer>"
        assert score_predictions(records, preds).per_task["MR"]["mcqa_accuracy_pct"] == 75.0

    def test_spe_tolerance_window(self):
        record = _record(
            "spe-00000", "SPE", "OpenQA", "<value>10.0</value>",
            snr=0.0, gt={"value": 10.0, "tolerance": 1.0},
        )
        ok = score_predictions([record], {"spe-00000": "<value>10.4</value>"})
        assert ok.per_task["SPE"]["openqa_accuracy_pct"] == 100.0
        bad = score_predictions([record], {"spe-00000": "<value>12.1</value>"})
        assert bad.per_task["SPE"]["openqa_accuracy_pct"] == 0.0

    def test_case_folding_for_labels(self):
        record = _record("mr-00000", "MR", "OpenQA", "<mode>QPSK</mode>", snr=0.0)
        report = score_predictions([record], {"mr-00000": "<mode>qpsk</mode>"})
        assert report.per_task["MR"]["openqa_accuracy_pct"] == 100.0

    def test_unknown_id_rejected(self):
        record = _record("mr-00000", "MR", "MCQA", "A", options=_OPTS)
        with pytest.raises(ValueError, match="ghost"):
            score_predictions([record], {"ghost": "<answer>A</answer>"})


class TestSnrBinned:
    def test_single_bin_equals_overall(self):
        records = [
            _record(f"mr-{i:05d}", "MR", "MCQA", "A", snr=0.0, options=_OPTS) for i in range(4)
        ]
        preds = {r.sample_id: "<answer>A</answer>" for r in records[:2]}
        rows = snr_binned_report(score_predictions(records, preds).outcomes, [0.0])
        assert rows == [{"snr_db": 0.0, "count": 4, "accuracy_pct": 50.0}]

    def test_empty_bin_marker(self):
        records = [_record("mr-00000", "MR", "MCQA", "A", snr=0.0, options=_OPTS)]
        rows = snr_binned_report(score_predictions(records, {}).outcomes, [0.0, 10.0])
        assert rows[1] == {"snr_db": 10.0, "count": 0, "accuracy_pct": None}

    def test_threshold_fixture(self):
        # Predictions constructed to be correct only above 0 dB.
        records = [
            _record(f"mr-{i:05d}", "MR", "MCQA", "A", snr=float(s), options=_OPTS)
            for i, s in enumerate((-10, -10, 10, 10))
        ]
        preds = {
            r.sample_id: "<answer>A</answer>" if r.snr_db > 0 else "<answer>B</answer>"
            for r in records
        }
        rows = snr_binned_report(score_predictions(records, preds).outcomes, [-10.0, 10.0])
        assert rows[0]["accuracy_pct"] == 0.0
        assert rows[1]["accuracy_pct"] == 100.0


class TestReportSerialization:
    def test_roundtrip_and_determinism(self):
        records = [
            _record(f"mr-{i:05d}", "MR", "MCQA", "A", snr=0.0, options=_OPTS) for i in range(3)
        ] + [
            _record(f"ajsd-{i:05d}", "AJSD", "OpenQA", "alpha bravo charlie delta echo")
            for i in range(2)
        ]
        preds = {r.sample_id: "<answer>A</answer>" for r in records[:3]}
        preds.update({r.sample_id: r.answer for r in records[3:]})
        report = score_predictions(records, preds)
        payload_a = json.dumps(report.to_dict(), sort_keys=True)
        payload_b = json.dumps(score_predictions(records, preds).to_dict(), sort_keys=True)
        assert payload_a == payload_b
        back = ScoreReport.from_dict(json.loads(payload_a))
        assert back.to_dict() == report.to_dict()

    def test_tokenizer_whitespace_case_invariance(self):
        assert tokenize("  Alpha BRAVO, charlie. ") == tokenize("alpha bravo , charlie .")
        assert bleu4(" ALPHA bravo charlie delta ", "alpha bravo charlie delta") == 1.0


class TestLoadPredictions:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"sample_id": "a", "text": "x"}\n{"sample_id": "b", "text": "y"}\n')
        assert load_predictions(path) == {"a": "x", "b": "y"}

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"sample_id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_predictions(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"sample_id": "a", "text": "x"}\n{"sample_id": "a", "text": "y"}\n')
        with pytest.raises(ValueError, match="duplicate"):
            load_predictions(path)


# Prediction text a model might emit, or a broken pipeline might pass on:
# any Unicode (control characters included), tag soup, nested tags, and
# one token repeated thousands of times.
_TAG_NAMES = ["answer", "value", "mode", "segment", "protocol", "device"]
_PREDICTION_TEXT = st.one_of(
    st.text(st.characters(), max_size=80),
    st.text(st.sampled_from(list("<>/ ansvwerdmoe.,?!0123456789\n\t\x00\x1b\u00e9\u4e2d")),
            max_size=80),
    st.builds(
        lambda tag, inner: f"<{tag}><{tag}>{inner}</{tag}> </{tag}>",
        st.sampled_from(_TAG_NAMES), st.text(st.characters(), max_size=20),
    ),
    st.builds(
        lambda word, n: " ".join([word] * n),
        st.text(st.characters(), min_size=1, max_size=6), st.integers(300, 2000),
    ),
)
_AJSD_ANSWERS = [
    "No jamming is detected: the spectrum shows only the expected signal.",
    "A narrowband tone jammer sits 1.2 MHz above the carrier; notch it out.",
    "A sweep jammer crosses the band; apply frequency hopping.",
]


def _property_records():
    records = [
        _record("mr-00000", "MR", "MCQA", "B", snr=0.0, options=_OPTS),
        _record("mr-00001", "MR", "OpenQA", "<mode>QPSK</mode>", snr=2.0),
        _record("spe-00000", "SPE", "OpenQA", "<value>10.0</value>", snr=0.0,
                gt={"value": 10.0, "tolerance": 1.0}),
        _record("ssd-00000", "SSD", "OpenQA", "<segment>LFM</segment>", snr=4.0),
    ]
    answers = _AJSD_ANSWERS + _AJSD_ANSWERS[:2]
    records += [_record(f"ajsd-{i:05d}", "AJSD", "OpenQA", a) for i, a in enumerate(answers)]
    return records


class TestArbitraryPredictionText:
    """Properties over arbitrary prediction text (Hypothesis, derandomized)."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.none(), _PREDICTION_TEXT), min_size=9, max_size=9))
    def test_score_predictions_never_raises(self, texts):
        records = _property_records()
        predictions = {r.sample_id: t for r, t in zip(records, texts) if t is not None}
        report = score_predictions(records, predictions)
        assert report.total == len(records) and report.ajsd["count"] == 5
        json.dumps(report.to_dict(), allow_nan=False)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from(_AJSD_ANSWERS), _PREDICTION_TEXT),
                              _PREDICTION_TEXT), max_size=6))
    def test_text_scores_equal_the_streaming_oracle(self, pairs):
        # Repeat the drawn pairs, so both the shared references and the
        # scored-once pairs are exercised.
        pairs = pairs + pairs[::2]
        references = [ref for ref, _ in pairs]
        candidates = [cand for _, cand in pairs]
        assert _text_scores(references, candidates) == list(
            oracle_text_scores(references, candidates)
        )
