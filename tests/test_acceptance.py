"""Acceptance suite: eleven criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the suite also passes silently under plain `pytest`.
"""

import hashlib
import json
import os
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from emforge.budget import RESERVED_PROMPT_TOKENS, STAGES, check_budget, pack_views
from emforge.corpus import CorpusSpec, build_corpus, desk_scale_counts
from emforge.instrgen import canonical_number, make_mcqa_categorical, make_mcqa_numeric
from emforge.manifest import OPTION_LETTERS, UNABLE_TO_ANSWER, gold_prediction, read_manifest
from emforge.metrics import (
    METEOR_BETA,
    METEOR_GAMMA,
    ajsd_composite,
    bleu4,
    cider,
    mean_of_four,
    meteor,
    rouge_l,
    score_predictions,
    tokenize,
)
from emforge.signal import IqSignal, measure_snr
from emforge.synth.channel import apply_awgn, gen_noise
from emforge.views import fft_magnitude

from test_golden import pixel_digest, running_versions
from test_metrics import oracle_bleu4, oracle_cider, oracle_rouge_l, _random_sentence


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


# ---------------------------------------------------------------------------
# 1-4: arithmetic reproductions (instant)
# ---------------------------------------------------------------------------


def test_criterion_1_composite_score():
    with criterion(1, "AJSD composite of the headline metric quadruple is 48.59 +/- 0.05"):
        assert abs(ajsd_composite(0.253, 0.559, 0.515, 0.617) - 48.59) <= 0.05


# The modality-ablation table: four metric columns and the printed Average.
ABLATION_ROWS = [
    ("constellation", (0.069, 0.329, 0.227, 0.405), "0.258"),
    ("fft", (0.056, 0.305, 0.194, 0.381), "0.234"),
    ("stft", (0.094, 0.374, 0.267, 0.447), "0.2955"),
    ("iq", (0.149, 0.438, 0.337, 0.530), "0.363"),
    ("constellation+fft", (0.070, 0.331, 0.227, 0.409), "0.259"),
    ("constellation+stft", (0.104, 0.384, 0.279, 0.465), "0.308"),
    ("constellation+iq", (0.168, 0.464, 0.359, 0.549), "0.385"),
    ("fft+stft", (0.095, 0.373, 0.267, 0.449), "0.296"),
    ("fft+iq", (0.153, 0.441, 0.341, 0.534), "0.367"),
    ("stft+iq", (0.185, 0.488, 0.381, 0.567), "0.405"),
    ("constellation+fft+stft", (0.102, 0.379, 0.276, 0.464), "0.305"),
    ("constellation+fft+iq", (0.168, 0.463, 0.357, 0.548), "0.384"),
    ("constellation+stft+iq", (0.193, 0.499, 0.388, 0.575), "0.414"),
    ("fft+stft+iq", (0.185, 0.489, 0.381, 0.567), "0.405"),
    ("all-four", (0.253, 0.559, 0.515, 0.617), "0.486"),
]


def test_criterion_2_ablation_averages():
    # Every Average cell is the correctly rounded mean of its row at the
    # cell's printed precision, so the attainable bound per cell is half
    # an ULP of its display (5e-4 for 3-decimal cells); cells the mean
    # lands on exactly, including the two 4-digit reference rows (0.2955
    # and 0.486), hold at 1e-4.
    with criterion(2, "all 15 modality-ablation Average cells reproduce from their rows"):
        for name, inputs, cell_text in ABLATION_ROWS:
            decimals = len(cell_text.split(".")[1])
            bound = max(1e-4, 0.5 * 10.0 ** (-decimals) + 1e-12)
            got = mean_of_four(*inputs)
            assert abs(got - float(cell_text)) <= bound, (name, got, cell_text)
        assert abs(mean_of_four(0.094, 0.374, 0.267, 0.447) - 0.2955) <= 1e-4
        assert abs(mean_of_four(0.253, 0.559, 0.515, 0.617) - 0.486) <= 1e-4


def _oracle_scaled_counts(total):
    base = {
        "SPE": (2250, 750), "SSD": (1700, 300), "MR": (0, 500),
        "PR": (0, 500), "EI": (0, 458), "AJSD": (2000, 0),
    }
    cells = [(t, f, c) for t, pair in base.items() for f, c in zip(("o", "m"), pair)]
    quotas = [total * c / 8458 for _, _, c in cells]
    alloc = [int(q) for q in quotas]
    order = sorted(range(12), key=lambda i: (-(quotas[i] - alloc[i]), i))
    for i in order[: total - sum(alloc)]:
        alloc[i] += 1
    return {t: (alloc[i], alloc[i + 1]) for i, (t, _, _) in enumerate(cells) if i % 2 == 0}


def test_criterion_3_benchmark_composition():
    with criterion(3, "desk_scale_counts reproduces the bench table at 8458 and 846"):
        assert desk_scale_counts(8458) == {
            "SPE": (2250, 750), "SSD": (1700, 300), "MR": (0, 500),
            "PR": (0, 500), "EI": (0, 458), "AJSD": (2000, 0),
        }
        assert desk_scale_counts(846) == _oracle_scaled_counts(846)


def test_criterion_4_token_budget():
    with criterion(4, "packing caps 729 / 5x729 / 10x729 fit the 4096/4096/8192/8192 limits"):
        expected_layouts = {1: 729, 2: 5 * 729 + 4, 3: 10 * 729 + 9, 4: 10 * 729 + 9}
        for stage_id, stage in STAGES.items():
            layout = pack_views([stage.tokens_per_view] * stage.max_views)
            assert layout.total_tokens == expected_layouts[stage_id]
            assert check_budget(layout, 0, 0, stage).fits
            if stage_id in (1, 2):
                assert layout.total_tokens <= stage.max_seq_len - RESERVED_PROMPT_TOKENS
        assert check_budget(pack_views([729] * 10), 400, 400, STAGES[3]).slack == 93


# ---------------------------------------------------------------------------
# 5-8: calibration and structural sweeps
# ---------------------------------------------------------------------------


def test_criterion_5_snr_calibration():
    with criterion(5, "measured SNR within +/-0.2 dB at {-20,-10,0,10,18} dB over 5 seeds"):
        x = gen_noise(65536, 1e6, 2024)
        for snr_db in (-20.0, -10.0, 0.0, 10.0, 18.0):
            for seed in range(5):
                measured = measure_snr(apply_awgn(x, snr_db, seed), x)
                assert abs(measured - snr_db) <= 0.2, (snr_db, seed, measured)


def test_criterion_6_dft_oracle():
    with criterion(6, "fft_magnitude matches the naive DFT within 1e-9 for 100 random signals"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(8, 1025))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            mag = fft_magnitude(IqSignal(x, 1e6))
            k = np.arange(n)
            w = np.exp(-2j * np.pi * np.outer(k, k) / n)
            oracle = np.fft.fftshift(np.abs(w @ x))
            assert np.max(np.abs(mag - oracle)) / np.max(oracle) < 1e-9


def test_criterion_7_metric_oracles():
    with criterion(7, "BLEU4/ROUGE-L/CIDEr match brute force within 1e-9; METEOR closed form"):
        rng = np.random.default_rng(77)
        pairs = [(_random_sentence(rng), _random_sentence(rng)) for _ in range(50)]
        for cand, ref in pairs:
            assert abs(bleu4(cand, ref) - oracle_bleu4(cand, ref)) < 1e-9
            assert abs(rouge_l(cand, ref) - oracle_rouge_l(cand, ref)) < 1e-9
        cands = [c for c, _ in pairs]
        refs = [r for _, r in pairs]
        got_items, got_mean = cider(cands, refs)
        want_items, want_mean = oracle_cider(cands, refs)
        assert np.allclose(got_items, want_items, atol=1e-9)
        assert abs(got_mean - want_mean) < 1e-9

        fixtures = [
            ("alpha bravo", "alpha bravo", 2, 1, 2, 2),
            ("alpha bravo charlie", "alpha bravo", 2, 1, 3, 2),
            ("bravo alpha", "alpha bravo", 2, 2, 2, 2),
            ("alpha charlie", "alpha bravo charlie", 2, 2, 2, 3),
            ("alpha bravo charlie delta", "delta charlie bravo alpha", 4, 4, 4, 4),
            ("alpha alpha", "alpha", 1, 1, 2, 1),
            ("jumping", "jump", 1, 1, 1, 1),
            ("alpha jumping bravo", "alpha jumped bravo", 3, 1, 3, 3),
            ("echo foxtrot golf hotel", "echo golf foxtrot hotel", 4, 4, 4, 4),
            ("alpha", "alpha bravo charlie delta echo", 1, 1, 1, 5),
        ]
        for cand, ref, m, chunks, cl, rl in fixtures:
            p, r = m / cl, m / rl
            f = p * r / (0.9 * p + 0.1 * r)
            expected = f * (1 - METEOR_GAMMA * (chunks / m) ** METEOR_BETA)
            assert abs(meteor(cand, ref) - expected) < 1e-12, (cand, ref)


def test_criterion_8_mcqa_structural_suite():
    with criterion(8, "10k MCQA items: 5 options, Unable present, one correct, separated"):
        rng = np.random.default_rng(88)
        universe = ["AM-DSB", "AM-SSB", "WBFM", "BPSK", "QPSK", "8PSK",
                    "QAM16", "QAM64", "GFSK", "CPFSK", "PAM4"]
        label_counts = Counter()
        tolerance = 1.0
        for i in range(6000):
            gt = float(rng.uniform(1.0, 60.0))
            options = make_mcqa_numeric(gt, tolerance, seed=i)
            assert len(options.texts) == 5
            assert UNABLE_TO_ANSWER in options.texts
            correct_text = options.texts[OPTION_LETTERS.index(options.correct_letter)]
            assert correct_text == canonical_number(gt)
            assert options.texts.count(correct_text) == 1
            for text in options.texts:
                if text not in (correct_text, UNABLE_TO_ANSWER):
                    assert abs(float(text) - gt) >= 2 * tolerance - 1e-9
        for i in range(4000):
            gt = universe[i % len(universe)]
            options = make_mcqa_categorical(gt, universe, seed=i)
            assert len(options.texts) == 5
            assert options.texts[4] == UNABLE_TO_ANSWER
            assert options.texts.count(gt) == 1
            assert options.texts[OPTION_LETTERS.index(options.correct_letter)] == gt
            for text in options.texts[:4]:
                if text != gt:
                    label_counts[text] += 1
        # Distribution sanity: every label drawn, frequencies within 25%
        # of the uniform expectation.
        expectation = sum(label_counts.values()) / len(universe)
        for label in universe:
            assert label_counts[label] > 0.75 * expectation
            assert label_counts[label] < 1.25 * expectation


# ---------------------------------------------------------------------------
# 9-11: corpus-scale suites
# ---------------------------------------------------------------------------


def test_criterion_9_leakage_suite():
    with criterion(9, "10k-id build: id/hash-disjoint, fraction +/-1%, bins covered"):
        spec = CorpusSpec.from_total(10000, bench_fraction=0.1)
        train, bench = build_corpus(spec, render=False)
        assert len(train) + len(bench) == 10000
        ids_train = {r.sample_id for r in train}
        ids_bench = {r.sample_id for r in bench}
        assert not ids_train & ids_bench
        hashes_train = {r.content_hash for r in train}
        hashes_bench = {r.content_hash for r in bench}
        assert not hashes_train & hashes_bench
        assert abs(len(bench) / 10000 - 0.1) <= 0.01
        for task, grid in spec.snr_grids.items():
            covered = {r.snr_db for r in bench if r.task == task and r.snr_db is not None}
            assert covered == set(grid), task


@pytest.fixture(scope="session")
def desk_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "corpus"
    spec = CorpusSpec.default_desk()
    train, bench = build_corpus(spec, out_dir=str(out))
    assert len(train) + len(bench) == 600
    return out, spec


def _tree_hash(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def test_criterion_10_gold_run(desk_corpus):
    with criterion(10, "600-record gold run scores 100 everywhere; empty scores 0"):
        out, _ = desk_corpus
        records = read_manifest(out / "manifest_bench.jsonl")
        assert len(list((out / "images").iterdir())) == 2400

        gold = {r.sample_id: gold_prediction(r) for r in records}
        report = score_predictions(records, gold)
        for task, stats in report.per_task.items():
            for key, value in stats.items():
                if key.endswith("accuracy_pct"):
                    assert value == 100.0, (task, key)
        # Identical text maximizes each metric at its closed form: BLEU,
        # ROUGE, and CIDEr hit 1 exactly; METEOR keeps its fragmentation
        # penalty of gamma * (1/m)^beta per reference.
        ajsd_refs = [r.answer for r in records if r.task == "AJSD"]
        expected_meteor = float(
            np.mean([
                1 - METEOR_GAMMA * (1 / len(tokenize(ref))) ** METEOR_BETA
                for ref in ajsd_refs
            ])
        )
        assert abs(report.ajsd["bleu4"] - 1.0) <= 1e-6
        assert abs(report.ajsd["rouge_l"] - 1.0) <= 1e-6
        assert abs(report.ajsd["cider"] - 1.0) <= 1e-6
        assert abs(report.ajsd["meteor"] - expected_meteor) <= 1e-6
        assert report.ajsd["composite"] >= 99.9
        assert report.unparseable == 0

        empty = score_predictions(records, {})
        for stats in empty.per_task.values():
            for key, value in stats.items():
                if key.endswith("accuracy_pct"):
                    assert value == 0.0
        assert empty.ajsd["composite"] == 0.0
        assert empty.unparseable == empty.total


# The desk tree digest, pinned across commits like tests/test_golden.py;
# it moves with the numpy FFT and zlib in use, so an upgrade is a re-pin.
DESK_TREE_DIGEST = "e2abd588545aab2d69fe826f3c2bdc9652bcac329b60e755645bee7e87652cc6"
DESK_PIXEL_DIGEST = "425dc4807fa873be56c1a547501f06ff8ba05ce94f12ceadf131072a64c11ddb"
DESK_PINNED_VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "zlib": "1.2.13"}


def test_criterion_11_full_build_determinism(desk_corpus, tmp_path):
    with criterion(11, "two identical-config builds are byte-identical, reports too"):
        out, spec = desk_corpus
        second = tmp_path / "corpus-again"
        build_corpus(spec, out_dir=str(second))
        assert _tree_hash(out) == _tree_hash(second)
        running = running_versions()
        assert _tree_hash(out) == DESK_TREE_DIGEST, (
            f"desk tree bytes changed; pinned with {DESK_PINNED_VERSIONS}, running {running}"
        )
        assert pixel_digest(out / "images") == DESK_PIXEL_DIGEST, (
            f"desk pixels changed; pinned with {DESK_PINNED_VERSIONS}, running {running}"
        )

        records = read_manifest(out / "manifest_bench.jsonl")
        gold = {r.sample_id: gold_prediction(r) for r in records}
        report_a = json.dumps(score_predictions(records, gold).to_dict(), sort_keys=True)
        report_b = json.dumps(score_predictions(records, gold).to_dict(), sort_keys=True)
        assert report_a == report_b
