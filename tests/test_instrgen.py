"""MCQA option synthesis, OpenQA tagging, and the anti-jamming rule table."""

import re

import numpy as np
import pytest

from emforge import instrgen
from emforge.instrgen import (
    DISTRACTOR_FACTORS,
    DISTRACTOR_OFFSETS,
    canonical_number,
    make_ajsd_openqa,
    make_mcqa_categorical,
    make_mcqa_numeric,
    make_openqa,
)
from emforge.manifest import OPTION_LETTERS, UNABLE_TO_ANSWER
from emforge.synth.jamming import JAMMER_KINDS

MR_UNIVERSE = [
    "AM-DSB", "AM-SSB", "WBFM", "BPSK", "QPSK", "8PSK",
    "QAM16", "QAM64", "GFSK", "CPFSK", "PAM4",
]


class TestNumericMcqa:
    def test_factor_rule_forced(self):
        # At gt 40 every factor multiple (20, 80, 120) is admissible and none
        # is an offset value (30, 35, 45, 50), so each item holds one of them.
        factor_texts = {canonical_number(40.0 * f) for f in DISTRACTOR_FACTORS}
        assert not factor_texts & {canonical_number(40.0 + o) for o in DISTRACTOR_OFFSETS}
        for seed in range(50):
            options = make_mcqa_numeric(40.0, 1.0, seed=seed)
            assert factor_texts & set(options.texts)

    def test_structure(self):
        options = make_mcqa_numeric(10.0, 1.0, seed=3)
        assert len(options.texts) == 5
        assert options.texts[4] == UNABLE_TO_ANSWER
        assert options.correct_letter in OPTION_LETTERS[:4]
        assert options.texts.count("10.0") == 1

    def test_separation_sweep(self):
        for seed in range(500):
            gt = float(np.random.default_rng(seed).uniform(1.0, 50.0))
            options = make_mcqa_numeric(gt, 1.0, seed=seed)
            correct = options.texts[OPTION_LETTERS.index(options.correct_letter)]
            assert float(correct) == float(canonical_number(gt))
            for text in options.texts:
                if text in (correct, UNABLE_TO_ANSWER):
                    continue
                assert abs(float(text) - gt) >= 2.0 - 1e-9

    def test_integer_mode(self):
        options = make_mcqa_numeric(3.0, 0.5, seed=1, integer=True)
        values = [t for t in options.texts if t != UNABLE_TO_ANSWER]
        assert all(re.fullmatch(r"\d+", v) for v in values)
        assert "3" in values

    def test_determinism(self):
        a = make_mcqa_numeric(7.5, 1.0, seed=11)
        b = make_mcqa_numeric(7.5, 1.0, seed=11)
        assert a == b

    def test_impossible_separation_errors(self):
        # At gt 0.5 every factor multiple and every random draw (0.1-2.5) lies
        # within 2 of the truth; only the offsets 5.5 and 10.5 qualify.
        with pytest.raises(ValueError, match="distractors"):
            make_mcqa_numeric(0.5, 1.0)


class TestCategoricalMcqa:
    def test_truth_appears_exactly_once(self):
        options = make_mcqa_categorical("QPSK", MR_UNIVERSE, seed=5)
        assert options.texts.count("QPSK") == 1
        assert options.texts[4] == UNABLE_TO_ANSWER
        assert len(set(options.texts)) == 5

    def test_same_seed_same_ordering(self):
        a = make_mcqa_categorical("GFSK", MR_UNIVERSE, seed=8)
        b = make_mcqa_categorical("GFSK", MR_UNIVERSE, seed=8)
        assert a.texts == b.texts and a.correct_letter == b.correct_letter

    def test_distractor_frequencies_near_uniform(self):
        # Chi-square-style bound: each wrong label should be drawn with
        # probability 3/10; 3 sigma around the binomial expectation.
        n = 1000
        counts = {label: 0 for label in MR_UNIVERSE if label != "QPSK"}
        for seed in range(n):
            options = make_mcqa_categorical("QPSK", MR_UNIVERSE, seed=seed)
            for text in options.texts:
                if text not in (UNABLE_TO_ANSWER, "QPSK"):
                    counts[text] += 1
        p = 3 / 10
        sigma = (n * p * (1 - p)) ** 0.5
        for label, count in counts.items():
            assert abs(count - n * p) <= 3 * sigma, label

    def test_small_universe_errors(self):
        with pytest.raises(ValueError, match="too small"):
            make_mcqa_categorical("radar", ["radar", "noise", "communication"], seed=0)

    def test_truth_outside_universe_errors(self):
        with pytest.raises(ValueError, match="not in"):
            make_mcqa_categorical("OFDM", MR_UNIVERSE, seed=0)


class TestOpenQa:
    def test_mr_mode_tag(self):
        _, answer = make_openqa("MR", "QPSK", seed=0)
        assert answer == "<mode>QPSK</mode>"

    def test_spe_value_tag_keeps_decimal(self):
        question, answer = make_openqa("SPE", "2.0", seed=1, param="pulse width", unit="µs")
        assert answer == "<value>2.0</value>"
        assert "µs" in question

    def test_tag_grammar_per_task(self):
        for task, gt in (("SSD", "radar"), ("MR", "QPSK"), ("PR", "wlan-like"), ("EI", "x310-00")):
            _, answer = make_openqa(task, gt, seed=2)
            tag = {"SSD": "segment", "MR": "mode", "PR": "protocol", "EI": "device"}[task]
            assert re.fullmatch(rf"<{tag}>.+</{tag}>", answer)

    def test_ajsd_routed_elsewhere(self):
        with pytest.raises(ValueError, match="make_ajsd_openqa"):
            make_openqa("AJSD", "anything", seed=0)

    def test_template_variants_selected_by_seed(self):
        questions = {make_openqa("MR", "QPSK", seed=s)[0] for s in range(30)}
        assert len(questions) == 3


class TestAjsdReference:
    def test_noise_only(self):
        _, ref = make_ajsd_openqa({"jammers": []}, seed=0)
        assert "No jamming is detected" in ref
        assert "no countermeasure is needed" in ref

    def test_single_tone_clauses(self):
        labels = {"jammers": [{"kind": "tone", "power_db_rel": 10.0, "center_offset_hz": 2e6}]}
        _, ref = make_ajsd_openqa(labels, seed=1)
        assert "dominant spectral peak" in ref  # detection clause
        assert "frequency hopping" in ref  # strategy token
        assert "2.0 MHz" in ref

    def test_two_jammers_fixed_kind_order(self):
        # Independent rule-table oracle: re-derive the expected clause order.
        labels = {
            "jammers": [
                {"kind": "lfm-sweep", "power_db_rel": 15.0, "center_offset_hz": -3e6},
                {"kind": "tone", "power_db_rel": 5.0, "center_offset_hz": 1e6},
            ]
        }
        _, ref = make_ajsd_openqa(labels, seed=2)
        assert ref.count("(1)") == 1 and ref.count("(2)") == 1
        # tone precedes lfm-sweep in the fixed kind order
        assert ref.index("notch filter") < ref.index("dwell timing")
        assert "2 interferers are detected" in ref

    def test_every_kind_has_rules(self):
        for kind in ("tone", "multitone", "noise-band", "lfm-sweep", "phase-code"):
            labels = {"jammers": [{"kind": kind, "power_db_rel": 10.0, "center_offset_hz": 1e6}]}
            _, ref = make_ajsd_openqa(labels, seed=3)
            assert len(ref.split()) > 15

    def test_rule_tables_keyed_by_synth_jammer_kinds(self):
        assert tuple(instrgen._EVIDENCE) == JAMMER_KINDS
        assert tuple(instrgen._STRATEGY) == JAMMER_KINDS

    def test_unknown_kind_errors(self):
        labels = {"jammers": [{"kind": "flooding", "power_db_rel": 1.0, "center_offset_hz": 0.0}]}
        with pytest.raises(ValueError, match="unknown jammer kind"):
            make_ajsd_openqa(labels, seed=0)

    def test_determinism(self):
        labels = {"jammers": [{"kind": "noise-band", "power_db_rel": 10.0, "center_offset_hz": -1e6}]}
        assert make_ajsd_openqa(labels, seed=7) == make_ajsd_openqa(labels, seed=7)


class TestCanonicalNumber:
    @pytest.mark.parametrize(
        "value,expected",
        [(2.0, "2.0"), (2.25, "2.25"), (20.0, "20.0"), (0.5, "0.5"), (3.0, "3.0")],
    )
    def test_formatting(self, value, expected):
        assert canonical_number(value) == expected

    def test_integer_mode(self):
        assert canonical_number(3.0, integer=True) == "3"
