"""Labels agree with the signal: each label is recovered from the IQ by plain DSP."""

import numpy as np
import pytest

from emforge import builders
from emforge.corpus import CorpusSpec
from emforge.views import fft_magnitude
from test_corpus import JAMMER_HALF_EXTENT

AJSD_LOW_EDGE_HZ = builders.SAMPLE_RATE_WINDOWS_HZ["AJSD"][0]


@pytest.mark.parametrize("rate", [20e6, AJSD_LOW_EDGE_HZ * (1 + 1e-9)], ids=["20MSps", "low-edge"])
def test_ajsd_tone_jammer_is_the_spectral_peak(rate):
    # A tone jammer outpowers the victim, so the record's global |FFT| peak
    # sits within one bin of the tone's labelled centre offset.
    spec = CorpusSpec()
    spec.sample_rates["AJSD"] = rate
    tones = 0
    for index in range(64):
        draft = builders.draft_record("AJSD", index, "OpenQA", spec)
        for jammer in draft.ground_truth["jammers"]:
            if jammer["kind"] != "tone":
                continue
            tones += 1
            magnitude = fft_magnitude(draft.signal)
            n = len(magnitude)
            labelled_bin = n // 2 + jammer["center_offset_hz"] * n / rate
            assert abs(int(np.argmax(magnitude)) - labelled_bin) <= 1.0, (index, jammer)
    # Archetypes 1 and 6 of every 8 carry a tone.
    assert tones == 16


_EXTENT_KINDS = ["multitone", "noise-band", "lfm-sweep", "phase-code"]


@pytest.mark.parametrize(
    "kind, rate",
    [pytest.param(kind, 20e6, id=kind) for kind in _EXTENT_KINDS]
    + [
        pytest.param(kind, AJSD_LOW_EDGE_HZ * (1 + 1e-9), id=f"{kind}-low-edge")
        for kind in _EXTENT_KINDS
    ],
)
def test_ajsd_jammer_power_lies_within_its_labelled_extent(kind, rate):
    # The weakest jammer is 5 dB over the whole background, so it holds over
    # three quarters of the record's power (a phase code's main lobe about
    # 90 % of its own). Under a Hann window a spectral line spreads 2 bins
    # each side, so the window about the labelled centre offset is the
    # kind's half extent plus 2 bins. Just above the window floor the
    # widest jammer, centred 5 MHz off, reaches the band edge.
    spec = CorpusSpec()
    spec.sample_rates["AJSD"] = rate
    step = len(builders.AJSD_ARCHETYPES)
    for index in range(builders.AJSD_ARCHETYPES.index((kind,)), 16 * step, step):
        draft = builders.draft_record("AJSD", index, "OpenQA", spec)
        (jammer,) = draft.ground_truth["jammers"]
        assert jammer["kind"] == kind
        samples = draft.signal.samples
        n = len(samples)
        power = np.abs(np.fft.fft(samples * np.hanning(n))) ** 2
        offsets = np.fft.fftfreq(n, 1 / rate) - jammer["center_offset_hz"]
        inside = np.abs(offsets) <= JAMMER_HALF_EXTENT[kind] * rate + 2 * rate / n
        share = power[inside].sum() / power.sum()
        assert share > 0.5, (index, jammer, share)


SPE_LOW_EDGE_HZ, SPE_HIGH_EDGE_HZ = builders.SAMPLE_RATE_WINDOWS_HZ["SPE"]


@pytest.mark.parametrize(
    "rate",
    [10e6, SPE_LOW_EDGE_HZ * (1 + 1e-9), SPE_HIGH_EDGE_HZ],
    ids=["10MSps", "low-edge", "high-edge"],
)
def test_spe_pulse_train_matches_its_labels(rate):
    # At the top SNR bin the unit envelope stands far above the noise, so the
    # runs of |x| > 0.5 are the pulses: their median length is the width,
    # their median start gap the period, the first start the delay.
    spec = CorpusSpec()
    spec.sample_rates["SPE"] = rate
    spec.snr_grids["SPE"] = (20.0,)
    us_per_sample = 1e6 / rate
    for index in range(64):
        draft = builders.draft_record("SPE", index, "OpenQA", spec)
        on = np.concatenate(([0], np.abs(draft.signal.samples) > 0.5, [0])).astype(np.int8)
        edges = np.diff(on)
        starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        pulses = draft.ground_truth["pulse_spec"]
        assert len(starts) == pulses["count"], index
        measured = {
            "pulse_width_us": np.median(stops - starts) * us_per_sample,
            "period_us": np.median(np.diff(starts)) * us_per_sample,
            "delay_us": starts[0] * us_per_sample,
        }
        for name, value in measured.items():
            assert abs(value - pulses[name]) <= builders.SPE_TOLERANCE_US, (index, name, value)


def test_ssd_segment_class_matches_the_signal():
    # At 20 dB, with a threshold at half the median of the top decile of
    # |x|: noise never stays above it for a whole pulse (its longest run is
    # shorter than the shortest pulse, 2 us), a radar train is above it less
    # than half the time, and a communication burst at least half the time.
    rate = 20e6
    spec = CorpusSpec()
    spec.sample_rates["SSD"] = rate
    spec.snr_grids["SSD"] = (20.0,)
    shortest_pulse = round(2e-6 * rate)
    labels = []
    for index in range(90):
        draft = builders.draft_record("SSD", index, "OpenQA", spec)
        magnitude = np.abs(draft.signal.samples)
        top_decile = np.sort(magnitude)[-(len(magnitude) // 10):]
        above = magnitude > np.median(top_decile) / 2
        edges = np.diff(np.concatenate(([0], above, [0])).astype(np.int8))
        runs = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
        if runs.max(initial=0) < shortest_pulse:
            measured = "noise"
        elif above.mean() < 0.5:
            measured = "radar"
        else:
            measured = "communication"
        labels.append(draft.ground_truth["segment_class"])
        assert measured == labels[-1], (index, labels[-1], runs.max(initial=0), above.mean())
    assert sorted(set(labels)) == sorted(builders.SSD_CLASSES)
