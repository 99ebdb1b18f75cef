"""Labels agree with the signal: each label is recovered from the IQ by plain DSP."""

import numpy as np
import pytest

from emforge import builders, corpus
from emforge.corpus import CorpusSpec
from emforge.views import fft_magnitude

AJSD_LOW_EDGE_HZ = corpus.SAMPLE_RATE_WINDOWS_HZ["AJSD"][0]


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


SPE_LOW_EDGE_HZ, SPE_HIGH_EDGE_HZ = corpus.SAMPLE_RATE_WINDOWS_HZ["SPE"]


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
