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
