"""The fixed names that records, file names and ground truth carry: their exact
values, each a plain `str`, so no formatting of one can differ across Python
versions, and the two entry points that take a name from a caller."""

import numpy as np
import pytest

from emforge.builders import SSD_COMM_KINDS
from emforge.manifest import ANSWER_TAGS, TASK_TAGS, VIEW_ORDER
from emforge.signal import IqSignal
from emforge.synth.modulations import (
    ANALOG_KINDS,
    BITS_PER_SYMBOL,
    CPM_KINDS,
    LINEAR_KINDS,
    MODULATIONS,
    modulate,
)
from emforge.views import render_labels


def test_each_vocabulary_holds_its_exact_plain_strings():
    assert VIEW_ORDER == ("constellation", "fft_spectrum", "stft_spectrogram", "iq_waveform")
    assert MODULATIONS == ("AM-DSB", "AM-SSB", "WBFM", "BPSK", "QPSK", "8PSK",
                           "QAM16", "QAM64", "GFSK", "CPFSK", "PAM4")
    assert SSD_COMM_KINDS == ("BPSK", "QPSK", "QAM16", "GFSK")
    assert list(TASK_TAGS.items()) == [
        ("SSD", "segment"), ("SPE", "value"), ("MR", "mode"),
        ("PR", "protocol"), ("EI", "device"), ("AJSD", "none"),
    ]
    assert ANSWER_TAGS == {
        ("SSD", "MCQA"): "answer", ("SSD", "OpenQA"): "segment",
        ("SPE", "MCQA"): "answer", ("SPE", "OpenQA"): "value",
        ("MR", "MCQA"): "answer", ("MR", "OpenQA"): "mode",
        ("PR", "MCQA"): "answer", ("PR", "OpenQA"): "protocol",
        ("EI", "MCQA"): "answer", ("EI", "OpenQA"): "device",
        ("AJSD", "MCQA"): "answer", ("AJSD", "OpenQA"): "none",
    }
    names = [*VIEW_ORDER, *MODULATIONS, *SSD_COMM_KINDS, *TASK_TAGS.values(),
             *ANSWER_TAGS.values(), *BITS_PER_SYMBOL]
    assert all(type(name) is str for name in names)


def test_the_modulation_families_partition_the_classes():
    families = (ANALOG_KINDS, CPM_KINDS, LINEAR_KINDS)
    assert sum(map(len, families)) == len(MODULATIONS)
    assert set().union(*families) == set(MODULATIONS)
    assert set(BITS_PER_SYMBOL) == CPM_KINDS | LINEAR_KINDS


def test_an_unknown_view_is_a_value_error_naming_it():
    signal = IqSignal(np.ones(256, dtype=complex), 1e6)
    with pytest.raises(ValueError, match="'histogram' is not a view"):
        render_labels(signal, "histogram")


def test_an_unknown_modulation_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match="'qpsk' is not a modulation"):
        modulate("qpsk", [0, 1], 2, 1e6)
