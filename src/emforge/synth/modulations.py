"""Baseband modulators for the analog and digital signal classes.

Digital linear kinds (PSK/QAM/PAM) are root-raised-cosine shaped
(roll-off 0.35, span 8 symbols) via circular convolution, so outputs have
no edge transients and symbol-instant samples sit on the constellation
grid up to the small residual ISI of a truncated RRC. GFSK uses a
Gaussian frequency pulse with BT = 0.5 and modulation index 0.5; CPFSK
uses index 0.5. Analog kinds modulate a band-limited noise message
generated from the payload seed (AM depth 0.5, WBFM deviation 75 kHz).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from ..signal import IqSignal, signal_power


class ModulationKind(str, Enum):
    AM_DSB = "AM-DSB"
    AM_SSB = "AM-SSB"
    WBFM = "WBFM"
    BPSK = "BPSK"
    QPSK = "QPSK"
    PSK8 = "8PSK"
    QAM16 = "QAM16"
    QAM64 = "QAM64"
    GFSK = "GFSK"
    CPFSK = "CPFSK"
    PAM4 = "PAM4"


ANALOG_KINDS = frozenset({ModulationKind.AM_DSB, ModulationKind.AM_SSB, ModulationKind.WBFM})
CPM_KINDS = frozenset({ModulationKind.GFSK, ModulationKind.CPFSK})
LINEAR_KINDS = frozenset(
    {
        ModulationKind.BPSK,
        ModulationKind.QPSK,
        ModulationKind.PSK8,
        ModulationKind.QAM16,
        ModulationKind.QAM64,
        ModulationKind.PAM4,
    }
)

BITS_PER_SYMBOL = {
    ModulationKind.BPSK: 1,
    ModulationKind.QPSK: 2,
    ModulationKind.PSK8: 3,
    ModulationKind.QAM16: 4,
    ModulationKind.QAM64: 6,
    ModulationKind.PAM4: 2,
    ModulationKind.GFSK: 1,
    ModulationKind.CPFSK: 1,
}

RRC_ROLLOFF = 0.35
RRC_SPAN_SYMBOLS = 8
GFSK_BT = 0.5
GFSK_MOD_INDEX = 0.5
CPFSK_MOD_INDEX = 0.5
AM_DEPTH = 0.5
WBFM_DEVIATION_HZ = 75e3
# Analog message bandwidth as a fraction of the sample rate.
MESSAGE_BW_FRACTION = 0.05


def _gray(n: int) -> np.ndarray:
    k = np.arange(n)
    return k ^ (k >> 1)


def _pam_levels(m: int) -> np.ndarray:
    """Gray-ordered PAM levels -(m-1), ..., +(m-1); index = bit-group value."""
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    out = np.empty(m)
    out[_gray(m)] = levels
    return out


def constellation(kind: ModulationKind) -> np.ndarray:
    """Unit-average-power constellation indexed by the MSB-first bit group."""
    if kind is ModulationKind.BPSK:
        points = np.array([1.0, -1.0], dtype=complex)
    elif kind is ModulationKind.QPSK:
        points = np.exp(1j * (np.pi / 4 + np.pi / 2 * _gray(4)))
    elif kind is ModulationKind.PSK8:
        points = np.exp(1j * (np.pi / 8 + np.pi / 4 * _gray(8)))
    elif kind is ModulationKind.QAM16:
        i = _pam_levels(4)
        points = (i[np.arange(16) >> 2] + 1j * i[np.arange(16) & 3]).astype(complex)
    elif kind is ModulationKind.QAM64:
        i = _pam_levels(8)
        points = (i[np.arange(64) >> 3] + 1j * i[np.arange(64) & 7]).astype(complex)
    elif kind is ModulationKind.PAM4:
        points = _pam_levels(4).astype(complex)
    else:
        raise ValueError(f"{kind.value} has no linear constellation")
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


@lru_cache
def rrc_taps(sps: int, rolloff: float = RRC_ROLLOFF, span: int = RRC_SPAN_SYMBOLS) -> np.ndarray:
    """Root-raised-cosine filter taps, unit energy, length span*sps + 1.

    Memoised per (sps, rolloff, span), for the last 128 argument tuples:
    calls with the same arguments share one read-only array.
    """
    half = span * sps // 2
    t = np.arange(-half, half + 1, dtype=float) / sps
    taps = np.empty_like(t)
    singular = 1.0 / (4.0 * rolloff)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 + rolloff * (4.0 / np.pi - 1.0)
        elif abs(abs(ti) - singular) < 1e-9:
            taps[i] = (rolloff / np.sqrt(2.0)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * rolloff))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * rolloff))
            )
        else:
            num = np.sin(np.pi * ti * (1 - rolloff)) + 4 * rolloff * ti * np.cos(
                np.pi * ti * (1 + rolloff)
            )
            den = np.pi * ti * (1 - (4 * rolloff * ti) ** 2)
            taps[i] = num / den
    taps /= np.sqrt(np.sum(taps**2))
    taps.flags.writeable = False
    return taps


def cyclic_filter(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-delay circular convolution of x with a centered odd-length filter."""
    n = x.size
    if taps.size > n:
        raise ValueError("filter longer than signal")
    kernel = np.zeros(n, dtype=float)
    kernel[: taps.size] = taps
    kernel = np.roll(kernel, -(taps.size // 2))
    return np.fft.ifft(np.fft.fft(x) * np.fft.fft(kernel))


def _bits_to_symbols(bits: np.ndarray, bps: int) -> np.ndarray:
    if bits.size % bps != 0:
        raise ValueError(f"payload length {bits.size} is not a multiple of {bps} bits/symbol")
    groups = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    return groups @ weights


def _check_bits(payload) -> np.ndarray:
    bits = np.asarray(payload)
    if bits.size == 0:
        raise ValueError("payload must be nonempty")
    if not np.all(np.isin(bits, (0, 1))):
        raise ValueError("payload symbols outside the {0, 1} alphabet")
    return bits.astype(np.int64).reshape(-1)


def _message(seed: int, n: int, sample_rate_hz: float) -> np.ndarray:
    """Band-limited real noise message, unit RMS, deterministic per seed."""
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    spec = np.fft.fft(white)
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
    cutoff = MESSAGE_BW_FRACTION * sample_rate_hz
    spec[np.abs(freqs) > cutoff] = 0.0
    m = np.fft.ifft(spec).real
    rms = np.sqrt(np.mean(m**2))
    return m / rms if rms > 0 else m


def _linear(kind, bits, sps):
    symbols = constellation(kind)[_bits_to_symbols(bits, BITS_PER_SYMBOL[kind])]
    if sps == 1:
        return symbols.astype(complex)
    up = np.zeros(symbols.size * sps, dtype=complex)
    up[::sps] = symbols
    return cyclic_filter(up, rrc_taps(sps))


def _cpm(kind, bits, sps, sample_rate_hz):
    nrz = 1.0 - 2.0 * bits
    steps = np.repeat(nrz, sps)
    if kind is ModulationKind.GFSK and sps >= 2:
        # Gaussian frequency pulse, truncated to +/-2 symbols.
        t = np.arange(-2 * sps, 2 * sps + 1, dtype=float) / sps
        sigma = np.sqrt(np.log(2)) / (2 * np.pi * GFSK_BT)
        g = np.exp(-(t**2) / (2 * sigma**2))
        g /= g.sum()
        steps = cyclic_filter(steps.astype(complex), g).real
    index = GFSK_MOD_INDEX if kind is ModulationKind.GFSK else CPFSK_MOD_INDEX
    symbol_rate = sample_rate_hz / sps
    freq = 0.5 * index * symbol_rate * steps
    phase = 2 * np.pi * np.cumsum(freq) / sample_rate_hz
    return np.exp(1j * phase)


def _analog(kind, seed, n, sample_rate_hz):
    m = _message(int(seed), n, sample_rate_hz)
    if kind is ModulationKind.AM_DSB:
        return (1.0 + AM_DEPTH * m).astype(complex)
    if kind is ModulationKind.AM_SSB:
        # Upper sideband: analytic signal of the message via FFT masking.
        spec = np.fft.fft(m)
        mask = np.zeros(n)
        mask[0] = 1.0
        if n % 2 == 0:
            mask[n // 2] = 1.0
            mask[1 : n // 2] = 2.0
        else:
            mask[1 : (n + 1) // 2] = 2.0
        return np.fft.ifft(spec * mask)
    # WBFM
    phase = 2 * np.pi * WBFM_DEVIATION_HZ * np.cumsum(m) / sample_rate_hz
    return np.exp(1j * phase)


def modulate(
    kind: ModulationKind,
    payload,
    samples_per_symbol: int,
    sample_rate_hz: float,
    n_samples: int | None = None,
) -> IqSignal:
    """Modulate a payload into a unit-average-power baseband signal.

    `payload` is a bit sequence for digital kinds and an integer message
    seed for analog kinds (which also require `n_samples`). Deterministic
    for fixed inputs. Pulse shaping applies for samples_per_symbol >= 2;
    at 1 sample/symbol digital outputs are the bare symbol sequence.
    """
    kind = ModulationKind(kind)
    sps = int(samples_per_symbol)
    if sps < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")

    if kind in ANALOG_KINDS:
        if n_samples is None or n_samples < 1:
            raise ValueError(f"{kind.value} requires n_samples")
        x = _analog(kind, payload, int(n_samples), sample_rate_hz)
    elif kind in LINEAR_KINDS:
        x = _linear(kind, _check_bits(payload), sps)
    elif kind in CPM_KINDS:
        x = _cpm(kind, _check_bits(payload), sps, sample_rate_hz)
    else:
        raise ValueError(f"unsupported modulation kind: {kind!r}")

    x = np.asarray(x, dtype=complex)
    power = signal_power(x)
    if power == 0.0:
        raise ValueError("modulation produced a zero-power signal")
    x /= np.sqrt(power)
    return IqSignal(x, sample_rate_hz)
