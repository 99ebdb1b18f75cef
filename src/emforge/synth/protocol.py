"""Structural protocol-burst stand-ins.

Classes are parameterized signatures (symbol rate, preamble, hopping,
burst gaps), not standard-conformant PHYs; the class label is carried by
the generating spec. Payload symbols are QPSK, rectangular-held, with an
alternating BPSK preamble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..signal import IqSignal

_CLASS_DEFAULTS = {
    # symbol_rate_hz, preamble_len, hop_pattern (Hz offsets), burst_gap_us, payload_len
    "bluetooth-like": (1.0e6, 8, (-2.0e6, 0.0, 2.0e6), 60.0, 32),
    "wlan-like": (2.0e6, 16, None, 20.0, 96),
    "wpan-like": (0.5e6, 8, None, 100.0, 24),
    "avionics-ranging-like": (1.0e6, 4, None, 150.0, 8),
    "surveying-like": (0.25e6, 12, (-1.0e6, 1.0e6), 80.0, 16),
    "beacon-like": (0.125e6, 16, None, 200.0, 12),
}
PROTOCOL_CLASSES = tuple(_CLASS_DEFAULTS)


@dataclass(frozen=True)
class ProtocolBurstSpec:
    protocol_class: str
    symbol_rate_hz: float
    preamble_len: int
    hop_pattern: tuple | None = None
    burst_gap_us: float = 0.0
    payload_len: int = 32

    def __post_init__(self):
        if self.protocol_class not in PROTOCOL_CLASSES:
            raise ValueError(
                f"unknown protocol_class {self.protocol_class!r}; "
                f"expected one of {PROTOCOL_CLASSES}"
            )
        if self.symbol_rate_hz <= 0:
            raise ValueError("symbol_rate_hz must be positive")
        if self.preamble_len < 1:
            raise ValueError("preamble_len must be a positive integer")
        if self.burst_gap_us < 0:
            raise ValueError("burst_gap_us must be nonnegative")
        if self.payload_len < 1:
            raise ValueError("payload_len must be a positive integer")


def default_burst_spec(protocol_class: str) -> ProtocolBurstSpec:
    """Canonical burst structure for a protocol class."""
    rate, preamble, hops, gap, payload = _CLASS_DEFAULTS[protocol_class]
    return ProtocolBurstSpec(protocol_class, rate, preamble, hops, gap, payload)


def _burst_symbols(spec: ProtocolBurstSpec, rng: np.random.Generator) -> np.ndarray:
    preamble = np.where(np.arange(spec.preamble_len) % 2 == 0, 1.0, -1.0).astype(complex)
    payload = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, spec.payload_len)))
    return np.concatenate([preamble, payload])


def gen_protocol_burst(
    spec: ProtocolBurstSpec,
    duration_us: float,
    sample_rate_hz: float,
    seed: int = 0,
) -> IqSignal:
    """Repeat preamble+payload bursts with gaps and optional frequency hops.

    Unit envelope during bursts; hop k of the pattern shifts burst k's
    center frequency. Errors if the symbol rate violates Nyquist.
    """
    if duration_us <= 0:
        raise ValueError("duration_us must be positive")
    if spec.symbol_rate_hz >= sample_rate_hz / 2:
        raise ValueError(
            f"symbol_rate_hz {spec.symbol_rate_hz:g} violates Nyquist at "
            f"sample rate {sample_rate_hz:g}"
        )
    sps = max(int(round(sample_rate_hz / spec.symbol_rate_hz)), 2)
    n = int(round(duration_us * 1e-6 * sample_rate_hz))
    gap_n = int(round(spec.burst_gap_us * 1e-6 * sample_rate_hz))
    rng = np.random.default_rng(seed)

    x = np.zeros(n, dtype=complex)
    pos = 0
    burst_idx = 0
    while pos < n:
        # Draw every burst's symbols (the rng stream depends on it), but hold
        # only the samples that fit: a whole burst is sps samples per symbol,
        # which grows with the sample rate. A divisor of n or more holds the
        # first symbol throughout and keeps a huge sps out of int64.
        symbols = _burst_symbols(spec, rng)
        stop = min(pos + symbols.size * sps, n)
        burst = symbols[np.arange(stop - pos) // min(sps, n)]
        if spec.hop_pattern:
            offset = spec.hop_pattern[burst_idx % len(spec.hop_pattern)]
            t = np.arange(burst.size) / sample_rate_hz
            burst = burst * np.exp(1j * 2 * np.pi * offset * t)
        x[pos:stop] = burst
        pos = stop + gap_n
        burst_idx += 1

    if not np.any(x):
        raise ValueError("duration too short for a single burst sample")
    return IqSignal(x, sample_rate_hz)
