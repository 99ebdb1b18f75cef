"""Radar pulse-train generation.

Pulses carry a unit envelope with a CW (constant) or LFM (linear chirp)
fill, the two fills the SSD and SPE records draw; the AJSD radar
background uses CW.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..signal import IqSignal


@dataclass(frozen=True)
class Cw:
    """Constant-envelope fill (no intra-pulse modulation)."""


@dataclass(frozen=True)
class Lfm:
    sweep_hz: float

    def __post_init__(self):
        if self.sweep_hz == 0:
            raise ValueError("LFM sweep_hz must be nonzero")


@dataclass(frozen=True)
class RadarPulseSpec:
    pulse_width_us: float
    period_us: float
    count: int
    delay_us: float = 0.0
    intra_pulse: Cw | Lfm = field(default_factory=Cw)

    def __post_init__(self):
        if self.pulse_width_us <= 0 or self.period_us <= 0:
            raise ValueError("pulse_width_us and period_us must be positive")
        if self.pulse_width_us >= self.period_us:
            raise ValueError("pulse_width_us must be smaller than period_us")
        if self.count < 1:
            raise ValueError("count must be a positive integer")
        if self.delay_us < 0:
            raise ValueError("delay_us must be nonnegative")

    @property
    def train_end_us(self) -> float:
        return self.delay_us + (self.count - 1) * self.period_us + self.pulse_width_us


def pulse_support_indices(spec: RadarPulseSpec, sample_rate_hz: float) -> list[tuple[int, int]]:
    """Half-open [start, stop) sample index ranges of the on-envelope.

    Edges land on the nearest sample boundary: round(edge_time * fs).
    """
    per_us = sample_rate_hz * 1e-6
    spans = []
    for k in range(spec.count):
        t0 = spec.delay_us + k * spec.period_us
        start = int(round(t0 * per_us))
        stop = int(round((t0 + spec.pulse_width_us) * per_us))
        spans.append((start, stop))
    return spans


def _fill(intra: Cw | Lfm, n: int, pulse_width_us: float, sample_rate_hz: float) -> np.ndarray:
    if isinstance(intra, Cw):
        return np.ones(n, dtype=complex)
    if isinstance(intra, Lfm):
        # Sweep from -sweep/2 to +sweep/2 across the pulse width.
        t = np.arange(n) / sample_rate_hz
        width_s = pulse_width_us * 1e-6
        rate = intra.sweep_hz / width_s
        phase = 2 * np.pi * (-0.5 * intra.sweep_hz * t + 0.5 * rate * t**2)
        return np.exp(1j * phase)
    raise ValueError(f"unsupported intra-pulse fill: {intra!r}")


def gen_radar_pulse_train(
    spec: RadarPulseSpec, duration_us: float, sample_rate_hz: float
) -> IqSignal:
    """Pulse train with unit envelope inside pulses and zero outside.

    Peak amplitude is exactly 1, so the average power over the on-support
    is 1; total power equals the duty cycle.
    """
    if duration_us <= 0:
        raise ValueError("duration_us must be positive")
    if spec.train_end_us > duration_us + 1e-9:
        raise ValueError(
            f"pulse train ends at {spec.train_end_us:g} us, beyond the "
            f"{duration_us:g} us signal duration"
        )
    n = int(round(duration_us * 1e-6 * sample_rate_hz))
    x = np.zeros(n, dtype=complex)
    for start, stop in pulse_support_indices(spec, sample_rate_hz):
        stop = min(stop, n)
        if stop > start:
            x[start:stop] = _fill(spec.intra_pulse, stop - start, spec.pulse_width_us, sample_rate_hz)
    return IqSignal(x, sample_rate_hz)
