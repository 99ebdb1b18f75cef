"""Radar pulse-train generation.

Pulses carry a unit envelope with a constant (CW) fill, or with an LFM
(linear chirp) fill when `RadarPulseSpec.lfm_sweep_hz` is set: the two
fills the SSD and SPE records draw. The AJSD radar background uses CW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..signal import IqSignal


@dataclass(frozen=True)
class RadarPulseSpec:
    pulse_width_us: float
    period_us: float
    count: int
    delay_us: float = 0.0
    # The LFM sweep across each pulse; None for a constant-envelope (CW) fill.
    lfm_sweep_hz: float | None = None

    def __post_init__(self):
        if self.pulse_width_us <= 0 or self.period_us <= 0:
            raise ValueError("pulse_width_us and period_us must be positive")
        if self.pulse_width_us >= self.period_us:
            raise ValueError("pulse_width_us must be smaller than period_us")
        if self.count < 1:
            raise ValueError("count must be a positive integer")
        if self.delay_us < 0:
            raise ValueError("delay_us must be nonnegative")
        if self.lfm_sweep_hz == 0:
            raise ValueError("lfm_sweep_hz must be nonzero")

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


def _fill(
    sweep_hz: float | None, n: int, pulse_width_us: float, sample_rate_hz: float
) -> np.ndarray:
    if sweep_hz is None:
        return np.ones(n, dtype=complex)
    # Sweep from -sweep/2 to +sweep/2 across the pulse width.
    t = np.arange(n) / sample_rate_hz
    width_s = pulse_width_us * 1e-6
    rate = sweep_hz / width_s
    phase = 2 * np.pi * (-0.5 * sweep_hz * t + 0.5 * rate * t**2)
    return np.exp(1j * phase)


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
            x[start:stop] = _fill(spec.lfm_sweep_hz, stop - start, spec.pulse_width_us, sample_rate_hz)
    return IqSignal(x, sample_rate_hz)
