"""Complex-baseband signal container and power/SNR measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class IqSignal:
    """Complex-baseband sample sequence with its sample rate.

    Samples are stored as a 1-D complex128 array (I on the real axis, Q on
    the imaginary axis), dimensionless amplitude.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.complex128).reshape(-1)
        if self.samples.size == 0:
            raise ValueError("IqSignal requires at least one sample")
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise ValueError("IqSignal samples must be finite")
        self.sample_rate_hz = float(self.sample_rate_hz)
        if not math.isfinite(self.sample_rate_hz) or self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive and finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def with_samples(self, samples: np.ndarray) -> "IqSignal":
        """Same sample rate, new sample data."""
        return IqSignal(samples, self.sample_rate_hz)


def signal_power(x) -> float:
    """Average power per complex sample, mean(|x|^2)."""
    samples = x.samples if isinstance(x, IqSignal) else np.asarray(x)
    return float(np.mean(np.abs(samples) ** 2))


def measure_snr(noisy: IqSignal, clean: IqSignal) -> float:
    """SNR in dB of `noisy` against the retained clean copy.

    Computes 10*log10(P_clean / P_residual) with residual = noisy - clean.
    Returns +inf when the residual is exactly zero.
    """
    if len(noisy) != len(clean):
        raise ValueError(
            f"length mismatch: noisy has {len(noisy)} samples, clean has {len(clean)}"
        )
    p_clean = signal_power(clean)
    if p_clean == 0.0:
        raise ValueError("clean signal has zero power; SNR undefined")
    p_resid = signal_power(noisy.samples - clean.samples)
    if p_resid == 0.0:
        return math.inf
    return 10.0 * math.log10(p_clean / p_resid)
