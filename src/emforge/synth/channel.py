"""Noise generation and the AWGN channel."""

from __future__ import annotations

import numpy as np

from ..signal import IqSignal, signal_power


def complex_gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian, unit power per sample (0.5 per quadrature)."""
    return np.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def gen_noise(n_samples: int, sample_rate_hz: float, seed: int) -> IqSignal:
    """Unit-power circular complex Gaussian noise, deterministic per seed."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    return IqSignal(complex_gaussian(int(n_samples), rng), sample_rate_hz)


def apply_awgn(signal: IqSignal, snr_db: float, seed: int) -> IqSignal:
    """Add independent white Gaussian noise at the requested SNR.

    Noise power is P_signal / 10^(snr_db/10), measured on total average
    complex-sample power and split equally between quadratures.
    """
    p_sig = signal_power(signal)
    if p_sig == 0.0:
        raise ValueError("signal has zero power; SNR undefined")
    rng = np.random.default_rng(seed)
    noise_power = p_sig * 10.0 ** (-snr_db / 10.0)
    noise = np.sqrt(noise_power) * complex_gaussian(len(signal), rng)
    return signal.with_samples(signal.samples + noise)
