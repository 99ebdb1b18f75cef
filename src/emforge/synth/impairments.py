"""Receiver-chain impairment model used for device fingerprints.

Impairments are applied in a fixed order: IQ gain/phase imbalance, DC
offset, carrier-frequency-offset rotation, phase-noise random walk. The
CFO in ppm is referred to an equivalent carrier of sample_rate / 4 so it
has a concrete rotation rate at baseband.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..signal import IqSignal

CFO_CARRIER_FRACTION = 0.25

MAX_GAIN_IMBALANCE_DB = 3.0
MAX_PHASE_SKEW_DEG = 10.0
MAX_CFO_PPM = 50.0


@dataclass(frozen=True)
class DeviceProfile:
    device_id: str
    iq_gain_imbalance_db: float = 0.0
    iq_phase_skew_deg: float = 0.0
    dc_offset: complex = 0j
    cfo_ppm: float = 0.0
    phase_noise_std_rad: float = 0.0

    def __post_init__(self):
        if not self.device_id:
            raise ValueError("device_id must be nonempty")
        if abs(self.iq_gain_imbalance_db) > MAX_GAIN_IMBALANCE_DB:
            raise ValueError(f"|iq_gain_imbalance_db| must be <= {MAX_GAIN_IMBALANCE_DB}")
        if abs(self.iq_phase_skew_deg) > MAX_PHASE_SKEW_DEG:
            raise ValueError(f"|iq_phase_skew_deg| must be <= {MAX_PHASE_SKEW_DEG}")
        if abs(self.cfo_ppm) > MAX_CFO_PPM:
            raise ValueError(f"|cfo_ppm| must be <= {MAX_CFO_PPM}")
        if self.phase_noise_std_rad < 0:
            raise ValueError("phase_noise_std_rad must be nonnegative")


def apply_device_profile(signal: IqSignal, profile: DeviceProfile, seed: int) -> IqSignal:
    """Imprint a device fingerprint; a zero-valued profile is the identity."""
    fs = signal.sample_rate_hz
    i = signal.samples.real
    q = signal.samples.imag

    # Gain imbalance splits half onto each rail; skew rotates the Q rail.
    a = 10.0 ** (profile.iq_gain_imbalance_db / 40.0)
    skew = np.deg2rad(profile.iq_phase_skew_deg)
    i_out = a * i - (q / a) * np.sin(skew)
    q_out = (q / a) * np.cos(skew)
    x = i_out + 1j * q_out

    x = x + complex(profile.dc_offset)

    n = np.arange(len(signal))
    cfo_hz = profile.cfo_ppm * 1e-6 * (CFO_CARRIER_FRACTION * fs)
    x = x * np.exp(1j * 2 * np.pi * cfo_hz * n / fs)

    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(0.0, profile.phase_noise_std_rad, len(signal)))
    x = x * np.exp(1j * walk)

    return IqSignal(x, fs)
