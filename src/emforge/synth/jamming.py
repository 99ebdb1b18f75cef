"""Jamming scene composition for anti-jamming decision records."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..signal import IqSignal, signal_power
from .channel import complex_gaussian
from .protocol import default_burst_spec, gen_protocol_burst
from .radar import RadarPulseSpec, gen_radar_pulse_train

JAMMER_KINDS = ("tone", "multitone", "noise-band", "lfm-sweep", "phase-code")
BACKGROUNDS = ("noise", "radar", "comm")
VICTIM_MODES = ("radar-mode", "comm-mode")

# Structural constants, as fractions of the sample rate.
MULTITONE_SPACING_FRACTION = 1 / 64
NOISE_BAND_WIDTH_FRACTION = 1 / 10
SWEEP_SPAN_FRACTION = 1 / 8
CHIP_RATE_FRACTION = 1 / 20
BACKGROUND_SNR_DB = 10.0


@dataclass(frozen=True)
class Jammer:
    kind: str
    power_db_rel: float
    center_offset_hz: float

    def __post_init__(self):
        if self.kind not in JAMMER_KINDS:
            raise ValueError(f"unknown jammer kind {self.kind!r}; expected one of {JAMMER_KINDS}")
        if not np.isfinite(self.power_db_rel) or not np.isfinite(self.center_offset_hz):
            raise ValueError("jammer parameters must be finite")


@dataclass(frozen=True)
class JammingScene:
    background: str = "noise"
    jammers: tuple = field(default_factory=tuple)
    victim_mode: str = "comm-mode"

    def __post_init__(self):
        if self.background not in BACKGROUNDS:
            raise ValueError(f"unknown background {self.background!r}")
        if self.victim_mode not in VICTIM_MODES:
            raise ValueError(f"unknown victim_mode {self.victim_mode!r}")
        for j in self.jammers:
            if not isinstance(j, Jammer):
                raise ValueError("jammers must be Jammer instances")


def _background(scene: JammingScene, n: int, fs: float, rng: np.random.Generator) -> np.ndarray:
    noise = complex_gaussian(n, rng)
    if scene.background == "noise":
        return noise
    duration_us = n / fs * 1e6
    if scene.background == "radar":
        period = duration_us / 5
        spec = RadarPulseSpec(period / 4, period, 4, period / 8)
        sig = gen_radar_pulse_train(spec, duration_us, fs).samples[:n]
    else:
        burst = default_burst_spec("wlan-like")
        sig = gen_protocol_burst(burst, duration_us, fs, seed=int(rng.integers(2**31))).samples[:n]
    sig = sig / np.sqrt(signal_power(sig))
    return sig + np.sqrt(10.0 ** (-BACKGROUND_SNR_DB / 10.0)) * noise


def _jammer_waveform(j: Jammer, n: int, fs: float, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n) / fs
    carrier = np.exp(1j * 2 * np.pi * j.center_offset_hz * t)
    if j.kind == "tone":
        return carrier
    if j.kind == "multitone":
        spacing = MULTITONE_SPACING_FRACTION * fs
        x = sum(
            np.exp(1j * 2 * np.pi * (j.center_offset_hz + k * spacing) * t) for k in (-1, 0, 1)
        )
        return np.asarray(x)
    if j.kind == "noise-band":
        white = complex_gaussian(n, rng)
        spec = np.fft.fft(white)
        freqs = np.fft.fftfreq(n, d=1.0 / fs)
        half_bw = NOISE_BAND_WIDTH_FRACTION * fs / 2
        spec[np.abs(freqs - j.center_offset_hz) > half_bw] = 0.0
        return np.fft.ifft(spec)
    if j.kind == "lfm-sweep":
        # Sawtooth sweep around the center offset, four sweeps per record.
        span = SWEEP_SPAN_FRACTION * fs
        period = n / fs / 4
        tau = np.mod(t, period)
        phase = 2 * np.pi * (-0.5 * span * tau + 0.5 * (span / period) * tau**2)
        return carrier * np.exp(1j * phase)
    # phase-code: BPSK chips at CHIP_RATE_FRACTION * fs
    chip_n = max(int(round(1 / CHIP_RATE_FRACTION)), 1)
    chips = 1.0 - 2.0 * rng.integers(0, 2, n // chip_n + 1)
    return carrier * np.repeat(chips, chip_n)[:n]


def gen_jamming_scene(
    scene: JammingScene, duration_us: float, sample_rate_hz: float, seed: int
) -> tuple[IqSignal, dict]:
    """Background plus jammers at their relative powers, with ground truth.

    Jammer powers are relative to the measured background power. The
    returned dict records the scene structure for instruction generation.
    """
    if duration_us <= 0:
        raise ValueError("duration_us must be positive")
    n = int(round(duration_us * 1e-6 * sample_rate_hz))
    rng = np.random.default_rng(seed)

    x = _background(scene, n, sample_rate_hz, rng)
    p_bg = signal_power(x)
    for j in scene.jammers:
        w = _jammer_waveform(j, n, sample_rate_hz, rng)
        p_w = signal_power(w)
        target = p_bg * 10.0 ** (j.power_db_rel / 10.0)
        x = x + w * np.sqrt(target / p_w)

    labels = {
        "noise_only": len(scene.jammers) == 0 and scene.background == "noise",
        "background": scene.background,
        "victim_mode": scene.victim_mode,
        "jammers": [asdict(j) for j in scene.jammers],
    }
    return IqSignal(x, sample_rate_hz), labels
