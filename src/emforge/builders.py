"""Per-task record drafting: signal synthesis plus QA construction.

Each draft, EI included, is a pure function of (task, index, format,
corpus spec): the record's rng is derived from the global seed and the
sample id, so records can be generated in any order or in parallel
without changing a single output byte.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .instrgen import (
    canonical_number,
    make_ajsd_openqa,
    make_mcqa_categorical,
    make_mcqa_numeric,
    make_mcqa_question,
    make_openqa,
)
from .signal import IqSignal
from .synth.channel import apply_awgn, gen_noise
from .synth.impairments import DeviceProfile, apply_device_profile
from .synth.jamming import SWEEP_SPAN_FRACTION, Jammer, JammingScene, gen_jamming_scene
from .synth.modulations import (
    ANALOG_KINDS,
    BITS_PER_SYMBOL,
    CPFSK_MOD_INDEX,
    GFSK_MOD_INDEX,
    WBFM_DEVIATION_HZ,
    ModulationKind,
    modulate,
)
from .synth.protocol import PROTOCOL_CLASSES, default_burst_spec, gen_protocol_burst
from .synth.radar import Cw, Lfm, RadarPulseSpec, gen_radar_pulse_train

SSD_CLASSES = ("radar", "communication", "noise")
# "mixed" never occurs as ground truth; it exists so SSD MCQA can field
# three wrong options besides the truth.
SSD_OPTION_UNIVERSE = SSD_CLASSES + ("mixed",)

SSD_COMM_KINDS = (
    ModulationKind.BPSK,
    ModulationKind.QPSK,
    ModulationKind.QAM16,
    ModulationKind.GFSK,
)

MR_KINDS = tuple(ModulationKind)

SPE_PARAM_PHRASES = {
    "pulse_width_us": ("pulse width", "µs"),
    "period_us": ("pulse repetition period", "µs"),
    "count": ("pulse count", "pulses"),
    "delay_us": ("initial time delay", "µs"),
}
SPE_PARAMS = tuple(SPE_PARAM_PHRASES)
SPE_TOLERANCE_US = 1.0
SPE_COUNT_TOLERANCE = 0.5

# Each SSD radar segment and SPE record draws its pulse width, period and
# (SPE only) delay from these grids, in µs, and its pulse count from a range.
# LFM pulse fills sweep their whole span about the carrier.
SSD_PULSE_WIDTHS_US = np.arange(2.0, 10.5, 0.5)
SSD_PERIODS_US = np.arange(15.0, 41.0, 1.0)
SSD_PULSE_COUNTS = range(2, 5)
SSD_LFM_SWEEPS_HZ = (1e6, 2e6, 4e6)
SPE_PULSE_WIDTHS_US = np.arange(1.0, 8.5, 0.5)
SPE_PERIODS_US = np.arange(10.0, 41.0, 1.0)
SPE_PULSE_COUNTS = range(2, 7)
SPE_DELAYS_US = np.arange(2.0, 31.0, 1.0)
SPE_LFM_SWEEPS_HZ = (1e6, 2e6)

SEGMENT_SAMPLES = 4096
MR_SAMPLES = 1024
MR_SPS = 8
SSD_COMM_SPS = 16
EI_SPS = 8

AJSD_ARCHETYPES = (
    (),
    ("tone",),
    ("multitone",),
    ("noise-band",),
    ("lfm-sweep",),
    ("phase-code",),
    ("tone", "lfm-sweep"),
    ("noise-band", "phase-code"),
)
# Jammer centres lie on a 0.5 MHz grid within this offset of the carrier.
AJSD_MAX_OFFSET_MHZ = 5.0

_EI_FAMILIES = ("x310", "b210", "n210")


def _pulse_train_window(widths_us, sweeps_hz, longest_train_us) -> tuple[float, float]:
    return (
        float(max(1 / (min(widths_us) / 1e6), max(sweeps_hz))),
        float(SEGMENT_SAMPLES / (longest_train_us / 1e6)),
    )


# A built task's sample rate must lie in its (low, high] window, where every
# draw of its generators makes a whole record, SEGMENT_SAMPLES / fs long, whose
# labelled components stay inside the band, -fs/2 to fs/2, and whose values
# stay below half the largest float.
# - SSD, SPE: the shortest pulse must span more than one sample (at exactly
#   one, rounding can empty it), the widest LFM fill must fit the band and the
#   longest train must fit the record. SSD's delay only fills the slack.
# - PR: every class's hops plus its symbol rate must sit below Nyquist.
# - AJSD: a jammer centred up to AJSD_MAX_OFFSET_MHZ off must keep its widest
#   extent, the LFM sweep of SWEEP_SPAN_FRACTION * fs, in the band; the
#   sweep's chirp rate, fs^2 / 8192 Hz/s, must stay finite.
# - MR: the WBFM phase, 2 pi * deviation * cumsum(m) / fs with |cumsum(m)| <=
#   MR_SAMPLES, sets the floor; the CPFSK/GFSK phase, 2 pi * cumsum(h/2 * fs /
#   MR_SPS * steps) with |steps| <= 1, the ceiling. EI's CFO rotation divides
#   by fs, which overflows below the smallest normal float.
_PR_MAX_EXTENT_HZ = max(
    max(map(abs, spec.hop_pattern or (0.0,))) + spec.symbol_rate_hz
    for spec in map(default_burst_spec, PROTOCOL_CLASSES)
)
_HALF_MAX_FLOAT = sys.float_info.max / 2
SAMPLE_RATE_WINDOWS_HZ = {
    "SSD": _pulse_train_window(
        SSD_PULSE_WIDTHS_US,
        SSD_LFM_SWEEPS_HZ,
        (max(SSD_PULSE_COUNTS) - 1) * max(SSD_PERIODS_US) + max(SSD_PULSE_WIDTHS_US),
    ),
    "SPE": _pulse_train_window(
        SPE_PULSE_WIDTHS_US,
        SPE_LFM_SWEEPS_HZ,
        max(SPE_DELAYS_US)
        + (max(SPE_PULSE_COUNTS) - 1) * max(SPE_PERIODS_US)
        + max(SPE_PULSE_WIDTHS_US),
    ),
    "MR": (
        2 * math.pi * WBFM_DEVIATION_HZ * MR_SAMPLES / _HALF_MAX_FLOAT,
        _HALF_MAX_FLOAT / (math.pi * MR_SAMPLES * max(CPFSK_MOD_INDEX, GFSK_MOD_INDEX) / MR_SPS),
    ),
    "PR": (2 * _PR_MAX_EXTENT_HZ, math.inf),
    "EI": (sys.float_info.min, math.inf),
    "AJSD": (
        AJSD_MAX_OFFSET_MHZ * 1e6 / (0.5 - SWEEP_SPAN_FRACTION / 2),
        math.sqrt(SEGMENT_SAMPLES) * math.sqrt(sys.float_info.max),
    ),
}


def derive_seed(global_seed: int, token: str) -> int:
    """Stable per-sample seed: hash of the global seed and a string token."""
    import hashlib  # here, so commands that hash nothing never load OpenSSL

    digest = hashlib.sha256(f"{global_seed}:{token}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def largest_remainder(quotas: list[float], total: int) -> list[int]:
    """Round `quotas` to ints summing to `total`, largest remainders (then lowest index) up."""
    floors = [int(q) for q in quotas]
    remainder = total - sum(floors)
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - floors[i]), i))
    for i in order[:remainder]:
        floors[i] += 1
    return floors


def _ei_device_counts(total: int, n_devices: int) -> list[int]:
    """Long-tailed per-device EI record counts: geometric decay 0.75 per device, sums to total."""
    weights = np.array([0.75**k for k in range(n_devices)])
    return largest_remainder((total * weights / weights.sum()).tolist(), total)


@lru_cache
def make_device_profiles(count: int) -> tuple[DeviceProfile, ...]:
    """Fixed synthetic device inventory with spread impairment signatures; cached per count."""
    profiles = []
    for k in range(count):
        sign = 1.0 if k % 2 == 0 else -1.0
        dc_mag = 0.006 * (k + 1)
        dc_angle = 2 * np.pi * k / max(count, 1)
        profiles.append(
            DeviceProfile(
                device_id=f"{_EI_FAMILIES[k % 3]}-{k:02d}",
                iq_gain_imbalance_db=sign * (0.25 + 0.14 * k),
                iq_phase_skew_deg=-sign * (0.5 + 0.6 * k),
                dc_offset=complex(dc_mag * np.cos(dc_angle), dc_mag * np.sin(dc_angle)),
                cfo_ppm=sign * (2.0 + 3.0 * k),
                phase_noise_std_rad=0.0004 * (k % 4),
            )
        )
    return tuple(profiles)


@dataclass
class RecordDraft:
    signal: IqSignal
    question: str
    options: tuple | None
    answer: str
    snr_db: float | None
    ground_truth: dict
    constellation_stride: int


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def record_snr(task: str, index: int, grid) -> float | None:
    """The SNR of record `index` of a task with an SNR grid.

    Records cycle through the grid in index order; SSD's noise segments
    (every third index) carry no SNR and do not advance the cycle.
    """
    if task == "SSD":
        if SSD_CLASSES[index % 3] == "noise":
            return None
        index -= index // 3
    return grid[index % len(grid)]


def modulated_payload(kind: ModulationKind, n_samples: int, sps: int, fs: float, rng) -> IqSignal:
    """`n_samples` of `kind`: analog kinds from a message seed, digital ones from random bits."""
    if kind in ANALOG_KINDS:
        return modulate(kind, _seed(rng), sps, fs, n_samples=n_samples)
    n_bits = (n_samples // sps) * BITS_PER_SYMBOL[kind]
    return modulate(kind, rng.integers(0, 2, n_bits), sps, fs)


def _qa(task, answer, make_options, fmt, rng, **fmt_args):
    """(question, options, answer): MCQA draws the option seed, then the question
    seed; OpenQA draws only the question seed and tags `answer`."""
    if fmt == "MCQA":
        options = make_options(seed=_seed(rng))
        question = make_mcqa_question(task, seed=_seed(rng), **fmt_args)
        return question, options.texts, options.correct_letter
    question, tagged = make_openqa(task, answer, seed=_seed(rng), **fmt_args)
    return question, None, tagged


def _draft_ssd(index, fmt, spec, rng, fs, snr):
    duration_us = SEGMENT_SAMPLES / fs * 1e6
    cls = SSD_CLASSES[index % 3]
    stride = 4
    if cls == "noise":
        sig = gen_noise(SEGMENT_SAMPLES, fs, _seed(rng))
    else:
        if cls == "radar":
            pw = float(rng.choice(SSD_PULSE_WIDTHS_US))
            period = float(rng.choice(SSD_PERIODS_US))
            count = int(rng.integers(SSD_PULSE_COUNTS.start, SSD_PULSE_COUNTS.stop))
            # A whole number of µs within the slack the train leaves.
            slack_us = duration_us - ((count - 1) * period + pw)
            delay = float(rng.choice(math.ceil(max(slack_us, 1.0))))
            fill = Lfm(float(rng.choice(SSD_LFM_SWEEPS_HZ))) if rng.integers(2) else Cw()
            clean = gen_radar_pulse_train(
                RadarPulseSpec(pw, period, count, delay, fill), duration_us, fs
            )
        else:
            kind = SSD_COMM_KINDS[int(rng.integers(len(SSD_COMM_KINDS)))]
            clean = modulated_payload(kind, SEGMENT_SAMPLES, SSD_COMM_SPS, fs, rng)
            stride = SSD_COMM_SPS
        sig = apply_awgn(clean, snr, _seed(rng))
    qa = _qa("SSD", cls, partial(make_mcqa_categorical, cls, SSD_OPTION_UNIVERSE), fmt, rng)
    return sig, qa, {"segment_class": cls}, stride


def _draft_spe(index, fmt, spec, rng, fs, snr):
    duration_us = SEGMENT_SAMPLES / fs * 1e6
    pw = float(rng.choice(SPE_PULSE_WIDTHS_US))
    period = float(rng.choice(SPE_PERIODS_US))
    count = int(rng.integers(SPE_PULSE_COUNTS.start, SPE_PULSE_COUNTS.stop))
    delay = float(rng.choice(SPE_DELAYS_US))
    fill = Lfm(float(rng.choice(SPE_LFM_SWEEPS_HZ))) if rng.integers(3) == 0 else Cw()
    pulse_spec = RadarPulseSpec(pw, period, count, delay, fill)
    sig = apply_awgn(gen_radar_pulse_train(pulse_spec, duration_us, fs), snr, _seed(rng))

    pulses = {name: getattr(pulse_spec, name) for name in SPE_PARAMS}
    param = SPE_PARAMS[index % 4]
    value = pulses[param]
    integer = param == "count"
    tolerance = SPE_COUNT_TOLERANCE if integer else SPE_TOLERANCE_US
    phrase, unit = SPE_PARAM_PHRASES[param]
    gt = {
        "parameter": param,
        "value": float(value),
        "tolerance": tolerance,
        "unit": unit,
        "pulse_spec": pulses,
    }
    options = partial(make_mcqa_numeric, float(value), tolerance, integer=integer)
    answer = canonical_number(value, integer)
    qa = _qa("SPE", answer, options, fmt, rng, param=phrase, unit=unit)
    return sig, qa, gt, 4


def _draft_mr(index, fmt, spec, rng, fs, snr):
    kind = MR_KINDS[index % len(MR_KINDS)]
    clean = modulated_payload(kind, MR_SAMPLES, MR_SPS, fs, rng)
    sig = apply_awgn(clean, snr, _seed(rng))
    universe = [k.value for k in MR_KINDS]
    qa = _qa("MR", kind.value, partial(make_mcqa_categorical, kind.value, universe), fmt, rng)
    return sig, qa, {"modulation": kind.value}, MR_SPS


def _draft_pr(index, fmt, spec, rng, fs, snr):
    duration_us = SEGMENT_SAMPLES / fs * 1e6
    cls = PROTOCOL_CLASSES[index % len(PROTOCOL_CLASSES)]
    burst = gen_protocol_burst(default_burst_spec(cls), duration_us, fs, seed=_seed(rng))
    sig = apply_awgn(burst, snr, _seed(rng))
    qa = _qa("PR", cls, partial(make_mcqa_categorical, cls, PROTOCOL_CLASSES), fmt, rng)
    return sig, qa, {"protocol_class": cls}, 4


def _draft_ei(index, fmt, spec, rng, fs, snr):
    # EI records come in long-tailed device blocks: record `index` belongs
    # to the first device whose running count exceeds it.
    profiles = make_device_profiles(spec.ei_device_count)
    counts = _ei_device_counts(sum(spec.counts["EI"]), len(profiles))
    profile = profiles[int(np.searchsorted(np.cumsum(counts), index, side="right"))]
    clean = modulated_payload(ModulationKind.QPSK, SEGMENT_SAMPLES, EI_SPS, fs, rng)
    marked = apply_device_profile(clean, profile, _seed(rng))
    # Real captures carry no SNR annotation; the noise draw stays unrecorded.
    internal_snr = float(rng.choice(np.arange(6.0, 19.0, 2.0)))
    sig = apply_awgn(marked, internal_snr, _seed(rng))
    device = profile.device_id
    universe = [p.device_id for p in profiles]
    qa = _qa("EI", device, partial(make_mcqa_categorical, device, universe), fmt, rng)
    return sig, qa, {"device_id": device}, EI_SPS


def _draft_ajsd(index, fmt, spec, rng, fs, snr):
    if fmt != "OpenQA":
        raise ValueError("AJSD records are OpenQA only")
    duration_us = SEGMENT_SAMPLES / fs * 1e6
    kinds = AJSD_ARCHETYPES[index % len(AJSD_ARCHETYPES)]
    grid_mhz = np.arange(-AJSD_MAX_OFFSET_MHZ, AJSD_MAX_OFFSET_MHZ + 0.5, 0.5)
    offsets_mhz = rng.choice(grid_mhz, size=max(len(kinds), 1), replace=False)
    jammers = tuple(
        Jammer(kind, float(rng.choice([5.0, 10.0, 15.0])), float(offsets_mhz[i]) * 1e6)
        for i, kind in enumerate(kinds)
    )
    if jammers:
        background = "radar" if rng.integers(2) else "comm"
    else:
        background = "noise"
    victim = "radar-mode" if background == "radar" else "comm-mode"
    scene = JammingScene(background, jammers, victim)
    sig, labels = gen_jamming_scene(scene, duration_us, fs, _seed(rng))
    question, reference = make_ajsd_openqa(labels, seed=_seed(rng))
    return sig, (question, None, reference), labels, 4


# Each drafter(index, fmt, spec, rng, fs, snr) draws its signal before its QA text and returns
# (signal, (question, options, answer), ground truth, constellation stride).
_DRAFTERS = {
    "SSD": _draft_ssd,
    "SPE": _draft_spe,
    "MR": _draft_mr,
    "PR": _draft_pr,
    "EI": _draft_ei,
    "AJSD": _draft_ajsd,
}


def draft_record(task: str, index: int, fmt: str, spec) -> RecordDraft:
    """Draft record `index` of `task` in format `fmt` from the corpus spec alone."""
    drafter = _DRAFTERS.get(task)
    if drafter is None:
        raise ValueError(f"unknown task family {task!r}")
    rng = np.random.default_rng(derive_seed(spec.global_seed, record_id(task, index)))
    grid = spec.snr_grids.get(task)
    snr = record_snr(task, index, grid) if grid else None
    sig, qa, gt, stride = drafter(index, fmt, spec, rng, spec.sample_rates[task], snr)
    return RecordDraft(sig, *qa, snr, gt, stride)


def record_id(task: str, index: int) -> str:
    return f"{task.lower()}-{index:05d}"
