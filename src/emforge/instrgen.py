"""Instruction-record construction: questions, MCQA options, tagged answers.

MCQA items always carry five options labeled A-E with the literal
"Unable to answer" pinned at E and the four value options shuffled over
A-D. Numeric distractors come from multiples of the ground truth
(DISTRACTOR_FACTORS), offsets from it (DISTRACTOR_OFFSETS) and uniform
draws relative to it (DISTRACTOR_RANGE); any closer than twice the
scoring tolerance to the ground truth is rejected. AJSD references
follow a rule table keyed by the jammer kinds of
`synth.jamming.JAMMER_KINDS`, one clause per jammer in that kind order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifest import OPTION_LETTERS, TASK_TAGS, UNABLE_TO_ANSWER, TagKind
from .synth.jamming import JAMMER_KINDS

MAX_DISTRACTOR_ATTEMPTS = 200
DISTRACTOR_FACTORS = (0.5, 2.0, 3.0)
DISTRACTOR_OFFSETS = (-10.0, -5.0, 5.0, 10.0)
DISTRACTOR_RANGE = (0.2, 5.0)  # relative to the ground truth


@dataclass(frozen=True)
class OptionSet:
    """Five options in A-E order plus the letter of the correct one."""

    texts: tuple
    correct_letter: str

    def __post_init__(self):
        if len(self.texts) != 5:
            raise ValueError("MCQA requires exactly 5 options")
        if UNABLE_TO_ANSWER not in self.texts:
            raise ValueError(f'options must include "{UNABLE_TO_ANSWER}"')
        if self.correct_letter not in OPTION_LETTERS:
            raise ValueError("correct_letter must be one of A-E")


def canonical_number(value: float, integer: bool = False) -> str:
    """Canonical numeric answer text: '%d' for counts, else shortest decimal
    with at least one fractional digit ('2.0', '2.25')."""
    if integer:
        return str(int(round(value)))
    text = f"{float(value):.10g}"
    if "e" in text or "E" in text:
        text = f"{float(value):.10f}".rstrip("0").rstrip(".")
    if "." not in text:
        text += ".0"
    return text


def _assemble(values: list[str], correct_text: str, rng: np.random.Generator) -> OptionSet:
    order = rng.permutation(4)
    shuffled = [values[i] for i in order]
    texts = tuple(shuffled + [UNABLE_TO_ANSWER])
    return OptionSet(texts, OPTION_LETTERS[shuffled.index(correct_text)])


def make_mcqa_numeric(
    gt: float, tolerance: float, seed: int = 0, integer: bool = False
) -> OptionSet:
    """Four numeric options (one correct) plus "Unable to answer".

    Every distractor d satisfies |d - gt| >= 2 * tolerance, so the
    correctness window can never capture a distractor. One distractor
    comes from the factors and one from the offsets when any is
    admissible; uniform draws over DISTRACTOR_RANGE times the ground
    truth fill the rest.
    """
    if not np.isfinite(gt):
        raise ValueError("ground truth must be finite")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    min_separation = 2.0 * tolerance
    rng = np.random.default_rng(seed)

    correct_text = canonical_number(gt, integer)

    def admissible(value: float, taken: list[float]) -> bool:
        if not np.isfinite(value) or value <= 0 or abs(value - gt) < min_separation:
            return False
        text = canonical_number(value, integer)
        return text != correct_text and all(
            canonical_number(t, integer) != text for t in taken
        )

    def draw_random() -> float:
        lo, hi = DISTRACTOR_RANGE
        value = float(rng.uniform(lo * gt, hi * gt))
        return float(round(value)) if integer else round(value, 2)

    pools = [
        [gt * f for f in DISTRACTOR_FACTORS],
        [gt + o for o in DISTRACTOR_OFFSETS],
    ]
    distractors: list[float] = []
    for pool in pools:
        candidates = [v for v in pool if admissible(v, distractors)]
        if candidates:
            distractors.append(float(candidates[rng.integers(len(candidates))]))
    attempts = 0
    while len(distractors) < 3:
        attempts += 1
        if attempts > MAX_DISTRACTOR_ATTEMPTS:
            raise ValueError(
                f"could not build 3 separated distractors for gt={gt} "
                f"(min_separation={min_separation})"
            )
        value = draw_random()
        if admissible(value, distractors):
            distractors.append(value)

    values = [correct_text] + [canonical_number(d, integer) for d in distractors]
    return _assemble(values, correct_text, rng)


def make_mcqa_categorical(gt_label: str, label_universe, seed: int = 0) -> OptionSet:
    """Ground truth plus 3 distinct wrong labels plus "Unable to answer"."""
    universe = list(label_universe)
    if gt_label not in universe:
        raise ValueError(f"ground truth {gt_label!r} not in the label universe")
    wrong = [u for u in universe if u != gt_label]
    if len(wrong) < 3:
        raise ValueError(
            f"label universe of {len(universe)} is too small: need >= 3 labels besides the truth"
        )
    rng = np.random.default_rng(seed)
    picks = [wrong[i] for i in rng.choice(len(wrong), size=3, replace=False)]
    return _assemble([gt_label] + picks, gt_label, rng)


# ---------------------------------------------------------------------------
# Question templates: three paraphrase variants per task, chosen by seed.
# ---------------------------------------------------------------------------

_VIEW_PREAMBLE = (
    "The four images show the constellation, FFT spectrum, STFT spectrogram, "
    "and I/Q waveform of one received signal."
)

OPENQA_TEMPLATES = {
    "SSD": (
        "Which source class does this segment contain: radar, communication, or noise? Only "
        "output the result as <segment>class</segment>.",
        "Classify the segment source (radar, communication, or noise). Respond with nothing "
        "but <segment>class</segment>.",
        "Decide whether the segment holds a radar signal, a communication signal, or only "
        "noise. Answer only with <segment>class</segment>.",
    ),
    "SPE": (
        "What is the {param} of the pulse train, in {unit}? Only output the numeric result as "
        "<value>number</value>.",
        "Read off the {param} in {unit}. Respond with nothing but <value>number</value>.",
        "Estimate the {param} ({unit}) from the views. Answer only with <value>number</value>.",
    ),
    "MR": (
        "Which modulation scheme is used? Only output the result as <mode>scheme</mode>.",
        "Identify the modulation type. Respond with nothing but <mode>scheme</mode>.",
        "Name the modulation format of this signal. Answer only with <mode>scheme</mode>.",
    ),
    "PR": (
        "Which protocol class does this burst belong to? Only output the result as "
        "<protocol>class</protocol>.",
        "Identify the protocol family of the transmission. Respond with nothing but "
        "<protocol>class</protocol>.",
        "Name the protocol class of this signal. Answer only with <protocol>class</protocol>.",
    ),
    "EI": (
        "Which device emitted this signal? Only output the result as <device>id</device>.",
        "Identify the emitting device from its hardware fingerprint. Respond with nothing but "
        "<device>id</device>.",
        "Name the emitter that produced this capture. Answer only with <device>id</device>.",
    ),
}

AJSD_TEMPLATES = (
    "Identify any jamming present in this spectrum environment and recommend a countermeasure "
    "strategy, citing the visual evidence.",
    "Assess the interference situation and propose an anti-jamming plan justified by what the "
    "views show.",
    "Determine whether the link is being jammed and state the countermeasures you would apply, "
    "with the observed evidence.",
)

MCQA_SUFFIX = {
    "SSD": "Which source class does this segment contain?",
    "SPE": "What is the {param} of the pulse train, in {unit}?",
    "MR": "Which modulation scheme is used?",
    "PR": "Which protocol class does this burst belong to?",
    "EI": "Which device emitted this signal?",
}

MCQA_INSTRUCTIONS = (
    "Choose the correct option and only output the letter as <answer>letter</answer>.",
    "Pick one option; respond with nothing but <answer>letter</answer>.",
    "Select the best option and answer only with <answer>letter</answer>.",
)

def _pick(variants, seed: int) -> str:
    return variants[int(np.random.default_rng(seed).integers(len(variants)))]


def make_openqa(task: str, gt: str, seed: int = 0, **fmt) -> tuple[str, str]:
    """OpenQA question text and the answer text `gt` wrapped in the task's tag."""
    tag = TASK_TAGS.get(task)
    if tag is None:
        raise ValueError(f"unknown task family {task!r}")
    if tag is TagKind.NONE:
        raise ValueError("AJSD free text is produced by make_ajsd_openqa")
    question = _pick(OPENQA_TEMPLATES[task], seed).format(**fmt)
    return f"{_VIEW_PREAMBLE} {question}", f"<{tag.value}>{gt}</{tag.value}>"


def make_mcqa_question(task: str, seed: int = 0, **fmt) -> str:
    base = MCQA_SUFFIX[task].format(**fmt)
    return f"{_VIEW_PREAMBLE} {base} {_pick(MCQA_INSTRUCTIONS, seed)}"


# ---------------------------------------------------------------------------
# Anti-jamming references: a fixed rule table keyed by jammer kind.
# ---------------------------------------------------------------------------

_EVIDENCE = {
    "tone": "a narrowband tone at {mhz} MHz seen as one dominant spectral peak",
    "multitone": "a cluster of tones around {mhz} MHz seen as several dominant peaks",
    "noise-band": "a barrage band around {mhz} MHz seen as an elevated noise plateau",
    "lfm-sweep": "a linear sweep crossing {mhz} MHz seen as a diagonal spectrogram ridge",
    "phase-code": "a phase-coded emitter at {mhz} MHz seen as a broadened flat-topped lobe",
}

_STRATEGY = {
    "tone": "apply a notch filter at {mhz} MHz and enable frequency hopping away from it",
    "multitone": "apply notch filters at each tone near {mhz} MHz and enable frequency "
    "hopping across the unoccupied channels",
    "noise-band": "use spread-spectrum processing gain and steer transmissions outside "
    "the band around {mhz} MHz",
    "lfm-sweep": "enable frequency hopping with dwell timing chosen to avoid the sweep "
    "through {mhz} MHz",
    "phase-code": "use waveform diversity and code-domain correlation filtering against "
    "the structured interference at {mhz} MHz",
}


def _mhz(offset_hz: float) -> str:
    return canonical_number(offset_hz / 1e6)


def make_ajsd_openqa(scene_labels: dict, seed: int = 0) -> tuple[str, str]:
    """Question plus the deterministic reference strategy text.

    The reference opens with a causal detection clause citing the observed
    evidence, then one strategy clause per jammer in fixed kind order.
    """
    question = f"{_VIEW_PREAMBLE} {_pick(AJSD_TEMPLATES, seed)}"
    jammers = scene_labels.get("jammers", [])
    for j in jammers:
        if j["kind"] not in JAMMER_KINDS:
            raise ValueError(f"unknown jammer kind {j['kind']!r}")

    if not jammers:
        reference = (
            "No jamming is detected: the spectrum shows only the expected signal and "
            "a flat noise floor with no dominant peaks or sweep ridges, so no "
            "countermeasure is needed."
        )
        return question, reference

    ordered = sorted(
        jammers, key=lambda j: (JAMMER_KINDS.index(j["kind"]), j["center_offset_hz"])
    )
    evidence = "; ".join(
        _EVIDENCE[j["kind"]].format(mhz=_mhz(j["center_offset_hz"])) for j in ordered
    )
    count = "One interferer is" if len(ordered) == 1 else f"{len(ordered)} interferers are"
    strategies = [
        _STRATEGY[j["kind"]].format(mhz=_mhz(j["center_offset_hz"])) for j in ordered
    ]
    if len(strategies) == 1:
        plan = f"Recommended countermeasure: {strategies[0]}."
    else:
        steps = " ".join(f"({i + 1}) {s};" for i, s in enumerate(strategies)).rstrip(";")
        plan = f"Recommended combined plan: {steps}."
    reference = f"{count} detected: {evidence}. {plan}"
    return question, reference
