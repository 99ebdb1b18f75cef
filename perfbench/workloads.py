"""The benchmark's workloads: what each one builds or scores, and why.

This module is imported by the orchestrator, which must not import
emforge, so everything that touches the program takes the already
imported `corpus` module as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

# The default seed, at which the output digests in digests.json are pinned.
DEFAULT_SEED = 0

# Size of the paper's benchmark composition (6,458 tagged + 2,000 AJSD).
PAPER_TOTAL = 8458
DESK_PER_TASK = 24


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "build" or "score"
    render: bool = True
    desk_per_task: int | None = None  # default_desk size; None means from_total(PAPER_TOTAL)

    def spec(self, corpus, seed: int):
        """The validated CorpusSpec this workload builds (or scores) at `seed`."""
        if self.desk_per_task is not None:
            spec = corpus.CorpusSpec.default_desk(per_task=self.desk_per_task, global_seed=seed)
        else:
            spec = corpus.CorpusSpec.from_total(PAPER_TOTAL, global_seed=seed)
        spec.validate()
        return spec


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "render_desk",
            "The product's main job: 144 records, 576 PNGs, one process; every raster, "
            "STFT or PNG encoder change shows here.",
            kind="build",
            desk_per_task=DESK_PER_TASK,
        ),
        Workload(
            "plan_paper",
            "Paper-scale plan build (8,458 records, no views or PNGs): synth, QA text, "
            "split, stratify and manifest writes; a renderer change should not move it.",
            kind="build",
            render=False,
        ),
        Workload(
            "score_paper",
            "Scores 8,458 mixed predictions against one paper-scale manifest: only the "
            "metrics layer and manifest reading run.",
            kind="score",
        ),
    )
}
