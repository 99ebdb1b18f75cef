"""Multi-view token packing and the training schedule's sequence budget.

Reference arithmetic only: views are represented by their token counts and
a packed layout by its view count and total length, the spans plus one
boundary token between each pair of neighbours. The stage table pins the
training schedule's caps (vision tokens per view, view counts, grid, max
sequence length). `emforge budget` checks each stage's largest layout,
every view at its cap, beside a reserved prompt of RESERVED_PROMPT_TOKENS.
"""

from __future__ import annotations

from dataclasses import dataclass

TOKENS_PER_VIEW = 729
RESERVED_PROMPT_TOKENS = 256


@dataclass(frozen=True)
class StageConfig:
    stage: int
    max_views: int
    grid: tuple
    max_seq_len: int
    tokens_per_view: int = TOKENS_PER_VIEW


STAGES = {
    1: StageConfig(1, 1, (1, 1), 4096),
    2: StageConfig(2, 5, (2, 2), 4096),
    3: StageConfig(3, 10, (6, 6), 8192),
    4: StageConfig(4, 10, (6, 6), 8192),
}


@dataclass(frozen=True)
class PackingLayout:
    """View count and total length of spans packed with single boundary tokens."""

    views: int
    total_tokens: int


def pack_views(view_token_counts) -> PackingLayout:
    """Lay out per-view token spans separated by single boundary tokens."""
    counts = [int(c) for c in view_token_counts]
    if not counts:
        raise ValueError("need at least one view")
    if any(c < 1 for c in counts):
        raise ValueError("view token counts must be positive")
    return PackingLayout(len(counts), sum(counts) + len(counts) - 1)


@dataclass(frozen=True)
class BudgetVerdict:
    fits: bool
    slack: int
    used: int
    max_seq_len: int


def check_budget(
    layout: PackingLayout, prompt_len: int, response_len: int, stage: StageConfig
) -> BudgetVerdict:
    """Whether layout + prompt + response fit the stage's max sequence length."""
    if prompt_len < 0 or response_len < 0:
        raise ValueError("prompt_len and response_len must be nonnegative")
    if layout.views > stage.max_views:
        raise ValueError(
            f"{layout.views} views exceed the stage-{stage.stage} cap "
            f"of {stage.max_views}"
        )
    used = layout.total_tokens + prompt_len + response_len
    return BudgetVerdict(used <= stage.max_seq_len, stage.max_seq_len - used, used, stage.max_seq_len)


def largest_layout(stage: StageConfig) -> tuple[PackingLayout, BudgetVerdict]:
    """The stage's largest layout (max_views full views) and its fit beside the reserved prompt."""
    layout = pack_views([stage.tokens_per_view] * stage.max_views)
    return layout, check_budget(layout, RESERVED_PROMPT_TOKENS, 0, stage)


def stage_table() -> str:
    """Four-row schedule with the max-layout fit verdict per stage."""
    lines = [
        f"{'stage':>5s} {'grid':>6s} {'views':>5s} {'tok/view':>8s} "
        f"{'layout':>7s} {'max_seq':>8s} {'verdict':>20s}"
    ]
    for stage in STAGES.values():
        layout, verdict = largest_layout(stage)
        status = f"fits, slack {verdict.slack}" if verdict.fits else "exceeds"
        grid = f"{stage.grid[0]}x{stage.grid[1]}"
        lines.append(
            f"{stage.stage:>5d} {grid:>6s} {stage.max_views:>5d} "
            f"{stage.tokens_per_view:>8d} {layout.total_tokens:>7d} "
            f"{stage.max_seq_len:>8d} {status:>20s}"
        )
    return "\n".join(lines)
