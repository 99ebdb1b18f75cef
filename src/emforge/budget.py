"""Multi-view token packing and the training schedule's sequence budget.

Reference arithmetic only: views are represented by their token counts,
spans are separated by one boundary token each and carry a view-index id,
and the stage table pins the training schedule's caps (vision tokens per
view, view counts, grid, max sequence length). `emforge budget` checks
each stage's largest layout, every view at its cap, beside a reserved
prompt of RESERVED_PROMPT_TOKENS.
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
    """Contiguous per-view token spans with boundary tokens between them."""

    view_spans: tuple  # ordered (start, length) pairs
    boundary_positions: tuple
    view_index_ids: tuple

    def __post_init__(self):
        if len(self.view_spans) != len(self.view_index_ids):
            raise ValueError("one view-index id per span")
        if len(self.boundary_positions) != max(len(self.view_spans) - 1, 0):
            raise ValueError("boundaries must number view count - 1")
        cursor = 0
        for k, (start, length) in enumerate(self.view_spans):
            if start != cursor or length < 1:
                raise ValueError("spans must be contiguous, non-overlapping, nonempty")
            cursor = start + length
            if k < len(self.boundary_positions):
                if self.boundary_positions[k] != cursor:
                    raise ValueError("each boundary sits directly after its span")
                cursor += 1

    @property
    def total_tokens(self) -> int:
        return sum(length for _, length in self.view_spans) + len(self.boundary_positions)


def pack_views(view_token_counts) -> PackingLayout:
    """Lay out per-view token spans separated by single boundary tokens."""
    counts = list(view_token_counts)
    if not counts:
        raise ValueError("need at least one view")
    if any(int(c) < 1 for c in counts):
        raise ValueError("view token counts must be positive")
    spans = []
    boundaries = []
    cursor = 0
    for k, count in enumerate(counts):
        spans.append((cursor, int(count)))
        cursor += int(count)
        if k < len(counts) - 1:
            boundaries.append(cursor)
            cursor += 1
    return PackingLayout(tuple(spans), tuple(boundaries), tuple(range(len(counts))))


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
    if len(layout.view_spans) > stage.max_views:
        raise ValueError(
            f"{len(layout.view_spans)} views exceed the stage-{stage.stage} cap "
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
