"""Packing layout arithmetic and stage caps."""

import pytest

from emforge.budget import (
    RESERVED_PROMPT_TOKENS,
    STAGES,
    check_budget,
    pack_views,
    stage_table,
)


class TestPackViews:
    def test_single_view(self):
        layout = pack_views([729])
        assert layout.total_tokens == 729

    def test_four_views(self):
        layout = pack_views([729] * 4)
        assert layout.total_tokens == 4 * 729 + 3 == 2919

    def test_ten_views(self):
        layout = pack_views([729] * 10)
        assert layout.total_tokens == 7299

    def test_spans_contiguous(self):
        layout = pack_views([3, 5, 2])
        assert layout.total_tokens == 12

    def test_total_strictly_increasing_in_view_count(self):
        totals = [pack_views([729] * k).total_tokens for k in range(1, 11)]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            pack_views([])
        with pytest.raises(ValueError):
            pack_views([729, 0])


class TestCheckBudget:
    def test_stage3_ten_views_worked_example(self):
        verdict = check_budget(pack_views([729] * 10), 400, 400, STAGES[3])
        assert verdict.fits and verdict.used == 8099 and verdict.slack == 93

    def test_stage2_view_cap(self):
        with pytest.raises(ValueError, match="cap"):
            check_budget(pack_views([729] * 10), 0, 0, STAGES[2])

    def test_stage1_single_view_fits(self):
        verdict = check_budget(pack_views([729]), 100, 0, STAGES[1])
        assert verdict.fits

    def test_stage_caps_with_reserved_prompt(self):
        for stage_id in (1, 2):
            stage = STAGES[stage_id]
            layout = pack_views([stage.tokens_per_view] * stage.max_views)
            assert layout.total_tokens <= stage.max_seq_len - RESERVED_PROMPT_TOKENS
        for stage_id in (3, 4):
            stage = STAGES[stage_id]
            layout = pack_views([stage.tokens_per_view] * stage.max_views)
            assert check_budget(layout, 0, 0, stage).fits

    def test_stage_table_renders_four_rows(self):
        table = stage_table()
        assert len(table.splitlines()) == 5  # header + 4 stages
        assert "7299" in table
