"""Tests for report formatting and shape checks on synthetic results."""

import pytest

from repro.experiments import format_fig2_table, format_shape_checks, shape_checks
from repro.experiments.fig2 import Fig2Cell, Fig2Result


def paper_perfect_result() -> Fig2Result:
    """A result whose cells are exactly the paper's numbers."""
    from repro.experiments import PAPER_FIG2

    result = Fig2Result()
    for (family, scenario, mode), (thr, acc) in PAPER_FIG2.items():
        result.add(Fig2Cell(family, scenario, mode, thr, acc, plan="paper"))
    return result


def broken_result() -> Fig2Result:
    """A result where fluid's worker-side survival is broken."""
    result = paper_perfect_result()
    cells = []
    for cell in result.cells:
        if (cell.family, cell.scenario) == ("fluid", "only_worker"):
            cell = Fig2Cell("fluid", "only_worker", "solo", 0.0, 0.0, "broken")
        cells.append(cell)
    return Fig2Result(cells)


class TestShapeChecksOnPaperNumbers:
    def test_paper_numbers_pass_all_checks(self):
        checks = shape_checks(paper_perfect_result())
        failures = [c for c in checks if not c.passed]
        assert not failures, failures

    def test_broken_reliability_is_caught(self):
        checks = shape_checks(broken_result())
        by_name = {c.name: c for c in checks}
        assert not by_name["fluid survives either device death"].passed

    def test_speedups_on_paper_numbers(self):
        result = paper_perfect_result()
        assert result.ht_speedup_vs_static() == pytest.approx(28.3 / 11.1)
        assert result.ht_speedup_vs_dynamic() == pytest.approx(28.3 / 14.4)


class TestFormatting:
    def test_table_includes_every_cell(self):
        table = format_fig2_table(paper_perfect_result())
        for family in ("static", "dynamic", "fluid"):
            assert family in table
        assert "28.3" in table and "2.55x" in table

    def test_table_sets_each_bar_beside_the_papers(self):
        table = format_fig2_table(paper_perfect_result())
        assert "paper thr" in table.splitlines()[0] and "paper acc" in table.splitlines()[0]

    def test_shape_check_formatting(self):
        text = format_shape_checks(shape_checks(paper_perfect_result()))
        assert text.count("[PASS]") == len(shape_checks(paper_perfect_result()))

    def test_missing_cell_lookup_raises(self):
        with pytest.raises(KeyError):
            paper_perfect_result().get("fluid", "nowhere", "HT")
