"""The equivalence-set runner's summary and comparison (tools/equivalence.py)."""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("equivalence_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(key, order, lam, vaf, iterations, group="short", unconverged=0, grid_failures=0):
    return {
        "group": group, "key": key, "order": order, "lambda_opt": lam, "vaf": vaf,
        "iterations": iterations, "unconverged": unconverged, "grid_failures": grid_failures,
    }


def test_summary_counts_each_group(tool):
    entries = [
        entry("a", 2, 1.0, 99.0, 100),
        entry("b", 10, 0.5, -1e9, 300, unconverged=1),
        {"group": "short", "key": "c", "error": "SolverError('all lambda grid points failed')"},
        entry("d", 4, 7.0, 98.0, 50, group="long", grid_failures=1),
    ]
    summary = tool.summarize(entries)
    short = summary["short"]
    assert (short["identifications"], short["errors"], short["iterations"]) == (3, 1, 400)
    assert (short["unconverged"], short["below_floor"]) == (1, 1)
    assert short["orders"] == {"2": 1, "10": 1}
    assert summary["long"]["grid_failures"] == 1
    assert summary["mimo_io"]["identifications"] == 0 and math.isnan(summary["mimo_io"]["vaf_median"])


def test_compare_lists_every_moved_selection_and_the_group_deltas(tool):
    old_entries = [entry("a", 2, 1.0, 99.0, 100), entry("b", 3, 2.0, 98.0, 100), entry("c", 2, 4.0, 97.0, 100)]
    new_entries = [entry("a", 2, 1.0, 99.0, 80), entry("b", 3, 4.0, 98.5, 70), entry("c", 10, 4.0, 50.0, 50)]
    old = {"entries": old_entries, "summary": tool.summarize(old_entries)}
    new = {"entries": new_entries, "summary": tool.summarize(new_entries)}
    lines = tool.compare(old, new)
    moved = [line for line in lines if line.startswith("moved")]
    assert len(moved) == 2
    assert "short b: order 3 -> 3, lambda_opt 2 -> 4" in moved[0]
    assert "short c: order 2 -> 10" in moved[1]
    (short,) = [line for line in lines if line.startswith("short:")]
    assert "iterations 300 -> 200 (-33.3%)" in short
    assert "below 60 0 -> 1" in short
