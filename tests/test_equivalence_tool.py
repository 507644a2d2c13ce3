"""The equivalence-set runner's summary and comparison (tools/equivalence.py)."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
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


def test_compare_lists_every_changed_field_and_counts_the_identical_entries(tool):
    old_entries = [
        entry("a", 2, 1.0, 99.0, 100), entry("b", 3, 2.0, 98.0, 100),
        entry("c", 2, 4.0, 97.0, 100), entry("d", 4, 1.0, 96.0, 90),
    ]
    new_entries = [
        entry("a", 2, 1.0, 99.0, 100),
        entry("b", 3, 2.0, 98.0 + 1e-12, 100),
        entry("c", 2, 4.0, 97.0, 120, unconverged=1, grid_failures=2),
        entry("d", 5, 1.0, 96.0, 90),
        entry("e", 2, 1.0, 99.0, 100),
    ]
    old = {"entries": old_entries, "summary": tool.summarize(old_entries)}
    new = {"entries": new_entries, "summary": tool.summarize(new_entries)}
    lines = tool.compare(old, new)
    listed = [line for line in lines if line.split(" ")[0] in ("moved", "changed", "added")]
    assert listed == [
        "changed short b: vaf 98.0 -> 98.000000000001",
        "changed short c: iterations 100 -> 120, unconverged 0 -> 1, grid_failures 0 -> 2",
        "moved short d: order 4 -> 5, lambda_opt 1 -> 1, vaf 96.00 -> 96.00",
        "added short e",
    ]
    assert lines[-1] == "1 of 5 entries identical in every field"
    same = tool.compare(old, old)
    assert same[-1] == "4 of 4 entries identical in every field"
    assert not [line for line in same if line.split(" ")[0] in ("moved", "changed", "added")]


def test_compare_skips_a_group_the_older_json_lacks(tool):
    old_entries = [entry("a", 2, 1.0, 99.0, 100)]
    new_entries = [entry("a", 2, 1.0, 99.0, 100), entry("t", 3, 2.0, 90.0, 400, group="tall")]
    old_summary = tool.summarize(old_entries)
    del old_summary["tall"]
    old = {"entries": old_entries, "summary": old_summary}
    new = {"entries": new_entries, "summary": tool.summarize(new_entries)}
    lines = tool.compare(old, new)
    assert "added tall t" in lines
    assert not [line for line in lines if line.startswith("tall:")]
    assert [line for line in lines if line.startswith("short:")]
    assert lines[-1] == "1 of 2 entries identical in every field"


def test_the_tall_group_identifies_records_whose_z_is_tall(tool):
    tall = [(key, run) for group, key, run in tool.identifications([1], 77, 7) if group == "tall"]
    assert [key for key, _ in tall[:3]] == [f"seed=1 job=0 n_ide={n}" for n in (20, 24, 28)]
    assert len(tall) == 3 * tool.TALL_JOBS
    # Z is (s, N - s + 1): fewer columns than rows
    assert all(n - tool.CFG.s + 1 < tool.CFG.s for n in tool.TALL_N_IDE)
    first = tool._entry("tall", *tall[0])
    assert "error" not in first and first["iterations"] > 0


def test_the_variants_group_runs_each_variant_at_a_fixed_order(tool):
    variants = [(key, run) for group, key, run in tool.identifications([1], 77, 7) if group == "variants"]
    assert [key for key, _ in variants[:3]] == [f"seed=1 job=0 variant={v}" for v in ("m1", "m2", "m3")]
    assert len(variants) == 3 * tool.VARIANT_JOBS
    short = {key for group, key, _ in tool.identifications([1], 77, 7) if group == "short"}
    assert f"seed=1 job={tool.VARIANT_JOBS - 1} n_ide={tool.VARIANT_N_IDE}" in short
    m3 = tool._entry("variants", *variants[2])
    assert "error" not in m3 and m3["order"] == tool.VARIANT_ORDER


def test_changes_counts_order_lambda_iteration_and_vaf_only_changes_apart(tool):
    old_entries = [
        entry("a", 2, 1.0, 99.0, 100), entry("b", 3, 2.0, 98.0, 100), entry("c", 2, 4.0, 97.0, 100),
        entry("d", 4, 1.0, 96.0, 90), entry("e", 2, 1.0, 95.0, 80), entry("f", 2, 1.0, 94.0, 70),
        entry("g", 2, 1.0, 93.0, 60, group="long"),
    ]
    new_entries = [
        entry("a", 2, 1.0, 99.0, 100),  # identical
        entry("b", 3, 2.0, 98.5, 100),  # VAF alone
        entry("c", 2, 8.0, 97.0, 110),  # lambda only, and iterations
        entry("d", 5, 1.0, 96.0, 90),  # order
        entry("e", 2, 1.0, 95.1, 80, unconverged=1),  # VAF, but not alone
        {"group": "short", "key": "f", "error": "SolverError('all lambda grid points failed')"},
        entry("g", 2, 1.0, 93.0, 61, group="long"),  # iterations alone
        entry("h", 2, 1.0, 93.0, 61),  # added, not compared
    ]
    old = {"entries": old_entries, "summary": tool.summarize(old_entries)}
    new = {"entries": new_entries, "summary": tool.summarize(new_entries)}
    counts = tool.changes(old, new)
    assert counts["short"] == {"order": 2, "lambda": 1, "iterations": 1, "vaf_only": 1}
    assert counts["long"] == {"order": 0, "lambda": 0, "iterations": 1, "vaf_only": 0}
    assert counts["tall"] == dict.fromkeys(tool.KINDS, 0)
    lines = tool.compare(old, new)
    (short,) = [line for line in lines if line.startswith("short:")]
    assert short.endswith("order moves 2, lambda-only moves 1, iteration changes 1, vaf-only changes 1")
    totals = "order moves 2, lambda-only moves 1, iteration changes 2, vaf-only changes 1"
    assert lines[-2] == "all groups: " + totals


class _Report:
    """The fields of a PipelineReport that the tool's entries read."""

    def __init__(self, order, lambda_opt):
        self.best = type("Best", (), {"order": order})()
        self.lambda_opt = lambda_opt
        self.iterations = np.array([10, 12])
        self.converged = np.array([True, True])
        self.failures = []


@pytest.mark.parametrize(
    "new, groups, code",
    [
        ((2, 1.0), "short", 0),  # nothing moved
        ((2, 2.0), "short", 1),  # lambda_opt moved in a guarded group
        ((3, 1.0), "short,long", 1),  # order moved in a guarded group
        ((3, 1.0), "long", 0),  # the move is in a group not named
    ],
    ids=["unmoved", "lambda-moved", "order-moved", "other-group"],
)
def test_fail_on_move_exits_1_on_a_selection_move_in_the_named_groups(
    tool, monkeypatch, tmp_path, new, groups, code
):
    def run():
        return _Report(*new), 99.0

    monkeypatch.setattr(tool, "identifications", lambda *args: iter([("short", "a", run)]))
    old = {"entries": [entry("a", 2, 1.0, 99.0, 22)]}
    old["summary"] = tool.summarize(old["entries"])
    (tmp_path / "old.json").write_text(json.dumps(old))
    argv = ["--out", str(tmp_path / "new.json"), "--compare", str(tmp_path / "old.json")]
    assert tool.main(argv + ["--fail-on-move", groups]) == code
    assert tool.main(argv) == 0


@pytest.mark.parametrize(
    "argv", [["--fail-on-move", "short"], ["--compare", "old.json", "--fail-on-move", "shorts"]]
)
def test_fail_on_move_needs_a_comparison_and_known_groups(tool, tmp_path, argv):
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["--out", str(tmp_path / "new.json")] + argv)
    assert exit_info.value.code == 2
    assert not (tmp_path / "new.json").exists()
