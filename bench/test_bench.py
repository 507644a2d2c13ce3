"""Tests of the benchmark itself (not of n2sid).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import env
import harness
import run
from inputs import MIMO4, SISO2, csv_text, innovation_record, rng_for
from spans import Patches, Span, SpanRecorder, SweepCounts, self_times, summarize
from workloads import WORKLOADS, Ident


def _record_bytes(workload: str, seed: int, job: int) -> bytes:
    inputs = WORKLOADS[workload].make(seed, job)
    if "csv" in inputs:
        return inputs["csv"].encode()
    return inputs["u"].tobytes() + inputs["y"].tobytes()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _record_bytes(workload, 7, 0) == _record_bytes(workload, 7, 0)
    assert _record_bytes(workload, 7, 0) != _record_bytes(workload, 8, 0)
    assert _record_bytes(workload, 7, 0) != _record_bytes(workload, 7, 1)


def test_innovation_record_matches_the_recursion():
    u, y = innovation_record(MIMO4, 50, rng_for(3, "check", 0))
    rng = rng_for(3, "check", 0)
    total = 50 + 200
    u_ref = rng.integers(0, 2, size=(total, 2)) * 2.0 - 1.0
    e = MIMO4.noise_std * rng.standard_normal((total, 2))
    x = np.zeros(4)
    y_ref = np.empty((total, 2))
    for k in range(total):
        y_ref[k] = MIMO4.C @ x + MIMO4.D @ u_ref[k] + e[k]
        x = MIMO4.A @ x + MIMO4.B @ u_ref[k] + MIMO4.K @ e[k]
    np.testing.assert_array_equal(u, u_ref[200:])
    np.testing.assert_array_equal(y, y_ref[200:])


def test_csv_text_round_trips_exactly():
    u, y = innovation_record(SISO2, 20, rng_for(1, "csv", 0))
    lines = csv_text(u, y).splitlines()
    assert lines[0] == "u1,y1"
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(back, np.hstack([u, y]))


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, "pipeline.identify", 0, 100, None, 0),
        Span(1, "admm.sweep", 10, 40, 0, 0),
        Span(2, "admm.solve", 30, 60, 0, 0),  # overlaps span 1: covered part is 10..60
        Span(3, "structured_ops.build_M", 20, 25, 1, 0),
        Span(4, "model.simulate", 90, 120, 0, 0),  # runs past its parent: clipped at 100
    ]
    own = self_times(spans)
    assert own == {0: 100 - 50 - 10, 1: 30 - 5, 2: 30, 3: 5, 4: 30}

    by_name, by_layer = summarize(spans)
    assert by_name["admm.sweep"] == {"calls": 1, "total_s": pytest.approx(30e-9), "self_s": pytest.approx(25e-9)}
    assert by_layer["admm"] == pytest.approx(55e-9)
    assert by_layer["pipeline"] == pytest.approx(40e-9)
    assert by_layer["cli"] == 0.0


def test_recorder_nests_spans_and_restores_the_originals():
    n2sid = env.load_n2sid()
    from n2sid import admm, pipeline

    originals = {name: getattr(pipeline, name) for name in ("identify", "sweep")}
    from_spec = vars(admm.SweepFactorization)["from_spec"]
    counts, recorder = SweepCounts(), SpanRecorder()
    u, y = innovation_record(SISO2, 80, rng_for(0, "nest", 0))
    cfg = pipeline.PipelineConfig(s=5, n_lambda=2)
    with Patches() as outer:
        counts.install(outer)
        with Patches() as inner:
            recorder.job = 5
            recorder.install(inner)
            pipeline.identify(n2sid.IoRecord(u=u, y=y), cfg)
    assert {name: getattr(pipeline, name) for name in originals} == originals
    assert vars(admm.SweepFactorization)["from_spec"] is from_spec

    by_id = {s.id: s for s in recorder.spans}
    names = {s.name for s in recorder.spans}
    assert {"pipeline.identify", "admm.factorize", "structured_ops.build_M", "admm.sweep",
            "admm.solve", "admm.svt", "structured_ops.apply_adjoint", "model.simulate"} <= names
    assert all(s.job == 5 for s in recorder.spans)
    for span in recorder.spans:
        if span.name == "structured_ops.build_M":
            assert by_id[span.parent].name == "admm.factorize"
        if span.name == "admm.solve":
            assert by_id[span.parent].name == "admm.sweep"
    assert counts.sweeps == 1 and counts.solves == 2
    svt_calls = sum(s.name == "admm.svt" for s in recorder.spans)
    assert counts.iterations == svt_calls
    assert counts.factor_bytes > 0


def test_correct_fails_on_errors_and_on_a_majority_of_floor_misses():
    good = [Ident("io", vaf=98.0), Ident("output_only", vaf=55.0), Ident("output_only", vaf=60.0)]
    diverged = Ident("output_only", vaf=-1e40, below_floor=True)
    assert harness.is_correct(good + [diverged])
    assert not harness.is_correct(good + [Ident("io", error="raised SolverError()")])
    assert not harness.is_correct([Ident("io", vaf=98.0)] + [diverged] * 2)


def test_only_errors_are_failures_and_floor_misses_are_counted_apart():
    job = harness.Job(0, traced=False)
    job.seconds = 4.0
    job.idents = [Ident("io", vaf=98.0), Ident("io", vaf=-1e40, below_floor=True),
                  Ident("io", error="raised SolverError()")]
    assert harness.failed_operations(job.idents) == 1
    value = {name: fig["value"] for name, fig in harness.end_to_end([job], []).items()}
    assert value["ident_per_s"] == pytest.approx(2 / 4.0)
    assert value["ident_fail_frac"] == pytest.approx(2 / 3)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in harness.PER_LAYER
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long_siso", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
