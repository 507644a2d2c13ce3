"""The measuring process: warm-up, the timed closed loop, checks, metrics, output.

Imported by run.py only after n2sid is loaded, because it imports numpy.
"""

from __future__ import annotations

import json
import resource
import statistics
import tempfile
import time
import warnings

import env
from spans import Patches, SpanRecorder, SweepCounts, summarize
from workloads import WORKLOADS, Ident, warmup_inputs

# name, unit, better: the end-to-end metrics on the result line (--trace 0)
END_TO_END = (
    ("ident_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("vaf_val_pct", "%", "higher"),
)
# printed and recorded with their counts but kept off the result line: they
# are zero on most runs or swing with the records, so no bound relative to
# their median can apply
FRACTIONS = (
    ("nonconv_frac", "ratio", "lower"),
    ("grid_fail_frac", "ratio", "lower"),
    ("ident_fail_frac", "ratio", "lower"),
)


def _per_layer_table():
    """(name, unit, better, f(view)) for each per-layer metric (--trace 1)."""
    s, calls, count = "s/ident", "calls/ident", "count/ident"
    return (
        ("structured_ops.apply_adjoint.s", s, "lower", lambda v: v.total("structured_ops.apply_adjoint")),
        ("structured_ops.apply_adjoint.calls", calls, "lower", lambda v: v.calls("structured_ops.apply_adjoint")),
        ("structured_ops.apply_operator.s", s, "lower", lambda v: v.total("structured_ops.apply_operator")),
        ("structured_ops.apply_operator.calls", calls, "lower", lambda v: v.calls("structured_ops.apply_operator")),
        ("structured_ops.adjoints_per_iter", "ratio", "lower", lambda v: v.adjoints_per_iter()),
        ("structured_ops.build_M.s", s, "lower", lambda v: v.total("structured_ops.build_M")),
        ("structured_ops.self_s", s, "lower", lambda v: v.layer("structured_ops")),
        ("admm.factorize.s", s, "lower", lambda v: v.own("admm.factorize")),
        ("admm.factor_bytes", "B", "lower", lambda v: v.count("factor_bytes")),
        ("admm.solve.self_s", s, "lower", lambda v: v.own("admm.solve")),
        ("admm.svt.s", s, "lower", lambda v: v.total("admm.svt")),
        ("admm.svt.calls", calls, "lower", lambda v: v.calls("admm.svt")),
        ("admm.iterations", "iter/ident", "lower", lambda v: v.count("iterations")),
        ("admm.nonconverged", count, "lower", lambda v: v.count("nonconverged")),
        ("admm.failed", count, "lower", lambda v: v.count("failed")),
        ("admm.sweep.s", s, "lower", lambda v: v.total("admm.sweep")),
        ("admm.self_s", s, "lower", lambda v: v.layer("admm")),
        ("extraction.lowrank_svd.s", s, "lower", lambda v: v.total("extraction.lowrank_svd")),
        ("extraction.compute_m1.s", s, "lower", lambda v: v.total("extraction.compute_m1")),
        ("extraction.rank_warnings", count, "lower", lambda v: v.per_ident(v.rank_warnings)),
        ("extraction.self_s", s, "lower", lambda v: v.layer("extraction")),
        ("model.simulate.s", s, "lower", lambda v: v.total("model.simulate")),
        ("model.simulate.calls", calls, "lower", lambda v: v.calls("model.simulate")),
        ("model.predict_observer.s", s, "lower", lambda v: v.total("model.predict_observer")),
        ("model.predict_observer.calls", calls, "lower", lambda v: v.calls("model.predict_observer")),
        ("model.self_s", s, "lower", lambda v: v.layer("model")),
        ("pipeline.identify.self_s", s, "lower", lambda v: v.own("pipeline.identify")),
        ("pipeline.evaluate.s", s, "lower", lambda v: v.total("pipeline.evaluate")),
        ("pipeline.grid_failures", count, "lower", lambda v: v.per_ident(v.grid_failures)),
        ("pipeline.below_vaf_floor", count, "lower", lambda v: v.per_ident(v.below_floor)),
        ("pipeline.self_s", s, "lower", lambda v: v.layer("pipeline")),
        ("cli.read_csv.s", s, "lower", lambda v: v.total("cli.read_csv")),
        ("cli.main.self_s", s, "lower", lambda v: v.own("cli.main")),
        ("cli.self_s", s, "lower", lambda v: v.layer("cli")),
        ("trace.spans", count, "lower", lambda v: v.per_ident(v.n_spans)),
        ("trace.overhead_ident_per_s", "1/s", "higher", lambda v: v.overhead),
    )


PER_LAYER = _per_layer_table()


class Job:
    """One timed request and what its identifications produced."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.seconds = 0.0
        self.idents: list[Ident] = []
        self.counts: dict = {}
        self.grid_points: list = []
        self.rank_warnings = 0
        self.other_warnings: list = []

    def to_json(self) -> dict:
        return {
            "job": self.index,
            "traced": self.traced,
            "seconds": self.seconds,
            "idents": [i.to_json() for i in self.idents],
            "sweep_counts": self.counts,
            "grid_points": self.grid_points,
            "rank_warnings": self.rank_warnings,
            "other_warnings": self.other_warnings,
        }


class LayerView:
    """Per-identification figures over the traced jobs, for the PER_LAYER table."""

    def __init__(self, jobs: list[Job], spans, overhead: float):
        self.n = sum(len(j.idents) for j in jobs) or 1
        self.by_name, self.by_layer = summarize(spans)
        self.n_spans = len(spans)
        self.overhead = overhead
        self.rank_warnings = sum(j.rank_warnings for j in jobs)
        self.grid_failures = sum(i.grid_failures for j in jobs for i in j.idents)
        self.below_floor = sum(i.below_floor for j in jobs for i in j.idents)
        self.counts: dict = {}
        for job in jobs:
            for key, value in job.counts.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def per_ident(self, value: float) -> float:
        return value / self.n

    def total(self, name: str) -> float:
        return self.per_ident(self.by_name.get(name, {}).get("total_s", 0.0))

    def own(self, name: str) -> float:
        return self.per_ident(self.by_name.get(name, {}).get("self_s", 0.0))

    def calls(self, name: str) -> float:
        return self.per_ident(self.by_name.get(name, {}).get("calls", 0))

    def layer(self, layer: str) -> float:
        return self.per_ident(self.by_layer.get(layer, 0.0))

    def count(self, key: str) -> float:
        return self.per_ident(self.counts.get(key, 0))

    def adjoints_per_iter(self) -> float:
        iterations = self.counts.get("iterations", 0)
        calls = self.by_name.get("structured_ops.apply_adjoint", {}).get("calls", 0)
        return calls / iterations if iterations else 0.0


def run_job(n2sid, workload, inputs, workdir, job: Job, counts: SweepCounts, recorder=None) -> Job:
    """Run and check one job; the timed region is the workload's call only."""
    workload.prepare(inputs, workdir)
    before = counts.snapshot()
    grid_start = len(counts.per_grid_point)
    with warnings.catch_warnings(record=True) as caught, Patches() as patches:
        warnings.simplefilter("always")
        if recorder is not None:
            recorder.job = job.index
            recorder.install(patches)
        t0 = time.perf_counter()
        try:
            raw = workload.call(n2sid, inputs, workdir)
        except Exception as exc:  # a job that raises counts as failed identifications
            raw = exc
        job.seconds = time.perf_counter() - t0
    if isinstance(raw, Exception):
        job.idents = [Ident(label, error=f"raised {raw!r}") for label in workload.labels]
    else:
        job.idents = workload.check(raw, workdir)
    job.counts = {k: v - before[k] for k, v in counts.snapshot().items()}
    job.grid_points = counts.per_grid_point[grid_start:]
    for w in caught:
        if "rank-deficient" in str(w.message):
            job.rank_warnings += 1
        else:
            job.other_warnings.append(f"{w.category.__name__}: {w.message}")
    return job


def throughput(jobs: list[Job]) -> float:
    """Identifications that returned well-formed output, per second of job time."""
    seconds = sum(j.seconds for j in jobs)
    return sum(i.completed for j in jobs for i in j.idents) / seconds if seconds > 0 else 0.0


def label_medians(idents: list[Ident]) -> dict:
    """Median validation VAF per identification kind, over identifications that completed."""
    by_label: dict = {}
    for ident in idents:
        if ident.completed:
            by_label.setdefault(ident.label, []).append(ident.vaf)
    return {label: statistics.median(v) for label, v in by_label.items()}


def end_to_end(jobs: list[Job], probes: list[dict]) -> dict:
    """Every end-to-end figure with its unit and the sample count behind it."""
    idents = [i for j in jobs for i in j.idents]
    completed = [i for i in idents if i.completed]
    medians = label_medians(idents)
    solves = sum(j.counts.get("solves", 0) for j in jobs)
    grid = sum(i.grid for i in completed)
    figures = {
        "ident_per_s": (throughput(jobs), len(completed)),
        "setup_s": (statistics.median(p["setup_s"] for p in probes) if probes else None, len(probes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "vaf_val_pct": (statistics.median(medians.values()) if medians else None, len(completed)),
        "nonconv_frac": (sum(j.counts.get("nonconverged", 0) for j in jobs) / solves if solves else None, solves),
        "grid_fail_frac": (sum(i.grid_failures for i in completed) / grid if grid else None, grid),
        "ident_fail_frac": (sum(not i.ok for i in idents) / len(idents) if idents else None, len(idents)),
    }
    units = {name: unit for name, unit, _ in END_TO_END + FRACTIONS}
    return {
        name: {"value": value, "unit": units[name], "samples": samples}
        for name, (value, samples) in figures.items()
    }


def failed_operations(idents: list[Ident]) -> int:
    """Identifications whose output is wrong (raised or malformed).

    Models below the VAF floor are not failed operations: they count in
    ``ident_fail_frac`` and ``pipeline.below_vaf_floor``, and make the run
    incorrect when they are the majority (``is_correct``).
    """
    return sum(not i.completed for i in idents)


def is_correct(idents: list[Ident]) -> bool:
    """No identification errored, and at least half of them met their VAF floor.

    Single misses are the method's known outliers (a diverging model on a
    short record) and are counted in ``failed``; a program whose models
    mostly miss the floor is wrong.
    """
    return all(i.completed for i in idents) and 2 * sum(i.ok for i in idents) >= len(idents)


def run(args, n2sid, probes: list[dict], malloc_threshold: int | None) -> int:
    workload = WORKLOADS[args.workload]
    out_dir = env.BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    counts = SweepCounts()
    recorder = SpanRecorder() if args.trace else None
    jobs: list[Job] = []

    with tempfile.TemporaryDirectory(dir=out_dir) as workdir, Patches() as patches:
        warm = run_job(n2sid, workload, warmup_inputs(workload), workdir,
                       Job(-1, False), counts)
        counts.install(patches)
        start = time.perf_counter()
        while True:
            index = len(jobs)
            # pairs run untraced-traced, then traced-untraced, so order does not bias the overhead
            traced = bool(args.trace) and (index % 2 == 1) != ((index // 2) % 2 == 1)
            inputs = workload.make(args.seed, index // 2 if args.trace else index)
            jobs.append(run_job(n2sid, workload, inputs, workdir, Job(index, traced), counts,
                                recorder if traced else None))
            if time.perf_counter() - start >= args.seconds and (not args.trace or index % 2 == 1):
                break

    untraced = [j for j in jobs if not j.traced]
    figures = end_to_end(untraced, probes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env.record(malloc_threshold),
        "warmup": {"seconds": warm.seconds, "errors": [i.error for i in warm.idents if i.error]},
        "setup_probes": probes,
        "end_to_end": figures,
        "vaf_median_by_kind": label_medians([i for j in untraced for i in j.idents]),
        "jobs": [j.to_json() for j in jobs],
    }
    if args.trace:
        traced_jobs = [j for j in jobs if j.traced]
        overhead = throughput(traced_jobs) - throughput(untraced)
        view = LayerView(traced_jobs, recorder.spans, overhead)
        metrics = {name: {"value": fn(view), "unit": unit} for name, unit, _, fn in PER_LAYER}
        record["per_layer"] = metrics
        record["per_layer_samples"] = {"traced_jobs": len(traced_jobs), "identifications": view.n}
        record["trace_overhead"] = {
            "untraced_ident_per_s": throughput(untraced),
            "traced_ident_per_s": throughput(traced_jobs),
            "traced_minus_untraced": overhead,
            "spans": view.n_spans,
        }
        record["spans_by_name"] = view.by_name
        recorder.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {name: {"value": figures[name]["value"], "unit": unit} for name, unit, _ in END_TO_END}

    idents = [i for j in jobs for i in j.idents]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, fig in figures.items():
        print(f"{args.workload:15s} {name:16s} {fig['value']!r:>24} {fig['unit']:6s} n={fig['samples']}")
    for ident in idents:
        if not ident.completed:
            print(f"failed {ident.label}: {ident.error}")
        elif ident.below_floor:
            print(f"below floor {ident.label}: validation VAF {ident.vaf!r}, order {ident.order}")
    print(json.dumps(record))
    result = {
        "correct": is_correct(idents),
        "attempted": len(idents),
        "failed": failed_operations(idents),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0
