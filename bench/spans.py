"""Instrumentation installed from outside the n2sid package.

Two kinds of shim replace module-level names that n2sid's modules look
up at call time, and put the originals back afterwards:

* ``SweepCounts`` sits on ``n2sid.pipeline.sweep`` in every run.  It reads
  the iteration count and converged flag of each ``SolveResult`` the
  sweep returns, and the byte size of the factorization passed in, at a
  cost of one extra Python call per sweep.
* ``SpanRecorder`` wraps every name in ``TRACED`` and records one span per
  call: name, start, end, parent span and job id.  It is installed only
  in the traced phase; spans stay in memory until the run ends.

Private helpers are not wrapped, so their time shows as the self time of
the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("structured_ops", "admm", "extraction", "model", "pipeline", "cli")

# (module, attribute path, span name).  Each public function is wrapped at
# the name its caller looks up, so the span name's first part is the layer
# the function belongs to, not the module the name lives in.
TRACED = (
    ("n2sid.cli", "main", "cli.main"),
    ("n2sid.cli", "read_csv", "cli.read_csv"),
    ("n2sid.cli", "identify", "pipeline.identify"),
    ("n2sid.cli", "identify_output_only", "pipeline.identify_output_only"),
    ("n2sid.cli", "evaluate", "pipeline.evaluate"),
    ("n2sid.cli", "vaf", "model.vaf"),
    ("n2sid.pipeline", "identify", "pipeline.identify"),
    ("n2sid.pipeline", "identify_output_only", "pipeline.identify_output_only"),
    ("n2sid.pipeline", "evaluate", "pipeline.evaluate"),
    ("n2sid.pipeline", "OperatorSpec.from_data", "structured_ops.from_data"),
    ("n2sid.pipeline", "SweepFactorization.from_spec", "admm.factorize"),
    ("n2sid.pipeline", "sweep", "admm.sweep"),
    ("n2sid.pipeline", "lowrank_svd", "extraction.lowrank_svd"),
    ("n2sid.pipeline", "select_order", "extraction.select_order"),
    ("n2sid.pipeline", "toeplitz_estimates", "extraction.toeplitz_estimates"),
    ("n2sid.pipeline", "compute_m1", "extraction.compute_m1"),
    ("n2sid.pipeline", "compute_m2", "extraction.compute_m2"),
    ("n2sid.pipeline", "compute_m3", "extraction.compute_m3"),
    ("n2sid.pipeline", "simulate", "model.simulate"),
    ("n2sid.pipeline", "predict_observer", "model.predict_observer"),
    ("n2sid.pipeline", "to_observer", "model.to_observer"),
    ("n2sid.pipeline", "vaf", "model.vaf"),
    ("n2sid.admm", "solve", "admm.solve"),
    ("n2sid.admm", "svt", "admm.svt"),
    ("n2sid.admm", "build_M", "structured_ops.build_M"),
    ("n2sid.admm", "apply_operator", "structured_ops.apply_operator"),
    ("n2sid.admm", "apply_adjoint", "structured_ops.apply_adjoint"),
)


class Patches:
    """Replaces attributes and restores the originals on exit, last in first out."""

    def __init__(self):
        self._undo: list = []

    def replace(self, module: str, path: str, make) -> None:
        """Set ``module.path`` to ``make(original function)``; classmethods stay classmethods."""
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        raw = vars(owner)[attr]
        new = classmethod(make(raw.__func__)) if isinstance(raw, classmethod) else make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


class SweepCounts:
    """Solve counts and factorization size read at the pipeline -> sweep boundary."""

    def __init__(self):
        self.sweeps = 0
        self.solves = 0
        self.iterations = 0
        self.nonconverged = 0
        self.failed = 0
        self.factor_bytes = 0
        self.per_grid_point: list = []

    def snapshot(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "per_grid_point"}

    def install(self, patches: Patches) -> None:
        patches.replace("n2sid.pipeline", "sweep", self._wrap)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            results = fn(*args, **kwargs)
            self.sweeps += 1
            fact = kwargs.get("fact")
            if fact is not None:
                self.factor_bytes += sum(
                    v.nbytes for v in vars(fact).values() if isinstance(v, np.ndarray)
                )
            points = []
            for res in results:
                self.solves += 1
                if res is None:
                    self.failed += 1
                    points.append(None)
                    continue
                self.iterations += res.iterations
                self.nonconverged += not res.converged
                points.append([res.iterations, bool(res.converged)])
            self.per_grid_point.append(points)
            return results

        return counted


class Span(NamedTuple):
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    job: int | None


class SpanRecorder:
    """Records a span for every call through the wrapped names."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    def install(self, patches: Patches) -> None:
        for module, path, name in TRACED:
            patches.replace(module, path, functools.partial(self._wrap, name))

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, self.job))

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span._asdict()) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of its interval covered by its children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


def summarize(spans) -> tuple[dict, dict]:
    """Per span name {calls, total_s, self_s}, and self seconds per layer."""
    own = self_times(spans)
    by_name: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        entry = by_name[span.name]
        entry["calls"] += 1
        entry["total_s"] += (span.end - span.start) * 1e-9
        entry["self_s"] += own[span.id] * 1e-9
        layer = span.name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own[span.id] * 1e-9
    return dict(by_name), by_layer
