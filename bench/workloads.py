"""The benchmark's workloads: inputs, the timed call, and the output check.

Each workload turns (seed, job index) into inputs, runs one job through
n2sid's public entry points, and checks every identification the job
made.  Entry points are looked up as module attributes at call time, so
the traced run's wrappers see them.  A job is one client request in a
closed loop: the next starts when the previous has finished.

The check sorts a failed identification into one of two kinds:

* an error: it raised, or its output is malformed (exit code, files,
  grid, no finite J point).  The program's output is then wrong, and the
  identification counts as a failed operation.
* below the floor: it returned a well-formed model whose validation VAF
  misses the workload's floor, for example a diverging model.  This is a
  measure of model quality, counted apart from failed operations.

The warm-up call is a small instance of the workload on a record that does
not depend on the run's seed, so set-up time does not vary with the data.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from inputs import MIMO4, SISO2, csv_text, innovation_record, rng_for
from spans import Patches


@dataclass
class Ident:
    """Outcome of one identification, as the output check saw it."""

    label: str
    error: str | None = None
    below_floor: bool = False
    vaf: float | None = None
    order: int | None = None
    lambda_opt: float | None = None
    grid: int = 0
    grid_failures: int = 0

    @property
    def completed(self) -> bool:
        return self.error is None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.below_floor

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _check_report(ident: Ident, report, vaf: float, grid: int, floor: float) -> Ident:
    """Common checks on a PipelineReport and its validation VAF."""
    ident.order = int(report.best.order)
    ident.lambda_opt = float(report.lambda_opt)
    ident.grid = len(report.j_values)
    ident.grid_failures = len(report.failures)
    ident.vaf = float(vaf)
    if ident.grid != grid:
        ident.error = f"grid has {ident.grid} points, expected {grid}"
    elif not np.any(np.isfinite(report.j_values)):
        ident.error = "J curve has no finite point"
    else:
        ident.below_floor = not vaf >= floor
    return ident


def warmup_inputs(workload) -> dict:
    return workload.make(0, -1, warmup=True)


def _detrend(u: np.ndarray, y: np.ndarray):
    return u - u.mean(axis=0) if u.size else u, y - y.mean(axis=0)


def _identify_and_score(identify, data, cfg, evaluate, val):
    """(report, validation VAF), or the exception that stopped the identification."""
    try:
        report = identify(data, cfg)
        return report, evaluate(report.best, val)
    except Exception as exc:  # the check records it as this identification's error
        return exc


def _tap(fn, sink: list):
    def tapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    return tapped


class _LibraryWorkload:
    """Workloads that call ``n2sid.pipeline`` directly, one record per job."""

    name: str
    system = SISO2
    labels: tuple = ()
    vaf_floor: dict = {}
    grid = 20
    n_ide = 0
    n_val = 300
    warmup_n_ide = 0

    def make(self, seed: int, job: int, warmup: bool = False) -> dict:
        n_ide = self.warmup_n_ide if warmup else self.n_ide
        u, y = innovation_record(self.system, n_ide + self.n_val, rng_for(seed, self.name, job))
        return {"u": u, "y": y, "n_ide": n_ide, "grid": 2 if warmup else self.grid}

    def prepare(self, inputs: dict, workdir: str) -> None:
        pass

    def check(self, raw: dict, workdir: str) -> list[Ident]:
        idents = []
        for label in self.labels:
            if isinstance(raw[label], Exception):
                idents.append(Ident(label, error=f"raised {raw[label]!r}"))
            else:
                idents.append(_check_report(Ident(label), *raw[label], self.grid, self.vaf_floor[label]))
        return idents


class LongSiso(_LibraryWorkload):
    """One long SISO record through ``pipeline.identify`` and ``pipeline.evaluate``."""

    name = "long_siso"
    labels = ("io",)
    vaf_floor = {"io": 80.0}
    n_ide = 2000
    warmup_n_ide = 200

    def call(self, n2sid, inputs: dict, workdir: str) -> dict:
        u, y, n = inputs["u"], inputs["y"], inputs["n_ide"]
        pipeline = n2sid.pipeline
        cfg = pipeline.PipelineConfig(s=15, n_lambda=inputs["grid"])
        val = n2sid.IoRecord(*_detrend(u[n:], y[n:]))
        data = n2sid.IoRecord(u=u[:n], y=y[:n])
        return {"io": _identify_and_score(pipeline.identify, data, cfg, pipeline.evaluate, val)}


class MimoMixed(_LibraryWorkload):
    """One MIMO record identified with its inputs and again from its outputs only."""

    name = "mimo_mixed"
    system = MIMO4
    labels = ("io", "output_only")
    vaf_floor = {"io": 70.0, "output_only": 40.0}
    n_ide = 400
    warmup_n_ide = 100

    def call(self, n2sid, inputs: dict, workdir: str) -> dict:
        u, y, n = inputs["u"], inputs["y"], inputs["n_ide"]
        pipeline, IoRecord = n2sid.pipeline, n2sid.IoRecord
        cfg = pipeline.PipelineConfig(s=15, n_lambda=inputs["grid"])
        u_val, y_val = _detrend(u[n:], y[n:])
        return {
            "io": _identify_and_score(
                pipeline.identify, IoRecord(u=u[:n], y=y[:n]), cfg,
                pipeline.evaluate, IoRecord(u=u_val, y=y_val),
            ),
            "output_only": _identify_and_score(
                pipeline.identify_output_only, y[:n], cfg,
                pipeline.evaluate, IoRecord(u=np.zeros((y_val.shape[0], 0)), y=y_val),
            ),
        }


class PaperProtocol:
    """The paper's short-record protocol through ``n2sid.cli.main``."""

    name = "paper_protocol"
    grid = 20
    n_ide_list = (80, 120, 150)
    labels = tuple(f"cli n_ide={n}" for n in n_ide_list)
    vaf_floor = dict.fromkeys(labels, 60.0)
    files = ("data.csv", "report.json", "sv.csv", "vaf.csv")

    def make(self, seed: int, job: int, warmup: bool = False) -> dict:
        u, y = innovation_record(SISO2, 400 if warmup else 1000, rng_for(seed, self.name, job))
        return {"csv": csv_text(u, y), "warmup": warmup}

    def _argv(self, inputs: dict, workdir: str) -> list[str]:
        small = inputs["warmup"]
        data, report, sv, vaf = (os.path.join(workdir, f) for f in self.files)
        return [
            "identify", "--data", data, "--inputs", "1", "--outputs", "1", "--s", "15",
            "--grid", "2" if small else str(self.grid), "--del", "120",
            "--n-ide-list", "40" if small else ",".join(map(str, self.n_ide_list)),
            "--n-val", "100" if small else "300",
            "--report", report, "--sv-csv", sv, "--vaf-csv", vaf,
        ]

    def prepare(self, inputs: dict, workdir: str) -> None:
        for name in self.files:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(workdir, name))
        with open(os.path.join(workdir, "data.csv"), "w") as fh:
            fh.write(inputs["csv"])

    def call(self, n2sid, inputs: dict, workdir: str) -> dict:
        reports: list = []
        out, err = io.StringIO(), io.StringIO()
        with Patches() as patches, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            patches.replace("n2sid.cli", "identify", lambda fn: _tap(fn, reports))
            code = n2sid.cli.main(self._argv(inputs, workdir))
        return {"code": code, "stderr": err.getvalue(), "reports": reports}

    def check(self, raw: dict, workdir: str) -> list[Ident]:
        idents = [Ident(label) for label in self.labels]
        error, vaf_rows = self._check_files(raw, workdir)
        if error is None and len(raw["reports"]) != len(idents):
            error = f"{len(raw['reports'])} identify calls, expected {len(idents)}"
        if error is not None:
            for ident in idents:
                ident.error = error
            return idents
        for ident, report, row in zip(idents, raw["reports"], vaf_rows):
            _check_report(ident, report, float(row["vaf"]), self.grid, self.vaf_floor[ident.label])
        return idents

    def _check_files(self, raw: dict, workdir: str) -> tuple[str | None, list]:
        if raw["code"] != 0:
            return f"exit code {raw['code']}: {raw['stderr'].strip()}", []
        _, report_path, sv_path, vaf_path = (os.path.join(workdir, f) for f in self.files)
        try:
            with open(report_path) as fh:
                report = json.load(fh)
            with open(sv_path) as fh:
                sv_lines = fh.read().splitlines()
            with open(vaf_path) as fh:
                vaf_rows = list(csv.DictReader(fh))
            n_ide = [int(r["n_ide"]) for r in vaf_rows]
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {exc!r}", []
        if len(report.get("lambda_grid", ())) != self.grid or len(report.get("j_curve", ())) != self.grid:
            return f"report grid is not {self.grid} points", []
        if not any(v is not None and math.isfinite(v) for v in report["j_curve"]):
            return "report J curve has no finite point", []
        if len(sv_lines) != self.grid + 1:
            return f"sv CSV has {len(sv_lines)} lines, expected {self.grid + 1}", []
        if n_ide != list(self.n_ide_list):
            return f"vaf CSV rows {n_ide}, expected {list(self.n_ide_list)}", []
        return None, vaf_rows


WORKLOADS = {w.name: w for w in (PaperProtocol(), LongSiso(), MimoMixed())}
