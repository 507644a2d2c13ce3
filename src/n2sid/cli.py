"""Command-line interface: identification runs, synthetic data, validation.

Subcommands:

  identify   read a CSV record, run the sweep, write a JSON report and
             optional plot-ready CSVs (per-lambda singular values,
             VAF vs identification length)
  simulate   generate a CSV record from a model file or built-in example
  validate   score a report's model against a held-out CSV record in the
             column layout identify read

Exit codes: 0 success, 1 solver/numerical failure, 2 usage, file, data or
configuration error.
Data files are CSV with a header naming columns u1..um then y1..yp, one
row per sample; values are written with full precision so a write/read
round trip is exact.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import N2sidError
from .model import IoRecord, StateSpaceModel, generate_innovation_data, vaf
from .pipeline import PipelineConfig, evaluate, identify, identify_output_only

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

# --x0 flag -> the pipeline's initial-state policy
X0_POLICIES = {"zero": "zero", "ls": "ls_estimate"}


class UsageError(Exception):
    """Bad flags, missing files, or malformed data (exit code 2)."""


# ---------------------------------------------------------------------------
# file helpers


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".n2sid-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, u: np.ndarray, y: np.ndarray) -> None:
    m = u.shape[1]
    p = y.shape[1]
    header = [f"u{j + 1}" for j in range(m)] + [f"y{j + 1}" for j in range(p)]
    lines = [",".join(header)]
    for k in range(y.shape[0]):
        row = [repr(float(v)) for v in u[k]] + [repr(float(v)) for v in y[k]]
        lines.append(",".join(row))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path: str, m: int, p: int) -> IoRecord:
    if m < 0 or p < 1:
        raise UsageError(f"need m >= 0 inputs and p >= 1 outputs, got m={m}, p={p}")
    if not os.path.exists(path):
        raise UsageError(f"data file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UsageError(f"empty data file: {path}") from None
        expected = [f"u{j + 1}" for j in range(m)] + [f"y{j + 1}" for j in range(p)]
        got = [h.strip() for h in header]
        if len(got) < m + p:
            raise UsageError(
                f"{path}: {len(got)} columns, need at least {m + p} (m={m} inputs, p={p} outputs)"
            )
        if got[: m + p] != expected:
            raise UsageError(
                f"{path}: header {got[:m + p]} does not match expected {expected}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < m + p:
                raise UsageError(f"{path}:{lineno}: expected {m + p} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row[: m + p]])
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise UsageError(f"{path}: no data rows")
    data = np.array(rows)
    return IoRecord(u=data[:, :m], y=data[:, m : m + p])


def _model_to_json(model: StateSpaceModel, x0: np.ndarray) -> dict:
    return {
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "C": model.C.tolist(),
        "D": model.D.tolist(),
        "K": model.K.tolist(),
        "n": model.n,
        "m": model.m,
        "p": model.p,
        "x0_ide": np.asarray(x0, dtype=float).tolist(),
    }


def _model_from_json(obj: dict) -> StateSpaceModel:
    try:
        return StateSpaceModel(
            A=np.array(obj["A"], dtype=float),
            B=np.array(obj["B"], dtype=float).reshape(len(obj["A"]), -1),
            C=np.atleast_2d(np.array(obj["C"], dtype=float)),
            D=np.array(obj["D"], dtype=float),
            K=np.array(obj["K"], dtype=float),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad model specification: {exc}") from None


def _read_json_object(path: str, what: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"{what} file not found: {path}")
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def load_model_file(path: str) -> StateSpaceModel:
    """Accepts either a bare model JSON or a full report (with a "model" key)."""
    obj = _read_json_object(path, "model")
    if "model" in obj:
        obj = obj["model"]
    return _model_from_json(obj)


# ---------------------------------------------------------------------------
# identify


def _build_config(args) -> PipelineConfig:
    order = args.order
    if order != "auto":
        try:
            order = int(order)
        except ValueError:
            raise UsageError(f"--order must be 'auto' or an integer, got {order!r}") from None
    try:
        return PipelineConfig(
            s=args.s,
            lambda_min=args.lambda_min,
            lambda_max=args.lambda_max,
            n_lambda=args.grid,
            variant=args.variant,
            order=order,
            max_order=args.max_order,
            split=args.split,
            detrend=args.detrend,
            scale_outputs=args.scale_outputs,
            x0_policy=X0_POLICIES[args.x0],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _report_json(args, cfg, report, vaf_agg, vaf_per_output, n_ide, n_val) -> dict:
    return {
        "tool": "n2sid",
        "version": __version__,
        "config": {
            **asdict(cfg),
            "discard": args.discard,
            "inputs": args.inputs,
            "output_only": bool(args.output_only),
            "n_ide": n_ide,
            "n_val": n_val,
        },
        "model": _model_to_json(report.best.model, report.best.x0_ide),
        "order": report.best.order,
        "lambda_opt": report.lambda_opt,
        "lambda_grid": report.lambdas.tolist(),
        "j_curve": [None if not np.isfinite(v) else float(v) for v in report.j_values],
        "orders": report.orders.tolist(),
        "iterations": report.iterations.tolist(),
        "converged": report.converged.tolist(),
        "gap": [None if not np.isfinite(v) else float(v) for v in report.gaps],
        "singular_values": [None if s is None else s.tolist() for s in report.sigma_per_lambda],
        "failures": report.failures,
        "vaf_validation": vaf_agg,
        "vaf_validation_per_output": vaf_per_output,
        "timings": report.timings,
    }


def _per_output_vaf(model, val: IoRecord, x0_policy: str) -> list[float | None]:
    """VAF of each output channel; None for a channel that is identically zero."""
    from .pipeline import _predict

    yhat = _predict(model, val, x0_policy)
    return [
        vaf(val.y[:, j : j + 1], yhat[:, j : j + 1]) if np.any(val.y[:, j]) else None
        for j in range(val.p)
    ]


def cmd_identify(args) -> int:
    if args.discard < 0:
        raise UsageError(f"--del must be nonnegative, got {args.discard}")
    if args.vaf_csv and args.n_val is None:
        raise UsageError("--vaf-csv requires --n-val")
    for path in (args.report, args.sv_csv, args.vaf_csv):
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise UsageError(f"output directory not found: {path}")
    rec = read_csv(args.data, args.inputs, args.outputs)
    if args.n_ide_list:
        try:
            n_ide_list = [int(v) for v in args.n_ide_list.split(",")]
        except ValueError:
            raise UsageError("--n-ide-list must be comma-separated integers") from None
    elif args.n_ide is not None:
        n_ide_list = [args.n_ide]
    else:
        n_ide_list = [rec.N - args.discard if args.n_val is None else rec.N - args.discard - args.n_val]
    if any(v < 1 for v in n_ide_list):
        raise UsageError("identification lengths must be positive")

    data_u = rec.u[args.discard :]
    data_y = rec.y[args.discard :]
    n_max = max(n_ide_list)
    if n_max > data_u.shape[0]:
        raise UsageError(
            f"n_ide={n_max} exceeds the {data_u.shape[0]} samples available after --del {args.discard}"
        )
    val = None
    if args.n_val is not None:
        stop = n_max + args.n_val
        if stop > data_u.shape[0]:
            raise UsageError(f"validation slice [{n_max}:{stop}] exceeds the data")
        val = IoRecord(u=data_u[n_max:stop], y=data_y[n_max:stop])
        if args.detrend:
            val = val.detrended()

    cfg = _build_config(args)
    x0_policy = cfg.x0_policy
    vaf_rows = []
    report = None
    vaf_agg = vaf_per = None
    for n_ide in n_ide_list:
        ide = IoRecord(u=data_u[:n_ide], y=data_y[:n_ide])
        t0 = time.perf_counter()
        if args.output_only:
            run = identify_output_only(ide.y, cfg)
        else:
            run = identify(ide, cfg)
        elapsed = time.perf_counter() - t0
        vaf_agg = vaf_per = None
        if val is not None:
            val_rec = IoRecord(u=np.zeros((val.N, 0)), y=val.y) if args.output_only else val
            vaf_agg = evaluate(run.best, val_rec, x0_policy)
            vaf_per = _per_output_vaf(run.best.model, val_rec, x0_policy)
            vaf_rows.append((n_ide, vaf_agg))
        report = run
        gap = run.gaps[int(np.nanargmin(run.j_values))]
        order_msg = f"order={run.best.order} lambda_opt={run.lambda_opt:.6g} gap={gap:.2e}"
        vaf_msg = "" if vaf_agg is None else f" vaf={vaf_agg:.4f}"
        print(f"n_ide={n_ide}: {order_msg}{vaf_msg} ({elapsed:.2f}s)")

    out = _report_json(args, cfg, report, vaf_agg, vaf_per, n_ide_list[-1], args.n_val)
    if args.report:
        _atomic_write(args.report, json.dumps(out, indent=2) + "\n")
        print(f"report written to {args.report}")
    if args.sv_csv:
        lines = []
        width = max((0 if s is None else len(s)) for s in report.sigma_per_lambda)
        lines.append(",".join(["lambda"] + [f"sv{i + 1}" for i in range(width)]))
        for lam, sg in zip(report.lambdas, report.sigma_per_lambda):
            vals = ["" for _ in range(width)] if sg is None else [repr(float(v)) for v in sg]
            lines.append(",".join([repr(float(lam))] + vals))
        _atomic_write(args.sv_csv, "\n".join(lines) + "\n")
        print(f"singular values written to {args.sv_csv}")
    if args.vaf_csv:
        lines = ["n_ide,vaf"] + [f"{n},{repr(float(v))}" for n, v in vaf_rows]
        _atomic_write(args.vaf_csv, "\n".join(lines) + "\n")
        print(f"VAF curve written to {args.vaf_csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def example_model(name: str) -> StateSpaceModel:
    if name == "order2":
        return StateSpaceModel(
            A=[[0.7, 0.3], [-0.3, 0.7]],
            B=[[2.0], [1.0]],
            C=[[2.0, -0.8]],
            D=[[0.2]],
            K=[[0.5], [-0.2]],
        )
    raise UsageError(f"unknown example {name!r} (available: order2)")


def cmd_simulate(args) -> int:
    if bool(args.model) == bool(args.example):
        raise UsageError("specify exactly one of --model or --example")
    model = load_model_file(args.model) if args.model else example_model(args.example)
    rng = np.random.default_rng(args.seed)
    if args.input == "prbs":
        u = rng.integers(0, 2, size=(args.n, model.m)) * 2.0 - 1.0
    elif args.input == "gauss":
        u = rng.standard_normal((args.n, model.m))
    else:
        u = np.zeros((args.n, model.m))
    rec = generate_innovation_data(model, u, noise_std=args.noise_std, seed=args.seed + 1)
    write_csv(args.out, rec.u, rec.y)
    print(f"{args.n} samples ({model.m} inputs, {model.p} outputs) written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    report = _read_json_object(args.report, "report")
    if "model" not in report:
        raise UsageError(f"{args.report}: no model section")
    model = _model_from_json(report["model"])
    config = report.get("config", {})
    if not isinstance(config, dict):
        raise UsageError(f"{args.report}: config is not an object")
    # the column layout identify read; an output-only model ignores the inputs
    inputs = config.get("inputs", model.m)
    if type(inputs) is not int or inputs < 0:
        raise UsageError(f"{args.report}: config inputs must be a nonnegative integer, got {inputs!r}")
    val = read_csv(args.data, inputs, model.p)
    if config.get("output_only") is True:
        val = IoRecord(u=np.zeros((val.N, 0)), y=val.y)
    # the offsets identify removed from its own validation slice
    if config.get("detrend") is True:
        val = val.detrended()
    policy = X0_POLICIES[args.x0]
    agg = evaluate(model, val, policy)
    per = _per_output_vaf(model, val, policy)
    for j, v in enumerate(per):
        print(f"vaf y{j + 1}: {math.nan if v is None else float(v)!r}")
    print(f"vaf aggregate: {float(agg)!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="n2sid",
        description="Nuclear norm subspace identification of LTI state-space models.",
    )
    parser.add_argument("--version", action="version", version=f"n2sid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ident = sub.add_parser("identify", help="identify a model from a CSV record")
    ident.add_argument("--data", required=True, help="CSV file with columns u1..um,y1..yp")
    ident.add_argument("--inputs", type=int, required=True, help="number of input columns m")
    ident.add_argument("--outputs", type=int, required=True, help="number of output columns p")
    ident.add_argument("--s", type=int, default=15, help="block-row window (default 15)")
    ident.add_argument("--lambda-min", type=float, default=10.0**-1.5,
                       help="lower grid bound for lambda/N (default 10^-1.5)")
    ident.add_argument("--lambda-max", type=float, default=1e3,
                       help="upper grid bound for lambda/N (default 10^3)")
    ident.add_argument("--grid", type=int, default=20, help="number of grid points (default 20)")
    ident.add_argument("--variant", choices=("m1", "m2", "m3"), default="m1")
    ident.add_argument("--order", default="auto", help="'auto' or a fixed integer order")
    ident.add_argument("--max-order", type=int, default=10)
    ident.add_argument("--split", choices=("none", "half"), default="none")
    ident.add_argument("--del", dest="discard", type=int, default=0,
                       help="leading samples to discard")
    ident.add_argument("--detrend", action=argparse.BooleanOptionalAction, default=True,
                       help="remove per-channel offsets (default on)")
    ident.add_argument("--scale-outputs", action="store_true",
                       help="scale detrended outputs to unit peak")
    ident.add_argument("--n-ide", type=int, default=None,
                       help="identification length (after --del)")
    ident.add_argument("--n-ide-list", default=None,
                       help="comma-separated identification lengths to sweep")
    ident.add_argument("--n-val", type=int, default=None,
                       help="validation length, taken after the longest identification slice")
    ident.add_argument("--x0", choices=tuple(X0_POLICIES), default="ls",
                       help="initial state policy for scoring (default ls)")
    ident.add_argument("--report", default=None, help="write a JSON report here")
    ident.add_argument("--sv-csv", default=None, help="write per-lambda singular values here")
    ident.add_argument("--vaf-csv", default=None, help="write (n_ide, VAF) rows here")
    ident.add_argument("--output-only", action="store_true",
                       help="ignore inputs and identify from outputs alone")
    ident.set_defaults(func=cmd_identify)

    sim = sub.add_parser("simulate", help="generate a synthetic CSV record")
    sim.add_argument("--model", default=None, help="model JSON (or report JSON) file")
    sim.add_argument("--example", default=None, help="built-in example id (order2)")
    sim.add_argument("--n", type=int, required=True, help="number of samples")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noise-std", type=float, default=0.0)
    sim.add_argument("--input", choices=("prbs", "gauss", "zero"), default="prbs")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    valp = sub.add_parser("validate", help="score a reported model on a held-out record")
    valp.add_argument("--report", required=True, help="report JSON from identify")
    valp.add_argument("--data", required=True, help="validation CSV")
    valp.add_argument("--x0", choices=tuple(X0_POLICIES), default="ls")
    valp.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (N2sidError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, ValueError, OSError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
