"""Command-line interface: identification runs, synthetic data, validation.

Subcommands:

  identify   read a CSV record, run the sweep, write a JSON report and
             optional plot-ready CSVs (per-lambda singular values,
             VAF vs identification length)
  simulate   generate a CSV record from a model file or built-in example
  validate   score a report's model on a held-out CSV record in the column
             layout identify read, as identify scored its own held-out rows

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
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .errors import N2sidError
from .model import IoRecord, StateSpaceModel, generate_innovation_data, vaf
from .pipeline import CHOICES, PipelineConfig, evaluate, identify, identify_output_only

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
    """The config of identify's flags, each stored under its PipelineConfig field's name."""
    values = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    if values["order"] != "auto":
        try:
            values["order"] = int(values["order"])
        except ValueError:
            raise UsageError(f"--order must be 'auto' or an integer, got {args.order!r}") from None
    values["x0_policy"] = X0_POLICIES[values["x0_policy"]]
    try:
        return PipelineConfig(**values)
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


def _held_out(val: IoRecord, output_only: bool, detrend: bool) -> IoRecord:
    """A held-out record as the run saw its data: inputs dropped if output-only, offsets if detrended."""
    if output_only:
        val = IoRecord(u=np.zeros((val.N, 0)), y=val.y)
    return val.detrended() if detrend else val


def _score(model, val: IoRecord, x0_policy: str) -> tuple[float, list[float | None]]:
    """Aggregate VAF and each output channel's VAF, None for a channel that is identically zero."""
    from .pipeline import _predict

    agg = evaluate(model, val, x0_policy)
    yhat = _predict(model, val, x0_policy)
    per = [
        vaf(val.y[:, j : j + 1], yhat[:, j : j + 1]) if np.any(val.y[:, j]) else None
        for j in range(val.p)
    ]
    return agg, per


def cmd_identify(args) -> int:
    if args.discard < 0:
        raise UsageError(f"--del must be nonnegative, got {args.discard}")
    if args.vaf_csv and args.n_val is None:
        raise UsageError("--vaf-csv requires --n-val")
    if args.n_val is not None and args.n_val < 1:
        raise UsageError(f"--n-val must be positive, got {args.n_val}")
    for path in (args.report, args.sv_csv, args.vaf_csv):
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise UsageError(f"output directory not found: {path}")
    rec = read_csv(args.data, args.inputs, args.outputs)
    if args.n_ide is not None:
        try:
            n_ide_list = [int(v) for v in args.n_ide.split(",")]
        except ValueError:
            raise UsageError("--n-ide must be comma-separated integers") from None
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
    cfg = _build_config(args)
    val = None
    if args.n_val is not None:
        stop = n_max + args.n_val
        if stop > data_u.shape[0]:
            raise UsageError(f"validation slice [{n_max}:{stop}] exceeds the data")
        val = IoRecord(u=data_u[n_max:stop], y=data_y[n_max:stop])
        val = _held_out(val, args.output_only, cfg.detrend)
        # the denominator of the validation VAF
        if float(np.sum(val.y * val.y)) == 0.0:
            zero = "identically zero once detrended" if cfg.detrend else "identically zero"
            raise UsageError(f"--n-val {args.n_val}: the held-out outputs are {zero}")

    vaf_rows = []
    for n_ide in n_ide_list:
        ide = IoRecord(u=data_u[:n_ide], y=data_y[:n_ide])
        t0 = time.perf_counter()
        report = identify_output_only(ide.y, cfg) if args.output_only else identify(ide, cfg)
        elapsed = time.perf_counter() - t0
        vaf_agg, vaf_per = (None, None) if val is None else _score(report.best.model, val, cfg.x0_policy)
        vaf_rows.append((n_ide, vaf_agg))
        gap = report.gaps[report.best_index]
        order_msg = f"order={report.best.order} lambda_opt={report.lambda_opt:.6g} gap={gap:.2e}"
        vaf_msg = "" if vaf_agg is None else f" vaf={vaf_agg:.4f}"
        print(f"n_ide={n_ide}: {order_msg}{vaf_msg} ({elapsed:.2f}s)")

    out = _report_json(args, cfg, report, vaf_agg, vaf_per, n_ide_list[-1], args.n_val)
    if args.report:
        _atomic_write(args.report, json.dumps(out, indent=2) + "\n")
        print(f"report written to {args.report}")
    if args.sv_csv:
        width = max((0 if s is None else len(s)) for s in report.sigma_per_lambda)
        lines = [",".join(["lambda"] + [f"sv{i + 1}" for i in range(width)])]
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
    val = _held_out(val, config.get("output_only") is True, config.get("detrend") is True)
    # the report's policy, which evaluate checks, unless --x0 names one
    policy = X0_POLICIES[args.x0] if args.x0 else config.get("x0_policy", PipelineConfig.x0_policy)
    agg, per = _score(model, val, policy)
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

    # the pipeline's flags store under PipelineConfig's field names and take its defaults
    cfg = PipelineConfig()
    ident = sub.add_parser("identify", help="identify a model from a CSV record")
    ident.add_argument("--data", required=True, help="CSV file with columns u1..um,y1..yp")
    ident.add_argument("--inputs", type=int, required=True, help="number of input columns m")
    ident.add_argument("--outputs", type=int, required=True, help="number of output columns p")
    ident.add_argument("--s", type=int, default=cfg.s, help="block-row window (default %(default)s)")
    ident.add_argument("--lambda-min", type=float, default=cfg.lambda_min,
                       help="lower grid bound for lambda/N (default %(default).4g)")
    ident.add_argument("--lambda-max", type=float, default=cfg.lambda_max,
                       help="upper grid bound for lambda/N (default %(default)g)")
    ident.add_argument("--grid", dest="n_lambda", metavar="GRID", type=int, default=cfg.n_lambda,
                       help="number of grid points (default %(default)s)")
    ident.add_argument("--variant", choices=CHOICES["variant"], default=cfg.variant)
    ident.add_argument("--order", default=cfg.order, help="'auto' or a fixed integer order")
    ident.add_argument("--max-order", type=int, default=cfg.max_order)
    ident.add_argument("--split", choices=CHOICES["split"], default=cfg.split)
    ident.add_argument("--del", dest="discard", type=int, default=0,
                       help="leading samples to discard")
    ident.add_argument("--detrend", action=argparse.BooleanOptionalAction, default=cfg.detrend,
                       help="remove per-channel offsets (default %(default)s)")
    ident.add_argument("--scale-outputs", action="store_true", default=cfg.scale_outputs,
                       help="scale detrended outputs to unit peak")
    ident.add_argument("--n-ide", "--n-ide-list", dest="n_ide", default=None,
                       help="identification length after --del, or comma-separated lengths to sweep")
    ident.add_argument("--n-val", type=int, default=None,
                       help="validation length, taken after the longest identification slice")
    ident.add_argument("--x0", dest="x0_policy", choices=tuple(X0_POLICIES),
                       default=next(w for w, p in X0_POLICIES.items() if p == cfg.x0_policy),
                       help="initial state policy for scoring (default %(default)s)")
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
    valp.add_argument("--x0", choices=tuple(X0_POLICIES), default=None,
                      help="initial state policy (default: the report's)")
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
