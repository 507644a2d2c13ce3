"""End-to-end identification: preprocessing, regularization sweep, selection.

For each lambda on a log-spaced grid the convex program is solved on the
identification data, a model is extracted at the selected order, and the
deterministic prediction error J(lambda) is scored on the evaluation
part of the record; the model attaining the smallest J wins.

The J score and the validation metric both use the model's simulated
output (driven by the input only).  Records with no usable input (zero
input channels, or an input that is identically zero) carry no
excitation for a simulation, so the y-driven observer predictor is
scored instead; this also makes a zero-input record and the output-only
entry point produce identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .admm import SweepFactorization, sweep
from .errors import N2sidError, SolverError
from .extraction import (
    IdentifiedModel,
    compute_m1,
    compute_m2,
    compute_m3,
    fit_x0,
    lowrank_svd,
    select_order,
)
from .model import IoRecord, simulate, predict_observer, to_observer, vaf
from .structured_ops import OperatorSpec, toeplitz_estimates

__all__ = [
    "PipelineConfig",
    "PipelineReport",
    "preprocess",
    "identify",
    "identify_output_only",
    "evaluate",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the identification run; defaults follow the benchmark protocol.

    lambda_min/lambda_max bound the regularization grid in per-sample
    units (the user parameter is lambda divided by the identification
    length); the solver weight for a grid value g on an N-sample record
    is lambda = g * N, so the fit term is g times the output SSE.
    """

    s: int = 15
    lambda_min: float = 10.0**-1.5
    lambda_max: float = 1e3
    n_lambda: int = 20
    variant: str = "m1"
    order: int | str = "auto"
    max_order: int = 10
    split: str = "none"
    detrend: bool = True
    scale_outputs: bool = False
    x0_policy: str = "ls_estimate"

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("window s must be at least 2")
        if self.n_lambda < 1:
            raise ValueError("grid must have at least one point")
        if not (0 < self.lambda_min <= self.lambda_max < np.inf):
            raise ValueError("need 0 < lambda_min <= lambda_max < inf")
        if self.variant not in ("m1", "m2", "m3"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.split not in ("none", "half"):
            raise ValueError(f"unknown split {self.split!r}")
        if self.x0_policy not in ("zero", "ls_estimate"):
            raise ValueError(f"unknown x0 policy {self.x0_policy!r}")
        if self.order != "auto" and (not isinstance(self.order, int) or self.order < 1):
            raise ValueError("order must be 'auto' or a positive integer")
        if self.max_order < 1:
            raise ValueError("max_order must be positive")

    def lambda_grid(self) -> np.ndarray:
        return np.logspace(np.log10(self.lambda_min), np.log10(self.lambda_max), self.n_lambda)


@dataclass
class PipelineReport:
    """Everything a run produced: winning model, score curve, diagnostics."""

    best: IdentifiedModel
    lambda_opt: float
    lambdas: np.ndarray
    j_values: np.ndarray
    orders: np.ndarray
    sigma_per_lambda: list
    failures: list
    timings: dict


def preprocess(rec: IoRecord, cfg: PipelineConfig) -> tuple[IoRecord, np.ndarray]:
    """Remove per-channel offsets and optionally scale; return the record and the output scale.

    Scaling (off by default) divides each detrended output channel by
    its max-abs value so that every output peaks at 1; the returned
    per-output divisors are ones when scaling is off.
    """
    if rec.N <= cfg.s:
        raise ValueError(f"record has {rec.N} samples, need more than s={cfg.s}")
    if cfg.detrend:
        rec = rec.detrended()
    peaks = np.ones(rec.p)
    if cfg.scale_outputs:
        peaks = np.abs(rec.y).max(axis=0)
        peaks[peaks == 0.0] = 1.0
        rec = IoRecord(u=rec.u, y=rec.y / peaks)
    return rec, peaks


def _split_record(rec: IoRecord, mode: str) -> tuple[IoRecord, IoRecord]:
    if mode == "none":
        return rec, rec
    n1 = (rec.N + 1) // 2
    return (
        IoRecord(u=rec.u[:n1], y=rec.y[:n1]),
        IoRecord(u=rec.u[n1:], y=rec.y[n1:]),
    )


def _has_excitation(rec: IoRecord) -> bool:
    return rec.m > 0 and bool(np.any(rec.u != 0.0))


def _predict(model, rec: IoRecord, x0_policy: str) -> np.ndarray:
    """Deterministic prediction used for both J scoring and validation VAF.

    It is linear in x0: a fitted x0 adds its free response to the zero-state prediction.
    """
    if _has_excitation(rec):
        A, yhat = model.A, simulate(model, rec.u)
    else:
        obs = to_observer(model)
        A, yhat = obs.Aobs, predict_observer(obs, rec)
    if x0_policy == "zero":
        return yhat
    return yhat + fit_x0(A, model.C, rec.y - yhat)[1]


def evaluate(identified, val: IoRecord, x0_policy: str = "ls_estimate") -> float:
    """VAF of the model's deterministic prediction on a validation record."""
    model = identified.model if isinstance(identified, IdentifiedModel) else identified
    if val.m != model.m or val.p != model.p:
        raise ValueError(
            f"record has (m={val.m}, p={val.p}), model expects (m={model.m}, p={model.p})"
        )
    if x0_policy not in ("zero", "ls_estimate"):
        raise ValueError(f"unknown x0 policy {x0_policy!r}")
    return vaf(val.y, _predict(model, val, x0_policy))


def _extract(result, spec: OperatorSpec, rec: IoRecord, cfg: PipelineConfig):
    """The grid point's model at the selected order, and the singular values it was read from."""
    svd = lowrank_svd(result.Z, spec)
    if cfg.order == "auto":
        cap = min(cfg.max_order, (cfg.s - 1) * spec.p)
        order = select_order(svd.sigma, cap)
    else:
        order = cfg.order
    blocks = toeplitz_estimates(result.x, spec)
    if cfg.variant == "m1":
        return compute_m1(svd, blocks, rec, order), svd.sigma
    if cfg.variant == "m2":
        return compute_m2(svd, rec, order), svd.sigma
    return compute_m3(svd, blocks, rec, order), svd.sigma


def identify(rec: IoRecord, cfg: PipelineConfig = PipelineConfig()) -> PipelineReport:
    """Full sweep-and-select run on an i/o record.

    Preprocessing is applied first; under split="half" the record is cut
    into two almost equal parts, the program is solved on the first and
    J is scored on the second (under the default split="none" both are
    the full preprocessed record).  Individual grid points may fail
    without aborting the run, each failure recorded with its stage
    (solve, extract or score); only an entirely failed grid raises.  The
    selected model and the J curve are in the record's output units, also
    when the program ran on scaled outputs; the singular values stay in
    the program's scaled units.  A fixed order above (s-1)*p, more than
    the window can hold, is rejected before the sweep.
    """
    t_start = time.perf_counter()
    if cfg.order != "auto" and cfg.order > (cfg.s - 1) * rec.p:
        raise ValueError(f"order {cfg.order} exceeds (s-1)*p = {(cfg.s - 1) * rec.p}")
    pre, peaks = preprocess(rec, cfg)
    ide1, ide2 = _split_record(pre, cfg.split)
    if ide1.N <= cfg.s:
        raise ValueError(f"identification part has {ide1.N} samples, need more than s={cfg.s}")
    spec = OperatorSpec.from_data(ide1.u, ide1.y, cfg.s)

    t0 = time.perf_counter()
    fact = SweepFactorization.from_spec(spec)
    t_factor = time.perf_counter() - t0

    grid = cfg.lambda_grid()
    t0 = time.perf_counter()
    # a weight past float range is rejected by sweep as a configuration error
    with np.errstate(over="ignore"):
        weights = grid * ide1.N
    results = sweep(spec, ide1.y, weights, fact=fact)
    t_sweep = time.perf_counter() - t0

    t0 = time.perf_counter()
    j_values = np.full(grid.shape, np.nan)
    orders = np.full(grid.shape, -1, dtype=int)
    sigma_per_lambda: list = [None] * grid.size
    models: list = [None] * grid.size
    failures: list = []
    for i, (lam, res) in enumerate(zip(grid, results)):
        if res is None:
            failures.append({"lambda": float(lam), "stage": "solve", "message": "solver failed"})
            continue
        stage = "extract"
        try:
            idm, sigma = _extract(res, spec, ide1, cfg)
            stage = "score"
            yhat = _predict(idm.model, ide2, cfg.x0_policy)
        except (ValueError, N2sidError, np.linalg.LinAlgError) as exc:
            failures.append({"lambda": float(lam), "stage": stage, "message": str(exc)})
            continue
        models[i] = idm
        orders[i] = idm.order
        sigma_per_lambda[i] = sigma
        # J in record units (peaks are ones unless scale_outputs); an
        # unstable model may legitimately score an overflowing J, and then
        # simply never wins the argmin
        with np.errstate(over="ignore"):
            j_values[i] = float(np.sum(((ide2.y - yhat) * peaks) ** 2))
    t_extract = time.perf_counter() - t0

    if not np.any(np.isfinite(j_values)):
        raise SolverError("all lambda grid points failed")
    best_idx = int(np.nanargmin(j_values))
    best = models[best_idx]
    # the program saw y / peaks (peaks are ones unless scale_outputs)
    model = replace(
        best.model,
        C=peaks[:, None] * best.model.C,
        D=peaks[:, None] * best.model.D,
        K=best.model.K / peaks,
    )
    return PipelineReport(
        best=replace(best, model=model),
        lambda_opt=float(grid[best_idx]),
        lambdas=grid,
        j_values=j_values,
        orders=orders,
        sigma_per_lambda=sigma_per_lambda,
        failures=failures,
        timings={
            "factorization_s": t_factor,
            "sweep_s": t_sweep,
            "extraction_s": t_extract,
            "total_s": time.perf_counter() - t_start,
        },
    )


def identify_output_only(y: np.ndarray, cfg: PipelineConfig = PipelineConfig()) -> PipelineReport:
    """Identification from output data alone (no input term in the program).

    The returned model has zero input channels; J and validation scores
    use the observer predictor driven by the measured output.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    rec = IoRecord(u=np.zeros((y.shape[0], 0)), y=y)
    return identify(rec, cfg)
