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

import numbers
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
    "CHOICES",
    "PipelineConfig",
    "PipelineReport",
    "preprocess",
    "identify",
    "identify_output_only",
    "evaluate",
]


# the values each string-valued PipelineConfig field accepts
CHOICES = {"variant": ("m1", "m2", "m3"), "split": ("none", "half"), "x0_policy": ("zero", "ls_estimate")}


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
        # s, n_lambda, max_order and an integer order: integral, not bool, stored as int
        for name in ("s", "n_lambda", "max_order") + (() if isinstance(self.order, str) else ("order",)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.s < 2:
            raise ValueError("window s must be at least 2")
        if self.n_lambda < 1:
            raise ValueError("grid must have at least one point")
        if not (0 < self.lambda_min <= self.lambda_max < np.inf):
            raise ValueError("need 0 < lambda_min <= lambda_max < inf")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        if self.order != "auto" and (isinstance(self.order, str) or self.order < 1):
            raise ValueError("order must be 'auto' or a positive integer")
        if self.max_order < 1:
            raise ValueError("max_order must be positive")

    def lambda_grid(self) -> np.ndarray:
        return np.logspace(np.log10(self.lambda_min), np.log10(self.lambda_max), self.n_lambda)


@dataclass
class PipelineReport:
    """Everything a run produced: winning model, score curve, diagnostics.

    ``best_index`` is the selected grid point, ``best`` its model and
    ``lambda_opt`` its lambda.  ``iterations``, ``converged`` and ``gaps``
    hold each grid point's solver count, flag and certified duality gap
    relative to max(1, |objective|) (see admm.solve), -1, False and nan
    where the solve failed; a void certificate is a nan gap too.
    """

    best: IdentifiedModel
    best_index: int
    lambdas: np.ndarray
    j_values: np.ndarray
    orders: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    gaps: np.ndarray
    sigma_per_lambda: list
    failures: list
    timings: dict

    @property
    def lambda_opt(self) -> float:
        return float(self.lambdas[self.best_index])


def preprocess(rec: IoRecord, cfg: PipelineConfig) -> tuple[IoRecord, np.ndarray]:
    """Remove per-channel offsets and optionally scale; return the record and the output scale.

    Scaling (off by default) divides each detrended output channel by
    its max-abs value so that every output peaks at 1; the returned
    per-output divisors are ones when scaling is off.  The inputs keep
    their units here; ``identify`` divides each by its RMS for the program.
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

    It is linear in x0: a fitted x0 adds its free response to the
    zero-state prediction.  Under "ls_estimate" one recursion from the
    initial states [0 | I] gives both (see model.simulate).
    """
    n = model.n
    x0 = np.zeros(n) if x0_policy == "zero" else np.eye(n, 1 + n, 1)
    if _has_excitation(rec):
        response = simulate(model, rec.u, x0)
    else:
        response = predict_observer(to_observer(model), rec, x0)
    if x0_policy == "zero":
        return response
    yhat = response[:, :, 0]
    return yhat + fit_x0(response[:, :, 1:], rec.y - yhat)[1]


def evaluate(identified, val: IoRecord, x0_policy: str = "ls_estimate") -> float:
    """VAF of the model's deterministic prediction on a validation record."""
    model = identified.model if isinstance(identified, IdentifiedModel) else identified
    if val.m != model.m or val.p != model.p:
        raise ValueError(
            f"record has (m={val.m}, p={val.p}), model expects (m={model.m}, p={model.p})"
        )
    if x0_policy not in CHOICES["x0_policy"]:
        raise ValueError(f"unknown x0_policy {x0_policy!r}")
    return vaf(val.y, _predict(model, val, x0_policy))


def _extract(svd, x: np.ndarray, spec: OperatorSpec, rec: IoRecord, cfg: PipelineConfig):
    """The grid point's model at the selected order, from its low-rank SVD and its stack x."""
    if cfg.order == "auto":
        cap = min(cfg.max_order, (cfg.s - 1) * spec.p)
        order = select_order(svd.sigma, cap)
    else:
        order = cfg.order
    blocks = toeplitz_estimates(x, spec)
    if cfg.variant == "m1":
        return compute_m1(svd, blocks, rec, order)
    if cfg.variant == "m2":
        return compute_m2(svd, rec, order)
    return compute_m3(svd, blocks, rec, order)


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
    the program's scaled units, and exactly 0 past the rank of a point's Z.
    The program sees each input channel divided by its RMS over the
    preprocessed record (1 for a channel of RMS 0): T_u is not penalised,
    so its optimum does not depend on the input units, and B and D come
    back in the record's units.
    A point that fails after its SVD keeps its singular values in
    ``sigma_per_lambda``; a point whose Z has a rank below a fixed order is
    such an extract failure.  A fixed order above (s-1)*p, more than the
    window can hold, or above the identification part's N-s+1, more
    singular vectors than Z has, and outputs that are identically zero
    after preprocessing are rejected before the sweep.  The error of an
    entirely failed grid names the first failure and the highest rank of
    Z among the points that reached their SVD.
    ``timings`` holds factorization_s, sweep_s, extraction_s (Z's SVD from
    the factors the solve handed on, order and model), scoring_s
    (prediction and J) and total_s.
    """
    t_start = time.perf_counter()
    if cfg.order != "auto" and cfg.order > (cfg.s - 1) * rec.p:
        raise ValueError(f"order {cfg.order} exceeds (s-1)*p = {(cfg.s - 1) * rec.p}")
    pre, peaks = preprocess(rec, cfg)
    if not np.any(pre.y):
        raise ValueError(f"the outputs are identically zero{' once detrended' if cfg.detrend else ''}")
    # T_u is not penalised, so the optimum does not depend on the input units, only the solver
    # does; the RMS is taken of u / max|u|, whose squares neither overflow nor underflow
    top = np.abs(pre.u).max(axis=0, initial=0.0)
    top[top == 0.0] = 1.0
    rms = top * np.sqrt(np.mean((pre.u / top) ** 2, axis=0))
    rms[rms == 0.0] = 1.0
    pre = IoRecord(u=pre.u / rms, y=pre.y)
    ide1, ide2 = _split_record(pre, cfg.split)
    if ide1.N <= cfg.s:
        raise ValueError(f"identification part has {ide1.N} samples, need more than s={cfg.s}")
    if cfg.order != "auto" and cfg.order > ide1.N - cfg.s + 1:
        raise ValueError(f"order {cfg.order} exceeds N-s+1 = {ide1.N - cfg.s + 1} of the identification part")
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
    t_score = 0.0
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
            svd = lowrank_svd(res.Z, spec, res.z_svd)
            # kept even if the point fails later, and exactly 0 past Z's rank
            sigma_per_lambda[i] = svd.sigma
            idm = _extract(svd, res.x, spec, ide1, cfg)
            stage = "score"
            t_point = time.perf_counter()
            yhat = _predict(idm.model, ide2, cfg.x0_policy)
            # J in record units (peaks are ones unless scale_outputs); an
            # unstable model may legitimately score an overflowing J, and
            # then simply never wins the argmin
            with np.errstate(over="ignore"):
                j_values[i] = float(np.sum(((ide2.y - yhat) * peaks) ** 2))
        except (ValueError, N2sidError, np.linalg.LinAlgError) as exc:
            failures.append({"lambda": float(lam), "stage": stage, "message": str(exc)})
            continue
        finally:
            if stage == "score":
                t_score += time.perf_counter() - t_point
        models[i] = idm
        orders[i] = idm.order
    t_extract = time.perf_counter() - t0 - t_score

    if not np.any(np.isfinite(j_values)):
        message = "all lambda grid points failed"
        if failures:
            first = failures[0]
            message += f"; the first at lambda/N = {first['lambda']:.6g} ({first['stage']}): " + first["message"]
        ranks = [np.count_nonzero(sigma) for sigma in sigma_per_lambda if sigma is not None]
        message += f"; the highest rank of a solved point's Z is {max(ranks)}" if ranks else ""
        raise SolverError(message)
    best_idx = int(np.nanargmin(j_values))
    best = models[best_idx]
    # the program saw u / rms and y / peaks (peaks are ones unless scale_outputs)
    model = replace(
        best.model,
        B=best.model.B / rms,
        C=peaks[:, None] * best.model.C,
        D=peaks[:, None] * best.model.D / rms,
        K=best.model.K / peaks,
    )
    return PipelineReport(
        best=replace(best, model=model),
        best_index=best_idx,
        lambdas=grid,
        j_values=j_values,
        orders=orders,
        iterations=np.array([-1 if res is None else res.iterations for res in results]),
        converged=np.array([res is not None and res.converged for res in results]),
        gaps=np.array([np.nan if res is None else res.gap for res in results]),
        sigma_per_lambda=sigma_per_lambda,
        failures=failures,
        timings={
            "factorization_s": t_factor,
            "sweep_s": t_sweep,
            "extraction_s": t_extract,
            "scoring_s": t_score,
            "total_s": time.perf_counter() - t_start,
        },
    )


def identify_output_only(y: np.ndarray, cfg: PipelineConfig = PipelineConfig()) -> PipelineReport:
    """Identification from output data alone (no input term in the program).

    The returned model has zero input channels; J and validation scores
    use the observer predictor driven by the measured output.
    """
    y = np.asarray(y, dtype=float)
    return identify(IoRecord(u=np.zeros((y.shape[0], 0)), y=y), cfg)
