"""State-space model extraction from the convex-program solution.

Given the low-rank matrix produced by the solver, extraction runs an
SVD, picks the model order from the singular-value spectrum, and builds
the quintuple (A, B, C, D, K) by one of three procedures:

* m1: shift-invariance of the left singular vectors gives (Aobs, C);
  the solved output-Toeplitz parameters give K by least squares; then
  (Bobs, D) and the initial state are fit to the observer's one-step
  prediction error on the identification record.
* m2: the right singular vectors are taken as a state-sequence estimate
  and every matrix follows from two linear regressions on the observer
  equations.
* m3: (Aobs, C, K) as in m1; (Bobs, D) matched to the solved
  input-Toeplitz parameters instead of the data record.

A, B are recovered from the observer quantities as A = Aobs + K C and
B = Bobs + K D.

Every regressor of the data fits is a response of the observer to a
fixed drive, computed by ``model.state_response``: the observability
rows C Aobs^k are its free response from the identity, and the
sensitivities to K y, to each entry of Bobs and to x0 are stacked
responses of one loop.  ``fit_x0`` is the initial-state fit shared with
the pipeline's scoring.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SimulationOverflowError
from .model import IoRecord, ObserverModel, StateSpaceModel, predict_observer, state_response
from .structured_ops import DecisionVector, OperatorSpec, block_toeplitz

__all__ = [
    "SubspaceSvd",
    "ToeplitzEstimates",
    "IdentifiedModel",
    "lowrank_svd",
    "toeplitz_estimates",
    "select_order",
    "estimate_AC",
    "estimate_K",
    "estimate_BDx0",
    "fit_x0",
    "compute_m1",
    "compute_m2",
    "compute_m3",
]

_LSTSQ_RCOND = 1e-10


def _require_finite(what: str, *arrays: np.ndarray) -> None:
    """Raise before a non-finite array (from unstable dynamics) reaches LAPACK."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise SimulationOverflowError(f"non-finite values in {what}")


def _lstsq(A: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    _require_finite(what, A, b)
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=_LSTSQ_RCOND)
    if rank < min(A.shape):
        warnings.warn(f"rank-deficient least squares in {what}; minimum-norm solution used")
    return sol


@dataclass(frozen=True)
class SubspaceSvd:
    """Thin SVD of the solver's low-rank matrix (descending singular values)."""

    U: np.ndarray
    sigma: np.ndarray
    Vt: np.ndarray


@dataclass(frozen=True)
class ToeplitzEstimates:
    """Solved block-Toeplitz matrices: Tu (ps x ms) and strictly-lower Ty (ps x ps)."""

    Tu: np.ndarray
    Ty: np.ndarray


@dataclass(frozen=True)
class IdentifiedModel:
    model: StateSpaceModel
    order: int
    lam: float
    sigma: np.ndarray
    variant: str
    x0_ide: np.ndarray


def lowrank_svd(Z: np.ndarray, spec: OperatorSpec) -> SubspaceSvd:
    """SVD of the solver's low-rank iterate Z (the thresholded matrix)."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (spec.p * spec.s, spec.ncols):
        raise ValueError(f"Z has shape {Z.shape}, expected {(spec.p * spec.s, spec.ncols)}")
    U, sigma, Vt = np.linalg.svd(Z, full_matrices=False)
    return SubspaceSvd(U=U, sigma=sigma, Vt=Vt)


def toeplitz_estimates(x: DecisionVector, spec: OperatorSpec) -> ToeplitzEstimates:
    """The operator's solved block-Toeplitz matrix T = [T_u, T_y], split by signal.

    Tu's block (r, c) with r >= c is the p x m matrix of v[:, :, r-c];
    Ty's block (r, c) with r > c is the p x p matrix of w[:, :, r-c-1],
    with zero diagonal blocks.
    """
    s, p, m = spec.s, spec.p, spec.m
    T = block_toeplitz(x.markov_blocks()).reshape(p * s, s, m + p)
    return ToeplitzEstimates(
        Tu=T[:, :, :m].reshape(p * s, m * s), Ty=T[:, :, m:].reshape(p * s, p * s)
    )


def select_order(sigma: np.ndarray, max_order: int = 10) -> int:
    """Pick the order whose log singular value is closest to the log-mean.

    Values below 1e-12 times the largest are raised to that floor before
    taking logs, so an exactly-zero tail anchors the bottom of the range
    without producing -inf (and without collapsing the range to a
    degenerate two-point tie).  The target is the mean of the largest
    and smallest log values; distances within a 1e-9 relative band of
    the minimum count as tied, and ties resolve to the smaller index (a
    hard tie must not flip with the data scale).  The result is clamped
    to [1, max_order].
    """
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    if sigma.size == 0 or sigma[0] <= 0:
        raise ValueError("need at least one positive singular value")
    floor = 1e-12 * sigma[0]
    logs = np.log(np.maximum(sigma, floor))
    target = 0.5 * (logs[0] + logs[-1])
    dist = np.abs(logs - target)
    cut = dist.min() * (1.0 + 1e-9) + 1e-300
    nhat = int(np.nonzero(dist <= cut)[0][0]) + 1
    return max(1, min(nhat, max_order))


def estimate_AC(U_nhat: np.ndarray, s: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(Aobs, C) from the left singular vectors via shift invariance.

    U_nhat approximates the extended observability matrix with s block
    rows of p outputs; C is its first block row and Aobs the least
    squares solution of top-block * Aobs = shifted block.
    """
    U_nhat = np.atleast_2d(np.asarray(U_nhat, dtype=float))
    nhat = U_nhat.shape[1]
    if U_nhat.shape[0] != s * p:
        raise ValueError(f"expected {s * p} rows, got {U_nhat.shape[0]}")
    if nhat > (s - 1) * p:
        raise ValueError(f"order {nhat} exceeds (s-1)*p = {(s - 1) * p}")
    C = U_nhat[:p].copy()
    Aobs = _lstsq(U_nhat[: (s - 1) * p], U_nhat[p:], "shift-invariance solve")
    return Aobs, C


def estimate_K(Aobs: np.ndarray, C: np.ndarray, estimates: ToeplitzEstimates) -> np.ndarray:
    """Gain K fitted to the subdiagonal blocks of the solved output Toeplitz matrix.

    Minimizes the stacked Frobenius mismatch of C Aobs^(j-1) K against
    the j-th subdiagonal block for j = 1..s-1.
    """
    p = C.shape[0]
    s = estimates.Ty.shape[0] // p
    G = _observability(Aobs, C, s - 1)
    target = estimates.Ty[p:, :p]
    return _lstsq(G, target, "gain fit")


def _observability(A: np.ndarray, C: np.ndarray, rows: int) -> np.ndarray:
    """Stacked blocks C A^k for k < rows, shape (rows * p, n)."""
    n = np.atleast_2d(A).shape[0]
    return state_response(A, C, np.eye(n), rows).reshape(-1, n)


def fit_x0(A: np.ndarray, C: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Initial state whose free response C A^k x0 best fits ``residual`` (N x p).

    Rank deficiency is not reported: the minimum-norm solution is used,
    and a direction the outputs cannot see does not change the fit.
    """
    residual = np.asarray(residual, dtype=float)
    rows = _observability(A, C, residual.shape[0])
    _require_finite("initial-state fit", residual)
    return np.linalg.lstsq(rows, residual.reshape(-1), rcond=_LSTSQ_RCOND)[0]


def estimate_BDx0(
    Aobs: np.ndarray, C: np.ndarray, K: np.ndarray, rec: IoRecord
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Bobs, D, x0) minimizing the observer's squared prediction error.

    With (Aobs, C, K) fixed the prediction is linear in the unknowns: the
    response to K y(k), plus one response per entry of Bobs (drive
    u_j(k) e_i), per entry of D and per entry of x0.
    """
    if rec.N < 1:
        raise ValueError("record is empty")
    Aobs, C, K = np.atleast_2d(Aobs), np.atleast_2d(C), np.atleast_2d(K)
    n, p, m, N = Aobs.shape[0], C.shape[0], rec.m, rec.N
    # column 0 is driven by K y(k), column 1 + j*n + i by u_j(k) e_i (entry Bobs[i, j])
    drive = np.zeros((N, n, 1 + n * m))
    drive[:, :, 0] = rec.y @ K.T
    for i in range(n):
        drive[:, i, 1 + i :: n] = rec.u
    forced = state_response(Aobs, C, np.zeros((n, 1 + n * m)), N, drive)
    d_cols = np.kron(rec.u, np.eye(p)).reshape(N, p, p * m)
    x0_cols = _observability(Aobs, C, N).reshape(N, p, n)
    regressor = np.concatenate([forced[:, :, 1:], d_cols, x0_cols], axis=2)
    target = rec.y - forced[:, :, 0]
    theta = _lstsq(
        regressor.reshape(N * p, -1), target.reshape(-1), "input/feed-through/initial-state fit"
    )
    Bobs = theta[: n * m].reshape(m, n).T
    D = theta[n * m : (n + p) * m].reshape(m, p).T
    return Bobs, D, theta[(n + p) * m :]


def _finish(obs: ObserverModel, order, lam, sigma, variant, x0) -> IdentifiedModel:
    return IdentifiedModel(
        model=obs.to_state_space(),
        order=order,
        lam=float(lam),
        sigma=np.asarray(sigma, dtype=float).copy(),
        variant=variant,
        x0_ide=np.asarray(x0, dtype=float).copy(),
    )


def compute_m1(
    svd: SubspaceSvd,
    estimates: ToeplitzEstimates,
    rec: IoRecord,
    nhat: int,
    lam: float = float("nan"),
) -> IdentifiedModel:
    """Shift-invariance for (Aobs, C), Toeplitz fit for K, data fit for (Bobs, D, x0)."""
    if nhat < 1:
        raise ValueError("order must be >= 1")
    s = svd.U.shape[0] // rec.p
    Aobs, C = estimate_AC(svd.U[:, :nhat], s, rec.p)
    K = estimate_K(Aobs, C, estimates)
    Bobs, D, x0 = estimate_BDx0(Aobs, C, K, rec)
    return _finish(ObserverModel(Aobs, Bobs, C, D, K), nhat, lam, svd.sigma, "m1", x0)


def compute_m2(
    svd: SubspaceSvd,
    rec: IoRecord,
    nhat: int,
    lam: float = float("nan"),
    scaled: bool = False,
) -> IdentifiedModel:
    """State-sequence route: right singular vectors as states, then two regressions."""
    if nhat < 1:
        raise ValueError("order must be >= 1")
    ncols = svd.Vt.shape[1]
    if ncols < nhat:
        raise ValueError(f"too few state samples: {ncols} < order {nhat}")
    X = svd.Vt[:nhat].copy()
    if scaled:
        X = np.sqrt(svd.sigma[:nhat])[:, None] * X
    U_d = rec.u[:ncols].T
    Y_d = rec.y[:ncols].T

    reg_state = np.vstack([X[:, :-1], U_d[:, :-1], Y_d[:, :-1]]).T
    theta1 = _lstsq(reg_state, X[:, 1:].T, "state regression").T
    Aobs = theta1[:, :nhat]
    Bobs = theta1[:, nhat : nhat + rec.m]
    K = theta1[:, nhat + rec.m :]

    reg_out = np.vstack([X, U_d]).T
    theta2 = _lstsq(reg_out, Y_d.T, "output regression").T
    C = theta2[:, :nhat]
    D = theta2[:, nhat:]

    x0 = X[:, 0]
    return _finish(ObserverModel(Aobs, Bobs, C, D, K), nhat, lam, svd.sigma, "m2", x0)


def compute_m3(
    svd: SubspaceSvd,
    estimates: ToeplitzEstimates,
    rec: IoRecord,
    nhat: int,
    lam: float = float("nan"),
) -> IdentifiedModel:
    """As m1 but (Bobs, D) matched to the solved input-Toeplitz parameters."""
    if nhat < 1:
        raise ValueError("order must be >= 1")
    s = svd.U.shape[0] // rec.p
    Aobs, C = estimate_AC(svd.U[:, :nhat], s, rec.p)
    p, m = rec.p, rec.m
    # C Aobs^(j-1) [K, Bobs] against the j-th subdiagonal blocks of [Ty, Tu], j = 1..s-1
    target = np.hstack([estimates.Ty[p:, :p], estimates.Tu[p:, :m]])
    KB = _lstsq(_observability(Aobs, C, s - 1), target, "gain and input-Toeplitz fit")
    obs = ObserverModel(Aobs, KB[:, p:], C, estimates.Tu[:p, :m].copy(), KB[:, :p])
    x0 = fit_x0(Aobs, C, rec.y - predict_observer(obs, rec))
    return _finish(obs, nhat, lam, svd.sigma, "m3", x0)
