"""State-space model extraction from the convex-program solution.

Given the low-rank matrix Z produced by the solver, extraction reads
Z's thin SVD, picks the model order from the singular-value spectrum,
and builds the quintuple (A, B, C, D, K) by one of three procedures.
The solver's last singular value thresholding already factored Z, and
``lowrank_svd`` builds the SVD from those factors with one product, so
Z is not decomposed a second time.

* m3: shift-invariance of the left singular vectors gives (Aobs, C);
  one fit of C Aobs^(k-1) [Bobs, K] to the solved Markov blocks gives
  (Bobs, K), and D is the lag-0 input block.
* m1: K from the same fit; (Bobs, D) and the initial state are fit to
  the observer's one-step prediction error on the identification record.
* m2: the right singular vectors are taken as a state-sequence estimate
  and every matrix follows from two linear regressions on the observer
  equations.

The solved Markov blocks are read from the solver's output stack by
``structured_ops.toeplitz_estimates``: an (s, p, m + p) array whose lag-k
block is [v_k, w_k], the lag-k blocks of T_u and T_y (w_0 = 0).

A, B are recovered from the observer quantities as A = Aobs + K C and
B = Bobs + K D.

Every regressor of the data fits is a response of the observer to a
fixed drive, computed by ``model.state_response``.  The Markov-block fit
reads the observability rows C Aobs^k, k < s - 1, a short free response.
m1 reads everything else from one recursion over the record, of the
transposed observer (see ``estimate_BDx0``): the free response
C Aobs^k, which the x0 columns are, and the observer prediction's
sensitivities to each entry of [Bobs, K], which give the Bobs columns and
the K y response.  m3's model is the fit's observer as it stands, so it
takes its prediction and free response from ``model.predict_observer``,
as the pipeline's scoring does.  ``fit_x0``, the initial-state fit shared
with that scoring, takes a free response already computed and also
returns the fitted one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import SimulationOverflowError
from .model import IoRecord, ObserverModel, StateSpaceModel, predict_observer, state_response
from .structured_ops import OperatorSpec

__all__ = [
    "SubspaceSvd",
    "IdentifiedModel",
    "lowrank_svd",
    "select_order",
    "estimate_AC",
    "estimate_BDx0",
    "fit_x0",
    "compute_m1",
    "compute_m2",
    "compute_m3",
]

_LSTSQ_RCOND = 1e-10


def _require_finite(what: str, *arrays: np.ndarray) -> None:
    """Raise before a non-finite array (from unstable dynamics) reaches LAPACK."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise SimulationOverflowError(f"non-finite values in {what}")


def _lstsq(A: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    _require_finite(what, A, b)
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=_LSTSQ_RCOND)
    if rank < min(A.shape):
        warnings.warn(f"rank-deficient least squares in {what}; minimum-norm solution used")
    return sol


@dataclass(frozen=True)
class SubspaceSvd:
    """Thin SVD of the solver's low-rank matrix (descending singular values).

    U holds an orthonormal set of left singular vectors, one per entry of
    sigma; Vt holds the right singular vectors of the positive entries
    only, one row each.
    """

    U: np.ndarray
    sigma: np.ndarray
    Vt: np.ndarray


@dataclass(frozen=True)
class IdentifiedModel:
    """An extracted model, its order and its initial state on the identification record."""

    model: StateSpaceModel
    order: int
    x0_ide: np.ndarray


def lowrank_svd(Z: np.ndarray, spec: OperatorSpec, factors: tuple | None = None) -> SubspaceSvd:
    """Thin SVD of the solver's low-rank iterate Z (the thresholded matrix).

    ``factors`` are the (U, sigma) that the thresholding handed on with Z
    (``SolveResult.z_svd``): Z's min(rows, cols) left singular vectors,
    and its spectrum, exactly 0 past Z's rank.  From them the SVD costs
    one product P = U_r' Z with the r vectors of the positive entries:
    the singular values are the row norms of P, sorted descending, and Vt
    the rows of P divided by them, so U diag(sigma) Vt reproduces Z to
    rounding and the spectrum past Z's rank stays exactly 0.  Without
    factors Z gets a LAPACK SVD.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (spec.p * spec.s, spec.ncols):
        raise ValueError(f"Z has shape {Z.shape}, expected {(spec.p * spec.s, spec.ncols)}")
    if factors is None:
        U, sigma, Vt = np.linalg.svd(Z, full_matrices=False)
        return SubspaceSvd(U=U, sigma=sigma, Vt=Vt[: np.count_nonzero(sigma)])
    U, handed = factors
    rank = int(np.count_nonzero(handed))
    P = U[:, :rank].T @ Z
    sigma = np.zeros(handed.shape)
    sigma[:rank] = np.linalg.norm(P, axis=1)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    rank = int(np.count_nonzero(sigma))
    return SubspaceSvd(U=U[:, order], sigma=sigma, Vt=P[order[:rank]] / sigma[:rank, None])


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


def fit_x0(free: np.ndarray, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x0 whose free response C A^k x0 best fits ``residual`` (N x p), and that response.

    ``free`` is the (N, p, n) free response of (A, C) from the identity,
    the blocks C A^k, k < N.  Rank deficiency is not reported: the
    minimum-norm solution is used, and a direction the outputs cannot
    see does not change the fit.
    """
    residual = np.asarray(residual, dtype=float)
    rows = free.reshape(residual.size, -1)
    _require_finite("initial-state fit", residual)
    x0 = np.linalg.lstsq(rows, residual.reshape(-1), rcond=_LSTSQ_RCOND)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = (rows @ x0).reshape(residual.shape)
    _require_finite("initial-state response", fitted)
    return x0, fitted


def estimate_BDx0(
    Aobs: np.ndarray, C: np.ndarray, K: np.ndarray, rec: IoRecord
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Bobs, D, x0) minimizing the observer's squared prediction error.

    With (Aobs, C, K) fixed the prediction is linear in the unknowns: the
    response to K y(k), plus one response per entry of Bobs (drive
    u_j(k) e_i), per entry of D and per entry of x0.  All but the D
    columns come from one recursion: ``free``, (N, p, n), the blocks
    C Aobs^k, which the x0 columns are, and ``sens``, (N, p, n, m + p),
    whose [k, :, i, j] is sum_(l<k) C Aobs^(k-1-l) e_i v_j(l) with
    v = [u, y], the observer prediction's sensitivity to entry (i, j) of
    [Bobs, K].  Both are the states of the transposed recursion
    z(k+1) = Aobs' z(k) + C' w(k), observed through the identity: from
    z(0) = C'[:, r] its states are row r of C Aobs^k, and driven by
    w = e_r v_j row r of the sensitivities.  Its drive enters through C',
    so the windows cost grows with p, not with the n (m + p) sensitivities.
    """
    Aobs, C, K = np.atleast_2d(Aobs), np.atleast_2d(C), np.atleast_2d(K)
    n, p, m, N = Aobs.shape[0], C.shape[0], rec.m, rec.N
    v = np.hstack([rec.u, rec.y])
    c = v.shape[1]
    # columns r*c + j are driven by e_r v_j, the last p start from C' (their
    # zero drive keeps every column driven, which the windows run faster)
    drive = np.zeros((N, p, p * c + p))
    for r in range(p):
        drive[:, r, r * c : (r + 1) * c] = v
    x0 = np.zeros((n, p * c + p))
    x0[:, p * c :] = C.T
    states = state_response(Aobs.T, np.eye(n), x0, N, drive, B=C.T)
    free = states[:, :, p * c :].transpose(0, 2, 1)
    sens = states[:, :, : p * c].reshape(N, n, p, c).transpose(0, 2, 1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        target = rec.y - sens[..., m:].reshape(N, p, n * p) @ K.reshape(-1)
    # column j*n + i is the response to u_j(k) e_i (entry Bobs[i, j])
    b_cols = sens[..., :m].transpose(0, 1, 3, 2).reshape(N, p, m * n)
    # column j*p + i is the response to u_j(k) e_i (entry D[i, j]): kron(u, I) by broadcasting
    d_cols = (rec.u[:, None, :, None] * np.eye(p)[:, None, :]).reshape(N, p, m * p)
    regressor = np.concatenate([b_cols, d_cols, free], axis=2)
    theta = _lstsq(
        regressor.reshape(N * p, -1), target.reshape(-1), "input/feed-through/initial-state fit"
    )
    Bobs = theta[: n * m].reshape(m, n).T
    D = theta[n * m : (n + p) * m].reshape(m, p).T
    return Bobs, D, theta[(n + p) * m :]


def _markov_fit(svd: SubspaceSvd, blocks: np.ndarray, nhat: int) -> ObserverModel:
    """(Aobs, C) by shift invariance, C Aobs^(k-1) [Bobs, K] fit to [v_k, w_k] (k >= 1), D = v_0."""
    if nhat < 1:
        raise ValueError("order must be >= 1")
    s, p, width = blocks.shape
    m = width - p
    Aobs, C = estimate_AC(svd.U[:, :nhat], s, p)
    target = blocks[1:].reshape(-1, width)
    rows = state_response(Aobs, C, np.eye(nhat), s - 1).reshape(-1, nhat)  # C Aobs^k, k < s - 1
    BK = _lstsq(rows, target, "gain and input-Toeplitz fit")
    return ObserverModel(Aobs, BK[:, :m], C, blocks[0, :, :m].copy(), BK[:, m:])


def compute_m1(svd: SubspaceSvd, blocks: np.ndarray, rec: IoRecord, nhat: int) -> IdentifiedModel:
    """K from the Markov-block fit, then (Bobs, D, x0) refit to the data."""
    obs = _markov_fit(svd, blocks, nhat)
    Bobs, D, x0 = estimate_BDx0(obs.Aobs, obs.C, obs.K, rec)
    return IdentifiedModel(replace(obs, Bobs=Bobs, D=D).to_state_space(), nhat, x0)


def compute_m2(svd: SubspaceSvd, rec: IoRecord, nhat: int) -> IdentifiedModel:
    """State-sequence route: right singular vectors as states, then two regressions."""
    if nhat < 1:
        raise ValueError("order must be >= 1")
    rank, ncols = svd.Vt.shape
    if ncols < nhat:
        raise ValueError(f"too few state samples: {ncols} < order {nhat}")
    if rank < nhat:
        raise ValueError(f"order {nhat} exceeds the rank {rank} of the low-rank matrix")
    X = svd.Vt[:nhat]
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

    model = ObserverModel(Aobs, Bobs, C, D, K).to_state_space()
    return IdentifiedModel(model, nhat, X[:, 0].copy())


def compute_m3(svd: SubspaceSvd, blocks: np.ndarray, rec: IoRecord, nhat: int) -> IdentifiedModel:
    """The Markov-block fit's observer, with x0 fit to its prediction error.

    The prediction from x0 = 0 and the free response come from one
    ``predict_observer`` run from the initial states [0 | I], as the
    pipeline's scoring takes them.
    """
    obs = _markov_fit(svd, blocks, nhat)
    response = predict_observer(obs, rec, np.eye(nhat, 1 + nhat, 1))
    x0, _ = fit_x0(response[:, :, 1:], rec.y - response[:, :, 0])
    return IdentifiedModel(obs.to_state_space(), nhat, x0)
