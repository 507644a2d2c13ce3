"""Shared oracles and synthetic systems for the test suite.

Everything here is written independently of the package internals it
checks: explicit index loops, naive per-sample recursions, and canonical
basis probing.
"""

from __future__ import annotations

import math

import numpy as np

from n2sid.admm import RHO0, SolveResult, _penalty_step, _XSolver
from n2sid.model import IoRecord, StateSpaceModel
from n2sid.structured_ops import (
    OperatorSpec,
    _suffix_sums,
    _toeplitz_mask,
    apply_adjoint,
    apply_operator,
    build_M,
)


def circulant(x) -> np.ndarray:
    """Circulant matrix with first column x; column c is x shifted down c times."""
    x = np.asarray(x, dtype=float).reshape(-1)
    q = x.shape[0]
    if q < 1:
        raise ValueError("circulant needs a nonempty vector")
    idx = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    return x[idx]


def dft(x: np.ndarray) -> np.ndarray:
    """Plain mixed-radix DFT along axis 0, at the exact length of x."""
    return np.fft.fft(x, axis=0)


def idft(x: np.ndarray) -> np.ndarray:
    return np.fft.ifft(x, axis=0)


def dft_matrix(order: int) -> np.ndarray:
    return np.fft.fft(np.eye(order), axis=0)


def dense_M(spec: OperatorSpec) -> np.ndarray:
    """Per-output coefficient matrix assembled as one d x d array from build_M's pieces."""
    diag, cross, small = build_M(spec)
    return np.block([[np.diag(diag), cross], [cross.T, small]])


def svd_svt(Y: np.ndarray, threshold: float) -> np.ndarray:
    """Singular value thresholding by a full LAPACK SVD of Y."""
    U, sv, Vt = np.linalg.svd(Y, full_matrices=False)
    return (U * np.maximum(sv - threshold, 0.0)) @ Vt


def reference_solve(spec, y, lam, params, fact, warm=None) -> SolveResult:
    """The plain splitting iteration, with three adjoint applications per iteration.

    adj(Z - Y/rho) for the right-hand side, adj(Z - Z_new) for the dual
    residual and adj(Y) for its tolerance are applied afresh every
    iteration, and svt is an SVD of the full Z.  Same start, penalty
    steps and residual rule as n2sid.admm.solve, but no Anderson
    acceleration: it takes more iterations than solve, along other iterates.
    """
    N, p, d = spec.N, spec.p, spec.block_dim
    y = np.asarray(y, dtype=float).reshape(N, p)
    weight = 2.0 * lam / N
    a = np.zeros((p, d))
    a[:, :N] = y.T
    if warm is None:
        Z = apply_operator(a, spec)
        Y = np.zeros_like(Z)
    else:
        Z, Y = warm.Z, warm.y_dual
    rho = RHO0
    solver = _XSolver(fact, weight, rho)
    converged = False
    for it in range(1, params.max_iter + 1):
        X = solver.solve((weight * a + rho * apply_adjoint(Z - Y / rho, spec)).T).T
        AX = apply_operator(X, spec)
        Znew = svd_svt(AX + Y / rho, 1.0 / rho)
        R = AX - Znew
        Y = Y + rho * R
        pri = float(np.linalg.norm(R))
        dual = float(np.linalg.norm(rho * apply_adjoint(Z - Znew, spec)))
        Z = Znew
        eps_pri = math.sqrt(Z.size) * params.eps_abs + params.eps_rel * max(
            float(np.linalg.norm(AX)), float(np.linalg.norm(Z))
        )
        eps_dual = math.sqrt(p * d) * params.eps_abs + params.eps_rel * float(
            np.linalg.norm(apply_adjoint(Y, spec))
        )
        if pri <= eps_pri and dual <= eps_dual:
            converged = True
            break
        rho_new = _penalty_step(rho, pri, dual, params.mu)
        if rho_new != rho:
            rho = rho_new
            solver = _XSolver(fact, weight, rho)
    return SolveResult(
        x=X, Z=Z, iterations=it, primal_res=pri, dual_res=dual,
        converged=converged, y_dual=Y,
    )


def reference_adjoint(Z: np.ndarray, spec: OperatorSpec, scratch: np.ndarray | None = None) -> np.ndarray:
    """apply_adjoint as formulated before its index plan: the negated samples rebuilt
    from ``spec.data``, and the Toeplitz blocks masked out, transposed and
    concatenated after the antidiagonal sums S_0."""
    p, s, N, ncols, q = spec.p, spec.s, spec.N, spec.ncols, spec.m + spec.p
    if scratch is None:
        scratch = np.empty((2, p, s, N + 1))
    padded, sums = scratch.reshape(2, p, -1)
    padded.reshape(p, s, N + 1)[:, :, ncols:] = 0.0
    padded.reshape(p, s, N + 1)[:, :, :ncols] = Z.reshape(s, p, ncols).transpose(1, 0, 2)
    sums[:, s * N :] = 0.0
    np.matmul(_suffix_sums(s), padded[:, : s * N].reshape(p, s, N), out=sums[:, : s * N].reshape(p, s, N))
    negated = np.empty((q, N))
    negated[:, :ncols] = spec.data[:q]
    negated[:, ncols:] = spec.data[q:, -1].reshape(s - 1, q).T
    blocks = sums.reshape(p, s, N + 1)[:, :, :N] @ negated.T
    toeplitz = blocks.transpose(0, 2, 1)[:, _toeplitz_mask(spec.m, p, s)]
    return np.concatenate([sums[:, :N], toeplitz], axis=1)


def recomputed_residuals(spec, y, lam, res: SolveResult) -> tuple[float, float, float]:
    """||A(x) - Z|| and ||H (x - a) + adj(y_dual)|| of a result, from fresh operator
    and adjoint applications, and the largest of the terms they cancel."""
    N = spec.N
    weight = 2.0 * lam / N
    y = np.asarray(y, dtype=float).reshape(N, spec.p)
    AX = apply_operator(res.x, spec)
    stationarity = apply_adjoint(res.y_dual, spec)
    terms = (AX, res.Z, stationarity, weight * res.x[:, :N], weight * y)
    scale = max(float(np.linalg.norm(t)) for t in terms)
    stationarity[:, :N] += weight * (res.x[:, :N] - y.T)
    return float(np.linalg.norm(AX - res.Z)), float(np.linalg.norm(stationarity)), scale


def naive_simulate(A, B, C, D, u, x0):
    """Step-by-step simulation oracle, one sample at a time."""
    A, B, C, D = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, C, D))
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    out = []
    for k in range(u.shape[0]):
        out.append(C @ x + D @ u[k])
        x = A @ x + B @ u[k]
    return np.array(out)


def naive_observer_predict(Aobs, Bobs, C, D, K, u, y, x0):
    Aobs, Bobs, C, D, K = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (Aobs, Bobs, C, D, K))
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    out = []
    for k in range(y.shape[0]):
        out.append(C @ x + D @ u[k])
        x = Aobs @ x + Bobs @ u[k] + K @ y[k]
    return np.array(out)


def naive_state_response(A, C, x0, steps, drive=None):
    """Outputs C x(k), k < steps, and the state x(steps) of x(k+1) = A x(k) + drive[k], one step at a time."""
    A, C = np.atleast_2d(A), np.atleast_2d(C)
    x = np.array(x0, dtype=float)
    out = np.empty((steps, C.shape[0]) + x.shape[1:])
    for k in range(steps):
        out[k] = C @ x
        x = A @ x if drive is None else A @ x + drive[k]
    return out, x


def naive_states(A, B, u, x0):
    """State trajectory x(0..N-1) under x(k+1) = A x(k) + B u(k)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    states = []
    for k in range(u.shape[0]):
        states.append(x.copy())
        x = A @ x + B @ u[k]
    return np.array(states)


def observability(A, C, s):
    A = np.atleast_2d(A)
    C = np.atleast_2d(C)
    blocks = []
    CA = C.copy()
    for _ in range(s):
        blocks.append(CA.copy())
        CA = CA @ A
    return np.vstack(blocks)


def dense_output_operator(spec: OperatorSpec) -> np.ndarray:
    """Dense matrix of one output's sub-operator, by explicit index loops.

    Maps the per-output block [yhat (N), v (m*s), w (p*(s-1))] to the
    row-major flattening of the s x ncols result.  Row q of channel j's
    negated Hankel matrix is row q*(m+p) + j of spec.data (inputs first).
    """
    s, nc, m, p, N = spec.s, spec.ncols, spec.m, spec.p, spec.N
    c = m + p
    d = spec.block_dim
    A = np.zeros((s * nc, d))
    for a in range(s):
        for b in range(nc):
            A[a * nc + b, a + b] += 1.0
    for j in range(m):
        for a in range(s):
            for b in range(nc):
                for q in range(a + 1):
                    A[a * nc + b, N + j * s + (a - q)] += spec.data[q * c + j, b]
    for j in range(p):
        for a in range(s):
            for b in range(nc):
                for q in range(a):
                    A[a * nc + b, N + m * s + j * (s - 1) + (a - q - 1)] += spec.data[q * c + m + j, b]
    return A


def probe_M(spec: OperatorSpec) -> np.ndarray:
    """Coefficient-matrix oracle: adjoint(operator(e_k)) for every basis vector."""
    d = spec.block_dim
    M = np.empty((d, d))
    for k in range(d):
        X = np.zeros((spec.p, d))
        X[0, k] = 1.0
        M[:, k] = apply_adjoint(apply_operator(X, spec), spec)[0]
    return M


def probe_full_M(spec: OperatorSpec) -> np.ndarray:
    """Full coefficient matrix over all p output blocks (probed)."""
    d = spec.block_dim
    M = np.empty((spec.p * d, spec.p * d))
    for i in range(spec.p):
        for k in range(d):
            X = np.zeros((spec.p, d))
            X[i, k] = 1.0
            M[:, i * d + k] = apply_adjoint(apply_operator(X, spec), spec).ravel()
    return M


def random_spec(rng: np.random.Generator, s_lo=2, s_hi=8, n_hi=40) -> OperatorSpec:
    s = int(rng.integers(s_lo, s_hi + 1))
    N = int(rng.integers(s + 2, n_hi + 1))
    p = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    u = rng.standard_normal((N, m))
    y = rng.standard_normal((N, p))
    return OperatorSpec.from_data(u, y, s)


def decision_stack(yhat, v, w) -> np.ndarray:
    """Output stack [yhat_i, v_i, w_i] from yhat (p, N), v (p, m, s) and w (p, p, s-1)."""
    p = yhat.shape[0]
    return np.concatenate([yhat, np.reshape(v, (p, -1)), np.reshape(w, (p, -1))], axis=1)


def markov_stack(yhat, blocks) -> np.ndarray:
    """Output stack of yhat (p, N) and the Markov blocks [v_k, w_k] (s, p, m+p); w_0 is left out."""
    m = blocks.shape[2] - blocks.shape[1]
    v, w = blocks[:, :, :m], blocks[1:, :, m:]
    return decision_stack(yhat, v.transpose(1, 2, 0), w.transpose(1, 2, 0))


def random_decision(rng: np.random.Generator, spec: OperatorSpec) -> np.ndarray:
    """Random (p, block_dim) output stack."""
    return decision_stack(
        rng.standard_normal((spec.p, spec.N)),
        rng.standard_normal((spec.p, spec.m, spec.s)),
        rng.standard_normal((spec.p, spec.p, spec.s - 1)),
    )


def make_siso_order2() -> StateSpaceModel:
    """Well-damped second-order SISO test system with a stable observer."""
    return StateSpaceModel(
        A=[[0.7, 0.3], [-0.3, 0.7]],
        B=[[2.0], [1.0]],
        C=[[2.0, -0.8]],
        D=[[0.2]],
        K=[[0.5], [-0.2]],
    )


def make_mimo_order4() -> StateSpaceModel:
    """Two inputs, two outputs, order 4: two coupled, damped oscillatory modes."""
    return StateSpaceModel(
        A=[[0.8, 0.2, 0.0, 0.0], [-0.2, 0.8, 0.0, 0.0], [0.0, 0.0, 0.6, -0.4], [0.0, 0.0, 0.4, 0.6]],
        B=[[1.0, 0.0], [0.5, 0.3], [0.0, 1.0], [0.2, -0.6]],
        C=[[1.0, 0.0, 0.8, 0.0], [0.0, 0.7, 0.0, 1.0]],
        D=[[0.1, 0.0], [0.0, 0.1]],
        K=[[0.3, 0.0], [0.0, 0.2], [0.1, 0.0], [0.0, 0.1]],
    )


def prbs(rng: np.random.Generator, N: int, m: int = 1) -> np.ndarray:
    """Random binary +-1 excitation."""
    return rng.integers(0, 2, size=(N, m)) * 2.0 - 1.0


def make_record(model, N, seed, noise_std=0.0, input_kind="prbs"):
    from n2sid.model import generate_innovation_data

    rng = np.random.default_rng(seed)
    if input_kind == "prbs":
        u = prbs(rng, N, model.m)
    elif input_kind == "zero":
        u = np.zeros((N, model.m))
    else:
        u = rng.standard_normal((N, model.m))
    return generate_innovation_data(model, u, noise_std=noise_std, seed=seed + 1)


def output_record(y) -> IoRecord:
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.shape[0] == 1:
        y = y.T
    return IoRecord(u=np.zeros((y.shape[0], 0)), y=y)
