"""Operator-splitting solver for the nuclear-norm identification program.

The program solved is

    minimize  ||A(x)||_*  +  (lambda / N) * sum_k ||y(k) - yhat(k)||^2

over the (p, d) output stack X, row i being [yhat_i, v_i, w_i] (see
structured_ops).  Writing the quadratic part as 0.5 (X - a)^T H (X - a),
with a = [y', 0] and H = (2 lambda / N) I on the yhat block and zero
elsewhere, the splitting introduces Z = A(X) and alternates

    X      <- argmin  0.5 (X - a)^T H (X - a) + (rho/2) ||A(X) - Z + Y/rho||^2
    Z      <- svt(A(X) + Y/rho, 1/rho)
    Y      <- Y + rho (A(X) - Z)

with residual-balanced penalty adaptation.  The X step solves
(H + rho M) X_i = H a_i + rho adj(Z - Y/rho)_i for every output row i,
where M is the shared coefficient matrix.  Its yhat block is diagonal,
so for each (lambda, rho) pair the solve eliminates that block and works
with a Schur complement of side m*s + p*(s-1), independent of the record
length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .structured_ops import OperatorSpec, apply_adjoint, apply_operator, build_M

__all__ = [
    "AdmmParams",
    "QuadraticTerm",
    "SweepFactorization",
    "SolveResult",
    "build_quadratic",
    "nuclear_norm",
    "objective_value",
    "svt",
    "solve",
    "sweep",
]

RHO_MIN = 1e-6
RHO_MAX = 1e6


@dataclass(frozen=True)
class AdmmParams:
    """Solver settings; defaults follow the standard short-data protocol."""

    max_iter: int = 200
    eps_abs: float = 1e-6
    eps_rel: float = 1e-3
    tau: float = 2.0
    mu: float = 10.0
    rho0: float = 1.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        for name in ("eps_abs", "eps_rel", "rho0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.tau <= 1 or self.mu <= 1:
            raise ValueError("tau and mu must exceed 1")


@dataclass(frozen=True)
class QuadraticTerm:
    """Fit term (lambda / N) sum_k ||y(k) - yhat(k)||^2 in the 0.5 (X-a)' H (X-a) form.

    a has the measured outputs in its yhat block and zeros in v, w;
    H is (2 lambda / N) times the identity on the yhat block.
    """

    lam: float
    y: np.ndarray

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        y = np.asarray(self.y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        object.__setattr__(self, "y", y)

    @property
    def weight(self) -> float:
        """Diagonal of H on the yhat block: 2 lambda / N."""
        return 2.0 * self.lam / self.y.shape[0]

    def half_quadratic(self, X: np.ndarray) -> float:
        diff = X[:, : self.y.shape[0]] - self.y.T
        return 0.5 * self.weight * float(np.sum(diff * diff))


def build_quadratic(y: np.ndarray, lam: float) -> QuadraticTerm:
    """Quadratic term for measured outputs y ((N, p) or (N,)) at the given lambda."""
    return QuadraticTerm(lam=float(lam), y=y)


@dataclass(frozen=True)
class SweepFactorization:
    """Pieces of the shared coefficient matrix M (see build_M), reused across lambdas."""

    spec: OperatorSpec
    diag: np.ndarray
    cross: np.ndarray
    small: np.ndarray

    @classmethod
    def from_spec(cls, spec: OperatorSpec) -> "SweepFactorization":
        diag, cross, small = build_M(spec)
        return cls(spec=spec, diag=diag, cross=cross, small=small)

    def matches(self, spec: OperatorSpec) -> bool:
        """Same dimensions and the same record: M depends on the data, not only on its size."""
        return self.spec == spec and np.array_equal(self.spec.data, spec.data)


class _XSolver:
    """Solves (H + rho M) X = RHS, RHS being (d, k), for one (weight, rho) pair.

    Eliminates the yhat block, diagonal and positive since diag >= 1, and
    pseudo-inverts the r x r Schur complement S by eigendecomposition; if a mode
    is cut (1e-12 relative), solves raise when their residual shows inconsistency.
    """

    def __init__(self, fact: SweepFactorization, weight: float, rho: float):
        self.cross, self.rho = fact.cross, rho
        self.dinv = 1.0 / (weight + rho * fact.diag)
        self.S = rho * fact.small - rho**2 * (fact.cross.T * self.dinv) @ fact.cross
        evals, evecs = np.linalg.eigh(self.S)
        keep = np.abs(evals) > 1e-12 * max(float(np.abs(evals).max()), np.finfo(float).tiny)
        self.cut = not keep.all()
        self.S_pinv = (evecs[:, keep] / evals[keep]) @ evecs[:, keep].T

    def solve(self, RHS: np.ndarray) -> np.ndarray:
        N = self.dinv.shape[0]
        c = RHS[N:] - self.rho * (self.cross.T @ (self.dinv[:, None] * RHS[:N]))
        t = self.S_pinv @ c
        if self.cut and np.linalg.norm(self.S @ t - c) > 1e-6 * (1.0 + np.linalg.norm(RHS)):
            raise SolverError("x-update system singular beyond pseudo-solve tolerance")
        yhat = self.dinv[:, None] * (RHS[:N] - self.rho * (self.cross @ t))
        return np.vstack([yhat, t])


@dataclass(frozen=True)
class SolveResult:
    """Solver output: optimizer (a (p, d) output stack), low-rank iterate and diagnostics."""

    x: np.ndarray
    Z: np.ndarray
    iterations: int
    primal_res: float
    dual_res: float
    objective: float
    converged: bool
    y_dual: np.ndarray


def nuclear_norm(X: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(X, compute_uv=False)))


def svt(Y: np.ndarray, threshold: float) -> np.ndarray:
    """Singular value thresholding, the proximal map of the nuclear norm.

    Soft-shrinks every singular value of Y by ``threshold``; a zero
    threshold returns Y unchanged.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    Y = np.asarray(Y, dtype=float)
    if threshold == 0.0:
        return Y.copy()
    U, sv, Vt = np.linalg.svd(Y, full_matrices=False)
    shrunk = np.maximum(sv - threshold, 0.0)
    return (U * shrunk) @ Vt


def objective_value(spec: OperatorSpec, quad: QuadraticTerm, X: np.ndarray) -> float:
    return nuclear_norm(apply_operator(X, spec)) + quad.half_quadratic(X)


def solve(
    spec: OperatorSpec,
    quad: QuadraticTerm,
    params: AdmmParams = AdmmParams(),
    fact: SweepFactorization | None = None,
    x0: np.ndarray | None = None,
    z0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
) -> SolveResult:
    """Run the splitting iteration to (approximate) optimality.

    Warm starts pass the previous (X, Z, Y) triple, X a (p, d) output
    stack; by default X starts from a, the measured outputs with zero
    Toeplitz parameters, Z from A(X), and the dual variable from zero.
    """
    if quad.y.shape != (spec.N, spec.p):
        raise ValueError(f"measured outputs have shape {quad.y.shape}, expected {(spec.N, spec.p)}")
    if fact is None:
        fact = SweepFactorization.from_spec(spec)
    elif not fact.matches(spec):
        raise ValueError("factorization was built for a different operator spec")

    N, p, d = spec.N, spec.p, spec.block_dim
    weight = quad.weight
    Ha = np.zeros((p, d))
    Ha[:, :N] = weight * quad.y.T

    if x0 is None:
        x0 = np.zeros((p, d))
        x0[:, :N] = quad.y.T
    Z = apply_operator(x0, spec) if z0 is None else np.array(z0, dtype=float)
    Y = np.zeros_like(Z) if y0 is None else np.array(y0, dtype=float)

    rho = params.rho0
    solver = _XSolver(fact, weight, rho)
    sqrt_pri = math.sqrt(Z.size)
    sqrt_dual = math.sqrt(p * d)

    converged = False
    iterations = 0
    pri = dual = math.inf

    for it in range(1, params.max_iter + 1):
        iterations = it
        RHS = (Ha + rho * apply_adjoint(Z - Y / rho, spec)).T
        X = solver.solve(RHS).T
        AX = apply_operator(X, spec)
        Znew = svt(AX + Y / rho, 1.0 / rho)
        Rmat = AX - Znew
        Y = Y + rho * Rmat
        Sdual = rho * apply_adjoint(Z - Znew, spec)
        Z = Znew

        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Z)) and np.all(np.isfinite(Y))):
            raise SolverError(f"non-finite iterates at iteration {it}")

        pri = float(np.linalg.norm(Rmat))
        dual = float(np.linalg.norm(Sdual))

        eps_pri = sqrt_pri * params.eps_abs + params.eps_rel * max(
            float(np.linalg.norm(AX)), float(np.linalg.norm(Z))
        )
        eps_dual = sqrt_dual * params.eps_abs + params.eps_rel * float(
            np.linalg.norm(apply_adjoint(Y, spec))
        )
        if pri <= eps_pri and dual <= eps_dual:
            converged = True
            break

        # at most one penalty step per iteration, clamped
        if pri > params.mu * dual:
            rho_new = min(rho * params.tau, RHO_MAX)
        elif dual > params.mu * pri:
            rho_new = max(rho / params.tau, RHO_MIN)
        else:
            rho_new = rho
        if rho_new != rho:
            rho = rho_new
            solver = _XSolver(fact, weight, rho)

    return SolveResult(
        x=X,
        Z=Z,
        iterations=iterations,
        primal_res=pri,
        dual_res=dual,
        objective=objective_value(spec, quad, X),
        converged=converged,
        y_dual=Y,
    )


def sweep(
    spec: OperatorSpec,
    y_measured: np.ndarray,
    lambda_grid,
    params: AdmmParams = AdmmParams(),
    fact: SweepFactorization | None = None,
) -> list[SolveResult | None]:
    """Solve the program over an ascending grid of lambdas.

    The pieces of the coefficient matrix are computed once and shared by
    every (lambda, rho) x-update; each solve is warm-started from the
    previous successful grid point.  A failed grid point yields None
    instead of aborting.
    """
    grid = np.asarray(lambda_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("lambda grid entries must be finite")
    if np.any(grid <= 0):
        raise ValueError("lambda grid entries must be positive")
    if np.any(np.diff(grid) < 0):
        raise ValueError("lambda grid must be ascending")
    if fact is None:
        fact = SweepFactorization.from_spec(spec)

    results: list[SolveResult | None] = []
    carry_x = carry_z = carry_y = None
    for lam in grid:
        quad = build_quadratic(y_measured, lam)
        try:
            res = solve(spec, quad, params, fact, x0=carry_x, z0=carry_z, y0=carry_y)
        except (SolverError, np.linalg.LinAlgError):
            results.append(None)
            continue
        results.append(res)
        carry_x, carry_z, carry_y = res.x, res.Z, res.y_dual
    return results
