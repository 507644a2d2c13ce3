"""Operator-splitting solver for the nuclear-norm identification program.

The program solved is

    minimize  ||A(x)||_*  +  (lambda / N) * sum_k ||y(k) - yhat(k)||^2

over the (p, d) output stack X, row i being [yhat_i, v_i, w_i] (see
structured_ops).  The fit term is fixed by the measured outputs y and
lambda alone: it is 0.5 (X - a)^T H (X - a) with a = [y', 0] and
H = (2 lambda / N) I on the yhat block and zero elsewhere.  The
splitting introduces Z = A(X) and runs in scaled form, carrying the
scaled dual U = Y / rho instead of Y (Boyd et al., "Distributed
optimization and statistical learning via ADMM", 2011, sec. 3.1.1):

    X      <- argmin  0.5 (X - a)^T H (X - a) + (rho/2) ||A(X) - Z + U||^2
    W       = A(X) + U
    Z      <- svt(W, 1/rho)
    U      <- W - Z

with residual-balanced penalty adaptation: rho starts at RHO0 and, when
one residual exceeds mu times the other, steps by tau = min(sqrt(ratio),
TAU_MAX) towards balancing them (see _penalty_step); a step from rho to
rho' rescales U by rho / rho', so Y = rho U does not change with it.  A
solve starts from Z = A(a), Y = 0, or from a previous solve's Z and Y
(``SolveResult.y_dual`` is Y = rho U).  A sweep warm-starts each lambda
from the last successful one, and, once the two points before it both
solved, from their (Z, Y) path extrapolated: Z_(k-1) + theta (Z_(k-1) -
Z_(k-2)), and Y alike, theta being PREDICT times the ratio of the last two
log-lambda steps, at most 1 (PREDICT on a log-spaced grid).
The X step solves (H + rho M) X_i = H a_i + rho adj(Z)_i - adj(Y)_i for
every output row i, where M is the shared coefficient matrix.  Its yhat
block is diagonal, so for each (lambda, rho) pair the solve eliminates
that block and works with a Schur complement of side r = m*s + p*(s-1),
built in O(s r^2) from the interior Gram held by the factorization and
inverted through its Cholesky factor, or pseudo-inverted when it is
singular or nearly so (see _XSolver).

The iteration is a fixed-point map on the Douglas-Rachford state W: with
Z = svt(W, 1/rho) and U = W - Z, one step gives T(W) = A(X) + U, whose
residual T(W) - W is g = A(X) - Z.  Once rho settles, plain steps shrink
g at a slow linear rate, so the W that goes to svt is taken from type-II
Anderson acceleration instead (Zhang, O'Donoghue & Boyd, "Globally
convergent type-I Anderson acceleration for nonsmooth optimization",
SIAM J. Optim. 30(4), 2020): with dT and dG the last AA_MEMORY
differences of T(W) and g, gamma minimises ||g - dG gamma|| through the
normal equations (Tikhonov weight AA_REG relative to the trace of their
Gram), solved by a Cholesky factorization in Python floats, and W <-
T(W) - dT gamma.  The differences are not stored: rings
hold the last AA_MEMORY + 1 values of T(W) and of g, one product of the
new g against the g ring updates the small Gram of the values, ||g||
included, and the differences' Gram and dG' g follow from it by small
algebra; W is then one product of the coefficients over the T ring.
The memory is cleared when ||g|| grows, and on every penalty step,
since T depends on rho; without memory the step is the plain one,
W = T(W).

Each iteration applies the adjoint once, to the new Z, and carries no
running adj(Y): the X step's optimality condition gives adj(T(W)) =
adj(Z) + H (a - X) / rho, so
adj(Y_new) = rho (adj(T(W)) - adj(dT) gamma - adj(Z_new)) (Boyd et al.,
sec. 3.3), with adj(dT) kept as the p x d differences of adj(T(W)); M X
is never formed.  The dual residual
||H (X - a) + adj(Y_new)|| is then rho (adj(Z) - adj(Z_new)) less the
extrapolation's rho adj(dT) gamma, and the primal one ||A(X) - Z_new||,
both exact as long as the X step is.  Z is (p*s) x (N-s+1), and svt
works on the p*s x p*s Gram of its rows, the small side on all but the
shortest records.  That Gram's top min(p*s, N-s+1) eigenvectors, with the
shrunk spectrum, are already Z's thin SVD: svt hands them on, and a result
keeps the last iteration's as ``SolveResult.z_svd`` for the extraction,
which then needs no SVD of Z.

Every iterate also certifies itself.  The program's Lagrange dual
(Boyd & Vandenberghe, "Convex Optimization", sec. 5.5) is finite at a Y
with ||Y||_2 <= 1 whose adjoint has no Toeplitz part, and Y = rho U
already has the first property.  The Toeplitz part D theta is projected
out with the pseudo-inverse of small = D*D that the factorization holds,
and the result Y' is scaled back into the unit ball, so a lower bound g
on the optimum and the primal value P at X follow.  The scale is first
1 + ||D theta||_F, which adj(Y), A(X) and the factorization give with no
array of Z's size formed.  When that gap misses the stop below but the
gap at 1 - ||D theta||_F would meet it, Y' is formed in the residual's
buffer by one Toeplitz-only product (D theta has no Hankel part) and
scaled by its exact ||Y'||_2, which is much closer to 1 (see _relative_gap).
Once both residuals are within GAP_GATE times their thresholds, a solve
stops with converged=True also when P - g <= GAP_TOL * eps_rel *
max(1, |P|), as Liu & Vandenberghe ("Interior-point method for nuclear
norm approximation with application to system identification", SIAM J.
Matrix Anal. Appl. 31(3), 2009) stop on the duality gap.  The residual
rule is unchanged and still stops a solve on its own; the gap of every
result, whichever rule stopped it, is ``SolveResult.gap``.  Where the fit
weight dominates, the closed-form adj(Y) loses its digits and the bound
can pass the optimum: a gap below -GAP_TOL * eps_rel or not finite is nan.

A sweep allocates one workspace (_Workspace) that each of its solves
iterates in: A(X), the primal residual R, the rings of T(W) and g
(2 AA_MEMORY + 4 Z-sized arrays in all), the adjoint's scratch, two
(p, s, N + 1) arrays, about two more, and the ring of adj(dT), p x d
arrays; a direct solve allocates its own.  Each solve adds two Z-sized
arrays of its own, U (whose buffer also takes the extrapolated W) and
one buffer for every Z, which become the result's y_dual and Z.  The
operator, svt, the adjoint and the ring updates write into these through
``out`` or ``scratch``, so an iteration makes no Z-sized array (only
svt's SVD fallback allocates its own factors); the gap's exact scale
reuses R once the residual test has read it.  ||Z|| comes from svt's shrunk spectrum and ||g|| from
the ring's product.  A non-finite entry of A(X) or Z shows in the norm
of A(X) or of R = A(X) - Z, which the stopping rule takes anyway, and
svt rejects a non-finite W, so no separate finiteness pass over Z-sized
arrays is made.

On short records, N a small multiple of s as in the paper's protocol, an
iteration costs about the same whatever N is, since its time goes to
numpy calls on small arrays rather than to arithmetic.  So the iteration
keeps its small algebra out of numpy's general routines where the
wrappers would cost more than the work: the operator and the adjoint run
on index plans made once per (m, p, s) (see structured_ops), svt shrinks
over the kept eigenvectors only, the Anderson weights come from an
at most 3 x 3 Cholesky factorization in Python floats, and the gap takes
its inner products with np.vdot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SolverError
from .structured_ops import OperatorSpec, _toeplitz_product, apply_adjoint, apply_operator, build_M

__all__ = [
    "AdmmParams",
    "SweepFactorization",
    "SolveResult",
    "nuclear_norm",
    "objective_value",
    "svt",
    "solve",
    "sweep",
]

RHO0 = 1.0
RHO_MIN = 1e-6
RHO_MAX = 1e6
# the largest factor of one penalty step (see _penalty_step)
TAU_MAX = 10.0
# a sweep's predicted start goes this fraction of the last step along the lambda path
PREDICT = 0.5
# Anderson acceleration: the differences it keeps, and its Tikhonov weight
# relative to the trace of their Gram
AA_MEMORY = 3
AA_REG = 1e-10
# the duality gap is evaluated once both residuals are within GAP_GATE times
# their thresholds, and stops the solve at GAP_TOL * eps_rel
GAP_GATE = 10.0
GAP_TOL = 0.3
# svt falls back from the Gram to an SVD below this sigma / sigma_max
GRAM_CUTOFF = 1e-4
# the X step inverts its Schur complement by Cholesky below this bound on its condition
CHOLESKY_COND = 1e10


@dataclass(frozen=True)
class AdmmParams:
    """Solver settings; defaults follow the standard short-data protocol.

    eps_abs and eps_rel set the residual rule's thresholds; eps_rel also sets
    the duality-gap stop, GAP_TOL * eps_rel relative to max(1, |objective|).
    At the defaults a solve that stops on the gap is certified within 3e-4 of
    the optimum relative to max(1, |objective|), looser than the 1e-4 of
    acceptance criterion 04; a solve that stops on the residual rule is
    certified by its own ``SolveResult.gap``, whatever that reads.  A
    certificate of 1e-4 needs eps_rel <= 1e-4 / GAP_TOL.
    """

    max_iter: int = 200
    eps_abs: float = 1e-6
    eps_rel: float = 1e-3
    mu: float = 10.0

    def __post_init__(self):
        if self.max_iter < 1 or self.eps_abs <= 0 or self.eps_rel <= 0 or self.mu <= 1:
            raise ValueError("need max_iter >= 1, eps_abs > 0, eps_rel > 0 and mu > 1")


@dataclass(frozen=True)
class SweepFactorization:
    """Pieces of M (see build_M), reused across lambdas: the Gram ``inner`` of the
    cross rows whose diag is min(s, ncols), the other 2 (k - 1) rows ``edge_rows``
    with their indices ``edge``, and ``small_pinv``, the pseudo-inverse of small
    that the duality gap projects with."""

    spec: OperatorSpec
    diag: np.ndarray
    cross: np.ndarray
    small: np.ndarray
    edge: np.ndarray
    edge_rows: np.ndarray
    inner: np.ndarray
    small_pinv: np.ndarray

    @classmethod
    def from_spec(cls, spec: OperatorSpec) -> "SweepFactorization":
        diag, cross, small = build_M(spec)
        k = min(spec.s, spec.ncols)
        interior = cross[diag == k]
        edge = np.flatnonzero(diag < k)
        return cls(
            spec, diag, cross, small, edge=edge, edge_rows=cross[edge],
            inner=interior.T @ interior, small_pinv=np.linalg.pinv(small, hermitian=True),
        )

    def matches(self, spec: OperatorSpec) -> bool:
        """Same dimensions and the same record: M depends on the data, not only on its size."""
        return self.spec == spec and np.array_equal(self.spec.data, spec.data)


def _norm(v: np.ndarray) -> float:
    """Frobenius norm: for a C-contiguous array, bit for bit np.linalg.norm's, without its dispatch."""
    return math.sqrt(np.vdot(v, v))


class _XSolver:
    """Solves (H + rho M) X = RHS, RHS being (d, k), for one (weight, rho) pair.

    Eliminates the yhat block, diagonal and positive since diag >= 1, and
    inverts the r x r Schur complement S, positive semidefinite as a Schur
    complement of H + rho M.  S^-1 comes from a Cholesky factor L, as
    L^-T L^-1.  When the factorization fails or ||S||_F ||S^-1||_F >=
    CHOLESKY_COND, which bounds cond(S) from above, or is not finite, S is
    pseudo-inverted instead, cutting modes at most 1e-12 of the largest (``cut``), and its
    solves raise when their residual shows inconsistency.
    S = rho small - rho^2 cross' diag(dinv) cross is built from the interior
    rows' Gram, which share one dinv, plus the edge rows: O(s r^2), not O(N r^2).
    """

    def __init__(self, fact: SweepFactorization, weight: float, rho: float):
        self.cross, self.rho = fact.cross, rho
        dinv = 1.0 / (weight + rho * fact.diag)
        # a column, which scales the rows of a right-hand side's yhat block
        self.dinv = dinv[:, None]
        dinv_inner = 1.0 / (weight + rho * min(fact.spec.s, fact.spec.ncols))
        rows = fact.edge_rows
        gram = dinv_inner * fact.inner + (rows.T * dinv[fact.edge]) @ rows
        self.S = rho * fact.small - rho**2 * gram
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(self.S))
            # tiny pivots can overflow the inverse or the bound: not finite, it is cut
            with np.errstate(over="ignore", invalid="ignore"):
                self.S_pinv = L_inv.T @ L_inv
                self.cut = not _norm(self.S) * _norm(self.S_pinv) < CHOLESKY_COND
        except np.linalg.LinAlgError:
            self.cut = True
        if self.cut:
            self.S_pinv = np.linalg.pinv(self.S, rcond=1e-12, hermitian=True)

    def solve(self, RHS: np.ndarray) -> np.ndarray:
        N = self.dinv.shape[0]
        c = RHS[N:] - self.rho * (self.cross.T @ (self.dinv * RHS[:N]))
        t = self.S_pinv @ c
        if self.cut and np.linalg.norm(self.S @ t - c) > 1e-6 * (1.0 + np.linalg.norm(RHS)):
            raise SolverError("x-update system singular beyond pseudo-solve tolerance")
        X = np.empty((N + t.shape[0], t.shape[1]))
        X[N:] = t
        np.multiply(self.dinv, RHS[:N] - self.rho * (self.cross @ t), out=X[:N])
        return X


@dataclass(frozen=True)
class SolveResult:
    """Solver output: optimizer (a (p, d) output stack), low-rank iterate and diagnostics.

    Z is the last svt's result, and ``z_svd`` the factors of Z that svt computed
    on the way, which the extraction reads instead of an SVD of Z.
    """

    x: np.ndarray
    Z: np.ndarray
    iterations: int
    primal_res: float
    dual_res: float
    converged: bool
    y_dual: np.ndarray
    # the certified gap at x relative to max(1, |objective|); inf at lambda = 0, nan if void
    gap: float = math.inf
    # (U, sigma): Z's min(p*s, N-s+1) left singular vectors and its singular values,
    # descending and exactly 0 past its rank, as the svt that made Z computed them
    # (see svt); None on a Z no svt made, such as a predicted start
    z_svd: tuple | None = field(default=None, repr=False, compare=False)
    # (Z, adj(Z)) as the solve left them: a warm start from this result reads
    # adj(Z) here instead of applying the adjoint, while Z is still that array
    _adj_z: tuple = field(default=(None, None), repr=False, compare=False)


def nuclear_norm(X: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(X, compute_uv=False)))


def svt(
    Y: np.ndarray, threshold: float, out: np.ndarray | None = None, factors: list | None = None
) -> np.ndarray:
    """Singular value thresholding, the proximal map of the nuclear norm.

    Soft-shrinks every singular value of Y by ``threshold``.  Works on
    the Gram Y Y' of Y's rows, which is built for the solver's Z and its
    p*s rows, not for a Y with many: with Y Y' = U diag(sigma^2) U', the
    result is U_k diag(f_k) U_k' Y, f = (sigma - threshold) / sigma over
    the k kept eigenvectors, those of sigma above the threshold.  The
    Gram squares the condition number, so a kept sigma below GRAM_CUTOFF *
    sigma_max would lose accuracy; then an SVD of Y is used instead.  A
    non-finite Y raises SolverError before any factorization, and a
    negative or nan threshold ValueError.

    With ``out``, a float array of Y's shape, the result is written into
    it and ``out`` is returned, on every path: the SVD fallback writes its
    product into it too (the SVD's own factors are still allocated).  The
    values are those the call without ``out`` returns, bit for bit.

    With ``factors``, a list, its contents are replaced by the result's
    thin SVD as far as this call computed it: min(rows, cols) left
    singular vectors, orthonormal columns, and the shrunk spectrum
    max(sigma - threshold, 0), descending and exactly 0 past the result's
    rank: the Gram's top eigenvectors, or the fallback SVD's left vectors.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    Y = np.asarray(Y, dtype=float)
    if out is None:
        out = np.empty(Y.shape)
    if factors is not None:
        factors.clear()
    G = Y @ Y.T
    if not np.isfinite(G).all():
        raise SolverError("non-finite matrix passed to singular value thresholding")
    evals, U = np.linalg.eigh(G)
    sigma = np.sqrt(np.maximum(evals, 0.0))
    # sigma ascends, so the kept values, those above the threshold, are its suffix [first:]
    first = int(sigma.searchsorted(threshold, side="right"))
    if first < sigma.size and sigma[first] < GRAM_CUTOFF * sigma[-1]:
        U, sv, Vt = np.linalg.svd(Y, full_matrices=False)
        shrunk = np.maximum(sv - threshold, 0.0)
        if factors is not None:
            factors.extend((U, shrunk))
        return np.matmul(U * shrunk, Vt, out=out)
    shrunk = np.zeros(sigma.size)
    kept = np.subtract(sigma[first:], threshold, out=shrunk[first:])
    U_kept = U[:, first:]
    if factors is not None:
        k = min(Y.shape)
        factors.extend((U[:, ::-1][:, :k], shrunk[::-1][:k]))
    return np.matmul((U_kept * (kept / sigma[first:])) @ U_kept.T, Y, out=out)


def _measured(spec: OperatorSpec, y: np.ndarray, lam: float) -> np.ndarray:
    """Measured outputs as an (N, p) array, after checking them and 0 <= lambda < inf."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != (spec.N, spec.p):
        raise ValueError(f"measured outputs have shape {y.shape}, expected {(spec.N, spec.p)}")
    return y


def objective_value(spec: OperatorSpec, y: np.ndarray, lam: float, X: np.ndarray) -> float:
    """The program's objective ||A(X)||_* + (lam / N) sum_k ||y(k) - yhat(k)||^2 at X."""
    diff = X[:, : spec.N] - _measured(spec, y, lam).T
    return nuclear_norm(apply_operator(X, spec)) + 0.5 * (2.0 * lam / spec.N) * float(np.sum(diff * diff))


def _relative_gap(
    fact: SweepFactorization, y_t: np.ndarray, weight: float, X: np.ndarray, AX: np.ndarray,
    adjY: np.ndarray, U: np.ndarray, rho: float, out: np.ndarray, eps_rel: float,
) -> float:
    """(P - g) / max(1, |P|): P the objective at X, g a dual bound built from adj(Y).

    Y = rho U is the dual iterate, with ||Y||_2 <= 1, and adjY its adjoint.
    Its Toeplitz part is projected out, Y' = Y - D theta with theta =
    adj(Y)[:, N:] small^+ (D the operator's Toeplitz part, small = D*D), and
    Y' / c is dual feasible for every c >= ||Y'||_2, so g(c) = <V, y> / c -
    ||V||^2 / (2 w c^2), V the yhat part of adj(Y'), bounds the optimum from
    below.  P takes the nuclear norm of A(X) from the eigenvalues of the Gram
    of its rows.  The bound first takes c = 1 + ||D theta||_F, known
    from adjY alone.  When that gap is above the stop tolerance GAP_TOL *
    eps_rel but the gap at c = 1 - ||D theta||_F would not be, Y' is formed
    in ``out``, a Z-sized array that is overwritten, from the Toeplitz
    product T(theta / rho) data alone (``structured_ops._toeplitz_product``,
    no stack of X's size), c = ||Y'||_2 (1 + 1e-12) is taken from the
    eigenvalues of the Gram of its rows, and the smaller of the two
    gaps is returned.  Infinite at weight 0, where g is finite only for
    V = 0; nan, also from an overflowing adj(Y), when not finite or below
    -GAP_TOL * eps_rel.
    """
    if weight == 0.0:
        return math.inf
    spec = fact.spec
    N, tol = spec.N, GAP_TOL * eps_rel
    with np.errstate(over="ignore", invalid="ignore"):
        theta = adjY[:, N:] @ fact.small_pinv
        d_theta = math.sqrt(max(float(np.vdot(theta @ fact.small, theta)), 0.0))
        V = adjY[:, :N] - theta @ fact.cross.T
        Vy, VV = float(np.vdot(V, y_t)), float(np.vdot(V, V))
    nuclear = float(np.sqrt(np.maximum(np.linalg.eigvalsh(AX @ AX.T), 0.0)).sum())
    diff = X[:, :N] - y_t
    primal = nuclear + 0.5 * weight * float(np.vdot(diff, diff))
    scale = max(1.0, abs(primal))

    def gap_at(c: float) -> float:
        return (primal - (Vy / c - VV / (2.0 * weight * c * c))) / scale

    gap = gap_at(1.0 + d_theta)
    if gap > tol and d_theta < 1.0 and gap_at(1.0 - d_theta) <= tol:
        # Y' / rho = U - T(theta / rho) data, D theta / rho having no Hankel part
        np.subtract(U, _toeplitz_product(theta / rho, spec, out), out=out)
        top = float(np.linalg.eigvalsh(out @ out.T)[-1])
        c = rho * math.sqrt(max(top, 0.0)) * (1.0 + 1e-12)
        if c > 0.0:
            gap = min(gap, gap_at(c))
    return gap if -tol <= gap < math.inf else math.nan


def _cholesky_solve(A: list, reg: float, b: list) -> list | None:
    """x with (A + reg I) x = b, for 1 to 3 unknowns, by a Cholesky factorization in
    Python floats that reads A's lower triangle; None when a pivot is not positive
    and finite or x is not finite.  Written out for the at most AA_MEMORY = 3
    unknowns of an Anderson step, where numpy's wrappers cost more than the arithmetic."""
    p0 = A[0][0] + reg
    if not 0.0 < p0 < math.inf:
        return None
    l00 = math.sqrt(p0)
    z0 = b[0] / l00
    if len(b) == 1:
        x = [z0 / l00]
    else:
        l10 = A[1][0] / l00
        p1 = A[1][1] + reg - l10 * l10
        if not 0.0 < p1 < math.inf:
            return None
        l11 = math.sqrt(p1)
        z1 = (b[1] - l10 * z0) / l11
        if len(b) == 2:
            x1 = z1 / l11
            x = [(z0 - l10 * x1) / l00, x1]
        else:
            l20 = A[2][0] / l00
            l21 = (A[2][1] - l20 * l10) / l11
            p2 = A[2][2] + reg - l20 * l20 - l21 * l21
            if not 0.0 < p2 < math.inf:
                return None
            l22 = math.sqrt(p2)
            x2 = (b[2] - l20 * z0 - l21 * z1) / l22 / l22
            x1 = (z1 - l21 * x2) / l11
            x = [(z0 - l10 * x1 - l20 * x2) / l00, x1, x2]
    return x if math.isfinite(sum(x)) else None


def _anderson_weights(V: list) -> list | None:
    """gamma of the Anderson step from V, the Gram of the kept g values, oldest first.

    With dV the differences of V's consecutive rows, <dg_i, g_j>, and G
    those of dV's consecutive columns, <dg_i, dg_j>, gamma solves the
    normal equations (G + reg I) gamma = dV[:, -1], reg = AA_REG
    trace(G).  None, which clears the memory, when reg is not positive
    and finite, or the system is not positive definite and finite.
    """
    n = len(V) - 1
    dV = [[b - a for a, b in zip(V[i], V[i + 1])] for i in range(n)]
    G = [[row[j + 1] - row[j] for j in range(n)] for row in dV]
    reg = AA_REG * sum([G[i][i] for i in range(n)])
    if not 0.0 < reg < math.inf:
        return None
    return _cholesky_solve(G, reg, [row[n] for row in dV])


def _penalty_step(rho: float, pri: float, dual: float, mu: float) -> float:
    """The penalty after one iteration's residuals, by residual balancing.

    When one residual exceeds mu times the other, rho moves by tau =
    min(sqrt(pri / dual), TAU_MAX) towards balancing them, up when the
    primal residual leads and down by the inverse ratio when the dual one
    does (Wohlberg, "ADMM penalty parameter selection by residual
    balancing", arXiv:1704.06209, 2017; Boyd et al. 2011, sec. 3.4.1),
    clamped to [RHO_MIN, RHO_MAX]; otherwise rho stays.  A zero residual
    takes TAU_MAX, with no division; mu = inf never steps.
    """
    if pri > mu * dual:
        tau = TAU_MAX if pri >= TAU_MAX**2 * dual else math.sqrt(pri / dual)
        return min(rho * tau, RHO_MAX)
    if dual > mu * pri:
        tau = TAU_MAX if dual >= TAU_MAX**2 * pri else math.sqrt(dual / pri)
        return max(rho / tau, RHO_MIN)
    return rho


def _z_adjoint(res: SolveResult, spec: OperatorSpec) -> np.ndarray:
    """adj(Z) of a result: the one its solve ended with, or applied afresh if its Z was replaced."""
    source, adjZ = res._adj_z
    return adjZ if source is res.Z else apply_adjoint(res.Z, spec)


def _predicted_start(last: SolveResult, before: SolveResult, theta: float, spec: OperatorSpec) -> SolveResult:
    """A warm start past ``last`` on the path through ``before``: Z + theta (Z - Z_before).

    Y is extrapolated alike, and so is adj(Z), by linearity, from the two
    results' own; neither result is written.
    """

    def ahead(now: np.ndarray, then: np.ndarray) -> np.ndarray:
        out = np.subtract(now, then)
        out *= theta
        out += now
        return out

    Z = ahead(last.Z, before.Z)
    adjZ = ahead(_z_adjoint(last, spec), _z_adjoint(before, spec))
    return replace(last, Z=Z, y_dual=ahead(last.y_dual, before.y_dual), z_svd=None, _adj_z=(Z, adjZ))


class _Workspace:
    """The arrays a solve iterates in, allocated once per sweep and lent to each of its solves.

    A(X), the primal residual R, the rings of the last AA_MEMORY + 1 values
    of T(W) and of g (Z-sized), the ring of adj(T(W)) differences with this
    and the last iteration's adj(T(W)) (p x d), and apply_adjoint's
    (2, p, s, N + 1) scratch.  A solve writes each entry it reads first, so
    whatever an earlier solve left in them, finite or not, never reaches it.
    """

    def __init__(self, spec: OperatorSpec):
        p, d, slots = spec.p, spec.block_dim, AA_MEMORY + 1
        shape = (p * spec.s, spec.ncols)
        self.AX, self.R = np.empty(shape), np.empty(shape)
        self.T, self.G = np.empty((slots,) + shape), np.empty((slots,) + shape)
        self.adj_diff, self.adj_T = np.empty((slots, p, d)), np.empty((2, p, d))
        self.scratch = np.empty((2, p, spec.s, spec.N + 1))


def _next_slot(order: list) -> tuple[int, int, int]:
    """(k, lo, hi): the ring slot k of the next value, and the run of slots lo..hi - 1
    that it fills with the values kept, given their slots, oldest first.

    k is the oldest's slot when all AA_MEMORY + 1 are kept, otherwise one
    next to the kept ones, which so always fill a contiguous run.
    """
    if not order:
        return 0, 0, 1
    if len(order) == AA_MEMORY + 1:
        return order[0], 0, AA_MEMORY + 1
    lo, hi = min(order), max(order) + 1
    return (hi, lo, hi + 1) if hi <= AA_MEMORY else (lo - 1, lo - 1, hi)


def solve(
    spec: OperatorSpec,
    y: np.ndarray,
    lam: float,
    params: AdmmParams = AdmmParams(),
    fact: SweepFactorization | None = None,
    warm: SolveResult | None = None,
    workspace: _Workspace | None = None,
) -> SolveResult:
    """Run the accelerated splitting iteration to (approximate) optimality.

    The measured outputs y, (N, p) or (N,), and lam >= 0 fix the fit term.
    The iteration starts from Z = A(a) and Y = 0, or from the Z and Y of
    ``warm``, a previous result on the same spec; X needs no start, and
    ``warm``'s arrays are only read.  The start applies the adjoint once:
    to A(a) from a cold start, and to Y from a warm one, whose adj(Z) the
    result that made it holds (recomputed if its Z was replaced).  Then
    each iteration applies the adjoint once, to the new Z, and svt once,
    to the state W = T(W) - dT gamma that Anderson acceleration over the
    last AA_MEMORY steps extrapolates (see above).  The memory is cleared
    when the residual ||g|| = ||A(X) - Z|| grows and on every penalty
    step.  adj(Y) is not carried but rebuilt in closed form, exact as long
    as the X step is, which _XSolver checks when it pseudo-inverts; so
    ``primal_res`` and ``dual_res`` are ||A(x) - Z|| and
    ||H (x - a) + adj(y_dual)|| of the result, the dual one including the
    extrapolation's term -rho adj(dT) gamma.  The solve stops converged
    on the residual rule of ``params``, or once both residuals are within
    GAP_GATE times its thresholds and the certified duality gap is at most
    GAP_TOL * eps_rel relative to max(1, |objective|); ``gap`` of the
    result is that certificate at x, evaluated once more at the end when
    the last iteration did not evaluate it, inf at lam = 0, where the dual
    bound is finite only at a point the iterates do not reach, and nan where
    void (see above).  A non-finite iterate raises SolverError naming its iteration.
    ``workspace``, the arrays a sweep lends each of its solves, is
    allocated here when not given; the result's Z and y_dual are the
    solve's own arrays either way.
    """
    lam = float(lam)
    y = _measured(spec, y, lam)
    if fact is None:
        fact = SweepFactorization.from_spec(spec)
    elif not fact.matches(spec):
        raise ValueError("factorization was built for a different operator spec")

    N, p, d = spec.N, spec.p, spec.block_dim
    weight = 2.0 * lam / N
    a = np.zeros((p, d))
    a[:, :N] = y.T
    Ha = weight * a

    shape = (p * spec.s, spec.ncols)
    ws = _Workspace(spec) if workspace is None else workspace
    if ws.AX.shape != shape or ws.adj_T.shape[2] != d:
        raise ValueError("workspace was built for other dimensions")
    AX, R, scratch = ws.AX, ws.R, ws.scratch
    flat_T, flat_G, flat_adj = (ring.reshape(AA_MEMORY + 1, -1) for ring in (ws.T, ws.G, ws.adj_diff))
    # <g_i, g_j> of the g ring's slots; only the kept values' entries are read
    gram = np.empty((AA_MEMORY + 1, AA_MEMORY + 1))
    # the solve's own Z buffer and U, which become the result's Z and y_dual:
    # the iteration writes into these and the workspace only, so the warm
    # start and earlier results are never overwritten
    Zbuf = np.empty(shape)
    rho = RHO0
    if warm is None:
        Z = apply_operator(a, spec, out=Zbuf)
        U, adjZ, adjY = np.zeros(shape), apply_adjoint(Z, spec, scratch), np.zeros((p, d))
    else:
        Z, U = warm.Z, warm.y_dual / rho
        adjZ = _z_adjoint(warm, spec)
        adjY = apply_adjoint(warm.y_dual, spec, scratch)
    solver = _XSolver(fact, weight, rho)
    sqrt_pri = math.sqrt(Z.size)
    sqrt_dual = math.sqrt(p * d)

    converged = False
    iterations = 0
    pri = dual = math.inf
    # the ring slots of the values the memory keeps, oldest first; empty after
    # a penalty step, when no T(W) at this rho is there to difference against
    order: list = []
    last_norm = math.inf
    gap, gap_at = math.inf, 0
    z_factors: list = []

    for it in range(1, params.max_iter + 1):
        iterations = it
        X = solver.solve((Ha + rho * adjZ - adjY).T).T
        apply_operator(X, spec, out=AX)
        fit = Ha[:, :N] - weight * X[:, :N]
        k, lo, hi = _next_slot(order)
        T, g = ws.T[k], ws.G[k]
        np.add(AX, U, out=T)
        np.subtract(AX, Z, out=g)
        adjT, adj_last = ws.adj_T[it % 2], ws.adj_T[(it + 1) % 2]
        np.copyto(adjT, adjZ)
        adjT[:, :N] += fit / rho
        # one product of g against the kept values and itself
        kept = order[1:] if len(order) == AA_MEMORY + 1 else order
        gram[k, lo:hi] = gram[lo:hi, k] = flat_G[lo:hi] @ flat_G[k]
        g_norm = math.sqrt(max(gram[k, k], 0.0))
        if not order or g_norm > last_norm:
            order = [k]
            # no difference ends at the oldest value: its weight below is 0, on a finite row
            ws.adj_diff[k] = 0.0
        else:
            np.subtract(adjT, adj_last, out=ws.adj_diff[k])
            order = kept + [k]
            rows = gram.tolist()
            gamma = _anderson_weights([[rows[i][j] for j in order] for i in order])
            if gamma is None:
                order = [k]
        last_norm = g_norm

        if len(order) > 1:
            # U is spent: its buffer takes the extrapolated state, one product over the
            # kept T(W), slots lo to hi: W = T - sum_i gamma_i (T_(i+1) - T_i), oldest
            # first; beta weighs each adj(dT) at the slot of its T_(i+1) alike
            ext = [0.0] + gamma + [1.0]
            alpha, beta = [0.0] * (hi - lo), [0.0] * (hi - lo)
            for i, slot in enumerate(order):
                alpha[slot - lo] = ext[i + 1] - ext[i]
                beta[slot - lo] = ext[i]
            W = U
            np.matmul(alpha, flat_T[lo:hi], out=W.reshape(-1))
        else:
            W = T
        Z = svt(W, 1.0 / rho, out=Zbuf, factors=z_factors)
        np.subtract(W, Z, out=U)
        np.subtract(AX, Z, out=R)

        # a non-finite entry of AX or Z shows in the norm of AX or R; svt's shrunk
        # spectrum gives ||Z||
        pri, norm_ax = _norm(R), _norm(AX)
        # the spectrum is a reversed view, summed as np.linalg.norm sums it
        spectrum = z_factors[1]
        norm_z = math.sqrt(spectrum.dot(spectrum))
        if not (math.isfinite(pri + norm_ax) and np.isfinite(X).all()):
            raise SolverError(f"non-finite iterates at iteration {it}")

        adjZnew = apply_adjoint(Z, spec, scratch)
        Sdual = rho * (adjZ - adjZnew)
        if len(order) > 1:
            Sdual -= rho * np.matmul(beta, flat_adj[lo:hi]).reshape(p, d)
        adjY = Sdual.copy()
        adjY[:, :N] += fit
        adjZ = adjZnew
        dual = _norm(Sdual)

        eps_pri = sqrt_pri * params.eps_abs + params.eps_rel * max(norm_ax, norm_z)
        # both stops need the primal residual within GAP_GATE of its threshold
        if pri <= GAP_GATE * eps_pri:
            # inf, without a warning from np.vdot, once the fit weight overflows adj(Y)'s norm
            eps_dual = sqrt_dual * params.eps_abs + params.eps_rel * _norm(adjY)
            if pri <= eps_pri and dual <= eps_dual:
                converged = True
                break
            if dual <= GAP_GATE * eps_dual:
                gap = _relative_gap(fact, a[:, :N], weight, X, AX, adjY, U, rho, R, params.eps_rel)
                gap_at = it
                if gap <= GAP_TOL * params.eps_rel:
                    converged = True
                    break

        # at most one penalty step per iteration; Y = rho U is kept
        rho_new = _penalty_step(rho, pri, dual, params.mu)
        if rho_new != rho:
            U *= rho / rho_new
            rho = rho_new
            solver = _XSolver(fact, weight, rho)
            order = []

    if gap_at != iterations:
        gap = _relative_gap(fact, a[:, :N], weight, X, AX, adjY, U, rho, R, params.eps_rel)
    U *= rho  # the dual Y
    return SolveResult(
        x=X,
        Z=Z,
        iterations=iterations,
        primal_res=pri,
        dual_res=dual,
        converged=converged,
        y_dual=U,
        gap=gap,
        z_svd=tuple(z_factors),
        _adj_z=(Z, adjZ),
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
    every (lambda, rho) x-update.  The first point starts cold and the
    second from the first.  When the two points before it both solved, a
    point starts from their path extrapolated (see _predicted_start), with
    theta = PREDICT times the ratio of its log-lambda step to the last one,
    at most 1; otherwise, and after a repeated lambda, it starts from the last
    successful point.  A failed grid point yields None instead of aborting.
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

    workspace = _Workspace(spec)
    results: list[SolveResult | None] = []
    warm = None
    for k, lam in enumerate(grid):
        start = warm
        if k >= 2 and results[-1] is not None and results[-2] is not None:
            step = math.log(grid[k - 1] / grid[k - 2])
            if step > 0.0:
                # at most 1, no further past the last point than it lies past the one
                # before: after a far shorter step their difference is mostly solver
                # tolerance, not the path's slope
                theta = min(PREDICT * math.log(lam / grid[k - 1]) / step, 1.0)
                start = _predicted_start(results[-1], results[-2], theta, spec)
        try:
            warm = solve(spec, y_measured, lam, params, fact, warm=start, workspace=workspace)
            results.append(warm)
        except (SolverError, np.linalg.LinAlgError):
            results.append(None)
    return results
