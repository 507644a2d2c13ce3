"""Structured-matrix operators behind the identification program.

The convex program optimizes over a predicted-output sequence and the
per-lag Markov-parameter blocks of two lower block-Toeplitz matrices.
The unknowns are held as one (p, block_dim) output stack X, row i being
[yhat_i, v_i by channel, w_i by channel]; one lag/channel mask fixes the
order of the Toeplitz part, and ``toeplitz_estimates`` unpacks it into
the per-lag blocks.  The linear map is the data equation

    A(X) = block_hankel(yhat) + T(X) data,    T(X) = [T_u, T_y],

with ``data`` the frozen negated block-Hankel matrix of [u, y], which
the operator spec holds with the record's negated samples, and T(X) the
one block-Toeplitz builder's matrix (T_y has a zero lag-0 block).  Its
adjoint takes yhat and the Toeplitz blocks from the partial antidiagonal
sums of Z, over its block rows from each lag down: the sums from lag 0
are yhat, and those from lag k, correlated with the samples, the lag-k
blocks, so the blockwise product Z data' is never formed.  Each Hankel
or Toeplitz builder returns a C-contiguous copy of one window view,
entry [r, c] = seq[r + c], of the samples or of the lags reversed and
then s - 1 zero blocks.  The module also assembles the coefficient
matrix M of adj(A(.)) o A(.) on one output block, columns in the order
of the stack: its diagonal in closed form, and its cross and small
pieces by FFT from the rows of ``data``.

On short records, N a small multiple of s, an ADMM iteration costs about
the same whatever N is: its time goes to numpy calls, not to arithmetic.
So the operator and its adjoint plan what depends only on (m, p, s) once,
on first use, and cache it: the operator gathers T(X) from X's Toeplitz
columns through one index (``_operator_plan``), and the adjoint writes
the Toeplitz blocks into the stack through another (``_adjoint_plan``).
The record's negated samples, which the adjoint correlates with, are
held by the spec, built once per record.

All DFT identities used here work at the exact orders N and 2s-1; no
power-of-two padding is applied anywhere.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError

__all__ = [
    "block_hankel",
    "block_toeplitz",
    "OperatorSpec",
    "toeplitz_estimates",
    "apply_operator",
    "apply_adjoint",
    "build_M",
]


def _window_view(seq: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """View of shape (rows, cols) + seq.shape[1:], entry [r, c] being seq[r + c].

    It windows a C- or F-contiguous ``seq`` like a Hankel matrix.  The rows
    overlap, so the view is only read.
    """
    shape, t = (rows, cols) + seq.shape[1:], seq.strides[0]
    return np.ndarray(shape, seq.dtype, seq, strides=(t, t) + seq.strides[1:])


def block_hankel(series: np.ndarray, s: int) -> np.ndarray:
    """Block-Hankel matrix with s block rows from an (N, q) sample array.

    Column c stacks samples c, c+1, ..., c+s-1 (one q-vector per block
    entry); the result has shape (q*s, N - s + 1).
    """
    series = np.ascontiguousarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    N, q = series.shape
    if N <= s:
        raise ValueError(f"need more than s={s} samples, got {N}")
    ncols = N - s + 1
    H = np.empty((q * s, ncols))
    H.reshape(s, q, ncols)[...] = _window_view(series, s, ncols).transpose(0, 2, 1)
    return H


def block_toeplitz(blocks: np.ndarray) -> np.ndarray:
    """Lower block-Toeplitz (p*s, q*s) matrix: block (r, c) is blocks[r - c] for r >= c, else 0."""
    blocks = np.asarray(blocks, dtype=float)
    s, p, q = blocks.shape
    # the lags reversed, then s - 1 zero blocks: block (r, c) is rev[(s - 1 - r) + c]
    rev = np.zeros((2 * s - 1, p, q))
    rev[:s] = blocks[::-1]
    T = np.empty((p * s, q * s))
    T.reshape(s, p, s, q)[...] = _window_view(rev, s, s)[::-1].transpose(0, 2, 1, 3)
    return T


@dataclass(frozen=True)
class OperatorSpec:
    """Dimensions plus the frozen data matrix defining the linear map.

    Built from one i/o record by ``OperatorSpec.from_data(u, y, s)``.
    ``data`` is the negated block-Hankel matrix of [u, y] with s block
    rows and ncols = N - s + 1 columns, so row r*(m+p) + j holds channel j
    (inputs first) at window offset r.  ``negated`` is -[u, y]', the
    (m + p, N) negated samples that the adjoint correlates with.
    """

    u: InitVar[np.ndarray]
    y: InitVar[np.ndarray]
    s: int
    N: int = field(init=False)
    p: int = field(init=False)
    m: int = field(init=False)
    data: np.ndarray = field(init=False, repr=False, compare=False)
    negated: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, u, y):
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if u.shape[0] != y.shape[0]:
            raise ValueError("u and y must have the same number of samples")
        if y.shape[1] < 1:
            raise ValueError("need at least one output channel")
        if self.s < 2:
            raise ValueError("window s must be at least 2")
        if y.shape[0] <= self.s:
            raise ValueError(f"need N > s, got N={y.shape[0]}, s={self.s}")
        object.__setattr__(self, "N", y.shape[0])
        object.__setattr__(self, "p", y.shape[1])
        object.__setattr__(self, "m", u.shape[1])
        samples = np.hstack([u, y])
        object.__setattr__(self, "data", -block_hankel(samples, self.s))
        object.__setattr__(self, "negated", np.ascontiguousarray(-samples.T))

    @property
    def ncols(self) -> int:
        return self.N - self.s + 1

    @property
    def block_dim(self) -> int:
        """Length of one output's decision block: N + m*s + p*(s-1)."""
        return self.N + self.m * self.s + self.p * (self.s - 1)

    @classmethod
    def from_data(cls, u: np.ndarray, y: np.ndarray, s: int) -> "OperatorSpec":
        """Build the spec from raw input/output samples ((N, m) and (N, p))."""
        return cls(u, y, s)


@lru_cache(maxsize=None)
def _toeplitz_mask(m: int, p: int, s: int) -> np.ndarray:
    """(m + p, s) mask of the Toeplitz unknowns by channel (inputs first) and lag.

    Every channel carries lags 0..s-1 except the outputs' lag 0, the zero
    lag-0 block of T_y.  Its row-major order is the order of the Toeplitz
    columns of the output stack and of the coefficient matrix.
    """
    keep = np.ones((m + p, s), dtype=bool)
    keep[m:, 0] = False
    keep.flags.writeable = False
    return keep


def toeplitz_estimates(X: np.ndarray, spec: OperatorSpec) -> np.ndarray:
    """Per-lag Markov blocks [v_k, w_k] of T = [T_u, T_y] from the output stack X.

    X is (p, block_dim): row i is [yhat_i, v_i by channel, w_i by
    channel], v_i with lags 0..s-1 per input and w_i with lags 1..s-1 per
    output.  The result is (s, p, m + p) with a zero lag-0 output block.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (spec.p, spec.block_dim):
        raise ValueError(f"X has shape {X.shape}, expected {(spec.p, spec.block_dim)}")
    blocks = np.zeros((spec.p, spec.m + spec.p, spec.s))
    blocks[:, _toeplitz_mask(spec.m, spec.p, spec.s)] = X[:, spec.N :]
    return blocks.transpose(2, 0, 1)


@lru_cache(maxsize=None)
def _operator_plan(m: int, p: int, s: int) -> np.ndarray:
    """Index of T(X) into X's Toeplitz columns, flattened, then one trailing zero.

    Entry [r*p + i, c*(m+p) + j] is the position in X[:, N:].ravel() of
    the unknown at lag r - c of output i and channel j, and the trailing
    zero's position, p*(m*s + p*(s-1)), where T has a structural zero:
    above the block diagonal and at the outputs' lag 0.
    """
    count = m * s + p * (s - 1)
    # one more than each unknown's position, so that block_toeplitz's zeros mark the rest
    shifted = np.zeros((p, m + p, s))
    shifted[:, _toeplitz_mask(m, p, s)] = np.arange(1, p * count + 1).reshape(p, count)
    index = block_toeplitz(shifted.transpose(2, 0, 1)).astype(np.intp) - 1
    index[index < 0] = p * count
    index.flags.writeable = False
    return index


def _toeplitz_product(cols: np.ndarray, spec: OperatorSpec, out: np.ndarray) -> np.ndarray:
    """T(X) data, T(X) gathered through the cached ``_operator_plan`` from X's (p, block_dim - N)
    Toeplitz columns ``cols``, written into and returned as ``out``, C-contiguous (p*s, ncols)."""
    # the columns, flattened, then the zero that T's structural zeros read
    source = np.empty(cols.size + 1)
    source[:-1].reshape(cols.shape)[...] = cols
    source[-1] = 0.0
    return np.matmul(source[_operator_plan(spec.m, spec.p, spec.s)], spec.data, out=out)


def apply_operator(X: np.ndarray, spec: OperatorSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the data equation Yhat_s + T(X) data; result is (p*s) x ncols.

    Output rows are interleaved: block row r stacks all p outputs at
    window offset r, matching the block-Hankel layout of the data.  With
    ``out``, a C-contiguous float array of that shape not overlapping X,
    the result is written there and ``out`` is returned.  T(X) is one
    gather through the cached ``_operator_plan``, the matrix that
    ``block_toeplitz(toeplitz_estimates(X, spec))`` builds; T(X) data is
    formed in place by ``_toeplitz_product`` and the Hankel part is added
    through a window view of X's yhat part, so no other array of the
    result's size is made.
    """
    X = np.ascontiguousarray(X, dtype=float)
    p, N, d = spec.p, spec.N, spec.block_dim
    if X.shape != (p, d):
        raise ValueError(f"X has shape {X.shape}, expected {(p, d)}")
    shape = (p * spec.s, spec.ncols)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float array of shape {shape}")
    _toeplitz_product(X[:, N:], spec, out)
    # entry [r, i, c] of the view is yhat_i at sample r + c
    blocks = out.reshape(spec.s, spec.p, spec.ncols)
    blocks += _window_view(X.T, spec.s, spec.ncols).transpose(0, 2, 1)
    return out


@lru_cache(maxsize=None)
def _suffix_sums(s: int) -> np.ndarray:
    """(s, s) upper-triangular ones: row k of its product sums rows k..s-1."""
    ones = np.triu(np.ones((s, s)))
    ones.flags.writeable = False
    return ones


@lru_cache(maxsize=None)
def _adjoint_plan(m: int, p: int, s: int) -> np.ndarray:
    """Position k*(m+p) + j, in one output's (s, m + p) lag-by-channel blocks, of each
    Toeplitz unknown in the order of the stack."""
    channel, lag = np.nonzero(_toeplitz_mask(m, p, s))
    index = lag * (m + p) + channel
    index.flags.writeable = False
    return index


def apply_adjoint(Z: np.ndarray, spec: OperatorSpec, scratch: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of apply_operator, as a (p, block_dim) stack: <A(X), Z> == <X, adjoint(Z)>.

    Z's block rows, laid in rows of N + 1 samples zero-padded past ncols
    and read back in rows of N, put entry (r, c) at sample r + c.  One
    product with the (s, s) upper-triangular ones then gives the partial
    antidiagonal sums S_k(t), over r >= k and r + c = t, for every k: S_0
    is the adjoint of the Hankel part, and the Toeplitz block of lag k is
    sum_t S_k(t) d(t - k), d being the record's negated samples, which
    the spec holds as ``negated``.  Read back in rows of N + 1 again, row k
    starts at S_k(k), so one product of all s rows with d gives every lag: O(s N (m + p)) work for the Toeplitz part,
    not the O(s^2 N (m + p)) of Z data'.  The two (p, s, N + 1) arrays this
    takes are ``scratch``, a C-contiguous float array of shape
    (2, p, s, N + 1) whose contents do not matter, or allocated here; with
    it the call makes no array of Z's size.  The result is the same, bit
    for bit, either way.  S_0 and the lag blocks, gathered in the order of
    the stack through the cached ``_adjoint_plan``, are written into the
    one (p, block_dim) result.
    """
    Z = np.asarray(Z, dtype=float)
    p, s, N, ncols = spec.p, spec.s, spec.N, spec.ncols
    if Z.shape != (p * s, ncols):
        raise ValueError(f"Z has shape {Z.shape}, expected {(p * s, ncols)}")
    shape = (2, p, s, N + 1)
    if scratch is None:
        scratch = np.empty(shape)
    elif scratch.shape != shape or scratch.dtype != float or not scratch.flags.c_contiguous:
        raise ValueError(f"scratch must be a C-contiguous float array of shape {shape}")
    padded, sums = scratch.reshape(2, p, -1)
    padded.reshape(p, s, N + 1)[:, :, ncols:] = 0.0
    padded.reshape(p, s, N + 1)[:, :, :ncols] = Z.reshape(s, p, ncols).transpose(1, 0, 2)
    # past the s rows of N, S_(s-1) read in rows of N + 1 meets s zeros
    sums[:, s * N :] = 0.0
    np.matmul(_suffix_sums(s), padded[:, : s * N].reshape(p, s, N), out=sums[:, : s * N].reshape(p, s, N))
    # row k of S_k(k + tau) reads S_(k+1) past N - k, which is 0 there
    blocks = sums.reshape(p, s, N + 1)[:, :, :N] @ spec.negated.T
    result = np.empty((p, spec.block_dim))
    result[:, :N] = sums[:, :N]
    result[:, N:] = blocks.reshape(p, -1)[:, _adjoint_plan(spec.m, p, s)]
    return result


def _real_part(a: np.ndarray, what: str) -> np.ndarray:
    residue = float(np.abs(a.imag).max())
    if residue > 1e-9 * (1.0 + float(np.abs(a.real).max())):
        raise ConsistencyError(f"imaginary residue {residue:.3e} in {what}")
    return a.real


def build_M(spec: OperatorSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the per-output coefficient matrix M of adj(A(.)) o A(.) in pieces.

    All p output blocks of the full coefficient matrix are identical, so
    a single block of side d = N + r, r = m*s + p*(s-1), is described.
    Its yhat-yhat block is diagonal, so M is returned as three pieces and
    never as a d x d array:

        M = [[diag(diag), cross], [cross.T, small]]

    with diag of shape (N,), cross (N, r) and small (r, r).  diag is the
    exact occupancy count of the Hankel pattern, min(t + 1, N - t, s,
    ncols) for sample t.  cross and small are Hadamard products of DFT-domain
    factors: the predicted-output coupling uses order-N transforms, the
    Toeplitz couplings order 2s-1.  All m + p channels of ``spec.data``
    are transformed together over every lag 0..s-1 (one FFT for cross,
    one Gram for small); one mask then drops the output channels' lag-0
    rows and columns, which are not decision variables.  Intermediates
    are complex; each piece is the real part after checking that its
    imaginary residue is negligible.
    """
    N, s, m, ncols = spec.N, spec.s, spec.m, spec.ncols
    c, kappa = m + spec.p, 2 * s - 1

    Phi = np.fft.fft(np.eye(kappa), axis=0)[:, :s]
    CC = np.conj(Phi @ Phi.T)

    t = np.arange(N)
    diag = np.minimum(np.minimum(t + 1, N - t), min(s, ncols)).astype(float)

    # Phi times every channel's s x ncols Hankel block of the data, (c, kappa, ncols)
    P = Phi @ spec.data.reshape(s, c, ncols).transpose(1, 0, 2)

    # Toeplitz-Toeplitz blocks (j, k) from one Gram of all channels' factors
    flat = P.reshape(c * kappa, ncols)
    gram = (flat @ flat.T).reshape(c, kappa, c, kappa).transpose(0, 2, 1, 3)
    small = (1.0 / kappa**2) * (Phi.T @ (gram * CC) @ Phi)

    # The order-N DFT columns G (0..ncols-1, flipped) and H (ncols-1..N-1)
    # factor the Hankel pattern, hankel(x) = H^H diag(F x) G / N; products
    # with them are FFTs of inputs scattered into those rows.
    # H Phi^H, and conj(G) @ P_j.T as conj(G @ conj(P_j.T)) for every
    # channel by one FFT over the reversed, zero-padded columns of P
    HPhiH = np.zeros((N, kappa), dtype=complex)
    HPhiH[ncols - 1 :] = Phi.conj().T
    HPhiH = np.fft.fft(HPhiH, axis=0)
    GP = np.zeros((N, c, kappa), dtype=complex)
    np.conj(P.transpose(2, 0, 1)[::-1], out=GP[:ncols])
    del P, flat  # freed before the transforms allocate a second GP
    GP = np.fft.fft(GP, axis=0)
    np.conj(GP, out=GP)
    GP *= HPhiH[:, None, :]
    GP = np.fft.ifft(GP, axis=0)
    GP *= N  # N ifft = F^H
    cross = GP @ Phi
    cross /= N * kappa

    keep = _toeplitz_mask(m, spec.p, s)
    # a C-contiguous copy: the x-update reads it every iteration, and the
    # complex buffer is freed
    cross = np.array(_real_part(cross[:, keep], "cross block of the coefficient matrix"), order="C")
    small = small.transpose(0, 2, 1, 3)[keep][:, keep]
    small = _real_part(small, "Toeplitz block of the coefficient matrix")
    return diag, cross, (small + small.T) / 2.0
