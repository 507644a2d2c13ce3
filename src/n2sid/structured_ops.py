"""Structured-matrix operators behind the identification program.

The convex program optimizes over a predicted-output sequence and the
per-lag Markov-parameter blocks of two lower block-Toeplitz matrices.
The unknowns are held as one (p, block_dim) output stack X, row i being
[yhat_i, v_i by channel, w_i by channel]; one lag/channel mask fixes the
order of the Toeplitz part, and ``toeplitz_estimates`` unpacks it into
the per-lag blocks.  The linear map is the data equation

    A(X) = block_hankel(yhat) + T(X) data,    T(X) = [T_u, T_y],

with ``data`` the frozen negated block-Hankel matrix of [u, y], the only
copy of the record that the operator spec holds, and T(X) built by the
one block-Toeplitz builder (T_y has a zero lag-0 block).  Its adjoint
takes yhat from the antidiagonal sums of Z and the Toeplitz blocks from
the block-diagonal sums of Z data'.  The module also assembles, by FFT,
the coefficient matrix M of adj(A(.)) o A(.) on one output block from
the channel rows of the same ``data``, kept as its diagonal, cross and
small pieces, with its columns in the order of the stack.

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
    "block_toeplitz_adjoint",
    "OperatorSpec",
    "toeplitz_estimates",
    "apply_operator",
    "apply_adjoint",
    "build_M",
]


def block_hankel(series: np.ndarray, s: int) -> np.ndarray:
    """Block-Hankel matrix with s block rows from an (N, q) sample array.

    Column c stacks samples c, c+1, ..., c+s-1 (one q-vector per block
    entry); the result has shape (q*s, N - s + 1).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    N, q = series.shape
    if N <= s:
        raise ValueError(f"need more than s={s} samples, got {N}")
    ncols = N - s + 1
    # samples repeated cyclically in rows of N + 1: entry (r, c) is sample r + c
    windows = np.resize(series, (s, N + 1, q))[:, :ncols]
    return windows.transpose(0, 2, 1).reshape(q * s, ncols)


@lru_cache(maxsize=None)
def _lag_selection(s: int) -> np.ndarray:
    """0/1 matrix of shape (s*s, s): row r*s + c selects lag r - c (none above the diagonal)."""
    lag = np.subtract.outer(np.arange(s), np.arange(s)).reshape(-1)
    sel = (lag[:, None] == np.arange(s)).astype(float)
    sel.flags.writeable = False
    return sel


def block_toeplitz(blocks: np.ndarray) -> np.ndarray:
    """Lower block-Toeplitz (p*s, q*s) matrix: block (r, c) is blocks[r - c] for r >= c, else 0."""
    blocks = np.asarray(blocks, dtype=float)
    s, p, q = blocks.shape
    T = _lag_selection(s) @ blocks.reshape(s, p * q)
    return T.reshape(s, s, p, q).transpose(0, 2, 1, 3).reshape(p * s, q * s)


def block_toeplitz_adjoint(T: np.ndarray, p: int) -> np.ndarray:
    """Adjoint of block_toeplitz: the sum of each lower block diagonal of T, shape (s, p, q)."""
    T = np.asarray(T, dtype=float)
    s = T.shape[0] // p
    q = T.shape[1] // s
    blocks = T.reshape(s, p, s, q).transpose(0, 2, 1, 3).reshape(s * s, p * q)
    return (_lag_selection(s).T @ blocks).reshape(s, p, q)


@dataclass(frozen=True)
class OperatorSpec:
    """Dimensions plus the frozen data matrix defining the linear map.

    Built from one i/o record by ``OperatorSpec.from_data(u, y, s)``.
    ``data`` is the only copy of the record: the negated block-Hankel
    matrix of [u, y] with s block rows and ncols = N - s + 1 columns, so
    row r*(m+p) + j holds channel j (inputs first) at window offset r.
    """

    u: InitVar[np.ndarray]
    y: InitVar[np.ndarray]
    s: int
    N: int = field(init=False)
    p: int = field(init=False)
    m: int = field(init=False)
    data: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "data", -block_hankel(np.hstack([u, y]), self.s))

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


def apply_operator(X: np.ndarray, spec: OperatorSpec) -> np.ndarray:
    """Evaluate the data equation Yhat_s + T(X) data; result is (p*s) x ncols.

    Output rows are interleaved: block row r stacks all p outputs at
    window offset r, matching the block-Hankel layout of the data.
    """
    X = np.asarray(X, dtype=float)
    T = block_toeplitz(toeplitz_estimates(X, spec))
    return block_hankel(X[:, : spec.N].T, spec.s) + T @ spec.data


def _antidiag_sums(Z: np.ndarray, p: int, N: int) -> np.ndarray:
    """Adjoint of block_hankel on p channels: yhat[i, t] sums Z[r*p + i, c] over r + c = t."""
    # rows of length N + 1 read back in rows of length N move entry (r, c) to column r + c
    s, ncols = Z.shape[0] // p, Z.shape[1]
    padded = np.zeros((p, s, N + 1))
    padded[:, :, :ncols] = Z.reshape(s, p, ncols).transpose(1, 0, 2)
    return padded.reshape(p, -1)[:, : s * N].reshape(p, s, N).sum(axis=1)


def apply_adjoint(Z: np.ndarray, spec: OperatorSpec) -> np.ndarray:
    """Adjoint of apply_operator, as a (p, block_dim) stack: <A(X), Z> == <X, adjoint(Z)>."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (spec.p * spec.s, spec.ncols):
        raise ValueError(f"Z has shape {Z.shape}, expected {(spec.p * spec.s, spec.ncols)}")
    blocks = block_toeplitz_adjoint(Z @ spec.data.T, spec.p).transpose(1, 2, 0)
    toeplitz = blocks[:, _toeplitz_mask(spec.m, spec.p, spec.s)]
    return np.concatenate([_antidiag_sums(Z, spec.p, spec.N), toeplitz], axis=1)


def _real_part(a: np.ndarray, what: str) -> np.ndarray:
    residue = float(np.abs(a.imag).max())
    if residue > 1e-9 * (1.0 + float(np.abs(a.real).max())):
        raise ConsistencyError(f"imaginary residue {residue:.3e} in {what}")
    return a.real


def build_M(spec: OperatorSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the per-output coefficient matrix M of adj(A(.)) o A(.) in pieces.

    All p output blocks of the full coefficient matrix are identical, so
    a single block of side d = N + r, r = m*s + p*(s-1), is described.
    Its yhat-yhat block is diagonal (the occupancy counts of the Hankel
    pattern, all >= 1), so M is returned as three pieces and never as a
    d x d array:

        M = [[diag(diag), cross], [cross.T, small]]

    with diag of shape (N,), cross (N, r) and small (r, r).  Every piece
    is formed from Hadamard products of small DFT-domain factors: the
    predicted-output coupling uses order-N transforms, the Toeplitz
    couplings order 2s-1.  All m + p channels of ``spec.data`` are
    transformed together over every lag 0..s-1 (one FFT for cross, one
    Gram for small); one mask then drops the output channels' lag-0 rows
    and columns, which are not decision variables.  Intermediates are
    complex; each piece is the real part after checking that its
    imaginary residue is negligible.
    """
    N, s, m, ncols = spec.N, spec.s, spec.m, spec.ncols
    c, kappa = m + spec.p, 2 * s - 1

    Phi = np.fft.fft(np.eye(kappa), axis=0)[:, :s]
    CC = np.conj(Phi @ Phi.T)

    # The order-N DFT columns G (0..ncols-1, flipped) and H (ncols-1..N-1)
    # factor the Hankel pattern, hankel(x) = H^H diag(F x) G / N; products
    # with them are FFTs of inputs scattered into those rows.
    # Output-output block: the two order-N Gram factors are circulant, so
    # their Hadamard product conjugated back by the DFT is a diagonal.
    ind_h = np.zeros(N)
    ind_h[ncols - 1 :] = 1.0
    ind_g = np.zeros(N)
    ind_g[:ncols] = 1.0
    col0 = np.fft.fft(ind_h) * np.conj(np.fft.fft(ind_g))
    diag = np.roll(np.fft.fft(col0)[::-1], 1) / N

    # Phi times every channel's s x ncols Hankel block of the data, (c, kappa, ncols)
    P = Phi @ spec.data.reshape(s, c, ncols).transpose(1, 0, 2)

    # Toeplitz-Toeplitz blocks (j, k) from one Gram of all channels' factors
    flat = P.reshape(c * kappa, ncols)
    gram = (flat @ flat.T).reshape(c, kappa, c, kappa).transpose(0, 2, 1, 3)
    small = (1.0 / kappa**2) * (Phi.T @ (gram * CC) @ Phi)

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
    cross = cross[:, keep]
    small = small.transpose(0, 2, 1, 3)[keep][:, keep]

    small = _real_part(small, "Toeplitz block of the coefficient matrix")
    return (
        _real_part(diag, "output block of the coefficient matrix"),
        _real_part(cross, "cross block of the coefficient matrix"),
        (small + small.T) / 2.0,
    )
