"""Structured-matrix operators behind the identification program.

The convex program optimizes over a predicted-output sequence and the
per-lag Markov-parameter blocks of two lower block-Toeplitz matrices.
Collecting those unknowns in x, the linear map is the data equation

    A(x) = block_hankel(yhat) + T(x) data,    T(x) = [T_u, T_y],

with ``data`` the frozen negated block-Hankel matrix of [u, y] and T(x)
built by the one block-Toeplitz builder (T_y has a zero lag-0 block).
Its adjoint takes yhat from the antidiagonal sums of Z and the Toeplitz
blocks from the block-diagonal sums of Z data'.  The module also
assembles, by FFT, the coefficient matrix M of adj(A(.)) o A(.) on one
output block, kept as its diagonal, cross and small pieces.

All DFT identities used here work at the exact orders N and 2s-1; no
power-of-two padding is applied anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError

__all__ = [
    "hankel",
    "block_hankel",
    "block_toeplitz",
    "block_toeplitz_adjoint",
    "FourierCache",
    "OperatorSpec",
    "DecisionVector",
    "apply_operator",
    "apply_adjoint",
    "build_M",
]


def hankel(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Hankel matrix H[a, b] = x[a + b] from a vector of length rows + cols - 1."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != rows + cols - 1:
        raise ValueError(f"vector length {x.shape[0]} != rows + cols - 1 = {rows + cols - 1}")
    return x[np.arange(rows)[:, None] + np.arange(cols)[None, :]]


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
class FourierCache:
    """DFT bookkeeping for the (rows x cols) Hankel factorization.

    The factorization works at order = rows + cols - 1 and selects DFT
    columns g_cols (the flipped leading block) and h_cols (the trailing
    block).  Products with those column blocks are plain mixed-radix
    transforms at that exact order.
    """

    rows: int
    cols: int
    g_cols: np.ndarray = field(init=False)
    h_cols: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "g_cols", np.arange(self.cols - 1, -1, -1))
        object.__setattr__(self, "h_cols", np.arange(self.cols - 1, self.cols - 1 + self.rows))

    @property
    def order(self) -> int:
        return self.rows + self.cols - 1

    # Products with the selected column blocks, evaluated by FFT on
    # scattered inputs instead of materializing the DFT matrix.
    def mul_G(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(Z)
        pad = np.zeros((self.order, Z.shape[1]), dtype=complex)
        pad[: self.cols] = Z[::-1]
        return np.fft.fft(pad, axis=0)

    def mul_H(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(Z)
        pad = np.zeros((self.order, Z.shape[1]), dtype=complex)
        pad[self.cols - 1 : self.cols - 1 + self.rows] = Z
        return np.fft.fft(pad, axis=0)

    def mul_Fh(self, Z: np.ndarray) -> np.ndarray:
        return self.order * np.fft.ifft(Z, axis=0)


def _is_hankel(a: np.ndarray) -> bool:
    if min(a.shape) < 2:
        return True
    return bool(np.array_equal(a[1:, :-1], a[:-1, 1:]))


@dataclass(frozen=True)
class OperatorSpec:
    """Dimensions plus the frozen data matrices defining the linear map.

    V holds one s x ncols matrix per input channel (the negated input
    Hankel matrices), W one per output channel (negated output Hankel
    matrices), with ncols = N - s + 1.  ``data`` stacks the same rows as
    the negated block-Hankel matrix of [u, y]: row r*(m+p) + j is row r
    of the j-th matrix of V + W.
    """

    N: int
    s: int
    p: int
    m: int
    V: tuple
    W: tuple
    data: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("window s must be at least 2")
        if self.N <= self.s:
            raise ValueError(f"need N > s, got N={self.N}, s={self.s}")
        if len(self.V) != self.m or len(self.W) != self.p:
            raise ValueError("V/W channel counts do not match m/p")
        V = tuple(np.asarray(v, dtype=float) for v in self.V)
        W = tuple(np.asarray(w, dtype=float) for w in self.W)
        for name, mats in (("V", V), ("W", W)):
            for j, a in enumerate(mats):
                if a.shape != (self.s, self.ncols):
                    raise ValueError(
                        f"{name}[{j}] has shape {a.shape}, expected {(self.s, self.ncols)}"
                    )
                if not _is_hankel(a):
                    raise ValueError(f"{name}[{j}] violates the Hankel pattern")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "data", np.stack(V + W, axis=1).reshape(-1, self.ncols))

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
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if u.shape[0] != y.shape[0]:
            raise ValueError("u and y must have the same number of samples")
        N = y.shape[0]
        ncols = N - s + 1
        V = tuple(-hankel(u[:, j], s, ncols) for j in range(u.shape[1]))
        W = tuple(-hankel(y[:, j], s, ncols) for j in range(y.shape[1]))
        return cls(N=N, s=s, p=y.shape[1], m=u.shape[1], V=V, W=W)


@dataclass(frozen=True)
class DecisionVector:
    """Unknowns of the convex program, grouped per output.

    yhat[i] is output i's predicted sequence (length N); v[i, j] the s
    first-column entries of the Toeplitz block coupling output i to
    input j; w[i, j] the s-1 strictly-lower entries coupling output i to
    output j.
    """

    yhat: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        yhat = np.atleast_2d(np.asarray(self.yhat, dtype=float))
        v = np.asarray(self.v, dtype=float)
        w = np.asarray(self.w, dtype=float)
        p = yhat.shape[0]
        if v.ndim != 3 or v.shape[0] != p:
            raise ValueError(f"v must have shape (p, m, s) with p={p}, got {v.shape}")
        if w.ndim != 3 or w.shape[:2] != (p, p):
            raise ValueError(f"w must have shape (p, p, s-1) with p={p}, got {w.shape}")
        object.__setattr__(self, "yhat", yhat)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    @property
    def p(self) -> int:
        return self.yhat.shape[0]

    @property
    def N(self) -> int:
        return self.yhat.shape[1]

    @classmethod
    def zeros(cls, spec: OperatorSpec) -> "DecisionVector":
        return cls(
            yhat=np.zeros((spec.p, spec.N)),
            v=np.zeros((spec.p, spec.m, spec.s)),
            w=np.zeros((spec.p, spec.p, spec.s - 1)),
        )

    def markov_blocks(self) -> np.ndarray:
        """Per-lag blocks [v_k, w_(k-1)] of T = [T_u, T_y], (s, p, m + p); w's lag 0 is zero."""
        w = np.concatenate([np.zeros((self.p, self.p, 1)), self.w], axis=2)
        return np.concatenate([self.v, w], axis=1).transpose(2, 0, 1)

    def output_stack(self) -> np.ndarray:
        """Per-output layout: row i is [yhat_i, v_i (by channel), w_i]."""
        p = self.p
        return np.concatenate(
            [self.yhat, self.v.reshape(p, -1), self.w.reshape(p, -1)], axis=1
        )

    @classmethod
    def from_output_stack(
        cls, X: np.ndarray, N: int, m: int, s: int
    ) -> "DecisionVector":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        p = X.shape[0]
        if X.shape[1] != N + m * s + p * (s - 1):
            raise ValueError("per-output stack has wrong width")
        return cls(
            yhat=X[:, :N],
            v=X[:, N : N + m * s].reshape(p, m, s),
            w=X[:, N + m * s :].reshape(p, p, s - 1),
        )


def _check_compat(x: DecisionVector, spec: OperatorSpec) -> None:
    if x.yhat.shape != (spec.p, spec.N) or x.v.shape != (spec.p, spec.m, spec.s) or x.w.shape != (
        spec.p,
        spec.p,
        spec.s - 1,
    ):
        raise ValueError("decision vector shapes do not match the operator spec")


def apply_operator(x: DecisionVector, spec: OperatorSpec) -> np.ndarray:
    """Evaluate the data equation Yhat_s + T(x) data; result is (p*s) x ncols.

    Output rows are interleaved: block row r stacks all p outputs at
    window offset r, matching the block-Hankel layout of the data.
    """
    _check_compat(x, spec)
    return block_hankel(x.yhat.T, spec.s) + block_toeplitz(x.markov_blocks()) @ spec.data


def _antidiag_sums(Z: np.ndarray, p: int, N: int) -> np.ndarray:
    """Adjoint of block_hankel on p channels: yhat[i, t] sums Z[r*p + i, c] over r + c = t."""
    # rows of length N + 1 read back in rows of length N move entry (r, c) to column r + c
    s, ncols = Z.shape[0] // p, Z.shape[1]
    padded = np.zeros((p, s, N + 1))
    padded[:, :, :ncols] = Z.reshape(s, p, ncols).transpose(1, 0, 2)
    return padded.reshape(p, -1)[:, : s * N].reshape(p, s, N).sum(axis=1)


def apply_adjoint(Z: np.ndarray, spec: OperatorSpec) -> DecisionVector:
    """Adjoint of apply_operator: <A(x), Z> == <x, adjoint(Z)> for all x."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (spec.p * spec.s, spec.ncols):
        raise ValueError(f"Z has shape {Z.shape}, expected {(spec.p * spec.s, spec.ncols)}")
    blocks = block_toeplitz_adjoint(Z @ spec.data.T, spec.p)
    return DecisionVector(
        yhat=_antidiag_sums(Z, spec.p, spec.N),
        v=blocks[:, :, : spec.m].transpose(1, 2, 0),
        w=blocks[1:, :, spec.m :].transpose(1, 2, 0),
    )


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
    couplings order 2s-1.  Intermediates are complex; each piece is the
    real part after checking that its imaginary residue is negligible.
    """
    N, s, ncols = spec.N, spec.s, spec.ncols
    kappa = 2 * s - 1

    fc = FourierCache(rows=s, cols=ncols)
    F_k = np.fft.fft(np.eye(kappa), axis=0)
    Phi = F_k[:, :s]
    Psi = F_k[:, 1:s]
    CC = np.conj(Phi @ Phi.T)

    # Output-output block: the two order-N Gram factors are circulant, so
    # their Hadamard product conjugated back by the DFT is a diagonal.
    ind_h = np.zeros(N)
    ind_h[fc.h_cols] = 1.0
    ind_g = np.zeros(N)
    ind_g[fc.g_cols] = 1.0
    col0 = np.fft.fft(ind_h) * np.conj(np.fft.fft(ind_g))
    diag_rev = np.fft.fft(col0)
    diag = np.roll(diag_rev[::-1], 1) / N

    HPhiH = fc.mul_H(Phi.conj().T)  # N x kappa

    def cross_block(P: np.ndarray, trailing: np.ndarray) -> np.ndarray:
        # conj(G) @ P.T computed as conj(G @ conj(P.T))
        B = np.conj(fc.mul_G(np.conj(P.T)))
        return fc.mul_Fh(HPhiH * B) @ trailing / (N * kappa)

    # Toeplitz parameters in stacking order: one (data block, DFT columns)
    # pair per input channel, then per output channel.
    params = [(Phi @ Vj, Phi) for Vj in spec.V] + [(Phi @ Wj, Psi) for Wj in spec.W]
    cross = np.hstack([cross_block(P, T) for P, T in params])
    scale = 1.0 / kappa**2
    small = np.block(
        [[scale * (Tj.T @ ((Pj @ Pk.T) * CC) @ Tk) for Pk, Tk in params] for Pj, Tj in params]
    )

    small = _real_part(small, "Toeplitz block of the coefficient matrix")
    return (
        _real_part(diag, "output block of the coefficient matrix"),
        _real_part(cross, "cross block of the coefficient matrix"),
        (small + small.T) / 2.0,
    )
