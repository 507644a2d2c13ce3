"""Discrete-time LTI state-space models, simulation and fit metrics.

Models are quintuples (A, B, C, D, K) driving the recursions

    x(k+1) = A x(k) + B u(k) + K e(k)
    y(k)   = C x(k) + D u(k) + e(k)

with state dimension n, m inputs and p outputs.  The equivalent
predictor ("observer") form replaces (A, B) by (A - K C, B - K D) and is
driven by the measured output instead of the unknown noise e.

Every recursion in the package runs through one kernel,
``state_response``: the outputs C x(k) of x(k+1) = A x(k) + drive(k),
for one or several stacked responses at once.  Simulation, observer
prediction and data generation are that kernel with their own drive plus
the feed-through D u(k), from one start contract (``_response_from``);
Markov parameters and the extraction's regressors come from it too.  A
drive may enter through an input matrix B, so that the windows' cost
grows with the inputs instead of the state, and may drive only the
leading responses of a stack; a free response, which has no drive,
takes the same window loop without the drive's terms.  That loop cuts
the record into windows of WINDOW samples, evaluates each through the
data equation y_window = O_L x(k0) + T_L d_window in batched matrix
products, and steps Python once per window.  Whatever leaves float range, an output,
the final state or the window's matrix powers, raises
SimulationOverflowError without a numpy warning.

Time indexing: sample k of the external arrays (row k, 0-based) is the
k-th measurement; simulation starts from the initial state x0 which is
the state at the first sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationOverflowError
from .structured_ops import block_toeplitz

__all__ = [
    "StateSpaceModel",
    "ObserverModel",
    "IoRecord",
    "to_observer",
    "state_response",
    "simulate",
    "predict_observer",
    "markov_parameters",
    "vaf",
    "generate_innovation_data",
]

# samples per window of state_response.  Windows of 24-48 timed alike on records of
# 150-2000 samples; shorter ones take more Python steps, longer ones build more powers.
WINDOW = 32


@dataclass(frozen=True)
class StateSpaceModel:
    """Innovation-form quintuple (A, B, C, D, K).

    K may be zero when no noise model is wanted.  All matrices are
    validated for mutually consistent shapes and finite entries.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError(f"A must be square, got {A.shape}")
        B = np.asarray(self.B, dtype=float).reshape(n, -1)
        m = B.shape[1]
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        p = C.shape[0]
        D = np.asarray(self.D, dtype=float).reshape(p, m)
        K = np.asarray(self.K, dtype=float).reshape(n, p)
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D), ("K", K)):
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "K", K)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class ObserverModel:
    """Predictor form with Aobs = A - K C and Bobs = B - K D."""

    Aobs: np.ndarray
    Bobs: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        # Reuse the quintuple validation; the observer shares its shape rules.
        checked = StateSpaceModel(self.Aobs, self.Bobs, self.C, self.D, self.K)
        object.__setattr__(self, "Aobs", checked.A)
        object.__setattr__(self, "Bobs", checked.B)
        object.__setattr__(self, "C", checked.C)
        object.__setattr__(self, "D", checked.D)
        object.__setattr__(self, "K", checked.K)

    @property
    def n(self) -> int:
        return self.Aobs.shape[0]

    @property
    def m(self) -> int:
        return self.Bobs.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def to_state_space(self) -> StateSpaceModel:
        """Recover the innovation-form quintuple (A = Aobs + K C, B = Bobs + K D)."""
        return StateSpaceModel(
            self.Aobs + self.K @ self.C,
            self.Bobs + self.K @ self.D,
            self.C,
            self.D,
            self.K,
        )


@dataclass(frozen=True)
class IoRecord:
    """Time-aligned input/output samples; row k holds u(k), y(k).

    ``u`` has shape (N, m) and may have zero columns for output-only
    records; ``y`` has shape (N, p).
    """

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if u.ndim != 2 or y.ndim != 2:
            raise ValueError("u and y must be 1- or 2-dimensional arrays")
        if u.shape[0] != y.shape[0]:
            raise ValueError(f"u has {u.shape[0]} samples but y has {y.shape[0]}")
        if y.shape[0] < 1:
            raise ValueError("record must contain at least one sample")
        if not (np.isfinite(u).all() and np.isfinite(y).all()):
            raise ValueError("record contains non-finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def N(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    def detrended(self) -> "IoRecord":
        """The record with each channel's mean removed.

        A constant channel becomes exactly 0, not the rounding residue of
        subtracting its floating-point mean.
        """
        def centred(x):
            return np.where(np.ptp(x, axis=0) == 0.0, 0.0, x - x.mean(axis=0))

        return IoRecord(u=centred(self.u), y=centred(self.y))


def to_observer(model: StateSpaceModel) -> ObserverModel:
    """Convert an innovation-form model to its predictor (observer) form."""
    return ObserverModel(
        model.A - model.K @ model.C,
        model.B - model.K @ model.D,
        model.C,
        model.D,
        model.K,
    )


def _check_input(u: np.ndarray, m: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != m:
        raise ValueError(f"input has shape {u.shape}, expected (N, {m})")
    return u


def state_response(A, C, x0, steps: int, drive=None, B=None) -> np.ndarray:
    """Outputs C x(k), k < steps, of the recursion x(k+1) = A x(k) + B drive[k].

    x0 has shape (n,) or (n, q); the q columns are independent responses
    run together.  ``drive`` has shape (steps, m) or (steps, m, qd), qd <= q,
    and drives the leading qd responses; the others run free, and all do
    when it is omitted, with no drive terms built.  B, of shape (n, m),
    defaults to the identity (m = n).  Only the outputs are kept: the
    result has shape (steps, p) or (steps, p, q).

    Each window of L = min(WINDOW, steps) samples is one data equation,
    y_b = O_L x_b + T_L d_b, with O_L = [C A^j], j < L, and T_L the
    structured_ops.block_toeplitz of [0, C A^0 B, ..., C A^(L-2) B]; its
    start follows x_(b+1) = A^L x_b + R_L d_b, R_L = [A^(L-1) B ... A B B],
    the only loop over windows.  The powers A^0, ..., A^L take one batched
    product per doubling of the powers known.  A last window shorter than
    L uses the leading part of the same matrices, and given B the cost
    grows with m instead of n.

    Raises:
        SimulationOverflowError: if an output or the state after
            ``steps`` samples is non-finite (unstable A over a long
            horizon), or if A^L leaves float range, which the windows
            need even where the response itself stays zero.  No numpy
            warning is emitted on the way.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    x = np.array(x0, dtype=float)
    n, p = A.shape[0], C.shape[0]
    cols = x.shape[1:]
    q = x.shape[1] if cols else 1
    x = x.reshape(n, q)
    driven = drive is not None
    if driven:
        B = None if B is None else np.atleast_2d(np.asarray(B, dtype=float))
        m = n if B is None else B.shape[1]
        # the drive's qd columns drive the leading qd responses
        d = np.asarray(drive, dtype=float)
        qd = d.shape[2] if d.ndim == 3 else 1
        d = d.reshape(steps, m, qd)
        if qd > q:
            raise ValueError(f"drive has {qd} columns for {q} responses")
    out = np.empty((steps, p, q))
    with np.errstate(over="ignore", invalid="ignore"):
        if steps:
            L = min(WINDOW, steps)
            # A^0..A^L, each step doubling the powers known: A^(k+j) = A^k A^j, j <= k
            powers = np.empty((L + 1, n, n))
            powers[0], powers[1] = np.eye(n), A
            k = 1
            while k < L:
                h = min(k, L - k)
                np.matmul(powers[k], powers[1 : h + 1], out=powers[k + 1 : k + h + 1])
                k += h
            CA = C @ powers[:L]
            O = CA.reshape(L * p, n)
            nb, tail = divmod(steps, L)
            full = nb * L
            if driven:
                lags, steers = CA[:-1], powers[L - 1 :: -1]
                if B is not None:
                    lags, steers = lags @ B, steers @ B
                T = block_toeplitz(np.concatenate([np.zeros((1, p, m)), lags]))
                # a C-contiguous copy, which matmul hands to BLAS
                R = np.ascontiguousarray(steers.transpose(1, 0, 2)).reshape(n, L * m)
                windows = d[:full].reshape(nb, L * m, qd)
                forced = R @ windows
            starts = np.empty((nb, n, q))
            for b in range(nb):
                starts[b] = x
                x = powers[L] @ x
                if driven:
                    x[:, :qd] += forced[b]
            view = out[:full].reshape(nb, L * p, q)
            np.matmul(O, starts, out=view)
            if driven:
                view[:, :, :qd] += T @ windows
            if tail:
                out[full:] = (O[: tail * p] @ x).reshape(tail, p, q)
                x = powers[tail] @ x
                if driven:
                    d = d[full:].reshape(tail * m, qd)
                    out[full:, :, :qd] += (T[: tail * p, : tail * m] @ d).reshape(tail, p, qd)
                    x[:, :qd] += R[:, (L - tail) * m :] @ d
    if not (np.isfinite(out).all() and np.isfinite(x).all()):
        raise SimulationOverflowError(f"state recursion overflow within {steps} samples")
    return out.reshape((steps, p) + cols)


def _response_from(A, C, x0, drive: np.ndarray, feedthrough: np.ndarray) -> np.ndarray:
    """state_response under ``drive`` plus ``feedthrough`` from x0 (zeros when omitted).

    Column 0 of an (n, q) start, q >= 1, is the driven response and column
    j >= 1 the free response from x0[:, j], in one recursion.  A start of
    shape (n,) is the one-column stack, and its result is squeezed to (steps, p).
    """
    n = A.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    stack = x.reshape(-1, 1) if x.ndim < 2 else x
    if stack.ndim != 2 or stack.shape[0] != n or stack.shape[1] < 1:
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},) or ({n}, q) with q >= 1")
    out = state_response(A, C, stack, drive.shape[0], drive)
    out[:, :, 0] += feedthrough
    return out[:, :, 0] if x.ndim < 2 else out


def simulate(model: StateSpaceModel, u: np.ndarray, x0=None) -> np.ndarray:
    """Simulate the deterministic part of the model.

    Runs x(k+1) = A x(k) + B u(k), yhat(k) = C x(k) + D u(k) starting
    from x(0) = x0 (zeros when omitted).  The gain K plays no role here:
    this is a simulation, not a filter.

    x0 may also have shape (n, q), q >= 1, and the result then has shape
    (N, p, q): column 0 is the simulation from x0[:, 0], and column j >= 1
    the free response C A^k x0[:, j], by which the simulation moves when
    x0[:, j] is added to its initial state.  One recursion gives all q.

    Raises:
        SimulationOverflowError: if the recursion leaves float range
            (unstable A over a long horizon).
    """
    u = _check_input(u, model.m)
    return _response_from(model.A, model.C, x0, u @ model.B.T, u @ model.D.T)


def predict_observer(obs: ObserverModel, rec: IoRecord, x0=None) -> np.ndarray:
    """One-step-ahead prediction with the observer driven by measured data.

    Runs xhat(k+1) = Aobs xhat(k) + Bobs u(k) + K y(k) and returns
    yhat(k) = C xhat(k) + D u(k).  An x0 of shape (n, q) stacks the free
    responses C Aobs^k x0[:, j], j >= 1, after the prediction, as in simulate.
    """
    if rec.m != obs.m or rec.p != obs.p:
        raise ValueError(
            f"record has (m={rec.m}, p={rec.p}), observer expects (m={obs.m}, p={obs.p})"
        )
    drive = rec.u @ obs.Bobs.T + rec.y @ obs.K.T
    return _response_from(obs.Aobs, obs.C, x0, drive, rec.u @ obs.D.T)


def markov_parameters(obs: ObserverModel, count: int) -> np.ndarray:
    """Impulse-response blocks [v_k, w_k] of the predictor, shape (count, p, m + p).

    Lag 0 is [D, 0] and lag k >= 1 is C Aobs^(k-1) [Bobs, K]: the lag-k
    blocks of T_u and T_y side by side, the layout of
    ``structured_ops.toeplitz_estimates``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    blocks = np.zeros((count, obs.p, obs.m + obs.p))
    blocks[0, :, : obs.m] = obs.D
    blocks[1:] = state_response(obs.Aobs, obs.C, np.hstack([obs.Bobs, obs.K]), count - 1)
    return blocks


def vaf(y: np.ndarray, yhat: np.ndarray) -> float:
    """Variance accounted for, in percent.

    Returns (1 - sum ||y(k) - yhat(k)||^2 / sum ||y(k)||^2) * 100, which
    may be negative for poor fits.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    yhat = np.atleast_2d(np.asarray(yhat, dtype=float))
    if y.shape != yhat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    # a diverging prediction may square past float range; its VAF is then -inf
    with np.errstate(over="ignore"):
        denom = float(np.sum(y * y))
        if denom == 0.0:
            raise ValueError("reference output is identically zero")
        num = float(np.sum((y - yhat) ** 2))
        return (1.0 - num / denom) * 100.0


def generate_innovation_data(
    model: StateSpaceModel,
    u: np.ndarray,
    x0=None,
    noise_std: float = 0.0,
    seed: int | None = None,
) -> IoRecord:
    """Generate an i/o record by running the innovation form.

    The noise e(k) is i.i.d. zero-mean Gaussian with standard deviation
    ``noise_std``, drawn from a generator seeded with ``seed``; the
    output is deterministic for a fixed seed.
    """
    u = _check_input(u, model.m)
    if np.ndim(x0) > 1:
        raise ValueError(f"x0 has shape {np.shape(x0)}, expected ({model.n},)")
    if not (np.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")
    N = u.shape[0]
    rng = np.random.default_rng(seed)
    e = noise_std * rng.standard_normal((N, model.p)) if noise_std > 0 else np.zeros((N, model.p))
    drive = u @ model.B.T + e @ model.K.T
    y = _response_from(model.A, model.C, x0, drive, u @ model.D.T) + e
    return IoRecord(u=u, y=y)
