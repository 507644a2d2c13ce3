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
prediction, data generation and Markov parameters are that kernel with
their own drive plus the feed-through D u(k); extraction builds its
regressors from it too.  The kernel does not step sample by sample: it
cuts the record into windows of WINDOW samples and evaluates each one
through the data equation y_window = O_L x(k0) + T_L d_window, all
windows in batched matrix products, so Python steps once per window.
Whatever leaves float range, an output, the final state or the
window's matrix powers, raises SimulationOverflowError without a numpy
warning.

Time indexing: sample k of the external arrays (row k, 0-based) is the
k-th measurement; simulation starts from the initial state x0 which is
the state at the first sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationOverflowError

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
            if not np.all(np.isfinite(mat)):
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
        if not np.all(np.isfinite(u)) or not np.all(np.isfinite(y)):
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
        """The record with each channel's mean removed."""
        return IoRecord(u=self.u - self.u.mean(axis=0), y=self.y - self.y.mean(axis=0))


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


def _check_x0(x0, n: int) -> np.ndarray:
    if x0 is None:
        return np.zeros(n)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != n:
        raise ValueError(f"x0 has length {x0.shape[0]}, expected {n}")
    return x0


def state_response(A, C, x0, steps: int, drive=None) -> np.ndarray:
    """Outputs C x(k), k < steps, of the recursion x(k+1) = A x(k) + drive[k].

    x0 has shape (n,) or (n, q); the q columns are independent responses
    run together, and ``drive`` (omitted for a free response) has shape
    (steps, n) or (steps, n, q) to match.  Only the outputs are kept:
    the result has shape (steps, p) or (steps, p, q).

    The record is cut into windows of L = min(WINDOW, steps) samples and
    each window is one data equation, y_b = O_L x_b + T_L d_b, with
    O_L = [C A^j], j < L, and T_L strictly lower block-Toeplitz with
    blocks C A^(j-1-i).  Window starts follow x_(b+1) = A^L x_b + R_L d_b,
    R_L = [A^(L-1) ... A I], the only loop, of ceil(steps / L) steps; a
    last window shorter than L uses the leading part of the same matrices.

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
    out = np.empty((steps, p, q))
    with np.errstate(over="ignore", invalid="ignore"):
        if steps:
            L = min(WINDOW, steps)
            powers = np.empty((L + 1, n, n))
            powers[0] = np.eye(n)
            for j in range(L):
                np.matmul(A, powers[j], out=powers[j + 1])
            CA = C @ powers[:L]
            O = CA.reshape(L * p, n)
            nb, tail = divmod(steps, L)
            full = nb * L
            starts = np.empty((nb, n, q))
            if drive is None:
                for b in range(nb):
                    starts[b] = x
                    x = powers[L] @ x
                np.matmul(O, starts, out=out[:full].reshape(nb, L * p, q))
                if tail:
                    out[full:] = (O[: tail * p] @ x).reshape(tail, p, q)
                    x = powers[tail] @ x
            else:
                # block (j, i) of T_L is C A^(j-1-i) = rev[L-1-j+i], rev holding C A^(L-2),
                # ..., C A^0 and then L zero blocks: row j is the window of rev from L-1-j.
                # Built as one view and one copy; structured_ops.block_toeplitz caches an
                # (L*L, L) selection matrix, 256 KiB at L = 32, which showed in peak RSS.
                rev = np.concatenate([CA[-2::-1], np.zeros((L, p, n))])
                T = np.lib.stride_tricks.sliding_window_view(rev, L, axis=0)[::-1]
                T = T.transpose(0, 1, 3, 2).reshape(L * p, L * n)
                R = powers[L - 1 :: -1].transpose(1, 0, 2).reshape(n, L * n)
                d = np.asarray(drive, dtype=float).reshape(steps, n, q)
                windows = d[:full].reshape(nb, L * n, q)
                forced = R @ windows
                for b in range(nb):
                    starts[b] = x
                    x = powers[L] @ x + forced[b]
                view = out[:full].reshape(nb, L * p, q)
                np.matmul(O, starts, out=view)
                view += T @ windows
                if tail:
                    d = d[full:].reshape(tail * n, q)
                    out[full:] = (O[: tail * p] @ x + T[: tail * p, : tail * n] @ d).reshape(tail, p, q)
                    x = powers[tail] @ x + R[:, (L - tail) * n :] @ d
    if not (np.all(np.isfinite(out)) and np.all(np.isfinite(x))):
        raise SimulationOverflowError(f"state recursion overflow within {steps} samples")
    return out.reshape((steps, p) + cols)


def simulate(model: StateSpaceModel, u: np.ndarray, x0=None) -> np.ndarray:
    """Simulate the deterministic part of the model.

    Runs x(k+1) = A x(k) + B u(k), yhat(k) = C x(k) + D u(k) starting
    from x(0) = x0 (zeros when omitted).  The gain K plays no role here:
    this is a simulation, not a filter.

    Raises:
        SimulationOverflowError: if the recursion leaves float range
            (unstable A over a long horizon).
    """
    u = _check_input(u, model.m)
    x0 = _check_x0(x0, model.n)
    return state_response(model.A, model.C, x0, u.shape[0], u @ model.B.T) + u @ model.D.T


def predict_observer(obs: ObserverModel, rec: IoRecord, x0=None) -> np.ndarray:
    """One-step-ahead prediction with the observer driven by measured data.

    Runs xhat(k+1) = Aobs xhat(k) + Bobs u(k) + K y(k) and returns
    yhat(k) = C xhat(k) + D u(k).
    """
    if rec.m != obs.m or rec.p != obs.p:
        raise ValueError(
            f"record has (m={rec.m}, p={rec.p}), observer expects (m={obs.m}, p={obs.p})"
        )
    x0 = _check_x0(x0, obs.n)
    drive = rec.u @ obs.Bobs.T + rec.y @ obs.K.T
    return state_response(obs.Aobs, obs.C, x0, rec.N, drive) + rec.u @ obs.D.T


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
    x0 = _check_x0(x0, model.n)
    if not (np.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")
    N = u.shape[0]
    rng = np.random.default_rng(seed)
    e = noise_std * rng.standard_normal((N, model.p)) if noise_std > 0 else np.zeros((N, model.p))
    drive = u @ model.B.T + e @ model.K.T
    y = state_response(model.A, model.C, x0, N, drive) + u @ model.D.T + e
    return IoRecord(u=u, y=y)
