"""Seeded benchmark records, generated independently of the n2sid package.

Records come from the benchmark's own innovation-form recursion

    x(k+1) = A x(k) + B u(k) + K e(k),    y(k) = C x(k) + D u(k) + e(k)

driven by a +/-1 PRBS input u and Gaussian innovations e, so a change to
the program under test cannot change the data it is measured on.  The
same (seed, stream, job) triple always gives byte-identical records.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

BURN_IN = 200


@dataclass(frozen=True)
class System:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K: np.ndarray
    noise_std: float


# order 2, one input, one output (the paper's short-record example system)
SISO2 = System(
    A=np.array([[0.7, 0.3], [-0.3, 0.7]]),
    B=np.array([[2.0], [1.0]]),
    C=np.array([[2.0, -0.8]]),
    D=np.array([[0.2]]),
    K=np.array([[0.5], [-0.2]]),
    noise_std=0.3,
)

# order 4, two inputs, two outputs: two damped oscillatory modes, coupled
MIMO4 = System(
    A=np.array(
        [
            [0.8, 0.2, 0.0, 0.0],
            [-0.2, 0.8, 0.0, 0.0],
            [0.0, 0.0, 0.6, -0.4],
            [0.0, 0.0, 0.4, 0.6],
        ]
    ),
    B=np.array([[1.0, 0.0], [0.5, 0.3], [0.0, 1.0], [0.2, -0.6]]),
    C=np.array([[1.0, 0.0, 0.8, 0.0], [0.0, 0.7, 0.0, 1.0]]),
    D=np.array([[0.1, 0.0], [0.0, 0.1]]),
    K=np.array([[0.3, 0.0], [0.0, 0.2], [0.1, 0.0], [0.0, 0.1]]),
    noise_std=0.2,
)


def rng_for(seed: int, stream: str, job: int) -> np.random.Generator:
    """Generator for one record: distinct per (seed, stream name, job index)."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode()), job + 1])


def innovation_record(system: System, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(u, y) of n samples after a burn-in that is run and discarded."""
    m = system.B.shape[1]
    p = system.C.shape[0]
    total = BURN_IN + n
    u = rng.integers(0, 2, size=(total, m)) * 2.0 - 1.0
    e = system.noise_std * rng.standard_normal((total, p))
    y = np.empty((total, p))
    x = np.zeros(system.A.shape[0])
    for k in range(total):
        y[k] = system.C @ x + system.D @ u[k] + e[k]
        x = system.A @ x + system.B @ u[k] + system.K @ e[k]
    return u[BURN_IN:], y[BURN_IN:]


def csv_text(u: np.ndarray, y: np.ndarray) -> str:
    """CSV with header u1..um,y1..yp and full-precision values."""
    header = [f"u{j + 1}" for j in range(u.shape[1])] + [f"y{j + 1}" for j in range(y.shape[1])]
    lines = [",".join(header)]
    for uk, yk in zip(u, y):
        lines.append(",".join(repr(float(v)) for v in (*uk, *yk)))
    return "\n".join(lines) + "\n"
