"""Property tests of the linear map A(x) = Yhat_s + T(x) data, its adjoint and M.

Specs are drawn over small windows and records, with and without inputs
(m = 0 is the output-only program), and checked against the inner-product
identity and the index-loop and probing oracles in helpers.py.  Examples
are drawn deterministically so the suite gives the same result on every
run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from n2sid.structured_ops import (
    OperatorSpec,
    apply_adjoint,
    apply_operator,
    block_hankel,
    block_toeplitz,
    block_toeplitz_adjoint,
    toeplitz_estimates,
)

from helpers import dense_M, dense_output_operator, probe_M, random_decision

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def specs(draw):
    """(spec, rng, u, y) with s in 2..6, N in s+2..30, m in 0..2, p in 1..2."""
    s = draw(st.integers(2, 6))
    N = draw(st.integers(s + 2, 30))
    m = draw(st.integers(0, 2))
    p = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(SEEDS))
    u = rng.standard_normal((N, m))
    y = rng.standard_normal((N, p))
    return OperatorSpec.from_data(u, y, s), rng, u, y


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-10 * (1.0 + abs(a))


@PROPERTY
@given(specs())
def test_adjoint_identity(drawn):
    spec, rng, _, _ = drawn
    x = random_decision(rng, spec)
    Z = rng.standard_normal((spec.p * spec.s, spec.ncols))
    lhs = float(np.sum(apply_operator(x, spec) * Z))
    rhs = float(np.sum(apply_adjoint(Z, spec) * x))
    assert _close(lhs, rhs)


@PROPERTY
@given(specs())
def test_operator_matches_dense_oracle(drawn):
    spec, rng, _, _ = drawn
    Amat = dense_output_operator(spec)
    x = random_decision(rng, spec)
    Z = apply_operator(x, spec)
    for i in range(spec.p):
        np.testing.assert_allclose(Z[i :: spec.p].ravel(), Amat @ x[i], atol=1e-10)


@PROPERTY
@given(specs())
def test_coefficient_matrix_matches_probe(drawn):
    # covers the output channels' dropped lag-0 entries at m = 0 and p = 2
    spec, _, _, _ = drawn
    np.testing.assert_allclose(dense_M(spec), probe_M(spec), atol=1e-8)


@PROPERTY
@given(specs())
def test_toeplitz_estimates_reproduce_the_data_equation(drawn):
    spec, rng, u, y = drawn
    x = random_decision(rng, spec)
    blocks = toeplitz_estimates(x, spec)
    Tu = block_toeplitz(blocks[:, :, : spec.m])
    Ty = block_toeplitz(blocks[:, :, spec.m :])
    rebuilt = (
        block_hankel(x[:, : spec.N].T, spec.s)
        - Tu @ block_hankel(u, spec.s)
        - Ty @ block_hankel(y, spec.s)
    )
    np.testing.assert_allclose(apply_operator(x, spec), rebuilt, atol=1e-10)
    assert np.all(Ty[: spec.p] == 0.0)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3), SEEDS)
def test_block_toeplitz_adjoint_identity(s, p, q, seed):
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((s, p, q))
    T = rng.standard_normal((p * s, q * s))
    lhs = float(np.sum(block_toeplitz(blocks) * T))
    rhs = float(np.sum(blocks * block_toeplitz_adjoint(T, p)))
    assert _close(lhs, rhs)
