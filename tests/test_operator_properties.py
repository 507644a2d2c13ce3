"""Property tests of the linear map A(x) = Yhat_s + T(x) data, its adjoint, M
and the x-update's Schur complement.

Specs are drawn over small windows and records, with and without inputs
(m = 0 is the output-only program), and checked against the inner-product
identity and the index-loop and probing oracles in helpers.py.  Examples
are drawn deterministically so the suite gives the same result on every
run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n2sid.admm import SweepFactorization, _XSolver
from n2sid.structured_ops import (
    OperatorSpec,
    apply_adjoint,
    apply_operator,
    block_hankel,
    block_toeplitz,
    build_M,
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
@given(specs())
def test_coefficient_pieces_apply_adjoint_of_operator(drawn):
    spec, rng, _, _ = drawn
    x = random_decision(rng, spec)
    want = apply_adjoint(apply_operator(x, spec), spec)
    M = dense_M(spec)
    got = np.stack([M @ x_i for x_i in x])
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_coefficient_diagonal_is_the_exact_occupancy_count():
    # every (N, s) with s <= 7 and N <= 24, N < 2s - 1 included; diag depends on nothing else
    for s in range(2, 8):
        for N in range(s + 1, 25):
            spec = OperatorSpec.from_data(np.zeros((N, 0)), np.arange(N, dtype=float), s)
            hits = block_hankel(np.arange(N), s).astype(int).ravel()
            counts = np.bincount(hits, minlength=N).astype(float)
            assert np.array_equal(build_M(spec)[0], counts), (N, s)


def _assert_schur_matches_dense(spec: OperatorSpec, weight: float, rho: float) -> None:
    diag, cross, small = build_M(spec)
    want = rho * small - rho**2 * cross.T @ np.diag(1.0 / (weight + rho * diag)) @ cross
    got = _XSolver(SweepFactorization.from_spec(spec), weight, rho).S
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@PROPERTY
@given(specs(), st.floats(0.0, 10.0), st.sampled_from([1e-6, 0.25, 1.0, 8.0, 1e6]))
def test_schur_complement_from_the_interior_gram_matches_dense(drawn, weight, rho):
    _assert_schur_matches_dense(drawn[0], weight, rho)


@pytest.mark.parametrize(
    "m, p, N, s",
    [(0, 2, 20, 5), (0, 1, 9, 6), (1, 1, 8, 6), (2, 2, 7, 6), (1, 2, 30, 4)],
    ids=["output-only-p2", "output-only-short", "short", "ncols2-mimo", "long"],
)
def test_schur_complement_covers_short_records_and_no_inputs(m, p, N, s):
    # N < 2s - 1 in the short cases: there the interior count is ncols, not s
    rng = np.random.default_rng(N * s + m + p)
    spec = OperatorSpec.from_data(rng.standard_normal((N, m)), rng.standard_normal((N, p)), s)
    for weight, rho in ((0.0, 1.0), (0.3, 2.0), (40.0, 0.5)):
        _assert_schur_matches_dense(spec, weight, rho)
