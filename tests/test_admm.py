import math

import numpy as np
import pytest

from n2sid.admm import (
    AdmmParams,
    SweepFactorization,
    _XSolver,
    build_quadratic,
    nuclear_norm,
    objective_value,
    solve,
    svt,
    sweep,
)
from n2sid.errors import SolverError
from n2sid.model import generate_innovation_data
from n2sid.structured_ops import OperatorSpec

from helpers import dense_M, make_siso_order2, prbs, random_decision, random_spec


def reference_params(iters=5000):
    """Fixed-penalty long run: adaptation disabled via an infinite balance ratio."""
    return AdmmParams(max_iter=iters, eps_abs=1e-14, eps_rel=1e-14, mu=math.inf)


def small_problem(seed, N=40, s=6, noise=0.05):
    rng = np.random.default_rng(seed)
    model = make_siso_order2()
    u = prbs(rng, N, 1)
    rec = generate_innovation_data(model, u, noise_std=noise, seed=seed + 1)
    return OperatorSpec.from_data(rec.u, rec.y, s), rec


# ---------------------------------------------------------------------------
# svt


def test_svt_zero_threshold_identity():
    Y = np.random.default_rng(0).standard_normal((4, 6))
    assert np.array_equal(svt(Y, 0.0), Y)


def test_svt_diagonal_shrinkage():
    np.testing.assert_allclose(svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_matches_independent_svd():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((5, 7))
    t = 0.8
    out = svt(Y, t)
    sv_in = np.linalg.svd(Y, compute_uv=False)
    sv_out = np.linalg.svd(out, compute_uv=False)
    np.testing.assert_allclose(sv_out, np.maximum(sv_in - t, 0.0), atol=1e-10)


def test_svt_rank_and_annihilation():
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((6, 4))
    sv = np.linalg.svd(Y, compute_uv=False)
    assert np.linalg.matrix_rank(svt(Y, 0.3)) <= np.linalg.matrix_rank(Y)
    assert np.abs(svt(Y, sv[0] + 1e-12)).max() == 0.0
    with pytest.raises(ValueError):
        svt(Y, -0.1)


# ---------------------------------------------------------------------------
# quadratic term


def test_build_quadratic_zero_lambda():
    quad = build_quadratic(np.ones((10, 1)), 0.0)
    assert quad.weight == 0.0
    x = np.zeros((1, 10 + 3 + 2))
    assert quad.half_quadratic(x) == 0.0


def test_build_quadratic_negative_lambda():
    with pytest.raises(ValueError):
        build_quadratic(np.ones((5, 1)), -1.0)


def test_quadratic_matches_fit_term():
    rng = np.random.default_rng(3)
    spec = random_spec(rng)
    y = rng.standard_normal((spec.N, spec.p))
    lam = 2.7
    quad = build_quadratic(y, lam)
    for _ in range(5):
        x = random_decision(rng, spec)
        direct = (lam / spec.N) * float(np.sum((y - x[:, : spec.N].T) ** 2))
        assert quad.half_quadratic(x) == pytest.approx(direct, rel=1e-12)


def test_quadratic_a_vector_blocks():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((12, 1))
    y = rng.standard_normal((12, 2))
    spec = OperatorSpec.from_data(u, y, s=3)
    quad = build_quadratic(y, 1.0)
    # a = [y', 0]: the fit term vanishes there, whatever the Toeplitz part holds
    a = np.zeros((spec.p, spec.block_dim))
    a[:, : spec.N] = y.T
    assert quad.half_quadratic(a) == 0.0
    shifted = a.copy()
    shifted[:, spec.N :] = rng.standard_normal((spec.p, spec.block_dim - spec.N))
    assert quad.half_quadratic(shifted) == 0.0
    # and a is solve's default starting point
    params = AdmmParams(max_iter=3)
    assert np.array_equal(solve(spec, quad, params).Z, solve(spec, quad, params, x0=a).Z)


# ---------------------------------------------------------------------------
# x-update


def dense_system(spec, weight, rho):
    T = rho * dense_M(spec)
    T[np.arange(spec.N), np.arange(spec.N)] += weight
    return T


def test_x_update_matches_dense_lstsq():
    rng = np.random.default_rng(5)
    regular, _ = small_problem(5)
    zero_input = OperatorSpec.from_data(np.zeros((40, 1)), rng.standard_normal((40, 1)), 6)
    # Each case: (spec, weight, rho, whether H + rho M is singular).  With an
    # input, yhat = u, v = e_0 is a null vector of M; with a zero input, every
    # input-Toeplitz coordinate vector is one.
    for spec, weight, rho, singular in (
        (regular, 0.3, 2.0, False),
        (regular, 0.0, 0.5, True),
        (zero_input, 0.3, 2.0, True),
        (zero_input, 0.0, 1.0, True),
    ):
        T = dense_system(spec, weight, rho)
        _, sv, Vt = np.linalg.svd(T)
        rank = int(np.sum(sv > 1e-12 * sv[0]))
        assert (rank < spec.block_dim) == singular
        # a right-hand side in the range of T, so the singular systems are consistent
        RHS = T @ rng.standard_normal((spec.block_dim, 2))
        X = _XSolver(SweepFactorization.from_spec(spec), weight, rho).solve(RHS)
        ref = np.linalg.lstsq(T, RHS, rcond=1e-12)[0]
        # equal up to a null vector of T, which the minimum-norm ref lacks
        gap = np.abs(Vt[:rank] @ (X - ref)).max()
        assert gap <= 1e-8 * (1.0 + np.abs(ref).max())
        if spec is zero_input:
            assert np.abs(X[spec.N : spec.N + spec.s]).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_x_update_inconsistent_singular_system_raises():
    y = np.random.default_rng(6).standard_normal((40, 1))
    spec = OperatorSpec.from_data(np.zeros((40, 1)), y, 6)
    RHS = np.zeros((spec.block_dim, 1))
    RHS[spec.N] = 1.0  # forcing on an input-Toeplitz coordinate M does not reach
    with pytest.raises(SolverError):
        _XSolver(SweepFactorization.from_spec(spec), 0.3, 2.0).solve(RHS)


# ---------------------------------------------------------------------------
# solve


def test_solve_zero_lambda_objective_vanishes():
    spec, rec = small_problem(6)
    res = solve(spec, build_quadratic(rec.y, 0.0))
    assert res.objective <= 1e-6


def test_solve_huge_lambda_pins_output_and_rank():
    model = make_siso_order2()
    rng = np.random.default_rng(7)
    u = prbs(rng, 50, 1)
    rec = generate_innovation_data(model, u, noise_std=0.0)
    spec = OperatorSpec.from_data(rec.u, rec.y, s=8)
    lam = 1e9 * spec.N
    res = solve(spec, build_quadratic(rec.y, lam))
    rel = np.linalg.norm(res.x[:, : spec.N].T - rec.y) / np.linalg.norm(rec.y)
    assert rel <= 1e-4
    sv = np.linalg.svd(res.Z, compute_uv=False)
    assert np.sum(sv > 1e-6 * sv[0]) <= 2


def random_data_problem(seed):
    """Unstructured random i/o data, as in the operator-level trials."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(30, 61))
    s = int(rng.integers(4, 11))
    u = rng.standard_normal((N, 1))
    y = rng.standard_normal((N, 1))
    lam = N * 10.0 ** rng.uniform(-1.5, 3.0)
    return OperatorSpec.from_data(u, y, s), y, lam


def test_solve_matches_long_reference_run():
    for seed in (10, 11, 12):
        spec, y, lam = random_data_problem(seed)
        quad = build_quadratic(y, lam)
        res = solve(spec, quad)
        ref = solve(spec, quad, reference_params())
        assert res.objective <= ref.objective + 1e-4 * (1.0 + abs(ref.objective))


def test_solve_converged_residual_contract():
    spec, rec = small_problem(12)
    params = AdmmParams()
    res = solve(spec, build_quadratic(rec.y, 2.0), params)
    assert res.converged
    from n2sid.structured_ops import apply_operator

    ax = apply_operator(res.x, spec)
    thresh = math.sqrt(res.Z.size) * params.eps_abs + params.eps_rel * max(
        np.linalg.norm(ax), np.linalg.norm(res.Z)
    )
    assert np.linalg.norm(ax - res.Z) <= thresh


def test_solve_rejects_mismatched_outputs():
    spec, rec = small_problem(13)
    with pytest.raises(ValueError):
        solve(spec, build_quadratic(rec.y[:-1], 1.0))


def test_solve_rejects_factorization_of_another_record():
    rng = np.random.default_rng(20)
    # two records of the same size: M depends on the samples, not only on (N, s, p, m)
    u, y = rng.standard_normal((100, 1)), rng.standard_normal((100, 1))
    spec = OperatorSpec.from_data(u, y, 5)
    other = OperatorSpec.from_data(rng.standard_normal((100, 1)), rng.standard_normal((100, 1)), 5)
    quad = build_quadratic(y, 50.0)
    fact = SweepFactorization.from_spec(spec)
    assert fact.matches(OperatorSpec.from_data(u.copy(), y.copy(), 5))
    assert not fact.matches(other)
    with pytest.raises(ValueError, match="different operator spec"):
        solve(other, quad, fact=fact)
    with pytest.raises(ValueError, match="different operator spec"):
        sweep(other, y, [50.0], fact=fact)
    assert solve(spec, quad, fact=fact).converged


def test_params_validation():
    with pytest.raises(ValueError):
        AdmmParams(tau=1.0)
    with pytest.raises(ValueError):
        AdmmParams(max_iter=0)
    with pytest.raises(ValueError):
        AdmmParams(eps_abs=0.0)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_point_equals_direct_solve():
    spec, rec = small_problem(14)
    lam = 3.0
    direct = solve(spec, build_quadratic(rec.y, lam))
    swept = sweep(spec, rec.y, [lam])
    assert len(swept) == 1
    assert np.array_equal(swept[0].x, direct.x)
    assert swept[0].objective == direct.objective


def test_sweep_warm_start_consistency():
    spec, y, _ = random_data_problem(15)
    grid = spec.N * np.logspace(-1.5, 3, 6)
    warm = sweep(spec, y, grid)
    cold = [solve(spec, build_quadratic(y, lam)) for lam in grid]
    for a, b in zip(warm, cold):
        assert a.objective == pytest.approx(b.objective, rel=1e-4, abs=1e-6)


def test_sweep_monotone_terms_in_lambda():
    spec, rec = small_problem(16)
    grid = np.logspace(-1, 2, 6)
    results = sweep(spec, rec.y, grid)
    fit = []
    nuc = []
    for res in results:
        assert res is not None
        fit.append(float(np.sum((rec.y - res.x[:, : spec.N].T) ** 2)))
        nuc.append(nuclear_norm(np.asarray(res.Z)))
    for a, b in zip(fit[:-1], fit[1:]):
        assert b <= a * (1 + 1e-3) + 1e-9
    for a, b in zip(nuc[:-1], nuc[1:]):
        assert b >= a * (1 - 1e-3) - 1e-9


def test_sweep_grid_validation():
    spec, rec = small_problem(17)
    with pytest.raises(ValueError):
        sweep(spec, rec.y, [])
    with pytest.raises(ValueError):
        sweep(spec, rec.y, [-1.0, 1.0])
    with pytest.raises(ValueError):
        sweep(spec, rec.y, [2.0, 1.0])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            sweep(spec, rec.y, [1.0, bad])


def test_objective_value_consistency():
    spec, rec = small_problem(18)
    quad = build_quadratic(rec.y, 4.0)
    res = solve(spec, quad)
    assert res.objective == pytest.approx(objective_value(spec, quad, res.x), rel=1e-12)
