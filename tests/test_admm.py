import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import n2sid.admm
from n2sid.admm import (
    AdmmParams,
    SweepFactorization,
    _XSolver,
    nuclear_norm,
    objective_value,
    solve,
    svt,
    sweep,
)
from n2sid.errors import SolverError
from n2sid.model import generate_innovation_data
from n2sid.structured_ops import OperatorSpec, apply_operator

from helpers import (
    dense_M,
    make_mimo_order4,
    make_record,
    make_siso_order2,
    prbs,
    random_decision,
    random_spec,
    reference_solve,
    svd_svt,
)


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


def orthonormal_columns(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


def test_svt_falls_back_to_svd_below_gram_cutoff(monkeypatch):
    # 15 x 1986, the shape of Z on a long SISO record, with one kept
    # singular value at 1e-6 sigma_max, which the Gram path misses by ~1e-11
    rng = np.random.default_rng(30)
    U, V = orthonormal_columns(rng, 15, 15), orthonormal_columns(rng, 1986, 15)
    sigma = np.concatenate([[1.0, 0.5, 0.2, 1e-6], np.full(11, 1e-8)])
    Y = (U * sigma) @ V.T
    t = 5e-7  # keeps the 1e-6 component, below GRAM_CUTOFF * sigma_max
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k))
    out = svt(Y, t)
    assert len(calls) == 1
    components = U.T @ out @ V
    np.testing.assert_allclose(components, np.diag(np.maximum(sigma - t, 0.0)), rtol=0, atol=1e-12)


@st.composite
def svt_cases(draw):
    """(Y, threshold) over wide, tall and square shapes and these spectra:
    full rank, deficient rank, zero, and graded down to 1e-8 sigma_max,
    which puts kept values on both sides of the Gram cutoff."""
    rows, cols = draw(st.sampled_from([(4, 30), (15, 136), (30, 5), (7, 7), (1, 9), (9, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "deficient", "zero", "graded"]))
    k = min(rows, cols)
    if kind == "zero":
        Y = np.zeros((rows, cols))
    elif kind == "graded":
        sigma = np.logspace(0, -8, k)
        Y = (orthonormal_columns(rng, rows, k) * sigma) @ orthonormal_columns(rng, cols, k).T
    else:
        rank = k if kind == "full" else draw(st.integers(1, k))
        Y = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    sigma_max = float(np.linalg.norm(Y, 2))
    # from far below the smallest singular value to above the largest; a
    # graded spectrum gets one that keeps values below the Gram cutoff
    top = -4.0 if kind == "graded" else 0.2
    t = 10.0 ** draw(st.floats(-9.0, top)) * (sigma_max if sigma_max > 0 else 1.0)
    return Y, t


@settings(max_examples=80, derandomize=True, deadline=None)
@given(svt_cases())
def test_svt_matches_svd_shrinkage(case):
    Y, t = case
    out = svt(Y, t)
    assert out.shape == Y.shape
    U, sv, Vt = np.linalg.svd(Y, full_matrices=False)
    shrunk = np.maximum(sv - t, 0.0)
    scale = 1.0 + sv[0]
    np.testing.assert_allclose(out, (U * shrunk) @ Vt, rtol=0, atol=1e-10 * scale)
    # each component on the reference's singular vectors, relative to its own size
    components = np.diag(U.T @ out @ Vt.T)
    assert np.all(np.abs(components - shrunk) <= 1e-6 * sv + 1e-11 * scale)
    if t > (1.0 + 1e-12) * sv[0]:
        assert np.all(out == 0.0)


def test_svt_rejects_non_finite_input():
    Y = np.random.default_rng(31).standard_normal((15, 136))
    for bad in (np.nan, np.inf):
        Y_bad = Y.copy()
        Y_bad[3, 40] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match="non-finite"):
                svt(Y_bad, 0.5)


# ---------------------------------------------------------------------------
# fit term


def test_objective_value_zero_lambda():
    u, y = np.zeros((10, 1)), np.ones((10, 1))
    spec = OperatorSpec.from_data(u, y, 3)
    x = np.zeros((1, 10 + 3 + 2))
    assert objective_value(spec, y, 0.0, x) == 0.0
    # at lambda = 0 the fit term vanishes wherever X is
    x = random_decision(np.random.default_rng(3), spec)
    assert objective_value(spec, y, 0.0, x) == nuclear_norm(apply_operator(x, spec))


def test_lambda_outside_range_rejected():
    spec, rec = small_problem(3)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            objective_value(spec, rec.y, lam, np.zeros((1, spec.block_dim)))
        with pytest.raises(ValueError, match="nonnegative"):
            solve(spec, rec.y, lam)


def test_quadratic_matches_fit_term():
    rng = np.random.default_rng(3)
    spec = random_spec(rng)
    y = rng.standard_normal((spec.N, spec.p))
    lam = 2.7
    for _ in range(5):
        x = random_decision(rng, spec)
        direct = (lam / spec.N) * float(np.sum((y - x[:, : spec.N].T) ** 2))
        fit = objective_value(spec, y, lam, x) - objective_value(spec, y, 0.0, x)
        assert fit == pytest.approx(direct, rel=1e-12)


def test_quadratic_a_vector_blocks():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((12, 1))
    y = rng.standard_normal((12, 2))
    spec = OperatorSpec.from_data(u, y, s=3)
    # a = [y', 0]: the fit term vanishes there, whatever the Toeplitz part holds
    a = np.zeros((spec.p, spec.block_dim))
    a[:, : spec.N] = y.T
    assert objective_value(spec, y, 1.0, a) == nuclear_norm(apply_operator(a, spec))
    shifted = a.copy()
    shifted[:, spec.N :] = rng.standard_normal((spec.p, spec.block_dim - spec.N))
    assert objective_value(spec, y, 1.0, shifted) == nuclear_norm(apply_operator(shifted, spec))
    # and a cold start is a warm start from Z = A(a), Y = 0
    params = AdmmParams(max_iter=3)
    cold = solve(spec, y, 1.0, params)
    start = replace(cold, Z=apply_operator(a, spec), y_dual=np.zeros_like(cold.Z))
    warm = solve(spec, y, 1.0, params, warm=start)
    assert np.array_equal(cold.Z, warm.Z)
    assert np.array_equal(cold.x, warm.x)
    assert np.array_equal(cold.y_dual, warm.y_dual)


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
    res = solve(spec, rec.y, 0.0)
    assert objective_value(spec, rec.y, 0.0, res.x) <= 1e-6


def test_solve_huge_lambda_pins_output_and_rank():
    model = make_siso_order2()
    rng = np.random.default_rng(7)
    u = prbs(rng, 50, 1)
    rec = generate_innovation_data(model, u, noise_std=0.0)
    spec = OperatorSpec.from_data(rec.u, rec.y, s=8)
    lam = 1e9 * spec.N
    res = solve(spec, rec.y, lam)
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
        res = solve(spec, y, lam)
        ref = solve(spec, y, lam, reference_params())
        res_obj, ref_obj = (objective_value(spec, y, lam, r.x) for r in (res, ref))
        assert res_obj <= ref_obj + 1e-4 * (1.0 + abs(ref_obj))


def test_solve_converged_residual_contract():
    spec, rec = small_problem(12)
    params = AdmmParams()
    res = solve(spec, rec.y, 2.0, params)
    assert res.converged
    ax = apply_operator(res.x, spec)
    thresh = math.sqrt(res.Z.size) * params.eps_abs + params.eps_rel * max(
        np.linalg.norm(ax), np.linalg.norm(res.Z)
    )
    assert np.linalg.norm(ax - res.Z) <= thresh


def test_solve_accepts_one_dimensional_outputs():
    spec, rec = small_problem(13)
    flat, column = solve(spec, rec.y[:, 0], 1.0), solve(spec, rec.y, 1.0)
    assert np.array_equal(flat.x, column.x)
    assert objective_value(spec, rec.y, 1.0, flat.x) == objective_value(spec, rec.y, 1.0, column.x)


def test_solve_rejects_mismatched_outputs():
    spec, rec = small_problem(13)
    with pytest.raises(ValueError):
        solve(spec, rec.y[:-1], 1.0)


def test_solve_rejects_factorization_of_another_record():
    rng = np.random.default_rng(20)
    # two records of the same size: M depends on the samples, not only on (N, s, p, m)
    u, y = rng.standard_normal((100, 1)), rng.standard_normal((100, 1))
    spec = OperatorSpec.from_data(u, y, 5)
    other = OperatorSpec.from_data(rng.standard_normal((100, 1)), rng.standard_normal((100, 1)), 5)
    fact = SweepFactorization.from_spec(spec)
    assert fact.matches(OperatorSpec.from_data(u.copy(), y.copy(), 5))
    assert not fact.matches(other)
    with pytest.raises(ValueError, match="different operator spec"):
        solve(other, y, 50.0, fact=fact)
    with pytest.raises(ValueError, match="different operator spec"):
        sweep(other, y, [50.0], fact=fact)
    assert solve(spec, y, 50.0, fact=fact).converged


def test_solve_applies_the_adjoint_once_per_iteration(monkeypatch):
    spec, rec = small_problem(19)
    calls = {"apply_adjoint": 0, "svt": 0}
    for name in calls:
        real = getattr(n2sid.admm, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(n2sid.admm, name, counted)
    res = solve(spec, rec.y, 2.0)
    assert res.iterations > 2
    assert calls["svt"] == res.iterations
    # one per iteration, plus adj(Z) and adj(Y) of the starting point
    assert calls["apply_adjoint"] <= res.iterations + 2


@pytest.mark.parametrize(
    "model, N, output_only",
    [(make_siso_order2(), 80, False), (make_siso_order2(), 400, False), (make_mimo_order4(), 400, True)],
    ids=["siso2-N80", "siso2-N400", "mimo4-output-only-N400"],
)
def test_solve_matches_three_adjoint_reference_loop(model, N, output_only):
    rec = make_record(model, N, seed=40, noise_std=0.2)
    u = np.zeros((N, 0)) if output_only else rec.u
    spec = OperatorSpec.from_data(u, rec.y, 15)
    fact = SweepFactorization.from_spec(spec)
    params = AdmmParams()
    warm = ref_warm = None
    for lam in N * np.logspace(-1.5, 3, 8):
        warm = solve(spec, rec.y, lam, params, fact, warm=warm)
        ref_warm = reference_solve(spec, rec.y, lam, params, fact, warm=ref_warm)
        assert warm.iterations == ref_warm.iterations
        assert warm.converged == ref_warm.converged
        gap = np.linalg.norm(warm.Z - ref_warm.Z) / np.linalg.norm(ref_warm.Z)
        assert gap <= 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        AdmmParams(mu=1.0)
    with pytest.raises(ValueError):
        AdmmParams(max_iter=0)
    with pytest.raises(ValueError):
        AdmmParams(eps_abs=0.0)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_point_equals_direct_solve():
    spec, rec = small_problem(14)
    lam = 3.0
    direct = solve(spec, rec.y, lam)
    swept = sweep(spec, rec.y, [lam])
    assert len(swept) == 1
    assert np.array_equal(swept[0].x, direct.x)
    assert np.array_equal(swept[0].Z, direct.Z)


def test_sweep_point_is_solve_warm_started_from_previous_point():
    spec, y, _ = random_data_problem(15)
    grid = spec.N * np.logspace(-1.5, 3, 4)
    fact = SweepFactorization.from_spec(spec)
    swept = sweep(spec, y, grid, fact=fact)
    warm = None
    for lam, got in zip(grid, swept):
        want = solve(spec, y, lam, fact=fact, warm=warm)
        assert got.iterations == want.iterations
        for name in ("x", "Z", "y_dual"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        warm = want


@pytest.mark.parametrize("error", [SolverError, np.linalg.LinAlgError])
def test_sweep_maps_a_failed_point_to_none_and_warm_starts_past_it(monkeypatch, error):
    spec, y, _ = random_data_problem(15)
    grid = spec.N * np.logspace(-1.5, 3, 3)
    fact = SweepFactorization.from_spec(spec)

    def failing_at_the_middle_point(spec_, y_, lam, *args, **kwargs):
        if lam == grid[1]:
            raise error("forced failure")
        return solve(spec_, y_, lam, *args, **kwargs)

    monkeypatch.setattr(n2sid.admm, "solve", failing_at_the_middle_point)
    swept = sweep(spec, y, grid, fact=fact)
    assert swept[1] is None
    # the point after the failure is warm-started from the last successful result
    want = solve(spec, y, grid[2], fact=fact, warm=swept[0])
    assert swept[2].iterations == want.iterations
    for name in ("x", "Z", "y_dual"):
        assert np.array_equal(getattr(swept[2], name), getattr(want, name))


def test_sweep_warm_start_consistency():
    spec, y, _ = random_data_problem(15)
    grid = spec.N * np.logspace(-1.5, 3, 6)
    warm = sweep(spec, y, grid)
    cold = [solve(spec, y, lam) for lam in grid]
    for lam, a, b in zip(grid, warm, cold):
        assert objective_value(spec, y, lam, a.x) == pytest.approx(
            objective_value(spec, y, lam, b.x), rel=1e-4, abs=1e-6
        )


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
    res = solve(spec, rec.y, 4.0)
    fit = 4.0 / spec.N * float(np.sum((rec.y - res.x[:, : spec.N].T) ** 2))
    want = nuclear_norm(apply_operator(res.x, spec)) + fit
    assert objective_value(spec, rec.y, 4.0, res.x) == pytest.approx(want, rel=1e-12)
