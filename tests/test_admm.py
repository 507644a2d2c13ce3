import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import n2sid.admm
from n2sid.admm import (
    AA_REG,
    RHO_MAX,
    RHO_MIN,
    TAU_MAX,
    AdmmParams,
    SweepFactorization,
    _anderson_weights,
    _penalty_step,
    _predicted_start,
    _XSolver,
    nuclear_norm,
    objective_value,
    solve,
    svt,
    sweep,
)
from n2sid.errors import SolverError
from n2sid.model import generate_innovation_data
from n2sid.pipeline import PipelineConfig
from n2sid.structured_ops import OperatorSpec, apply_adjoint, apply_operator, build_M

from helpers import (
    dense_M,
    make_mimo_order4,
    make_record,
    make_siso_order2,
    prbs,
    random_decision,
    random_spec,
    recomputed_residuals,
    reference_solve,
    svd_svt,
)


def reference_params(iters=5000):
    """Fixed-penalty long run: adaptation disabled via an infinite balance ratio."""
    return AdmmParams(max_iter=iters, eps_abs=1e-14, eps_rel=1e-14, mu=math.inf)


def tight_params():
    """A residual rule far past the default one, for reference runs."""
    return AdmmParams(max_iter=3000, eps_abs=1e-9, eps_rel=1e-6)


def assert_exact_residuals(spec, y, lam, res, cond=1.0):
    """primal_res and dual_res are ||A(x) - Z|| and ||H (x - a) + adj(y_dual)||, up to
    the rounding of the X step, whose Schur complement has condition number cond."""
    pri, dual, scale = recomputed_residuals(spec, y, lam, res)
    tol = (1e-10 + 1e-12 * cond) * scale
    assert abs(res.primal_res - pri) <= tol
    assert abs(res.dual_res - dual) <= tol


def assert_solves_the_program(spec, y, lam, res, tight, tight_loop):
    """res converged with the exact residuals to an objective within the default
    rule's eps_rel = 1e-3 of the plain loop run tight (at the low-lambda end the
    default plain loop misses criterion 04's 1e-4 too, by up to 4.5x), and the
    solve run tight, ``tight``, is within 1e-6 of it."""
    assert res.converged
    assert_exact_residuals(spec, y, lam, res)
    ref_obj = objective_value(spec, y, lam, tight_loop.x)
    for got, rtol in ((res, 1e-3), (tight, 1e-6)):
        assert objective_value(spec, y, lam, got.x) <= ref_obj + rtol * (1.0 + abs(ref_obj))


def small_problem(seed, N=40, s=6, noise=0.05):
    rng = np.random.default_rng(seed)
    model = make_siso_order2()
    u = prbs(rng, N, 1)
    rec = generate_innovation_data(model, u, noise_std=noise, seed=seed + 1)
    return OperatorSpec.from_data(rec.u, rec.y, s), rec


# ---------------------------------------------------------------------------
# svt


def test_svt_zero_threshold_identity():
    # the Gram path with nothing shrunk: Y to rounding, and its factors handed on
    Y = np.random.default_rng(0).standard_normal((4, 6))
    factors = []
    np.testing.assert_allclose(svt(Y, 0.0, factors=factors), Y, rtol=0, atol=1e-13)
    U, sigma = factors
    np.testing.assert_allclose(sigma, np.linalg.svd(Y, compute_uv=False), rtol=1e-13)
    np.testing.assert_allclose(U.T @ U, np.eye(4), rtol=0, atol=1e-13)


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
    for bad in (-0.1, -np.inf, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            svt(Y, bad)


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


def test_svt_out_matches_the_allocating_call():
    rng = np.random.default_rng(32)
    wide = rng.standard_normal((15, 136))
    U, V = orthonormal_columns(rng, 15, 15), orthonormal_columns(rng, 136, 15)
    graded = (U * np.logspace(0, -8, 15)) @ V.T
    # Gram path (wide and tall), SVD fallback (a kept sigma below the cutoff), zero threshold
    for Y, t in ((wide, 2.0), (wide.T, 2.0), (graded, 1e-7), (wide, 0.0)):
        buf = np.full(Y.shape, np.nan)
        got = svt(Y, t, out=buf)
        assert got is buf
        assert np.array_equal(buf, svt(Y, t))


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


def test_factorization_cross_block_is_contiguous_and_owns_its_memory():
    rng = np.random.default_rng(23)
    for u in (rng.standard_normal((300, 1)), rng.standard_normal((300, 2)), np.zeros((300, 0))):
        spec = OperatorSpec.from_data(u, rng.standard_normal((300, 2)), 15)
        cross = SweepFactorization.from_spec(spec).cross
        assert cross.dtype == np.float64 and cross.flags.c_contiguous
        # not the real part of the complex FFT product
        assert cross.base is None and cross.flags.owndata


@pytest.mark.parametrize(
    "model, N, output_only",
    [(make_siso_order2(), 80, False), (make_siso_order2(), 400, False),
     (make_mimo_order4(), 400, False), (make_mimo_order4(), 400, True)],
    ids=["siso2-N80", "siso2-N400", "mimo4-N400", "mimo4-output-only-N400"],
)
def test_x_update_cholesky_inverse_matches_the_eigendecomposition_pseudo_inverse(model, N, output_only):
    rec = make_record(model, N, seed=40, noise_std=0.2)
    spec = OperatorSpec.from_data(np.zeros((N, 0)) if output_only else rec.u, rec.y, 15)
    fact = SweepFactorization.from_spec(spec)
    rng = np.random.default_rng(N)
    for lam_per_sample in (0.1, 10.0, 1000.0):
        for rho in (1e-3, 1.0, 1e3):
            solver = _XSolver(fact, 2.0 * lam_per_sample, rho)
            assert not solver.cut, "the pseudo-inverse fallback was taken"
            RHS = rng.standard_normal((spec.block_dim, spec.p))
            got = solver.solve(RHS)
            # the fallback's pseudo-inverse, with its residual check
            solver.S_pinv = np.linalg.pinv(solver.S, rcond=1e-12, hermitian=True)
            solver.cut = True
            want = solver.solve(RHS)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


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


def test_solve_on_a_tall_record_matches_strict_references():
    # N - s + 1 = 6 columns against p*s = 15 rows: Z is tall, so svt thresholds
    # through the Gram of its columns
    rec = make_record(make_siso_order2(), 20, seed=42, noise_std=0.2)
    spec = OperatorSpec.from_data(rec.u, rec.y, 15)
    assert spec.ncols < spec.p * spec.s
    fact = SweepFactorization.from_spec(spec)
    for lam in (200.0, 2000.0):
        res = solve(spec, rec.y, lam, fact=fact)
        tight, tight_loop = (run(spec, rec.y, lam, tight_params(), fact) for run in (solve, reference_solve))
        assert_solves_the_program(spec, rec.y, lam, res, tight, tight_loop)
        assert res.iterations <= reference_solve(spec, rec.y, lam, AdmmParams(), fact).iterations
        ref = solve(spec, rec.y, lam, reference_params(2000), fact)
        res_obj, ref_obj = (objective_value(spec, rec.y, lam, r.x) for r in (res, ref))
        assert abs(res_obj - ref_obj) <= 1e-4 * (1.0 + abs(ref_obj))


def test_a_void_anderson_weight_clears_the_memory_and_steps_plainly(monkeypatch):
    # AA_REG = 0 gives every difference Gram the weight of one of trace 0: the memory
    # is cleared instead of solving a singular system, each step is the plain one, and
    # the iterates are those of the plain splitting iteration
    spec, rec = small_problem(14)
    fact = SweepFactorization.from_spec(spec)
    params = AdmmParams(max_iter=8, eps_abs=1e-300, eps_rel=1e-300)
    monkeypatch.setattr(n2sid.admm, "AA_REG", 0.0)
    monkeypatch.setattr(n2sid.admm, "_cholesky_solve", lambda *a, **k: pytest.fail("Anderson step solved"))
    res = solve(spec, rec.y, 2.0, params, fact)
    plain = reference_solve(spec, rec.y, 2.0, params, fact)
    assert res.iterations == plain.iterations == params.max_iter
    np.testing.assert_allclose(res.x, plain.x, rtol=0, atol=1e-9 * np.abs(plain.x).max())
    np.testing.assert_allclose(res.Z, plain.Z, rtol=0, atol=1e-9 * np.abs(plain.Z).max())


@pytest.mark.parametrize("unknowns", [1, 2, 3])
@pytest.mark.parametrize("spread", [1.0, 1e-6])
def test_anderson_weights_match_a_lapack_solve_of_the_regularised_normal_equations(unknowns, spread):
    # g values drawn at random (spread 1) or nearly parallel, within 1e-6 of one g
    rng = np.random.default_rng(unknowns)
    for _ in range(50):
        g = rng.standard_normal(40) + spread * rng.standard_normal((unknowns + 1, 40))
        V = g @ g.T
        dV = V[1:] - V[:-1]
        G = dV[:, 1:] - dV[:, :-1]
        want = np.linalg.solve(G + AA_REG * np.trace(G) * np.eye(unknowns), dV[:, -1])
        got = _anderson_weights(V.tolist())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_anderson_weights_clear_the_memory_on_a_void_weight_or_a_non_finite_gram(monkeypatch):
    g = np.random.default_rng(4).standard_normal((4, 40))
    V = g @ g.T
    assert _anderson_weights(V.tolist()) is not None
    # equal g values: every difference, and so the weight, is 0
    assert _anderson_weights(np.ones((4, 4)).tolist()) is None
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in zip(*np.tril_indices(4)):
            W = V.copy()
            W[i, j] = W[j, i] = bad
            assert _anderson_weights(W.tolist()) is None
    for weight in (0.0, -1e-10):
        monkeypatch.setattr(n2sid.admm, "AA_REG", weight)
        assert _anderson_weights(V.tolist()) is None


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


def assert_chain_solves_the_program(spec, y, grid, fact):
    """Warm-started chains over grid: every solve solves the program (see
    assert_solves_the_program), in no more iterations in all than the plain loop's.
    The chains' warm starts differ, so a single point may take more."""
    warm = tight = loop = tight_loop = None
    iterations = plain = 0
    for lam in grid:
        warm = solve(spec, y, lam, fact=fact, warm=warm)
        tight = solve(spec, y, lam, tight_params(), fact, warm=tight)
        loop = reference_solve(spec, y, lam, AdmmParams(), fact, warm=loop)
        tight_loop = reference_solve(spec, y, lam, tight_params(), fact, warm=tight_loop)
        assert_solves_the_program(spec, y, lam, warm, tight, tight_loop)
        iterations += warm.iterations
        plain += loop.iterations
    assert iterations <= plain


def test_sweep_applies_the_adjoint_once_per_iteration_and_once_per_point(monkeypatch):
    spec, y, _ = random_data_problem(24)
    calls = []
    real = n2sid.admm.apply_adjoint
    monkeypatch.setattr(n2sid.admm, "apply_adjoint", lambda *a, **k: calls.append(1) or real(*a, **k))
    results = sweep(spec, y, spec.N * np.logspace(-1.5, 3, 6))
    # adj(Z) of each warm start is the one the previous solve ended with, or, for a
    # predicted start, the extrapolation of the two before it
    assert len(calls) == sum(res.iterations for res in results) + len(results)


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
    assert_chain_solves_the_program(spec, rec.y, N * np.logspace(-1.5, 3, 8), fact)


def test_closed_form_dual_matches_reference_on_a_cut_schur_mode():
    # an all-zero input channel leaves its Toeplitz coordinates out of M, so
    # the Schur complement is singular and _XSolver pseudo-solves it
    rec = make_record(make_siso_order2(), 150, seed=41, noise_std=0.2)
    spec = OperatorSpec.from_data(np.hstack([rec.u, np.zeros((150, 1))]), rec.y, 15)
    fact = SweepFactorization.from_spec(spec)
    grid = 150 * np.array([0.1, 3.0, 100.0])
    assert all(_XSolver(fact, 2.0 * lam / spec.N, 1.0).cut for lam in grid)
    # the dual residual is exact only if the closed-form adj(Y) is
    assert_chain_solves_the_program(spec, rec.y, grid, fact)


@pytest.mark.parametrize("N", [80, 400])
def test_sweep_converges_everywhere_in_under_0_6_of_the_plain_iterations(N):
    rec = make_record(make_siso_order2(), N, seed=40, noise_std=0.2)
    spec = OperatorSpec.from_data(rec.u, rec.y, 15)
    fact = SweepFactorization.from_spec(spec)
    grid = N * PipelineConfig().lambda_grid()
    results = sweep(spec, rec.y, grid, fact=fact)
    assert all(res is not None and res.converged for res in results)
    plain, loop = 0, None
    for lam in grid:
        loop = reference_solve(spec, rec.y, lam, AdmmParams(), fact, warm=loop)
        plain += loop.iterations
    assert sum(res.iterations for res in results) <= 0.6 * plain


def kept_condition(S):
    """Condition number of the modes of a Schur complement that _XSolver keeps."""
    ev = np.abs(np.linalg.eigvalsh(S))
    kept = ev[ev > 1e-12 * ev.max()]
    return kept.max() / kept.min()


class LastXSolver(_XSolver):
    """_XSolver that keeps the last instance made: the X step of a solve's final penalty."""

    last = None

    def __init__(self, *args):
        super().__init__(*args)
        LastXSolver.last = self


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-1.5, 3.0), st.integers(1, 60), st.booleans())
def test_solve_reports_the_exact_residuals(seed, log_lam, max_iter, warm_start):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    y = rng.standard_normal((spec.N, spec.p))
    lam = spec.N * 10.0**log_lam
    params = AdmmParams(max_iter=max_iter)
    warm = solve(spec, y, 2.0 * lam, params) if warm_start else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(n2sid.admm, "_XSolver", LastXSolver)
        res = solve(spec, y, lam, params, warm=warm)
    # the closed-form dual is as exact as the X step; a near-singular Schur
    # complement on a record a few columns wide loses digits to its condition
    assert_exact_residuals(spec, y, lam, res, cond=kept_condition(LastXSolver.last.S))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-1.5, 3.0))
def test_certified_gap_bounds_the_objective_excess(seed, log_lam):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    y = rng.standard_normal((spec.N, spec.p))
    lam = spec.N * 10.0**log_lam
    fact = SweepFactorization.from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(n2sid.admm, "_XSolver", LastXSolver)
        res = solve(spec, y, lam, fact=fact)
    tight = solve(spec, y, lam, tight_params(), fact)
    obj = objective_value(spec, y, lam, res.x)
    scale = max(1.0, abs(obj))
    # adj(Y) is as exact as the X step (see test_solve_reports_the_exact_residuals)
    tol = (1e-10 + 1e-12 * kept_condition(LastXSolver.last.S)) * scale
    assert math.isfinite(res.gap)
    assert res.gap * scale >= -tol
    assert obj - objective_value(spec, y, lam, tight.x) <= res.gap * scale + tol


def meets_the_residual_rule(spec, params, res) -> bool:
    """Whether the residuals of res are within the thresholds of the residual rule."""
    ax = apply_operator(res.x, spec)
    eps_pri = math.sqrt(res.Z.size) * params.eps_abs + params.eps_rel * max(
        np.linalg.norm(ax), np.linalg.norm(res.Z)
    )
    eps_dual = math.sqrt(res.x.size) * params.eps_abs + params.eps_rel * np.linalg.norm(
        apply_adjoint(res.y_dual, spec)
    )
    return res.primal_res <= eps_pri and res.dual_res <= eps_dual


def test_long_record_stops_on_the_certificate_before_the_residual_rule():
    rec = make_record(make_siso_order2(), 2000, seed=43, noise_std=0.2)
    spec = OperatorSpec.from_data(rec.u, rec.y, 15)
    params = AdmmParams()
    results = sweep(spec, rec.y, spec.N * PipelineConfig().lambda_grid(), params)
    certified = 0
    for res in results:
        assert res is not None and res.converged
        if not meets_the_residual_rule(spec, params, res):
            # a certificate stop
            assert res.gap <= n2sid.admm.GAP_TOL * params.eps_rel
            certified += 1
    assert certified >= 1


def frobenius_scaled_gap(spec, y, lam, res) -> float:
    """The certificate at res with the projected dual Y' = Y - D theta scaled by
    1 + ||D theta||_F, from fresh operator and adjoint applications and a dense
    pseudo-inverse of small = D*D."""
    N = spec.N
    small = build_M(spec)[2]
    stack = np.zeros_like(res.x)
    stack[:, N:] = apply_adjoint(res.y_dual, spec)[:, N:] @ np.linalg.pinv(small, hermitian=True)
    D_theta = apply_operator(stack, spec)
    V = apply_adjoint(res.y_dual - D_theta, spec)[:, :N] / (1.0 + np.linalg.norm(D_theta))
    y_t = np.asarray(y, dtype=float).reshape(N, spec.p).T
    dual = float(np.sum(V * y_t)) - float(np.sum(V * V)) / (4.0 * lam / N)
    primal = objective_value(spec, y, lam, res.x)
    return (primal - dual) / max(1.0, abs(primal))


def test_exact_dual_scaling_certifies_stops_the_frobenius_scaling_cannot():
    rec = make_record(make_mimo_order4(), 400, seed=40, noise_std=0.2)
    spec = OperatorSpec.from_data(rec.u, rec.y, 15)
    fact = SweepFactorization.from_spec(spec)
    params = AdmmParams()
    stop = n2sid.admm.GAP_TOL * params.eps_rel
    warm = tight = None
    exact_only = 0
    for lam in spec.N * PipelineConfig().lambda_grid():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(n2sid.admm, "_XSolver", LastXSolver)
            warm = solve(spec, rec.y, lam, params, fact, warm=warm)
        tight = solve(spec, rec.y, lam, tight_params(), fact, warm=tight)
        assert warm.converged
        if meets_the_residual_rule(spec, params, warm):
            continue
        assert warm.gap <= stop
        if frobenius_scaled_gap(spec, rec.y, lam, warm) > stop:
            # only ||Y'||_2 certifies this stop, and it bounds the excess objective
            exact_only += 1
            obj = objective_value(spec, rec.y, lam, warm.x)
            scale = max(1.0, abs(obj))
            tol = (1e-10 + 1e-12 * kept_condition(LastXSolver.last.S)) * scale
            assert obj - objective_value(spec, rec.y, lam, tight.x) <= warm.gap * scale + tol
    assert exact_only >= 1


def test_zero_lambda_has_no_finite_certificate():
    spec, rec = small_problem(6)
    assert solve(spec, rec.y, 0.0).gap == math.inf
    assert solve(spec, rec.y, 1.0).gap < math.inf


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_solve_names_the_iteration_of_a_non_finite_iterate(monkeypatch, bad):
    spec, rec = small_problem(21)
    real_svt, calls = n2sid.admm.svt, []

    def svt_turning_bad(*args, **kwargs):
        Z = real_svt(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            Z[0, 2] = bad
        return Z

    monkeypatch.setattr(n2sid.admm, "svt", svt_turning_bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match="non-finite iterates at iteration 3$"):
            solve(spec, rec.y, 2.0, AdmmParams(max_iter=10))


def test_sweep_leaves_every_returned_result_as_it_was_returned(monkeypatch):
    spec, y, _ = random_data_problem(22)
    real_solve, returned = n2sid.admm.solve, []

    def recording_solve(*args, **kwargs):
        res = real_solve(*args, **kwargs)
        returned.append((res, {name: getattr(res, name).copy() for name in ("x", "Z", "y_dual")}))
        return res

    monkeypatch.setattr(n2sid.admm, "solve", recording_solve)
    results = sweep(spec, y, spec.N * np.logspace(-1.5, 3, 6))
    assert len(returned) == len(results)
    assert all(res is got for (res, _), got in zip(returned, results))
    # no warm start wrote into the result it started from
    for res, copies in returned:
        for name, want in copies.items():
            assert np.array_equal(getattr(res, name), want)


@pytest.mark.parametrize("rho", [1e-3, 1.0, 50.0])
def test_penalty_step_balances_the_residuals_by_the_square_root_of_their_ratio(rho):
    # a primal residual 16 times the dual one steps rho up by 4, the inverse down by 4
    assert _penalty_step(rho, 16.0, 1.0, 10.0) == pytest.approx(4.0 * rho, rel=1e-15)
    assert _penalty_step(rho, 1.0, 16.0, 10.0) == pytest.approx(rho / 4.0, rel=1e-15)
    # a ratio of 1e4 is capped at TAU_MAX
    assert _penalty_step(rho, 1e4, 1.0, 10.0) == rho * TAU_MAX
    assert _penalty_step(rho, 1.0, 1e4, 10.0) == rho / TAU_MAX
    # within mu of each other, rho stays
    assert _penalty_step(rho, 9.0, 1.0, 10.0) == rho
    assert _penalty_step(rho, 1.0, 9.0, 10.0) == rho


def test_penalty_step_stays_within_the_clamps_and_never_steps_at_infinite_mu():
    assert _penalty_step(RHO_MAX / 2.0, 1e4, 1.0, 10.0) == RHO_MAX
    assert _penalty_step(RHO_MIN * 2.0, 1.0, 1e4, 10.0) == RHO_MIN
    assert _penalty_step(RHO_MAX, 1e4, 1.0, 10.0) == RHO_MAX
    assert _penalty_step(RHO_MIN, 1.0, 1e4, 10.0) == RHO_MIN
    # mu = inf, criterion 04's fixed-penalty reference, never steps, not even on a zero residual
    for pri, dual in ((1e9, 1.0), (1.0, 1e9), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
        assert _penalty_step(2.0, pri, dual, math.inf) == 2.0


def test_penalty_step_takes_the_largest_step_on_a_zero_residual_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cast in (float, np.float64):
            assert _penalty_step(1.0, cast(3.0), cast(0.0), 10.0) == TAU_MAX
            assert _penalty_step(1.0, cast(0.0), cast(3.0), 10.0) == 1.0 / TAU_MAX
            assert _penalty_step(1.0, cast(0.0), cast(0.0), 10.0) == 1.0


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


@pytest.mark.parametrize(
    "grid_per_sample",
    [np.logspace(-1.5, 3, 4), np.array([0.1, 0.3, 2.0, 5.0, 60.0]), np.array([1.0, 1.0 + 1e-9, 1000.0])],
    ids=["log-grid", "uneven-grid", "nearly-repeated-lambda"],
)
def test_sweep_point_is_solve_from_the_predicted_start(grid_per_sample):
    spec, y, _ = random_data_problem(15)
    grid = spec.N * grid_per_sample
    fact = SweepFactorization.from_spec(spec)
    swept = sweep(spec, y, grid, fact=fact)
    want = []
    for k, lam in enumerate(grid):
        # cold, then warm from the last point, then predicted along the path
        start = want[-1] if want else None
        if k >= 2:
            theta = min(0.5 * math.log(grid[k] / grid[k - 1]) / math.log(grid[k - 1] / grid[k - 2]), 1.0)
            start = _predicted_start(want[-1], want[-2], theta, spec)
        want.append(solve(spec, y, lam, fact=fact, warm=start))
    for got, res in zip(swept, want):
        assert got.converged
        assert got.iterations == res.iterations
        for name in ("x", "Z", "y_dual"):
            assert np.array_equal(getattr(got, name), getattr(res, name))


def test_predicted_start_extrapolates_z_y_and_the_adjoint_of_z():
    spec, y, _ = random_data_problem(16)
    grid = spec.N * np.logspace(-1.5, 3, 3)
    before, last, _ = sweep(spec, y, grid)
    copies = [(res, res.Z.copy(), res.y_dual.copy()) for res in (before, last)]
    start = _predicted_start(last, before, 0.5, spec)
    assert np.allclose(start.Z, 1.5 * last.Z - 0.5 * before.Z, rtol=1e-12, atol=1e-12)
    assert np.allclose(start.y_dual, 1.5 * last.y_dual - 0.5 * before.y_dual, rtol=1e-12, atol=1e-12)
    # adj(Z0) by linearity from the two results' own matches a fresh application
    source, adjZ = start._adj_z
    assert source is start.Z
    fresh = apply_adjoint(start.Z, spec)
    assert np.linalg.norm(adjZ - fresh) <= 1e-12 * np.linalg.norm(fresh)
    # the results it reads are left as they were
    for res, Z, Y in copies:
        assert np.array_equal(res.Z, Z) and np.array_equal(res.y_dual, Y)


def test_sweep_keeps_the_plain_warm_start_after_a_repeated_lambda():
    spec, y, _ = random_data_problem(17)
    grid = spec.N * np.array([0.5, 0.5, 4.0])
    fact = SweepFactorization.from_spec(spec)
    swept = sweep(spec, y, grid, fact=fact)
    # no path direction from two points at one lambda: the third starts from the second
    want = solve(spec, y, grid[2], fact=fact, warm=swept[1])
    assert swept[2].iterations == want.iterations
    assert np.array_equal(swept[2].x, want.x)


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


def test_a_second_sweep_on_the_shared_factorization_leaves_the_first_sweeps_results():
    spec, y, _ = random_data_problem(23)
    fact = SweepFactorization.from_spec(spec)
    first = sweep(spec, y, spec.N * np.logspace(-1.5, 3, 5), fact=fact)
    copies = [
        ({name: getattr(res, name).copy() for name in ("x", "Z", "y_dual")}, [f.copy() for f in res.z_svd])
        for res in first
    ]
    other_y = np.random.default_rng(5).standard_normal(y.shape)
    second = sweep(spec, other_y, spec.N * np.logspace(-1, 2, 4), fact=fact)
    assert all(res is not None for res in first + second)
    for res, (arrays, factors) in zip(first, copies):
        for name, want in arrays.items():
            assert np.array_equal(getattr(res, name), want)
        assert len(res.z_svd) == len(factors) == 2
        assert all(np.array_equal(got, want) for got, want in zip(res.z_svd, factors))


def test_points_after_a_non_finite_failure_are_fresh_solves(monkeypatch):
    # A(X) turns NaN in the third point's fourth iteration, so that point's
    # solve fails with NaN in the shared rings; the points after it must not see them
    spec, y, _ = random_data_problem(15)
    grid = spec.N * np.logspace(-1.5, 3, 6)
    fact = SweepFactorization.from_spec(spec)
    real_solve, real_operator = n2sid.admm.solve, n2sid.admm.apply_operator
    state = {"armed": False, "calls": 0}

    def solve_arming_the_third_point(spec_, y_, lam, *args, **kwargs):
        state["armed"] = lam == grid[2]
        return real_solve(spec_, y_, lam, *args, **kwargs)

    def operator_turning_nan(*args, **kwargs):
        out = real_operator(*args, **kwargs)
        if state["armed"]:
            state["calls"] += 1
            if state["calls"] == 4:  # a warm start applies no operator: iteration 4
                out[...] = np.nan
        return out

    monkeypatch.setattr(n2sid.admm, "solve", solve_arming_the_third_point)
    monkeypatch.setattr(n2sid.admm, "apply_operator", operator_turning_nan)
    swept = sweep(spec, y, grid, fact=fact)
    assert state["calls"] == 4 and swept[2] is None
    monkeypatch.undo()
    assert all(res is not None for res in swept[3:])
    # past the failure: warm from the last success, then warm, then predicted
    want = [swept[0], swept[1], None]
    want.append(solve(spec, y, grid[3], fact=fact, warm=swept[1]))
    want.append(solve(spec, y, grid[4], fact=fact, warm=want[3]))
    theta = min(0.5 * math.log(grid[5] / grid[4]) / math.log(grid[4] / grid[3]), 1.0)
    want.append(solve(spec, y, grid[5], fact=fact, warm=_predicted_start(want[4], want[3], theta, spec)))
    for got, res in zip(swept[3:], want[3:]):
        assert got.iterations == res.iterations
        for name in ("x", "Z", "y_dual"):
            assert np.array_equal(getattr(got, name), getattr(res, name))


def test_an_iteration_allocates_no_array_of_z_size():
    # the solve's arrays are allocated before its first iteration: forty
    # iterations peak where five do, to well within one Z-sized array
    rec = make_record(make_siso_order2(), 400, seed=40, noise_std=0.2)
    spec = OperatorSpec.from_data(rec.u, rec.y, 15)
    fact = SweepFactorization.from_spec(spec)
    z_bytes = spec.p * spec.s * spec.ncols * 8

    def peak(max_iter):
        params = AdmmParams(max_iter=max_iter, eps_abs=1e-300, eps_rel=1e-300)
        tracemalloc.start()
        try:
            res = solve(spec, rec.y, 2.0 * spec.N, params, fact)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations == max_iter and not res.converged
        return top

    assert peak(40) - peak(5) < 0.5 * z_bytes


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
