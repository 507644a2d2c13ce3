import warnings
from dataclasses import replace

import numpy as np
import pytest

from n2sid.admm import GRAM_CUTOFF, solve, svt, sweep
from n2sid.extraction import (
    SubspaceSvd,
    _markov_fit,
    compute_m1,
    compute_m2,
    compute_m3,
    estimate_AC,
    estimate_BDx0,
    fit_x0,
    lowrank_svd,
    select_order,
)
from n2sid.model import (
    IoRecord,
    ObserverModel,
    StateSpaceModel,
    generate_innovation_data,
    markov_parameters,
    predict_observer,
    simulate,
    to_observer,
    vaf,
)
from n2sid.structured_ops import OperatorSpec, block_toeplitz, toeplitz_estimates

from helpers import (
    make_mimo_order4,
    make_record,
    make_siso_order2,
    markov_stack,
    naive_states,
    observability,
    prbs,
    random_spec,
)


def orthonormal_columns(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


def select_order_reference(sigma, max_order=10):
    logs = [np.log(max(s, 1e-12 * sigma[0])) for s in np.asarray(sigma, dtype=float)]
    t = 0.5 * (logs[0] + logs[-1])
    dmin = min(abs(l - t) for l in logs)
    best = next(i for i, l in enumerate(logs) if abs(l - t) <= dmin * (1 + 1e-9) + 1e-300)
    return max(1, min(best + 1, max_order))


def exact_solution_inputs(N=60, s=8, seed=0):
    """Exact solver output built directly from the generating system."""
    model = make_siso_order2()
    obs = to_observer(model)
    rng = np.random.default_rng(seed)
    u = prbs(rng, N, 1)
    rec = generate_innovation_data(model, u, noise_std=0.0)
    spec = OperatorSpec.from_data(rec.u, rec.y, s)
    states = naive_states(model.A, model.B, rec.u, np.zeros(2))
    Z = observability(obs.Aobs, obs.C, s) @ states[: spec.ncols].T
    x = markov_stack(rec.y.T, markov_parameters(obs, s))
    return model, obs, rec, spec, lowrank_svd(Z, spec), toeplitz_estimates(x, spec)


# ---------------------------------------------------------------------------
# order selection


def test_select_order_forced_cases():
    assert select_order([100.0, 10.0, 0.01]) == 2
    assert select_order([1.0]) == 1
    assert select_order([1000.0, 999.0, 1e-9, 1e-10], max_order=10) == 2


def test_select_order_tie_goes_to_smaller_index():
    # both entries are equidistant from the log midpoint
    assert select_order([100.0, 1.0]) == 1


def test_select_order_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sigma = np.sort(np.exp(rng.uniform(-10, 6, size=rng.integers(1, 12))))[::-1]
        for c in (1e-3, 1.0, 42.0):
            assert select_order(c * sigma) == select_order(sigma)


def test_select_order_matches_reference_on_random_vectors():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        k = int(rng.integers(1, 15))
        sigma = np.sort(np.exp(rng.uniform(-35, 8, size=k)))[::-1]
        if rng.random() < 0.3 and k >= 2:
            sigma[rng.integers(1, k)] = sigma[0]  # force repeated values
            sigma = np.sort(sigma)[::-1]
        cap = int(rng.integers(1, 12))
        assert select_order(sigma, cap) == select_order_reference(sigma, cap)


def test_select_order_all_below_floor():
    with pytest.raises(ValueError):
        select_order([0.0, 0.0])


# ---------------------------------------------------------------------------
# svd of the low-rank iterate


def test_lowrank_svd_zero_matrix():
    spec = OperatorSpec.from_data(np.ones((8, 1)), np.ones((8, 1)) * 2, s=3)
    out = lowrank_svd(np.zeros((3, 6)), spec)
    assert np.all(out.sigma == 0.0)


def test_lowrank_svd_rank_and_orthogonality():
    _, _, _, spec, svd, _ = exact_solution_inputs()
    assert svd.sigma[2] <= 1e-8 * svd.sigma[0]
    np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(svd.U.shape[1]), atol=1e-10)
    np.testing.assert_allclose(svd.Vt @ svd.Vt.T, np.eye(svd.Vt.shape[0]), atol=1e-10)


def test_lowrank_svd_shape_check():
    spec = OperatorSpec.from_data(np.ones((8, 1)), np.ones((8, 1)) * 2, s=3)
    with pytest.raises(ValueError):
        lowrank_svd(np.zeros((4, 6)), spec)


def assert_thin_svd(Z, svd):
    """svd is Z's thin SVD: orthonormal U, U diag(sigma) Vt = Z within 1e-12, and sigma
    that of a LAPACK SVD on Z's rank and exactly 0 past it."""
    rank = svd.Vt.shape[0]
    np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(svd.sigma.size), rtol=0, atol=1e-12)
    rebuilt = (svd.U[:, :rank] * svd.sigma[:rank]) @ svd.Vt
    assert np.linalg.norm(rebuilt - Z) <= 1e-12 * np.linalg.norm(Z)
    ref = np.linalg.svd(Z, compute_uv=False)
    assert np.all(svd.sigma[:rank] > 0.0) and np.all(svd.sigma[rank:] == 0.0)
    np.testing.assert_allclose(svd.sigma[:rank], ref[:rank], rtol=0, atol=1e-12 * ref[0])


def record_spec(N, s=15):
    """A SISO spec whose Z is (s, N - s + 1)."""
    rng = np.random.default_rng(N)
    return OperatorSpec.from_data(rng.standard_normal((N, 1)), rng.standard_normal((N, 1)), s)


def thresholded(Y, t, spec):
    """svt of Y, and the SVD lowrank_svd builds from the factors svt handed on."""
    factors = []
    Z = svt(Y, t, factors=factors)
    return Z, lowrank_svd(Z, spec, tuple(factors) or None)


def test_handed_factors_from_the_gram_branch_are_the_thin_svd(monkeypatch):
    rng = np.random.default_rng(31)
    U, V = orthonormal_columns(rng, 15, 15), orthonormal_columns(rng, 200, 15)
    Y = (U * np.geomspace(3.0, 1e-2, 15)) @ V.T
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("svt took an SVD"))
    Z, svd = thresholded(Y, 0.05, record_spec(214))
    monkeypatch.undo()
    assert 0 < svd.Vt.shape[0] < 15
    assert_thin_svd(Z, svd)


def test_handed_factors_from_the_svd_fallback_are_the_thin_svd(monkeypatch):
    # a kept singular value at 1e-6 sigma_max, below GRAM_CUTOFF: svt takes an SVD of Y
    rng = np.random.default_rng(30)
    U, V = orthonormal_columns(rng, 15, 15), orthonormal_columns(rng, 1986, 15)
    sigma = np.concatenate([[1.0, 0.5, 0.2, 1e-6], np.full(11, 1e-8)])
    assert sigma[3] < GRAM_CUTOFF * sigma[0]
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k))
    Z, svd = thresholded((U * sigma) @ V.T, 5e-7, record_spec(2000))
    assert len(calls) == 1
    monkeypatch.undo()
    assert svd.Vt.shape[0] == 4
    assert_thin_svd(Z, svd)


def test_a_tall_z_hands_on_thin_factors_and_takes_no_lapack_svd(monkeypatch):
    # N - s + 1 = 6 columns against p*s = 15 rows: svt thresholds through the
    # Gram of Z's rows and hands on its top 6 eigenvectors
    rec = make_record(make_siso_order2(), 20, seed=42, noise_std=0.2)
    spec = OperatorSpec.from_data(rec.u, rec.y, 15)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("a LAPACK SVD was taken"))
    res = solve(spec, rec.y, 200.0)
    U, sigma = res.z_svd
    assert U.shape == (15, 6) and sigma.shape == (6,)
    svd = lowrank_svd(res.Z, spec, res.z_svd)
    monkeypatch.undo()
    assert_thin_svd(res.Z, svd)


def chain_results(model, N, output_only=False):
    """Every grid point of a warm-started sweep on a make_record record, with its spec."""
    rec = make_record(model, N, seed=40, noise_std=0.2)
    u = np.zeros((N, 0)) if output_only else rec.u
    spec = OperatorSpec.from_data(u, rec.y, 15)
    return spec, [res for res in sweep(spec, rec.y, N * np.logspace(-1.5, 3, 8)) if res is not None]


CHAINS = [
    (make_siso_order2(), 80, False), (make_siso_order2(), 400, False), (make_mimo_order4(), 400, True)
]
CHAIN_IDS = ["siso2-N80", "siso2-N400", "mimo4-output-only-N400"]


@pytest.mark.parametrize("model, N, output_only", CHAINS, ids=CHAIN_IDS)
def test_handed_factors_on_sweep_chains_are_the_thin_svd(model, N, output_only):
    spec, results = chain_results(model, N, output_only)
    assert len(results) == 8
    for res in results:
        assert res.z_svd is not None
        assert_thin_svd(res.Z, lowrank_svd(res.Z, spec, res.z_svd))


@pytest.mark.parametrize("seed", range(12))
def test_handed_factors_on_random_specs_are_the_thin_svd(seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    # and a tall Z: at most s - 1 columns against p*s rows
    s = int(rng.integers(4, 9))
    tall = random_spec(rng, s, s, n_hi=2 * s - 2)
    assert tall.ncols < tall.p * tall.s
    for spec in (spec, tall):
        y = rng.standard_normal((spec.N, spec.p))
        for lam in (0.5, 50.0):
            res = solve(spec, y, lam)
            assert res.z_svd[0].shape == (spec.p * spec.s, min(spec.p * spec.s, spec.ncols))
            if np.any(res.Z):
                assert_thin_svd(res.Z, lowrank_svd(res.Z, spec, res.z_svd))


@pytest.mark.parametrize("model, N, output_only", CHAINS, ids=CHAIN_IDS)
def test_the_handed_spectrum_selects_the_order_a_fresh_svd_selects(model, N, output_only):
    spec, results = chain_results(model, N, output_only)
    cap = min(10, 14 * spec.p)
    for res in results:
        handed = lowrank_svd(res.Z, spec, res.z_svd).sigma
        fresh = np.linalg.svd(res.Z, compute_uv=False)
        assert select_order(handed, cap) == select_order(fresh, cap)


# ---------------------------------------------------------------------------
# block-Toeplitz assembly


def test_toeplitz_estimates_blocks_match_markov_parameters():
    model = make_siso_order2()
    obs = to_observer(model)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((20, 1))
    y = rng.standard_normal((20, 1))
    spec = OperatorSpec.from_data(u, y, s=5)
    mk = markov_parameters(obs, 5)
    blocks = toeplitz_estimates(markov_stack(np.zeros((1, 20)), mk), spec)
    assert blocks.shape == (5, 1, 2)
    Tu, Ty = block_toeplitz(blocks[:, :, :1]), block_toeplitz(blocks[:, :, 1:])
    for j in range(5):
        np.testing.assert_allclose(Tu[j : j + 1, 0:1], mk[j, :, :1])
        np.testing.assert_allclose(Ty[j : j + 1, 0:1], mk[j, :, 1:])
    # strict lower-triangular block-Toeplitz pattern
    assert np.all(np.triu(Tu, 1) == 0.0)
    assert np.all(np.triu(Ty) == 0.0)


# ---------------------------------------------------------------------------
# subspace regressions


def test_estimate_ac_constant_column():
    Aobs, C = estimate_AC(np.ones((3, 1)), s=3, p=1)
    assert Aobs[0, 0] == pytest.approx(1.0)
    assert C[0, 0] == pytest.approx(1.0)


def test_estimate_ac_similarity_invariance():
    rng = np.random.default_rng(3)
    model = make_siso_order2()
    obs = to_observer(model)
    O = observability(obs.Aobs, obs.C, 6)
    T = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    Aobs, C = estimate_AC(O @ T, s=6, p=1)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(Aobs)), np.sort(np.linalg.eigvals(obs.Aobs)), atol=1e-8
    )
    mk_ref = [obs.C @ np.linalg.matrix_power(obs.Aobs, k) @ obs.Bobs for k in range(5)]
    mk_got = [C @ np.linalg.matrix_power(Aobs, k) @ (np.linalg.inv(T) @ obs.Bobs) for k in range(5)]
    np.testing.assert_allclose(mk_got, mk_ref, atol=1e-8)


def test_estimate_ac_rejects_large_order():
    with pytest.raises(ValueError):
        estimate_AC(np.ones((6, 5)), s=3, p=2)


def markov_fit_gain(Aobs, C, blocks):
    """K of the shared Markov-block fit, given U spanning the observability rows of (Aobs, C)."""
    U = observability(Aobs, C, blocks.shape[0])
    n = U.shape[1]
    return _markov_fit(SubspaceSvd(U=U, sigma=np.ones(n), Vt=np.zeros((n, 0))), blocks, n).K


def test_markov_fit_recovers_true_gain():
    model = make_siso_order2()
    obs = to_observer(model)
    s = 6
    mk_y = markov_parameters(obs, s)[:, :, 1:]
    Ty = np.zeros((s, s))
    for r in range(s):
        for c in range(r):
            Ty[r, c] = mk_y[r - c][0, 0]
    blocks = np.zeros((s, 1, 2))
    blocks[:, :, 1] = Ty[:, :1]  # T_y's first block column holds its Markov blocks
    K = markov_fit_gain(obs.Aobs, obs.C, blocks)
    np.testing.assert_allclose(K, obs.K, atol=1e-8)


def test_markov_fit_zero_target():
    model = make_siso_order2()
    obs = to_observer(model)
    assert np.all(markov_fit_gain(obs.Aobs, obs.C, np.zeros((5, 1, 2))) == 0.0)


def test_markov_fit_scalar_consistent_system():
    # lags 0..2 of [T_u, T_y]: T_y = [[0, 0, 0], [0.8, 0, 0], [0.4, 0.8, 0]]
    blocks = np.array([[[0.0, 0.0]], [[0.0, 0.8]], [[0.0, 0.4]]])
    K = markov_fit_gain(np.array([[0.5]]), np.array([[1.0]]), blocks)
    assert K[0, 0] == pytest.approx(0.8)


def test_estimate_bdx0_noise_free_recovery():
    model = make_siso_order2()
    obs = to_observer(model)
    rng = np.random.default_rng(4)
    u = prbs(rng, 80, 1)
    x0_true = rng.standard_normal(2)
    rec = generate_innovation_data(model, u, x0=x0_true, noise_std=0.0)
    Bobs, D, x0 = estimate_BDx0(obs.Aobs, obs.C, obs.K, rec)
    np.testing.assert_allclose(Bobs, obs.Bobs, atol=1e-6)
    np.testing.assert_allclose(D, obs.D, atol=1e-6)
    np.testing.assert_allclose(x0, x0_true, atol=1e-6)
    # the fitted quantities reproduce the one-step predictions of the
    # naive recursion on the same record
    yhat = predict_observer(ObserverModel(obs.Aobs, Bobs, obs.C, D, obs.K), rec, x0)
    np.testing.assert_allclose(yhat, rec.y, atol=1e-10)


def test_estimate_bdx0_zero_input_min_norm():
    model = make_siso_order2()
    obs = to_observer(model)
    rng = np.random.default_rng(5)
    rec = IoRecord(u=np.zeros((30, 1)), y=rng.standard_normal((30, 1)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Bobs, D, x0 = estimate_BDx0(obs.Aobs, obs.C, obs.K, rec)
    assert any("rank-deficient" in str(w.message) for w in caught)
    np.testing.assert_allclose(Bobs, 0.0, atol=1e-12)
    np.testing.assert_allclose(D, 0.0, atol=1e-12)
    assert np.all(np.isfinite(x0))


def test_unstable_dynamics_raise_before_lapack(capfd):
    from n2sid.errors import SimulationOverflowError
    from n2sid.model import StateSpaceModel
    from n2sid.pipeline import evaluate

    rng = np.random.default_rng(6)
    rec = IoRecord(u=rng.standard_normal((1000, 1)), y=rng.standard_normal((1000, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no recursion may warn on its way to the error
        with pytest.raises(SimulationOverflowError):
            estimate_BDx0(np.array([[3.0]]), [[1.0]], [[0.5]], rec)
        # zero outputs keep the predictor finite; only the initial-state rows overflow
        unstable = StateSpaceModel(
            A=[[3.0]], B=np.zeros((1, 0)), C=[[1.0]], D=np.zeros((1, 0)), K=[[0.0]]
        )
        with pytest.raises(SimulationOverflowError):
            evaluate(unstable, IoRecord(u=np.zeros((1000, 0)), y=np.zeros((1000, 1))))
        obs = ObserverModel(Aobs=[[3.0]], Bobs=[[1.0]], C=[[1.0]], D=[[0.0]], K=[[0.5]])
        long_rec = IoRecord(u=rng.standard_normal((2000, 1)), y=rng.standard_normal((2000, 1)))
        with pytest.raises(SimulationOverflowError):
            predict_observer(obs, long_rec)
    assert capfd.readouterr().err == ""


# ---------------------------------------------------------------------------
# model computations


def test_compute_m1_exact_inputs():
    model, obs, rec, spec, svd, est = exact_solution_inputs()
    out = compute_m1(svd, est, rec, 2)
    assert (out.model.n, out.model.m, out.model.p) == (2, 1, 1)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(out.model.A)), np.sort(np.linalg.eigvals(model.A)), atol=1e-6
    )
    rng = np.random.default_rng(6)
    u_val = prbs(rng, 100, 1)
    assert vaf(simulate(model, u_val), simulate(out.model, u_val)) >= 99.9


def test_compute_m1_rejects_zero_order():
    _, _, rec, _, svd, est = exact_solution_inputs()
    with pytest.raises(ValueError):
        compute_m1(svd, est, rec, 0)


def test_identified_model_observer_reconstruction():
    _, _, rec, _, svd, est = exact_solution_inputs()
    out = compute_m1(svd, est, rec, 2)
    obs2 = to_observer(out.model)
    np.testing.assert_allclose(out.model.A - out.model.K @ out.model.C, obs2.Aobs, atol=1e-14)
    np.testing.assert_allclose(out.model.B - out.model.K @ out.model.D, obs2.Bobs, atol=1e-14)


def test_compute_m2_exact_inputs():
    model, obs, rec, spec, svd, est = exact_solution_inputs()
    # noise-free outputs are a linear function of the states and inputs
    with pytest.warns(UserWarning, match="rank-deficient"):
        out = compute_m2(svd, rec, 2)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(out.model.A)), np.sort(np.linalg.eigvals(model.A)), atol=1e-6
    )
    # state regression residual on noise-free data
    X = svd.Vt[:2]
    obs2 = to_observer(out.model)
    pred = obs2.Aobs @ X[:, :-1] + obs2.Bobs @ rec.u[: X.shape[1] - 1].T + out.model.K @ rec.y[: X.shape[1] - 1].T
    rel = np.linalg.norm(pred - X[:, 1:]) / np.linalg.norm(X[:, 1:])
    assert rel <= 1e-6


def test_compute_m2_too_few_state_samples():
    _, _, rec, _, svd, _ = exact_solution_inputs()
    short = SubspaceSvd(U=svd.U, sigma=svd.sigma, Vt=svd.Vt[:, :1])
    with pytest.raises(ValueError):
        compute_m2(short, rec, 2)


def test_compute_m2_rejects_an_order_above_the_rank():
    _, _, rec, _, svd, _ = exact_solution_inputs()
    sigma = np.concatenate([svd.sigma[:1], np.zeros(svd.sigma.size - 1)])
    rank_one = SubspaceSvd(U=svd.U, sigma=sigma, Vt=svd.Vt[:1])
    with pytest.raises(ValueError, match="exceeds the rank 1"):
        compute_m2(rank_one, rec, 2)


def test_compute_m3_exact_inputs_and_variant_agreement():
    model, obs, rec, spec, svd, est = exact_solution_inputs()
    m3 = compute_m3(svd, est, rec, 2)
    m1 = compute_m1(svd, est, rec, 2)
    np.testing.assert_allclose(m3.model.D, obs.D, atol=1e-8)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(m3.model.A)), np.sort(np.linalg.eigvals(m1.model.A)), atol=1e-6
    )


def separate_m1(svd, blocks, rec, nhat):
    """compute_m1 with one recursion per regressor: the K y response, one simulation per
    entry of Bobs and the observability rows, then the same least-squares fit."""
    obs = _markov_fit(svd, blocks, nhat)
    n, p, m, N = nhat, rec.p, rec.m, rec.N
    ky = predict_observer(replace(obs, Bobs=np.zeros((n, m)), D=np.zeros((p, m))), rec)
    b_cols = []
    for j in range(m):
        for i in range(n):
            entry = np.zeros((n, m))
            entry[i, j] = 1.0
            b_cols.append(simulate(StateSpaceModel(obs.Aobs, entry, obs.C, np.zeros((p, m)), obs.K), rec.u))
    regressor = np.concatenate(
        [np.stack(b_cols, axis=2), np.kron(rec.u, np.eye(p)).reshape(N, p, p * m),
         observability(obs.Aobs, obs.C, N).reshape(N, p, n)],
        axis=2,
    )
    theta = np.linalg.lstsq(regressor.reshape(N * p, -1), (rec.y - ky).reshape(-1), rcond=1e-10)[0]
    Bobs, D = theta[: n * m].reshape(m, n).T, theta[n * m : (n + p) * m].reshape(m, p).T
    return replace(obs, Bobs=Bobs, D=D).to_state_space(), theta[(n + p) * m :]


def separate_m3(svd, blocks, rec, nhat):
    """compute_m3 with the observer prediction and the observability rows computed apart."""
    obs = _markov_fit(svd, blocks, nhat)
    free = observability(obs.Aobs, obs.C, rec.N).reshape(rec.N, rec.p, nhat)
    return obs.to_state_space(), fit_x0(free, rec.y - predict_observer(obs, rec))[0]


def assert_close_models(got, want, rtol):
    for name in ("A", "B", "C", "D", "K"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.linalg.norm(a - b) <= rtol * max(np.linalg.norm(b), 1e-300), name


@pytest.mark.parametrize(
    "model, N, nhat", [(make_siso_order2(), 400, 2), (make_mimo_order4(), 400, 4)],
    ids=["siso2-N400", "mimo4-N400"],
)
def test_shared_responses_give_the_models_of_separate_recursions(model, N, nhat):
    spec, results = chain_results(model, N)
    rec = make_record(model, N, seed=40, noise_std=0.2)
    for res in results[2:6]:
        svd = lowrank_svd(res.Z, spec, res.z_svd)
        blocks = toeplitz_estimates(res.x, spec)
        m1, m3 = compute_m1(svd, blocks, rec, nhat), compute_m3(svd, blocks, rec, nhat)
        separate = (separate_m1(svd, blocks, rec, nhat), separate_m3(svd, blocks, rec, nhat))
        for got, (want, x0) in zip((m1, m3), separate):
            # a stable observer keeps every response within a few orders of the data
            assert np.abs(np.linalg.eigvals(want.A - want.K @ want.C)).max() < 1.0
            assert_close_models(got.model, want, 1e-13)
            assert np.linalg.norm(got.x0_ide - x0) <= 1e-13 * np.linalg.norm(x0)


def _impulse_chain(model, count):
    # simulation impulse response D, C B, C A B, ...
    frozen = ObserverModel(model.A, model.B, model.C, model.D, np.zeros((model.n, model.p)))
    return markov_parameters(frozen, count)[:, :, : model.m]


def test_all_variants_match_generator_markov_parameters():
    model, obs, rec, spec, svd, est = exact_solution_inputs()
    mk_true = _impulse_chain(model, 2 * spec.s)
    scale = np.max(np.abs(mk_true))
    # noise-free outputs are a linear function of the states and inputs
    with pytest.warns(UserWarning, match="rank-deficient"):
        m2 = compute_m2(svd, rec, 2)
    for idm in (compute_m1(svd, est, rec, 2), m2, compute_m3(svd, est, rec, 2)):
        mk_est = _impulse_chain(idm.model, 2 * spec.s)
        assert np.max(np.abs(mk_est - mk_true)) <= 1e-4 * scale
    # m1/m3 take the gain from the solved output-Toeplitz parameters, so
    # their predictor-form parameters are pinned down even without noise
    mk_obs = markov_parameters(obs, 2 * spec.s)[:, :, :1]
    obs_scale = np.max(np.abs(mk_obs))
    for idm in (compute_m1(svd, est, rec, 2), compute_m3(svd, est, rec, 2)):
        mk_est = markov_parameters(to_observer(idm.model), 2 * spec.s)[:, :, :1]
        assert np.max(np.abs(mk_est - mk_obs)) <= 1e-4 * obs_scale


def test_compute_m3_zero_toeplitz():
    _, obs, rec, spec, svd, _ = exact_solution_inputs()
    out = compute_m3(svd, np.zeros((spec.s, 1, 2)), rec, 2)
    assert np.all(out.model.D == 0.0)
    np.testing.assert_allclose(out.model.B, out.model.K @ out.model.D, atol=1e-12)
