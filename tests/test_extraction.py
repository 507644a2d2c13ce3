import warnings

import numpy as np
import pytest

from n2sid.extraction import (
    SubspaceSvd,
    compute_m1,
    compute_m2,
    compute_m3,
    estimate_AC,
    estimate_BDx0,
    estimate_K,
    lowrank_svd,
    select_order,
)
from n2sid.model import (
    IoRecord,
    ObserverModel,
    generate_innovation_data,
    markov_parameters,
    predict_observer,
    simulate,
    to_observer,
    vaf,
)
from n2sid.structured_ops import OperatorSpec, block_toeplitz, toeplitz_estimates

from helpers import decision_stack, make_siso_order2, naive_states, observability, prbs


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
    mk_u = markov_parameters(obs, s, "input")
    mk_y = markov_parameters(obs, s, "output")
    v = np.array([[[blk[0, 0] for blk in mk_u]]])
    w = np.array([[[blk[0, 0] for blk in mk_y[1:]]]])
    x = decision_stack(rec.y.T, v, w)
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


# ---------------------------------------------------------------------------
# block-Toeplitz assembly


def test_toeplitz_estimates_blocks_match_markov_parameters():
    model = make_siso_order2()
    obs = to_observer(model)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((20, 1))
    y = rng.standard_normal((20, 1))
    spec = OperatorSpec.from_data(u, y, s=5)
    mk_u = markov_parameters(obs, 5, "input")
    mk_y = markov_parameters(obs, 5, "output")
    v = np.array([[[blk[0, 0] for blk in mk_u]]])
    w = np.array([[[blk[0, 0] for blk in mk_y[1:]]]])
    x = decision_stack(np.zeros((1, 20)), v, w)
    blocks = toeplitz_estimates(x, spec)
    assert blocks.shape == (5, 1, 2)
    Tu, Ty = block_toeplitz(blocks[:, :, :1]), block_toeplitz(blocks[:, :, 1:])
    for j in range(5):
        np.testing.assert_allclose(Tu[j : j + 1, 0:1], mk_u[j])
        np.testing.assert_allclose(Ty[j : j + 1, 0:1], mk_y[j])
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


def test_estimate_k_recovers_true_gain():
    model = make_siso_order2()
    obs = to_observer(model)
    s = 6
    mk_y = markov_parameters(obs, s, "output")
    Ty = np.zeros((s, s))
    for r in range(s):
        for c in range(r):
            Ty[r, c] = mk_y[r - c][0, 0]
    blocks = np.zeros((s, 1, 2))
    blocks[:, :, 1] = Ty[:, :1]  # T_y's first block column holds its Markov blocks
    K = estimate_K(obs.Aobs, obs.C, blocks)
    np.testing.assert_allclose(K, obs.K, atol=1e-8)


def test_estimate_k_zero_target():
    model = make_siso_order2()
    obs = to_observer(model)
    assert np.all(estimate_K(obs.Aobs, obs.C, np.zeros((5, 1, 2))) == 0.0)


def test_estimate_k_scalar_consistent_system():
    # lags 0..2 of [T_u, T_y]: T_y = [[0, 0, 0], [0.8, 0, 0], [0.4, 0.8, 0]]
    blocks = np.array([[[0.0, 0.0]], [[0.0, 0.8]], [[0.0, 0.4]]])
    K = estimate_K(np.array([[0.5]]), np.array([[1.0]]), blocks)
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


def test_compute_m3_exact_inputs_and_variant_agreement():
    model, obs, rec, spec, svd, est = exact_solution_inputs()
    m3 = compute_m3(svd, est, rec, 2)
    m1 = compute_m1(svd, est, rec, 2)
    np.testing.assert_allclose(m3.model.D, obs.D, atol=1e-8)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(m3.model.A)), np.sort(np.linalg.eigvals(m1.model.A)), atol=1e-6
    )


def _impulse_chain(model, count):
    # simulation impulse response D, C B, C A B, ...
    frozen = ObserverModel(model.A, model.B, model.C, model.D, np.zeros((model.n, model.p)))
    return markov_parameters(frozen, count, "input")


def test_all_variants_match_generator_markov_parameters():
    model, obs, rec, spec, svd, est = exact_solution_inputs()
    mk_true = _impulse_chain(model, 2 * spec.s)
    scale = max(abs(b[0, 0]) for b in mk_true)
    # noise-free outputs are a linear function of the states and inputs
    with pytest.warns(UserWarning, match="rank-deficient"):
        m2 = compute_m2(svd, rec, 2)
    for idm in (compute_m1(svd, est, rec, 2), m2, compute_m3(svd, est, rec, 2)):
        mk_est = _impulse_chain(idm.model, 2 * spec.s)
        for a, b in zip(mk_true, mk_est):
            assert abs(a[0, 0] - b[0, 0]) <= 1e-4 * scale
    # m1/m3 take the gain from the solved output-Toeplitz parameters, so
    # their predictor-form parameters are pinned down even without noise
    mk_obs = markov_parameters(obs, 2 * spec.s, "input")
    obs_scale = max(abs(b[0, 0]) for b in mk_obs)
    for idm in (compute_m1(svd, est, rec, 2), compute_m3(svd, est, rec, 2)):
        mk_est = markov_parameters(to_observer(idm.model), 2 * spec.s, "input")
        for a, b in zip(mk_obs, mk_est):
            assert abs(a[0, 0] - b[0, 0]) <= 1e-4 * obs_scale


def test_compute_m3_zero_toeplitz():
    _, obs, rec, spec, svd, _ = exact_solution_inputs()
    out = compute_m3(svd, np.zeros((spec.s, 1, 2)), rec, 2)
    assert np.all(out.model.D == 0.0)
    np.testing.assert_allclose(out.model.B, out.model.K @ out.model.D, atol=1e-12)
