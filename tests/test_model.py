import numpy as np
import pytest

from n2sid.errors import SimulationOverflowError
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

from helpers import make_siso_order2, naive_simulate, prbs


def test_to_observer_zero_gain_identity():
    rng = np.random.default_rng(0)
    model = StateSpaceModel(
        A=rng.standard_normal((3, 3)),
        B=rng.standard_normal((3, 2)),
        C=rng.standard_normal((2, 3)),
        D=rng.standard_normal((2, 2)),
        K=np.zeros((3, 2)),
    )
    obs = to_observer(model)
    assert np.array_equal(obs.Aobs, model.A)
    assert np.array_equal(obs.Bobs, model.B)


def test_one_dimensional_arrays_are_one_channel():
    rng = np.random.default_rng(8)
    u, y = rng.standard_normal(30), rng.standard_normal(30)
    rec = IoRecord(u=u, y=y)
    assert rec.u.shape == (30, 1) and rec.y.shape == (30, 1)
    assert np.array_equal(rec.u[:, 0], u) and np.array_equal(rec.y[:, 0], y)
    model = make_siso_order2()
    assert np.array_equal(simulate(model, u), simulate(model, u[:, None]))


def test_to_observer_scalar():
    model = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]], K=[[0.5]])
    obs = to_observer(model)
    assert obs.Aobs[0, 0] == pytest.approx(0.5)
    assert obs.Bobs[0, 0] == pytest.approx(0.5)


def test_observer_round_trip():
    rng = np.random.default_rng(1)
    model = StateSpaceModel(
        A=rng.standard_normal((3, 3)),
        B=rng.standard_normal((3, 1)),
        C=rng.standard_normal((1, 3)),
        D=rng.standard_normal((1, 1)),
        K=rng.standard_normal((3, 1)),
    )
    back = to_observer(model).to_state_space()
    np.testing.assert_allclose(back.A, model.A, atol=1e-14)
    np.testing.assert_allclose(back.B, model.B, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["A", "B", "C", "D", "K"])
def test_state_space_model_rejects_a_non_finite_entry(name, bad):
    mats = {
        "A": [[0.5, 0.1], [0.0, 0.3]],
        "B": [[1.0], [0.5]],
        "C": [[1.0, -1.0]],
        "D": [[0.2]],
        "K": [[0.4], [0.1]],
    }
    mats[name] = np.array(mats[name])
    mats[name][-1, -1] = bad
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries"):
        StateSpaceModel(**mats)


def test_simulate_hand_recursion():
    model = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], K=[[0.0]])
    yhat = simulate(model, np.array([[1.0], [0.0], [0.0]]), x0=[0.0])
    np.testing.assert_allclose(yhat.ravel(), [0.0, 1.0, 0.5])


def test_simulate_feedthrough_only():
    model = StateSpaceModel(
        A=np.zeros((2, 2)), B=np.zeros((2, 2)), C=np.zeros((2, 2)), D=np.eye(2), K=np.zeros((2, 2))
    )
    u = np.random.default_rng(2).standard_normal((10, 2))
    np.testing.assert_array_equal(simulate(model, u), u)


def test_simulate_matches_naive_oracle():
    rng = np.random.default_rng(3)
    A = 0.5 * rng.standard_normal((4, 4))
    A /= max(1.0, np.max(np.abs(np.linalg.eigvals(A))) / 0.9)
    model = StateSpaceModel(
        A=A,
        B=rng.standard_normal((4, 2)),
        C=rng.standard_normal((2, 4)),
        D=rng.standard_normal((2, 2)),
        K=np.zeros((4, 2)),
    )
    u = rng.standard_normal((50, 2))
    x0 = rng.standard_normal(4)
    np.testing.assert_allclose(
        simulate(model, u, x0), naive_simulate(model.A, model.B, model.C, model.D, u, x0),
        atol=1e-12,
    )


def test_simulate_zero_everything_is_zero():
    model = make_siso_order2()
    yhat = simulate(model, np.zeros((20, 1)), x0=np.zeros(2))
    assert np.array_equal(yhat, np.zeros((20, 1)))


def test_simulate_overflow_raises():
    model = StateSpaceModel(A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], K=[[0.0]])
    with pytest.raises(SimulationOverflowError):
        simulate(model, np.ones((2000, 1)), x0=[1.0])


def test_simulate_dimension_mismatch():
    model = make_siso_order2()
    with pytest.raises(ValueError):
        simulate(model, np.ones((10, 3)))
    with pytest.raises(ValueError):
        simulate(model, np.ones((10, 1)), x0=[1.0, 2.0, 3.0])


def test_predict_observer_zero_gain_equals_simulate():
    rng = np.random.default_rng(4)
    model = make_siso_order2()
    zero_k = StateSpaceModel(model.A, model.B, model.C, model.D, np.zeros((2, 1)))
    obs = to_observer(zero_k)
    u = rng.standard_normal((30, 1))
    y = rng.standard_normal((30, 1))
    rec = IoRecord(u=u, y=y)
    x0 = rng.standard_normal(2)
    assert np.array_equal(predict_observer(obs, rec, x0), simulate(zero_k, u, x0))


def test_predict_observer_tracks_noise_free_data():
    rng = np.random.default_rng(5)
    model = make_siso_order2()
    u = prbs(rng, 80, 1)
    x0 = rng.standard_normal(2)
    rec = generate_innovation_data(model, u, x0=x0, noise_std=0.0)
    yhat = predict_observer(to_observer(model), rec, x0)
    np.testing.assert_allclose(yhat, rec.y, atol=1e-10)


def test_predict_observer_pure_delay():
    obs = ObserverModel(Aobs=[[0.0]], Bobs=[[0.0]], C=[[1.0]], D=[[0.0]], K=[[1.0]])
    rec = IoRecord(u=np.zeros((3, 1)), y=np.array([[2.0], [3.0], [4.0]]))
    np.testing.assert_allclose(predict_observer(obs, rec, [0.0]).ravel(), [0.0, 2.0, 3.0])


def test_markov_parameters_first_terms():
    obs = to_observer(make_siso_order2())
    blocks = markov_parameters(obs, 3)
    assert blocks.shape == (3, 1, 2)
    assert np.array_equal(blocks[0], np.hstack([obs.D, np.zeros((1, 1))]))
    assert np.array_equal(markov_parameters(obs, 1), blocks[:1])


def test_markov_parameters_scalar_hand_case():
    obs = ObserverModel(Aobs=[[0.5]], Bobs=[[1.0]], C=[[1.0]], D=[[2.0]], K=[[0.0]])
    blocks = markov_parameters(obs, 3)
    np.testing.assert_allclose(blocks[:, 0, 0], [2.0, 1.0, 0.5])


def test_markov_parameters_output_chain():
    obs = to_observer(make_siso_order2())
    blocks = markov_parameters(obs, 4)
    np.testing.assert_allclose(blocks[1, :, 1:], obs.C @ obs.K)
    np.testing.assert_allclose(blocks[3, :, 1:], obs.C @ obs.Aobs @ obs.Aobs @ obs.K)


def test_vaf_trivial_cases():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((20, 2))
    assert vaf(y, y) == pytest.approx(100.0)
    # yhat = 0 and yhat = 2y both leave an error of norm ||y||
    assert vaf(y, np.zeros_like(y)) == pytest.approx(0.0)
    assert vaf(y, 2 * y) == pytest.approx(0.0)
    assert vaf(y, 3 * y) == pytest.approx(-300.0)


def test_vaf_zero_reference_raises():
    with pytest.raises(ValueError):
        vaf(np.zeros((5, 1)), np.ones((5, 1)))


def test_vaf_scaling_invariance():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((15, 2))
    yhat = rng.standard_normal((15, 2))
    assert vaf(3.7 * y, 3.7 * yhat) == pytest.approx(vaf(y, yhat), rel=1e-12)


def test_generate_innovation_data_deterministic():
    model = make_siso_order2()
    u = prbs(np.random.default_rng(8), 40, 1)
    r1 = generate_innovation_data(model, u, noise_std=0.3, seed=42)
    r2 = generate_innovation_data(model, u, noise_std=0.3, seed=42)
    assert np.array_equal(r1.y, r2.y)


def test_generate_innovation_data_noise_free_equals_simulate():
    model = make_siso_order2()
    u = prbs(np.random.default_rng(9), 40, 1)
    rec = generate_innovation_data(model, u, noise_std=0.0, seed=0)
    np.testing.assert_array_equal(rec.y, simulate(model, u))


@pytest.mark.parametrize("noise_std", [-0.1, float("nan"), float("inf"), float("-inf")])
def test_generate_innovation_data_rejects_bad_noise_std(noise_std):
    u = prbs(np.random.default_rng(10), 20, 1)
    with pytest.raises(ValueError, match="noise_std"):
        generate_innovation_data(make_siso_order2(), u, noise_std=noise_std, seed=0)


def test_io_record_validation():
    with pytest.raises(ValueError):
        IoRecord(u=np.ones((5, 1)), y=np.ones((4, 1)))
    with pytest.raises(ValueError):
        IoRecord(u=np.ones((5, 1)), y=np.array([[np.nan]] * 5))
    rec = IoRecord(u=np.ones((5, 2)), y=np.ones((5, 1)))
    assert (rec.N, rec.m, rec.p) == (5, 2, 1)


def test_state_space_model_validation():
    with pytest.raises(ValueError):
        StateSpaceModel(A=[[1.0, 0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], K=[[0.0]])
    with pytest.raises(ValueError):
        StateSpaceModel(A=[[np.inf]], B=[[1.0]], C=[[1.0]], D=[[0.0]], K=[[0.0]])
