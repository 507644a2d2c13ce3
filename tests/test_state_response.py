"""Property tests of the recursions built on model.state_response.

Each caller of the shared kernel is checked against an independent
oracle: the per-sample recursions in helpers.py, explicit matrix powers,
or the noise-free data its fit must reproduce.  Examples are drawn
deterministically so the suite gives the same result on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n2sid.extraction import estimate_BDx0
from n2sid.model import (
    IoRecord,
    ObserverModel,
    StateSpaceModel,
    generate_innovation_data,
    markov_parameters,
    predict_observer,
    simulate,
)

from helpers import naive_observer_predict, naive_simulate

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)

# (n, m, p, N, seed)
SHAPES = st.tuples(
    st.integers(1, 4), st.integers(0, 2), st.integers(1, 2), st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)


def stable(rng, n, radius):
    """Random n x n matrix scaled down, if needed, to the given spectral radius."""
    A = rng.standard_normal((n, n))
    return A * (radius / max(radius, np.max(np.abs(np.linalg.eigvals(A)))))


def random_system(n, m, p, seed):
    """Stable A and a gain K small enough that A - K C is stable too."""
    rng = np.random.default_rng(seed)
    A = stable(rng, n, 0.9)
    C = rng.standard_normal((p, n))
    K = rng.standard_normal((n, p))
    while np.max(np.abs(np.linalg.eigvals(A - K @ C))) > 0.95:
        K = 0.5 * K
    model = StateSpaceModel(A, rng.standard_normal((n, m)), C, rng.standard_normal((p, m)), K)
    return model, rng


@PROPERTY
@given(SHAPES)
def test_simulate_matches_naive_recursion(shapes):
    n, m, p, N, seed = shapes
    model, rng = random_system(n, m, p, seed)
    u = rng.standard_normal((N, m))
    x0 = rng.standard_normal(n)
    np.testing.assert_allclose(
        simulate(model, u, x0),
        naive_simulate(model.A, model.B, model.C, model.D, u, x0),
        rtol=1e-12, atol=1e-12,
    )


@PROPERTY
@given(SHAPES)
def test_predict_observer_matches_naive_recursion(shapes):
    n, m, p, N, seed = shapes
    rng = np.random.default_rng(seed)
    obs = ObserverModel(
        stable(rng, n, 0.95), rng.standard_normal((n, m)), rng.standard_normal((p, n)),
        rng.standard_normal((p, m)), rng.standard_normal((n, p)),
    )
    rec = IoRecord(u=rng.standard_normal((N, m)), y=rng.standard_normal((N, p)))
    x0 = rng.standard_normal(n)
    np.testing.assert_allclose(
        predict_observer(obs, rec, x0),
        naive_observer_predict(obs.Aobs, obs.Bobs, obs.C, obs.D, obs.K, rec.u, rec.y, x0),
        rtol=1e-12, atol=1e-12,
    )


@PROPERTY
@given(SHAPES)
def test_markov_parameters_match_explicit_powers(shapes):
    n, m, p, count, seed = shapes
    rng = np.random.default_rng(seed)
    obs = ObserverModel(
        stable(rng, n, 0.95), rng.standard_normal((n, m)), rng.standard_normal((p, n)),
        rng.standard_normal((p, m)), rng.standard_normal((n, p)),
    )
    for channel, first, gain in (
        ("input", obs.D, obs.Bobs),
        ("output", np.zeros((p, p)), obs.K),
    ):
        blocks = markov_parameters(obs, count, channel)
        assert len(blocks) == count
        np.testing.assert_array_equal(blocks[0], first)
        for k in range(1, count):
            expected = obs.C @ np.linalg.matrix_power(obs.Aobs, k - 1) @ gain
            np.testing.assert_allclose(blocks[k], expected, rtol=1e-10, atol=1e-12)


@pytest.mark.filterwarnings("ignore:rank-deficient least squares")
@PROPERTY
@given(SHAPES)
def test_estimate_BDx0_predictor_reproduces_noise_free_data(shapes):
    n, m, p, N, seed = shapes
    model, rng = random_system(n, m, p, seed)
    rec = generate_innovation_data(model, rng.standard_normal((N, m)), x0=rng.standard_normal(n))
    Aobs = model.A - model.K @ model.C
    Bobs, D, x0 = estimate_BDx0(Aobs, model.C, model.K, rec)
    yhat = predict_observer(ObserverModel(Aobs, Bobs, model.C, D, model.K), rec, x0)
    np.testing.assert_allclose(yhat, rec.y, rtol=0, atol=1e-7 * (1 + np.max(np.abs(rec.y))))
