"""Property tests of model.state_response and the recursions built on it.

The kernel evaluates the recursion a window of WINDOW samples at a time,
so its records span several windows and a ragged tail.  It is checked
on and around the window edges, across a split of the record, and for
its overflow contract; each caller is checked against an independent
oracle: the per-sample recursions in helpers.py, explicit matrix powers,
or the noise-free data its fit must reproduce.  Examples are drawn
deterministically so the suite gives the same result on every run.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n2sid.errors import SimulationOverflowError
from n2sid.extraction import SubspaceSvd, _markov_fit, estimate_BDx0
from n2sid.model import (
    WINDOW,
    IoRecord,
    ObserverModel,
    StateSpaceModel,
    generate_innovation_data,
    markov_parameters,
    predict_observer,
    simulate,
    state_response,
    to_observer,
)
from n2sid.structured_ops import OperatorSpec, toeplitz_estimates

from helpers import (
    markov_stack,
    naive_observer_predict,
    naive_simulate,
    naive_state_response,
    observability,
)

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)

# (n, m, p, N, seed); N spans several windows plus a ragged tail
SHAPES = st.tuples(
    st.integers(1, 4), st.integers(0, 2), st.integers(1, 2), st.integers(1, 3 * WINDOW + 5),
    st.integers(0, 2**32 - 1),
)
EDGE_STEPS = [0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 5]


def stable(rng, n, radius):
    """Random n x n matrix scaled down, if needed, to the given spectral radius."""
    A = rng.standard_normal((n, n))
    return A * (radius / max(radius, np.max(np.abs(np.linalg.eigvals(A)))))


def kernel_case(seed, n, p, steps, q, driven):
    """Stable A, C, a start of shape (n,) or (n, q) and, if driven, a matching drive."""
    rng = np.random.default_rng(seed)
    A = stable(rng, n, 0.95)
    C = rng.standard_normal((p, n))
    cols = () if q is None else (q,)
    x0 = rng.standard_normal((n,) + cols)
    drive = rng.standard_normal((steps, n) + cols) if driven else None
    return A, C, x0, drive


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
def test_markov_parameters_are_the_toeplitz_layout(shapes):
    n, m, p, count, seed = shapes
    rng = np.random.default_rng(seed)
    obs = ObserverModel(
        stable(rng, n, 0.95), rng.standard_normal((n, m)), rng.standard_normal((p, n)),
        rng.standard_normal((p, m)), rng.standard_normal((n, p)),
    )
    blocks = markov_parameters(obs, count)
    assert blocks.shape == (count, p, m + p)
    np.testing.assert_array_equal(blocks[0], np.hstack([obs.D, np.zeros((p, p))]))
    for k in range(1, count):
        expected = obs.C @ np.linalg.matrix_power(obs.Aobs, k - 1) @ np.hstack([obs.Bobs, obs.K])
        np.testing.assert_allclose(blocks[k], expected, rtol=1e-10, atol=1e-12)
    # packed into an output stack, a window's blocks read back exactly
    s = n + 3
    blocks = markov_parameters(obs, s)
    N = s + 5
    spec = OperatorSpec.from_data(rng.standard_normal((N, m)), rng.standard_normal((N, p)), s)
    stack = markov_stack(rng.standard_normal((p, N)), blocks)
    np.testing.assert_array_equal(toeplitz_estimates(stack, spec), blocks)
    # with the observability rows as U, the Markov-block fit inverts markov_parameters
    U = observability(obs.Aobs, obs.C, s)
    fit = _markov_fit(SubspaceSvd(U=U, sigma=np.ones(n), Vt=np.zeros((n, 0))), blocks, n)
    for name in ("Aobs", "Bobs", "C", "D", "K"):
        got, want = getattr(fit, name), getattr(obs, name)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), name


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


# ---------------------------------------------------------------------------
# the windowed kernel itself


@pytest.mark.parametrize("q", [None, 0, 3], ids=["vector-start", "no-columns", "stacked-start"])
@pytest.mark.parametrize("driven", [False, True], ids=["free", "driven"])
@pytest.mark.parametrize("steps", EDGE_STEPS)
def test_state_response_on_window_edges_matches_naive_recursion(steps, driven, q):
    for n, p in ((1, 1), (3, 2)):
        A, C, x0, drive = kernel_case(steps + 10 * n, n, p, steps, q, driven)
        want, _ = naive_state_response(A, C, x0, steps, drive)
        got = state_response(A, C, x0, steps, drive)
        assert got.shape == want.shape == (steps, p) + np.shape(x0)[1:]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("steps", EDGE_STEPS)
def test_a_drive_through_B_on_the_leading_columns_matches_naive_recursion(steps):
    """The leading qd responses take B drive[k], the others run free."""
    # the last two: the observer responses' shape and the prediction's with a fitted x0
    shapes = ((1, 1, 1, None, 1), (3, 2, 2, 4, 2), (4, 4, 1, 3, 3), (2, 1, 3, 2, 1),
              (10, 10, 1, 3, 2), (10, 1, 10, 11, 1))
    for n, p, m, q, qd in shapes:
        rng = np.random.default_rng(steps + 10 * n)
        A, C, B = stable(rng, n, 0.95), rng.standard_normal((p, n)), rng.standard_normal((n, m))
        if q is None:
            x0, drive = rng.standard_normal(n), rng.standard_normal((steps, m))
            state_drive = drive @ B.T
        else:
            x0, drive = rng.standard_normal((n, q)), rng.standard_normal((steps, m, qd))
            state_drive = np.zeros((steps, n, q))
            state_drive[:, :, :qd] = np.einsum("ij,kjl->kil", B, drive)
        want, _ = naive_state_response(A, C, x0, steps, state_drive)
        got = state_response(A, C, x0, steps, drive, B=B)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        if q is not None:  # the same leading drive, entering the state directly
            got = state_response(A, C, x0, steps, state_drive[:, :, :qd])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(SHAPES)
def test_a_stacked_start_appends_the_free_responses_to_the_prediction(shapes):
    n, m, p, N, seed = shapes
    model, rng = random_system(n, m, p, seed)
    rec = IoRecord(u=rng.standard_normal((N, m)), y=rng.standard_normal((N, p)))
    x0 = rng.standard_normal((n, 3))
    obs = to_observer(model)
    for got, first, A in (
        (simulate(model, rec.u, x0), simulate(model, rec.u, x0[:, 0]), model.A),
        (predict_observer(obs, rec, x0), predict_observer(obs, rec, x0[:, 0]), obs.Aobs),
    ):
        assert got.shape == (N, p, 3)
        np.testing.assert_allclose(got[:, :, 0], first, rtol=1e-12, atol=1e-12)
        free, _ = naive_state_response(A, model.C, x0[:, 1:], N)
        np.testing.assert_allclose(got[:, :, 1:], free, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(
    st.integers(1, 4), st.integers(1, 2), st.integers(0, 3 * WINDOW + 5),
    st.one_of(st.sampled_from([WINDOW * j + e for j in range(4) for e in (-1, 0, 1)]),
              st.integers(0, 3 * WINDOW + 5)),
    st.sampled_from([None, 2]), st.booleans(), st.integers(0, 2**32 - 1),
)
def test_state_response_is_consistent_across_a_split(n, p, steps, k, q, driven, seed):
    """k steps, then steps - k from the state at k, equal one call over all steps."""
    k = min(max(k, 0), steps)
    A, C, x0, drive = kernel_case(seed, n, p, steps, q, driven)
    head = None if drive is None else drive[:k]
    tail = None if drive is None else drive[k:]
    _, x_k = naive_state_response(A, C, x0, k, head)
    joined = np.concatenate(
        [state_response(A, C, x0, k, head), state_response(A, C, x_k, steps - k, tail)]
    )
    np.testing.assert_allclose(
        state_response(A, C, x0, steps, drive), joined, rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("driven", [False, True], ids=["free", "driven"])
def test_state_response_overflow_raises_without_warnings(driven):
    rng = np.random.default_rng(3)
    growing = stable(rng, 3, 1.2)
    growing *= 1.2 / np.max(np.abs(np.linalg.eigvals(growing)))
    cases = [
        (np.array([[3.0]]), np.ones((1, 1)), np.ones(1), 2000),
        # 1.2^k leaves float range from k of about 3900 on
        (growing, rng.standard_normal((2, 3)), rng.standard_normal(3), 4000),
        # only the state after the last sample leaves float range, in a full window ...
        (np.array([[1e200]]), np.ones((1, 1)), np.array([1e200]), 1),
        # ... and in the ragged tail
        (np.array([[2.0]]), np.ones((1, 1)), np.array([1e308 / 2.0**WINDOW]), WINDOW + 1),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A, C, x0, steps in cases:
            drive = rng.standard_normal((steps, A.shape[0])) if driven else None
            with pytest.raises(SimulationOverflowError):
                state_response(A, C, x0, steps, drive)


def test_state_response_large_finite_response_does_not_raise():
    """A stable response near the top of float range over many windows stays finite."""
    angle = 0.3
    A = 0.9 * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    C = np.array([[1.0, 0.5]])
    steps = 10 * WINDOW + 7
    x0 = np.array([1e305, -1e305])
    drive = 1e304 * np.random.default_rng(4).uniform(-1.0, 1.0, (steps, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = state_response(A, C, x0, steps, drive)
    want, _ = naive_state_response(A, C, x0, steps, drive)
    assert np.max(np.abs(got)) > 1e304
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("driven", [False, True], ids=["free", "driven"])
def test_state_response_final_state_just_inside_float_range_does_not_raise(driven):
    """x(steps) = 2^(L+1) x0 is finite, but a full window past the tail's start would not be."""
    steps = WINDOW + 1
    x0 = np.array([1e308 / 2.0 ** (WINDOW + 1)])
    drive = np.ones((steps, 1)) if driven else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = state_response(np.array([[2.0]]), np.ones((1, 1)), x0, steps, drive)
    want, x_final = naive_state_response(np.array([[2.0]]), np.ones((1, 1)), x0, steps, drive)
    assert np.isfinite(x_final).all()
    np.testing.assert_allclose(got, want, rtol=1e-12)
