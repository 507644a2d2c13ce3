import numpy as np
import pytest

from n2sid.errors import ConsistencyError
from n2sid.model import generate_innovation_data, markov_parameters, to_observer
from n2sid.structured_ops import (
    OperatorSpec,
    _real_part,
    apply_adjoint,
    apply_operator,
    block_hankel,
    block_toeplitz,
    build_M,
    toeplitz_estimates,
)

from helpers import (
    circulant,
    decision_stack,
    dense_M,
    dense_output_operator,
    dft,
    dft_matrix,
    idft,
    make_siso_order2,
    markov_stack,
    naive_states,
    observability,
    prbs,
    probe_M,
    probe_full_M,
    random_decision,
    random_spec,
    reference_adjoint,
)


# ---------------------------------------------------------------------------
# elementary constructors


def test_circulant_pattern():
    np.testing.assert_array_equal(
        circulant([1.0, 2.0, 3.0]), [[1, 3, 2], [2, 1, 3], [3, 2, 1]]
    )


def test_circulant_unit_impulse():
    np.testing.assert_array_equal(circulant([1.0, 0.0, 0.0, 0.0]), np.eye(4))


def test_circulant_fourier_identity():
    rng = np.random.default_rng(0)
    for q in (1, 2, 3, 5, 8):
        x = rng.standard_normal(q)
        F = np.fft.fft(np.eye(q), axis=0)
        rebuilt = (F.conj().T @ np.diag(F @ x) @ F) / q
        np.testing.assert_allclose(circulant(x), rebuilt.real, atol=1e-10)
        assert np.abs(rebuilt.imag).max() < 1e-10


def test_hankel_pattern():
    np.testing.assert_array_equal(block_hankel([1.0, 2.0, 3.0], 2), [[1, 2], [2, 3]])
    np.testing.assert_array_equal(block_hankel([4.0, 5.0, 6.0], 1), [[4, 5, 6]])


def test_hankel_length_mismatch():
    with pytest.raises(ValueError):
        block_hankel([1.0, 2.0], 2)


def test_hankel_is_circulant_corner():
    rng = np.random.default_rng(1)
    m, n = 3, 4
    x = rng.standard_normal(m + n - 1)
    Cfull = circulant(x)
    corner = Cfull[n - 1 : n - 1 + m][:, np.arange(n - 1, -1, -1)]
    np.testing.assert_array_equal(block_hankel(x, m), corner)


def test_hankel_fourier_formula():
    # hankel(x) = H^H diag(F x) G / order, with G the flipped first n DFT
    # columns and H the m columns from n - 1 on (the factorization of build_M)
    rng = np.random.default_rng(2)
    for m, n in ((3, 4), (1, 5), (2, 2), (6, 3), (5, 11)):
        order = m + n - 1
        x = rng.standard_normal(order)
        F = dft_matrix(order)
        G = F[:, np.arange(n - 1, -1, -1)]
        H = F[:, np.arange(n - 1, order)]
        rebuilt = (H.conj().T @ np.diag(F @ x) @ G) / order
        np.testing.assert_allclose(block_hankel(x, m), rebuilt.real, atol=1e-10)
        assert np.abs(rebuilt.imag).max() < 1e-10


def _scalar_lags(*values):
    return np.array(values, dtype=float).reshape(-1, 1, 1)


def test_block_toeplitz_patterns():
    np.testing.assert_array_equal(block_toeplitz(_scalar_lags(5.0)), [[5.0]])
    np.testing.assert_array_equal(
        block_toeplitz(_scalar_lags(1.0, 2.0, 3.0)), [[1, 0, 0], [2, 1, 0], [3, 2, 1]]
    )
    # a zero lag-0 block gives the strictly lower (output-Toeplitz) pattern
    np.testing.assert_array_equal(
        block_toeplitz(_scalar_lags(0.0, 5.0, 7.0)), [[0, 0, 0], [5, 0, 0], [7, 5, 0]]
    )


def test_block_toeplitz_block_layout():
    blocks = np.arange(1.0, 13.0).reshape(2, 2, 3)  # lags 0 and 1 of 2 x 3 blocks
    T = block_toeplitz(blocks)
    assert T.shape == (4, 6)
    np.testing.assert_array_equal(T[:2, :3], blocks[0])
    np.testing.assert_array_equal(T[2:, 3:], blocks[0])
    np.testing.assert_array_equal(T[2:, :3], blocks[1])
    np.testing.assert_array_equal(T[:2, 3:], np.zeros((2, 3)))


def _owns_c_array(a):
    return a.flags.c_contiguous and a.flags.owndata


@pytest.mark.parametrize("s, p, q", [(1, 1, 1), (1, 2, 3), (4, 1, 1), (4, 1, 3), (4, 2, 1), (3, 2, 2)])
def test_block_toeplitz_returns_its_own_c_contiguous_array(s, p, q):
    blocks = np.random.default_rng(s * 100 + p * 10 + q).standard_normal((s, p, q))
    assert _owns_c_array(block_toeplitz(blocks))
    # lags not in C order, like the transposed view toeplitz_estimates returns
    assert _owns_c_array(block_toeplitz(np.asfortranarray(blocks)))


@pytest.mark.parametrize("N, q, s", [(2, 1, 1), (9, 1, 1), (9, 3, 1), (9, 1, 3), (9, 2, 4)])
def test_block_hankel_returns_its_own_c_contiguous_array(N, q, s):
    series = np.random.default_rng(N * 100 + q * 10 + s).standard_normal((N, q))
    for layout in (series, np.asfortranarray(series), series[:, ::-1], series[:, 0]):
        H = block_hankel(layout, s)
        assert _owns_c_array(H)
        np.testing.assert_array_equal(H, block_hankel(np.array(layout, order="C"), s))


@pytest.mark.parametrize("m, p", [(0, 1), (1, 1), (2, 2)])
def test_spec_data_is_its_own_c_contiguous_array(m, p):
    rng = np.random.default_rng(m + 10 * p)
    u, y = rng.standard_normal((20, m)), rng.standard_normal((20, p))
    spec = OperatorSpec.from_data(u, y, s=4)
    assert _owns_c_array(spec.data)
    assert _owns_c_array(spec.negated)
    np.testing.assert_array_equal(spec.negated, -np.hstack([u, y]).T)


def _plan_specs():
    """Specs over m in {0, 1, 2}, p in {1, 2} and s in {2, 3, 15}, and one tall record."""
    rng = np.random.default_rng(33)
    for m in (0, 1, 2):
        for p in (1, 2):
            for s in (2, 3, 15):
                N = 3 * s + 4
                yield OperatorSpec.from_data(rng.standard_normal((N, m)), rng.standard_normal((N, p)), s)
    # 6 columns against 30 rows
    yield OperatorSpec.from_data(rng.standard_normal((20, 1)), rng.standard_normal((20, 2)), 15)


def test_operator_plan_builds_the_block_toeplitz_matrix_bit_for_bit():
    rng = np.random.default_rng(34)
    specs = list(_plan_specs())
    assert specs[-1].ncols < specs[-1].p * specs[-1].s
    for spec in specs:
        X = random_decision(rng, spec)
        T = block_toeplitz(toeplitz_estimates(X, spec))
        want = T @ spec.data + block_hankel(X[:, : spec.N].T, spec.s)
        assert np.array_equal(apply_operator(X, spec), want)


def test_adjoint_plan_matches_the_unplanned_formulation_bit_for_bit():
    rng = np.random.default_rng(35)
    for spec in _plan_specs():
        Z = rng.standard_normal((spec.p * spec.s, spec.ncols))
        want = reference_adjoint(Z, spec)
        scratch = np.full((2, spec.p, spec.s, spec.N + 1), np.nan)
        assert np.array_equal(apply_adjoint(Z, spec), want)
        assert np.array_equal(apply_adjoint(Z, spec, scratch), want)
        assert np.array_equal(reference_adjoint(Z, spec, scratch), want)


def test_block_hankel_scalar():
    np.testing.assert_array_equal(
        block_hankel(np.array([1.0, 2.0, 3.0, 4.0]), 2), [[1, 2, 3], [2, 3, 4]]
    )


def test_block_hankel_layout():
    series = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    H = block_hankel(series, 2)
    np.testing.assert_array_equal(H[:, 0], [1.0, 10.0, 2.0, 20.0])
    assert H.shape == (4, 2)


def test_block_hankel_too_short():
    with pytest.raises(ValueError):
        block_hankel(np.ones((3, 1)), 3)


def test_block_hankel_matches_spec_channels():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((12, 2))
    y = rng.standard_normal((12, 1))
    spec = OperatorSpec.from_data(u, y, s=4)
    channels = np.hstack([u, y])
    for j in range(3):
        np.testing.assert_array_equal(block_hankel(channels[:, j], 4), -spec.data[j::3])


def test_dft_round_trip():
    rng = np.random.default_rng(4)
    for rows, cols in ((2, 5), (3, 3), (4, 9)):
        x = rng.standard_normal((rows + cols - 1, 3))
        back = idft(dft(x))
        assert np.abs(back - x).max() <= 1e-12 * (1 + np.abs(x).max())


# ---------------------------------------------------------------------------
# operator and adjoint


def test_operator_hankel_only():
    rng = np.random.default_rng(5)
    spec = random_spec(rng)
    yhat = rng.standard_normal((spec.p, spec.N))
    x = np.zeros((spec.p, spec.block_dim))
    x[:, : spec.N] = yhat
    np.testing.assert_allclose(
        apply_operator(x, spec), block_hankel(yhat.T, spec.s), atol=0
    )


def test_operator_unit_toeplitz_recovers_data_matrix():
    rng = np.random.default_rng(6)
    u = rng.standard_normal(15)
    y = rng.standard_normal(15)
    spec = OperatorSpec.from_data(u, y, s=4)
    v = np.zeros((1, 1, 4))
    v[0, 0, 0] = 1.0
    x = decision_stack(np.zeros((1, spec.N)), v, np.zeros((1, 1, 3)))
    np.testing.assert_allclose(apply_operator(x, spec), -block_hankel(u, 4), atol=0)


def test_operator_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        spec = random_spec(rng, n_hi=20)
        Amat = dense_output_operator(spec)
        x = random_decision(rng, spec)
        Z = apply_operator(x, spec)
        for i in range(spec.p):
            np.testing.assert_allclose(
                Z[i :: spec.p].ravel(), Amat @ x[i], atol=1e-10
            )


def test_operator_out_matches_the_allocating_call():
    rng = np.random.default_rng(20)
    for _ in range(10):
        spec = random_spec(rng)
        x = random_decision(rng, spec)
        # the Hankel part plus T(X) data, as two separate arrays
        want = block_hankel(x[:, : spec.N].T, spec.s) + block_toeplitz(toeplitz_estimates(x, spec)) @ spec.data
        # the solver's stacks are transposes of (d, p) solves, so test both layouts
        for stack in (x, np.asfortranarray(x)):
            buf = np.full((spec.p * spec.s, spec.ncols), np.nan)
            assert apply_operator(stack, spec, out=buf) is buf
            assert np.array_equal(buf, apply_operator(stack, spec))
            assert np.array_equal(buf, want)


def test_operator_rejects_an_unusable_out():
    rng = np.random.default_rng(21)
    spec = OperatorSpec.from_data(rng.standard_normal((12, 1)), rng.standard_normal((12, 2)), s=3)
    x = random_decision(rng, spec)
    shape = (spec.p * spec.s, spec.ncols)
    for bad in (np.empty(shape[::-1]).T, np.empty((shape[0], shape[1] + 1)), np.empty(shape, dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous"):
            apply_operator(x, spec, out=bad)


def test_operator_on_true_model_is_low_rank():
    model = make_siso_order2()
    obs = to_observer(model)
    rng = np.random.default_rng(8)
    N, s = 40, 6
    u = prbs(rng, N, 1)
    rec = generate_innovation_data(model, u, noise_std=0.0)
    spec = OperatorSpec.from_data(rec.u, rec.y, s)
    x = markov_stack(rec.y.T, markov_parameters(obs, s))
    Z = apply_operator(x, spec)
    states = naive_states(obs.Aobs, np.hstack([obs.Bobs, obs.K]), np.hstack([rec.u, rec.y]), np.zeros(2))
    expected = observability(obs.Aobs, obs.C, s) @ states[: spec.ncols].T
    np.testing.assert_allclose(Z, expected, atol=1e-8)
    sv = np.linalg.svd(Z, compute_uv=False)
    assert sv[2] <= 1e-10 * sv[0]


def test_adjoint_of_zero():
    spec = random_spec(np.random.default_rng(9))
    out = apply_adjoint(np.zeros((spec.p * spec.s, spec.ncols)), spec)
    assert out.shape == (spec.p, spec.block_dim)
    assert np.all(out == 0.0)


def test_adjoint_identity_random_trials():
    rng = np.random.default_rng(10)
    for _ in range(100):
        spec = random_spec(rng)
        x = random_decision(rng, spec)
        Z = rng.standard_normal((spec.p * spec.s, spec.ncols))
        lhs = float(np.sum(apply_operator(x, spec) * Z))
        rhs = float(np.sum(apply_adjoint(Z, spec) * x))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_adjoint_in_a_scratch_of_any_contents_matches_the_allocating_call():
    rng = np.random.default_rng(12)
    for _ in range(20):
        spec = random_spec(rng)
        Z = rng.standard_normal((spec.p * spec.s, spec.ncols))
        scratch = np.full((2, spec.p, spec.s, spec.N + 1), np.nan)
        assert np.array_equal(apply_adjoint(Z, spec, scratch), apply_adjoint(Z, spec))
    for bad in (scratch[0], scratch.astype(np.float32), np.asfortranarray(scratch)):
        with pytest.raises(ValueError, match="scratch"):
            apply_adjoint(Z, spec, bad)


def test_adjoint_single_entry_matches_dense_column():
    rng = np.random.default_rng(11)
    spec = random_spec(rng, s_lo=3, s_hi=5, n_hi=15)
    Amat = dense_output_operator(spec)
    a, b = 1, 2
    Z = np.zeros((spec.p * spec.s, spec.ncols))
    Z[(a - 1) * spec.p, b] = 1.0  # row a of output block 1
    got = apply_adjoint(Z, spec)[0]
    np.testing.assert_allclose(got, Amat[(a - 1) * spec.ncols + b], atol=1e-12)


def test_output_only_spec_has_no_input_blocks():
    y = np.random.default_rng(17).standard_normal((12, 1))
    spec = OperatorSpec.from_data(np.zeros((12, 0)), y, s=3)
    assert spec.m == 0 and spec.data.shape == (3, 10)
    assert spec.block_dim == 12 + 2
    x = decision_stack(y.T, np.zeros((1, 0, 3)), np.zeros((1, 1, 2)))
    assert toeplitz_estimates(x, spec).shape == (3, 1, 1)
    # the operator reduces to the Hankel plus output-Toeplitz terms
    np.testing.assert_array_equal(apply_operator(x, spec), block_hankel(y, 3))


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec.from_data(np.ones((5, 1)), np.ones((5, 1)), s=1)
    with pytest.raises(ValueError):
        OperatorSpec.from_data(np.ones((4, 1)), np.ones((4, 1)), s=4)
    with pytest.raises(ValueError, match="same number of samples"):
        OperatorSpec.from_data(np.ones((6, 1)), np.ones((5, 1)), s=2)
    with pytest.raises(ValueError, match="output channel"):
        OperatorSpec.from_data(np.ones((6, 1)), np.ones((6, 0)), s=2)


def test_operator_rejects_misshapen_stack():
    rng = np.random.default_rng(19)
    spec = OperatorSpec.from_data(rng.standard_normal((12, 1)), rng.standard_normal((12, 2)), s=3)
    good = random_decision(rng, spec)
    apply_operator(good, spec)
    for bad in (good[:1], good[:, :-1], np.hstack([good, good[:, :1]]), good.T, good.ravel()):
        with pytest.raises(ValueError, match="expected"):
            apply_operator(bad, spec)
    with pytest.raises(ValueError, match="expected"):
        toeplitz_estimates(good[:, 1:], spec)
    Z = apply_operator(good, spec)
    apply_adjoint(Z, spec)
    for bad in (Z[:-1], Z[:, :-1], np.hstack([Z, Z[:, :1]]), Z.T, Z.ravel()):
        with pytest.raises(ValueError, match="expected"):
            apply_adjoint(bad, spec)


# ---------------------------------------------------------------------------
# coefficient matrix


def test_m_output_block_is_occupancy_diagonal():
    spec = OperatorSpec.from_data(np.ones((3, 1)), np.arange(3.0), s=2)
    M = dense_M(spec)
    np.testing.assert_allclose(M[:3, :3], np.diag([1.0, 2.0, 1.0]), atol=1e-12)


def test_real_part_rejects_an_imaginary_residue():
    a = np.array([[2.0 + 1e-12j, -1.0]])
    assert np.array_equal(_real_part(a, "piece"), a.real)
    with pytest.raises(ConsistencyError, match=r"imaginary residue 1\.000e-03 in piece"):
        _real_part(a + 1e-3j, "piece")


def test_m_pieces_shapes_and_positive_diagonal():
    rng = np.random.default_rng(18)
    for _ in range(10):
        spec = random_spec(rng)
        r = spec.block_dim - spec.N
        diag, cross, small = build_M(spec)
        assert diag.shape == (spec.N,) and cross.shape == (spec.N, r) and small.shape == (r, r)
        assert diag.min() >= 1.0 - 1e-12
        np.testing.assert_array_equal(small, small.T)


def test_m_matches_probe_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        spec = random_spec(rng)
        M = dense_M(spec)
        np.testing.assert_allclose(M, probe_M(spec), atol=1e-8)


def test_m_matches_independent_dense_gram():
    rng = np.random.default_rng(14)
    for _ in range(5):
        spec = random_spec(rng, n_hi=20)
        Amat = dense_output_operator(spec)
        np.testing.assert_allclose(dense_M(spec), Amat.T @ Amat, atol=1e-8)


def test_m_symmetric_psd():
    rng = np.random.default_rng(15)
    for _ in range(10):
        spec = random_spec(rng)
        M = dense_M(spec)
        assert np.abs(M - M.T).max() <= 1e-10
        evals = np.linalg.eigvalsh(M)
        assert evals.min() >= -1e-8 * np.linalg.norm(M, 2)


def test_full_coefficient_matrix_block_diagonal():
    rng = np.random.default_rng(16)
    u = rng.standard_normal((12, 2))
    y = rng.standard_normal((12, 2))
    spec = OperatorSpec.from_data(u, y, s=3)
    d = spec.block_dim
    Mfull = probe_full_M(spec)
    Mi = dense_M(spec)
    for i in range(spec.p):
        for k in range(spec.p):
            blk = Mfull[i * d : (i + 1) * d, k * d : (k + 1) * d]
            if i == k:
                np.testing.assert_allclose(blk, Mi, atol=1e-10)
            else:
                assert np.abs(blk).max() <= 1e-12
