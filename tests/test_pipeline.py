import warnings
from dataclasses import replace

import numpy as np
import pytest

import n2sid.pipeline as pipeline_mod
from n2sid.errors import SolverError
from n2sid.extraction import fit_x0
from n2sid.model import (
    IoRecord,
    StateSpaceModel,
    generate_innovation_data,
    predict_observer,
    simulate,
    to_observer,
    vaf,
)
from n2sid.pipeline import (
    PipelineConfig,
    evaluate,
    identify,
    identify_output_only,
    preprocess,
)

from helpers import make_mimo_order4, make_record, make_siso_order2, observability, prbs


def noise_free_record(N=120, seed=0):
    model = make_siso_order2()
    u = prbs(np.random.default_rng(seed), N, 1)
    return model, generate_innovation_data(model, u, noise_std=0.0)


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_identity():
    _, rec = noise_free_record()
    out, peaks = preprocess(rec, PipelineConfig(s=10, detrend=False))
    assert np.array_equal(out.u, rec.u)
    assert np.array_equal(out.y, rec.y)
    assert np.array_equal(peaks, [1.0])


def test_preprocess_detrend():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((50, 1)) + 3.0
    y = np.hstack([rng.standard_normal((50, 1)) - 2.0, np.full((50, 1), 7.0)])
    rec = IoRecord(u=u, y=y)
    out, _ = preprocess(rec, PipelineConfig(s=5))
    assert out.N == 50
    np.testing.assert_allclose(out.u.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.y.mean(axis=0), 0.0, atol=1e-12)
    # a constant channel detrends to zero
    np.testing.assert_allclose(out.y[:, 1], 0.0, atol=1e-12)


def test_preprocess_output_scaling():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((40, 1))
    y *= 4.0 / np.abs(y).max()
    rec = IoRecord(u=rng.standard_normal((40, 1)), y=y)
    out, peaks = preprocess(rec, PipelineConfig(s=5, detrend=False, scale_outputs=True))
    assert np.abs(out.y).max() == pytest.approx(1.0)
    assert peaks == pytest.approx([4.0])


def test_preprocess_insufficient_samples():
    _, rec = noise_free_record(N=30)
    with pytest.raises(ValueError):
        preprocess(rec, PipelineConfig(s=30))


def test_split_halves_differ_by_at_most_one():
    for N in (20, 21):
        rec = IoRecord(u=np.zeros((N, 1)), y=np.arange(float(N))[:, None])
        a, b = pipeline_mod._split_record(rec, "half")
        assert abs(a.N - b.N) <= 1
        assert a.N + b.N == N
        np.testing.assert_array_equal(np.vstack([a.y, b.y]), rec.y)


def test_split_none_keeps_full_record():
    rec = IoRecord(u=np.zeros((9, 1)), y=np.arange(9.0)[:, None])
    a, b = pipeline_mod._split_record(rec, "none")
    assert np.array_equal(a.y, rec.y) and np.array_equal(b.y, rec.y)
    assert np.array_equal(a.u, rec.u) and np.array_equal(b.u, rec.u)


# ---------------------------------------------------------------------------
# identification end to end


def test_identify_noise_free_recovers_system():
    model, rec = noise_free_record()
    cfg = PipelineConfig(s=10, detrend=False)
    rep = identify(rec, cfg)
    assert rep.best.order == 2
    e_true = np.sort(np.linalg.eigvals(model.A))
    e_est = np.sort(np.linalg.eigvals(rep.best.model.A))
    assert np.abs(e_true - e_est).max() <= 1e-3
    u_val = prbs(np.random.default_rng(9), 200, 1)
    val = generate_innovation_data(model, u_val, noise_std=0.0)
    assert evaluate(rep.best, val) >= 99.9


def test_scale_outputs_returns_model_in_record_units():
    model = make_siso_order2()
    rng = np.random.default_rng(9)
    rec = generate_innovation_data(model, prbs(rng, 600, 1), noise_std=0.2, seed=10)
    cfg = PipelineConfig(s=10, n_lambda=4, scale_outputs=True)
    runs = []
    for factor in (1.0, 8.0):
        ide = IoRecord(u=rec.u[:300], y=factor * rec.y[:300])
        val = IoRecord(u=rec.u[300:], y=factor * rec.y[300:])
        runs.append(identify(ide, cfg).best.model)
        assert evaluate(runs[-1], val) >= 90.0
    # a power-of-two factor leaves the scaled program bit for bit unchanged
    assert np.array_equal(runs[1].C, 8.0 * runs[0].C)
    assert np.array_equal(runs[1].K, runs[0].K / 8.0)


def test_scale_outputs_reports_j_in_record_units(monkeypatch):
    model = make_siso_order2()
    rng = np.random.default_rng(11)
    rec = generate_innovation_data(model, prbs(rng, 200, 1), noise_std=0.2, seed=12)
    rec = IoRecord(u=rec.u, y=8.0 * rec.y)
    cfg = PipelineConfig(s=8, n_lambda=5, scale_outputs=True)
    extracted = []
    real_extract = pipeline_mod._extract

    def capturing_extract(*args):
        extracted.append(None)  # a failing extraction keeps its slot
        extracted[-1] = real_extract(*args)
        return extracted[-1]

    monkeypatch.setattr(pipeline_mod, "_extract", capturing_extract)
    rep = identify(rec, cfg)
    raw, _ = preprocess(rec, PipelineConfig(s=8))
    _, peaks = preprocess(rec, cfg)
    assert peaks[0] > 1.0
    # each scored grid point's model, taken to record units, scores its J on the unscaled record
    assert np.isfinite(rep.j_values).sum() >= 3
    # extraction runs on every solved grid point, in grid order
    unsolved = {f["lambda"] for f in rep.failures if f["stage"] == "solve"}
    solved = [i for i, lam in enumerate(rep.lambdas) if lam not in unsolved]
    assert len(extracted) == len(solved)
    for i, idm in zip(solved, extracted):
        if not np.isfinite(rep.j_values[i]):
            continue
        m = idm.model
        in_record_units = StateSpaceModel(m.A, m.B, peaks * m.C, peaks * m.D, m.K / peaks)
        yhat = pipeline_mod._predict(in_record_units, raw, cfg.x0_policy)
        assert rep.j_values[i] == pytest.approx(float(np.sum((raw.y - yhat) ** 2)), rel=1e-8)
    yhat = pipeline_mod._predict(rep.best.model, raw, cfg.x0_policy)
    assert rep.j_values[rep.lambdas == rep.lambda_opt][0] == pytest.approx(
        float(np.sum((raw.y - yhat) ** 2)), rel=1e-8
    )


def test_identify_single_grid_point():
    _, rec = noise_free_record(N=60)
    cfg = PipelineConfig(s=6, detrend=False, lambda_min=10.0, lambda_max=10.0, n_lambda=1)
    rep = identify(rec, cfg)
    assert rep.lambdas.shape == (1,)
    assert rep.j_values.shape == (1,)
    assert rep.lambda_opt == 10.0


def test_identify_split_half_runs():
    _, rec = noise_free_record(N=140)
    rep = identify(rec, PipelineConfig(s=8, detrend=False, split="half"))
    assert np.isfinite(rep.lambda_opt)
    assert rep.best.order >= 1


def test_lambda_opt_attains_minimum():
    _, rec = noise_free_record(N=80)
    rep = identify(rec, PipelineConfig(s=8, detrend=False, n_lambda=8))
    finite = np.isfinite(rep.j_values)
    assert rep.j_values[rep.lambdas == rep.lambda_opt][0] == np.nanmin(rep.j_values)
    assert np.any(finite)


def test_the_selected_point_is_named_once():
    _, rec = noise_free_record(N=80)
    rep = identify(rec, PipelineConfig(s=8, detrend=False, n_lambda=8))
    assert rep.best_index == int(np.nanargmin(rep.j_values))
    assert rep.lambda_opt == rep.lambdas[rep.best_index]
    assert rep.best.order == rep.orders[rep.best_index]


def test_grid_endpoints_exact_powers():
    cfg = PipelineConfig()
    grid = cfg.lambda_grid()
    assert grid[0] == 10.0**-1.5
    assert grid[-1] == 10.0**3


def test_identify_deterministic():
    _, rec = noise_free_record(N=70)
    cfg = PipelineConfig(s=6, detrend=False, n_lambda=6)
    r1 = identify(rec, cfg)
    r2 = identify(rec, cfg)
    assert np.array_equal(r1.j_values, r2.j_values, equal_nan=True)
    assert np.array_equal(r1.best.model.A, r2.best.model.A)
    assert np.array_equal(r1.best.model.K, r2.best.model.K)
    assert r1.lambda_opt == r2.lambda_opt


def test_identify_fixed_order():
    _, rec = noise_free_record(N=80)
    rep = identify(rec, PipelineConfig(s=8, detrend=False, order=3, n_lambda=5))
    assert np.all(rep.orders[np.isfinite(rep.j_values)] == 3)
    assert rep.best.order == 3


@pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
def test_a_fixed_order_above_a_points_rank_reports_the_spectrum_of_the_automatic_run(variant):
    rec = make_record(make_siso_order2(), 80, seed=1, noise_std=0.2)
    auto = identify(rec, PipelineConfig(s=10, n_lambda=8))
    fixed = identify(rec, PipelineConfig(s=10, n_lambda=8, order=4, variant=variant))
    ranks = [np.count_nonzero(sigma) for sigma in auto.sigma_per_lambda]
    assert min(ranks) < 4 and not fixed.failures
    for want, got, rank in zip(auto.sigma_per_lambda, fixed.sigma_per_lambda, ranks):
        assert np.array_equal(got, want)
        assert np.all(got[rank:] == 0.0)


def test_fixed_order_beyond_the_window_is_rejected_before_the_sweep(monkeypatch):
    _, rec = noise_free_record(N=60)
    monkeypatch.setattr(pipeline_mod, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    with pytest.raises(ValueError, match=r"order 5 exceeds \(s-1\)\*p = 4"):
        identify(rec, PipelineConfig(s=5, order=5))
    # within (s-1)*p = 14, but Z = A(X) of 20 samples at s = 15 has only N-s+1 = 6
    # columns, so its thin SVD has 6 left vectors
    short = IoRecord(u=rec.u[:20], y=rec.y[:20])
    with pytest.raises(ValueError, match=r"order 8 exceeds N-s\+1 = 6"):
        identify(short, PipelineConfig(s=15, order=8))
    # under split="half" N is the identification part's: 40 samples keep 20
    with pytest.raises(ValueError, match=r"order 7 exceeds N-s\+1 = 6"):
        identify(IoRecord(u=rec.u[:40], y=rec.y[:40]), PipelineConfig(s=15, order=7, split="half"))


def test_split_half_leaving_at_most_s_identification_samples_is_rejected(monkeypatch):
    _, rec = noise_free_record(N=60)
    monkeypatch.setattr(pipeline_mod, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    # 24 samples split into 12 and 12: enough for preprocessing at s = 12, not for the program
    with pytest.raises(ValueError, match="identification part has 12 samples, need more than s=12"):
        identify(IoRecord(u=rec.u[:24], y=rec.y[:24]), PipelineConfig(s=12, split="half"))


def test_identify_records_failures_and_continues(monkeypatch):
    _, rec = noise_free_record(N=60)
    cfg = PipelineConfig(s=6, detrend=False, n_lambda=4)
    real_sweep = pipeline_mod.sweep

    def breaking_sweep(spec, y, grid, fact=None):
        out = real_sweep(spec, y, grid, fact=fact)
        out[0] = None
        return out

    monkeypatch.setattr(pipeline_mod, "sweep", breaking_sweep)
    rep = identify(rec, cfg)
    assert any(f["stage"] == "solve" for f in rep.failures)
    assert np.isnan(rep.j_values[0])
    assert np.isfinite(rep.lambda_opt)


def test_report_carries_each_grid_points_iterations_and_convergence(monkeypatch):
    _, rec = noise_free_record(N=60)
    cfg = PipelineConfig(s=6, detrend=False, n_lambda=4)
    real_sweep = pipeline_mod.sweep
    swept = []

    def sweep_with_a_failed_and_an_unconverged_point(spec, y, grid, fact=None):
        out = real_sweep(spec, y, grid, fact=fact)
        out[1] = None
        out[2] = replace(out[2], converged=False)
        swept.extend(out)
        return out

    monkeypatch.setattr(pipeline_mod, "sweep", sweep_with_a_failed_and_an_unconverged_point)
    rep = identify(rec, cfg)
    assert rep.iterations.tolist() == [swept[0].iterations, -1, swept[2].iterations, swept[3].iterations]
    assert rep.converged.tolist() == [swept[0].converged, False, False, swept[3].converged]
    assert rep.iterations.dtype.kind == "i" and rep.converged.dtype == bool


def test_report_carries_each_grid_points_gap_and_nan_where_the_solve_failed(monkeypatch):
    _, rec = noise_free_record(N=60)
    cfg = PipelineConfig(s=6, detrend=False, n_lambda=4)
    real_sweep = pipeline_mod.sweep
    swept = []

    def sweep_with_a_failed_point(spec, y, grid, fact=None):
        out = real_sweep(spec, y, grid, fact=fact)
        out[1] = None
        swept.extend(out)
        return out

    monkeypatch.setattr(pipeline_mod, "sweep", sweep_with_a_failed_point)
    rep = identify(rec, cfg)
    assert np.isnan(rep.gaps[1])
    assert rep.gaps[[0, 2, 3]].tolist() == [swept[i].gap for i in (0, 2, 3)]


def test_identify_names_the_stage_that_failed(monkeypatch):
    _, rec = noise_free_record(N=60)
    cfg = PipelineConfig(s=6, detrend=False, n_lambda=4)
    grid = cfg.lambda_grid()
    real_extract = pipeline_mod._extract
    calls = []

    def failing_extract(svd, x, spec, rec_, cfg_):
        # every grid point solves, so call i extracts grid point i
        calls.append(x)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("forced extraction failure")
        idm = real_extract(svd, x, spec, rec_, cfg_)
        if len(calls) == 2:
            # an unstable model whose scored recursion overflows
            return replace(idm, model=replace(idm.model, A=1e10 * idm.model.A))
        return idm

    monkeypatch.setattr(pipeline_mod, "_extract", failing_extract)
    rep = identify(rec, cfg)
    stages = {f["lambda"]: (f["stage"], f["message"]) for f in rep.failures}
    assert stages[grid[0]] == ("extract", "forced extraction failure")
    assert stages[grid[1]][0] == "score"
    assert "overflow" in stages[grid[1]][1]
    assert np.all(np.isnan(rep.j_values[:2])) and np.all(np.isfinite(rep.j_values[2:]))


def test_failed_points_keep_their_singular_values(monkeypatch):
    _, rec = noise_free_record(N=60)
    cfg = PipelineConfig(s=6, detrend=False, n_lambda=4)
    real_m1 = pipeline_mod.compute_m1
    calls = []

    def failing_m1(*args):
        # grid points 0 and 2 fail after their SVD succeeded
        calls.append(None)
        if len(calls) in (1, 3):
            raise np.linalg.LinAlgError("forced failure after the SVD")
        return real_m1(*args)

    monkeypatch.setattr(pipeline_mod, "compute_m1", failing_m1)
    rep = identify(rec, cfg)
    monkeypatch.undo()
    assert [f["stage"] for f in rep.failures] == ["extract", "extract"]
    assert np.isnan(rep.j_values[[0, 2]]).all() and np.isfinite(rep.j_values[[1, 3]]).all()
    # every point's singular values, failed or not, are those of an unpatched run
    want = identify(rec, cfg).sigma_per_lambda
    for got, ref in zip(rep.sigma_per_lambda, want):
        assert got is not None
        assert np.array_equal(got, ref)


def test_timings_split_extraction_from_scoring():
    _, rec = noise_free_record(N=60)
    t = identify(rec, PipelineConfig(s=6, detrend=False, n_lambda=4)).timings
    phases = ("factorization_s", "sweep_s", "extraction_s", "scoring_s")
    assert set(t) == {*phases, "total_s"}
    assert all(t[k] >= 0.0 for k in t)
    assert t["scoring_s"] > 0.0
    assert sum(t[k] for k in phases) <= t["total_s"]


def test_identify_all_failed_raises(monkeypatch):
    _, rec = noise_free_record(N=60)
    cfg = PipelineConfig(s=6, detrend=False, n_lambda=3)
    monkeypatch.setattr(
        pipeline_mod, "sweep", lambda spec, y, grid, fact=None: [None] * len(grid)
    )
    with pytest.raises(SolverError):
        identify(rec, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(s=1)
    with pytest.raises(ValueError):
        PipelineConfig(lambda_min=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(lambda_min=10.0, lambda_max=1.0)
    for lo, hi in ((1.0, np.inf), (1.0, np.nan), (np.nan, 1.0), (np.inf, np.inf)):
        with pytest.raises(ValueError):
            PipelineConfig(lambda_min=lo, lambda_max=hi)
    with pytest.raises(ValueError):
        PipelineConfig(variant="m4")
    with pytest.raises(ValueError):
        PipelineConfig(order=0)
    with pytest.raises(ValueError):
        PipelineConfig(x0_policy="best")
    with pytest.raises(ValueError, match="max_order must be positive"):
        PipelineConfig(max_order=0)


@pytest.mark.parametrize(
    "name, value",
    [("order", True), ("order", 2.0), ("s", 8.0), ("s", np.True_), ("n_lambda", 2.0),
     ("max_order", 2.5), ("max_order", "3")],
)
def test_config_integer_fields_take_only_integral_values(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        PipelineConfig(**{name: value})


def test_numpy_integers_configure_the_run_python_ints_do():
    _, rec = noise_free_record(N=60)
    plain = PipelineConfig(s=6, detrend=False, n_lambda=4, max_order=3)
    numpy_ints = PipelineConfig(s=np.int64(6), detrend=False, n_lambda=np.int32(4), max_order=np.uint8(3))
    assert numpy_ints == plain
    fixed = PipelineConfig(s=np.int64(6), detrend=False, n_lambda=4, order=np.int64(2))
    assert fixed == replace(plain, max_order=10, order=2)
    for cfg in (numpy_ints, fixed):
        assert all(type(getattr(cfg, name)) is int for name in ("s", "n_lambda", "max_order"))
    for want, got in ((plain, numpy_ints), (replace(plain, max_order=10, order=2), fixed)):
        a, b = identify(rec, want), identify(rec, got)
        assert np.array_equal(a.j_values, b.j_values, equal_nan=True)
        assert np.array_equal(a.orders, b.orders) and a.best_index == b.best_index
        assert np.array_equal(a.best.model.A, b.best.model.A)


# ---------------------------------------------------------------------------
# output-only identification


def make_ar1_output(N=400, seed=3):
    model = StateSpaceModel(
        A=[[0.85]], B=np.zeros((1, 0)), C=[[1.0]], D=np.zeros((1, 0)), K=[[0.85]]
    )
    rec = generate_innovation_data(model, np.zeros((N, 0)), noise_std=1.0, seed=seed)
    return model, rec.y


def test_output_only_recovers_ar_pole():
    # The winning model carries the AR pole; the order rule may add one
    # spurious near-zero mode on noisy data (it picks the first value
    # past the signal whenever the tail decays).
    model, y = make_ar1_output()
    rep = identify_output_only(y, PipelineConfig(s=8, detrend=False, n_lambda=10))
    assert rep.best.model.m == 0
    assert 1 <= rep.best.order <= 2
    poles = np.linalg.eigvals(rep.best.model.A)
    dominant = poles[np.argmax(np.abs(poles))]
    assert abs(dominant - 0.85) <= 0.05


def test_output_only_matches_zero_input_identify():
    _, y = make_ar1_output(N=100, seed=4)
    cfg = PipelineConfig(s=6, detrend=False, n_lambda=8)
    rep_oo = identify_output_only(y, cfg)
    # a zero input column makes the (B, D) part of the data fit rank-deficient
    with pytest.warns(UserWarning, match="rank-deficient"):
        rep_zero = identify(IoRecord(u=np.zeros((len(y), 1)), y=y), cfg)
    ok = np.isfinite(rep_oo.j_values) & np.isfinite(rep_zero.j_values)
    assert np.any(ok)
    np.testing.assert_allclose(
        rep_oo.j_values[ok], rep_zero.j_values[ok], rtol=1e-6, atol=1e-12
    )


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_self_consistency():
    model, rec = noise_free_record(N=50)
    rep = identify(rec, PipelineConfig(s=6, detrend=False, n_lambda=4))
    ident = rep.best
    u_val = prbs(np.random.default_rng(11), 80, 1)
    y_val = simulate(ident.model, u_val, x0=np.zeros(ident.model.n))
    val = IoRecord(u=u_val, y=y_val)
    assert evaluate(ident, val, x0_policy="zero") == pytest.approx(100.0, abs=1e-6)


def test_evaluate_ls_policy_never_worse():
    model, rec = noise_free_record(N=80)
    rep = identify(rec, PipelineConfig(s=8, detrend=False, n_lambda=5))
    rng = np.random.default_rng(12)
    u_val = prbs(rng, 60, 1)
    val = generate_innovation_data(model, u_val, x0=rng.standard_normal(2), noise_std=0.05, seed=13)
    v_zero = evaluate(rep.best, val, x0_policy="zero")
    v_ls = evaluate(rep.best, val, x0_policy="ls_estimate")
    assert v_ls >= v_zero - 1e-9


def test_evaluate_matches_vaf_delegation():
    model, rec = noise_free_record(N=60)
    rep = identify(rec, PipelineConfig(s=6, detrend=False, n_lambda=4))
    u_val = prbs(np.random.default_rng(14), 50, 1)
    val = generate_innovation_data(model, u_val, noise_std=0.1, seed=15)
    got = evaluate(rep.best, val, x0_policy="zero")
    yhat = simulate(rep.best.model, val.u, np.zeros(rep.best.model.n))
    assert got == vaf(val.y, yhat)


def test_ls_prediction_is_the_recursion_from_the_fitted_x0():
    model = make_siso_order2()
    rng = np.random.default_rng(16)
    rec = generate_innovation_data(
        model, prbs(rng, 90, 1), x0=rng.standard_normal(2), noise_std=0.1, seed=17
    )
    free = observability(model.A, model.C, 90).reshape(90, 1, 2)
    x0, fitted = fit_x0(free, rec.y - simulate(model, rec.u))
    assert fitted.shape == rec.y.shape
    got = pipeline_mod._predict(model, rec, "ls_estimate")
    np.testing.assert_allclose(got, simulate(model, rec.u, x0), rtol=1e-12, atol=1e-12)
    # no input: the observer predictor is scored
    out_only = StateSpaceModel(
        A=model.A, B=np.zeros((2, 0)), C=model.C, D=np.zeros((1, 0)), K=model.K
    )
    y_only = IoRecord(u=np.zeros((90, 0)), y=rec.y)
    obs = to_observer(out_only)
    free = observability(obs.Aobs, obs.C, 90).reshape(90, 1, 2)
    x0, _ = fit_x0(free, rec.y - predict_observer(obs, y_only))
    got = pipeline_mod._predict(out_only, y_only, "ls_estimate")
    np.testing.assert_allclose(got, predict_observer(obs, y_only, x0), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("x0_policy", ["ls_estimate", "zero"])
def test_one_recursion_predicts_as_the_separate_simulation_and_x0_fit(x0_policy):
    # the scored models of a MIMO record with inputs, against simulate plus a fit
    # of x0 to the observability rows
    model = make_mimo_order4()
    rec = make_record(model, 400, seed=40, noise_std=0.2)
    rep = identify(rec, PipelineConfig(s=15, n_lambda=6, detrend=False))
    for m in (model, rep.best.model):
        assert np.abs(np.linalg.eigvals(m.A)).max() < 1.0
        want = simulate(m, rec.u)
        if x0_policy == "ls_estimate":
            free = observability(m.A, m.C, rec.N).reshape(rec.N, m.p, m.n)
            want = want + fit_x0(free, rec.y - want)[1]
        got = pipeline_mod._predict(m, rec, x0_policy)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_evaluate_dimension_mismatch():
    _, rec = noise_free_record(N=60)
    rep = identify(rec, PipelineConfig(s=6, detrend=False, n_lambda=4))
    bad = IoRecord(u=np.zeros((20, 2)), y=np.zeros((20, 1)))
    with pytest.raises(ValueError):
        evaluate(rep.best, bad)


def test_evaluate_diverging_predictor_scores_minus_inf_silently():
    # Aobs = 1.4: the predictor stays finite over 2000 samples, its squared error does not
    model = StateSpaceModel(A=[[1.5]], B=np.zeros((1, 0)), C=[[1.0]], D=np.zeros((1, 0)), K=[[0.1]])
    y = np.random.default_rng(0).standard_normal((2000, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(model, IoRecord(u=np.zeros((2000, 0)), y=y)) == -np.inf


# ---------------------------------------------------------------------------
# a constant channel detrends to exactly 0, so its value cannot matter


def _same_run(a, b):
    np.testing.assert_array_equal(a.j_values, b.j_values)
    np.testing.assert_array_equal(a.orders, b.orders)
    assert a.best_index == b.best_index


@pytest.mark.filterwarnings("ignore:rank-deficient least squares")
@pytest.mark.parametrize("scale_outputs", [False, True], ids=["unscaled", "scale-outputs"])
def test_a_constant_output_runs_as_a_round_constant_does(scale_outputs):
    """y2 = 0.3 leaves no rounding residue for --scale-outputs to blow up to unit peak."""
    rec = make_record(make_mimo_order4(), 400, seed=5, noise_std=0.1)
    cfg = PipelineConfig(s=8, n_lambda=4, scale_outputs=scale_outputs)
    runs = []
    for value in (0.3, 3.0):
        y = rec.y.copy()
        y[:, 1] = value
        prepared, peaks = preprocess(IoRecord(u=rec.u, y=y), cfg)
        assert np.all(prepared.y[:, 1] == 0.0) and peaks[1] == 1.0
        runs.append(identify(IoRecord(u=rec.u, y=y), cfg))
    _same_run(*runs)


@pytest.mark.filterwarnings("ignore:rank-deficient least squares")
def test_a_constant_input_is_no_excitation():
    """A detrended constant input is exactly 0, so J is scored as for a zero input."""
    rec = make_record(make_siso_order2(), 400, seed=5, noise_std=0.1)
    cfg = PipelineConfig(s=10, n_lambda=8)
    constant, zero = (IoRecord(u=np.full((400, 1), c), y=rec.y) for c in (0.3, 0.0))
    assert not pipeline_mod._has_excitation(preprocess(constant, cfg)[0])
    _same_run(identify(constant, cfg), identify(zero, cfg))
