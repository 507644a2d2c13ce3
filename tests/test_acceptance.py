"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failing criterion raises before its PASS line is printed.
"""

import json
import math
import time

import numpy as np
import pytest

from n2sid.admm import AdmmParams, build_quadratic, solve
from n2sid.extraction import select_order
from n2sid.model import IoRecord, generate_innovation_data, simulate
from n2sid.pipeline import PipelineConfig, evaluate, identify, identify_output_only
from n2sid.structured_ops import OperatorSpec, apply_adjoint, apply_operator

from helpers import (
    dense_M,
    make_siso_order2,
    prbs,
    probe_M,
    probe_full_M,
    random_decision,
    random_spec,
)


def _report(num, detail):
    print(f"CRITERION {num}: PASS - {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_adjoint_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng, s_lo=2, s_hi=8, n_hi=40)
        x = random_decision(rng, spec)
        Z = rng.standard_normal((spec.p * spec.s, spec.ncols))
        lhs = float(np.sum(apply_operator(x, spec) * Z))
        rhs = float(np.sum(apply_adjoint(Z, spec) * x))
        gap = abs(lhs - rhs) / (1.0 + abs(lhs))
        worst = max(worst, gap)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"adjoint identity on 100 random trials, worst rel gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_fft_m_vs_dense_probe():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        spec = random_spec(rng, s_lo=2, s_hi=8, n_hi=40)
        M = dense_M(spec)
        gap = float(np.abs(M - probe_M(spec)).max())
        worst = max(worst, gap)
        assert gap <= 1e-8
        assert np.abs(M - M.T).max() <= 1e-10
        evals = np.linalg.eigvalsh(M)
        assert evals.min() >= -1e-8 * np.linalg.norm(M, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"FFT-built M equals dense probe on 20 specs, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_mimo_block_structure():
    rng = np.random.default_rng(103)
    u = rng.standard_normal((12, 2))
    y = rng.standard_normal((12, 2))
    spec = OperatorSpec.from_data(u, y, s=3)
    assert (spec.p, spec.m, spec.s, spec.N) == (2, 2, 3, 12)
    Mi = dense_M(spec)
    Mfull = probe_full_M(spec)
    d = spec.block_dim
    for i in range(2):
        for k in range(2):
            blk = Mfull[i * d : (i + 1) * d, k * d : (k + 1) * d]
            if i == k:
                assert np.abs(blk - Mi).max() <= 1e-10
            else:
                assert np.abs(blk).max() <= 1e-10
    _report(3, "p=2,m=2,s=3,N=12 coefficient matrix is block diagonal with equal blocks")


def test_criterion_04_admm_vs_reference():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    ref_params = AdmmParams(max_iter=5000, eps_abs=1e-14, eps_rel=1e-14, mu=math.inf)
    ok = 0
    gaps = []
    for _ in range(10):
        N = int(rng.integers(30, 61))
        s = int(rng.integers(4, 11))
        u = rng.standard_normal((N, 1))
        y = rng.standard_normal((N, 1))
        spec = OperatorSpec.from_data(u, y, s)
        lam = N * 10.0 ** rng.uniform(-1.5, 3.0)
        quad = build_quadratic(y, lam)
        res = solve(spec, quad)
        ref = solve(spec, quad, ref_params)
        gap = abs(res.objective - ref.objective) / (1.0 + abs(ref.objective))
        gaps.append(gap)
        if gap <= 1e-4 and res.converged and res.iterations <= 200:
            ok += 1
    elapsed = time.perf_counter() - t0
    assert ok >= 9
    assert elapsed < 120.0
    _report(4, f"{ok}/10 solves within 1e-4 of 5000-iteration reference, worst {max(gaps):.2e}, {elapsed:.1f}s")


def test_criterion_05_lambda_extremes():
    model = make_siso_order2()
    rng = np.random.default_rng(105)
    u = prbs(rng, 60, 1)
    rec = generate_innovation_data(model, u, noise_std=0.0)
    spec = OperatorSpec.from_data(rec.u, rec.y, s=8)

    res0 = solve(spec, build_quadratic(rec.y, 0.0))
    assert res0.objective <= 1e-6

    lam = 1e9 * spec.N
    res_inf = solve(spec, build_quadratic(rec.y, lam))
    rel = np.linalg.norm(res_inf.x[:, : spec.N].T - rec.y) / np.linalg.norm(rec.y)
    assert rel <= 1e-4
    sv = np.linalg.svd(res_inf.Z, compute_uv=False)
    assert int(np.sum(sv > 1e-6 * sv[0])) <= 2
    _report(5, f"lambda=0 objective {res0.objective:.2e}; lambda=1e9*N fit {rel:.2e}, rank {int(np.sum(sv > 1e-6 * sv[0]))}")


@pytest.fixture(scope="module")
def noise_free_problem():
    model = make_siso_order2()
    rng = np.random.default_rng(106)
    u_ide = prbs(rng, 120, 1)
    rec = generate_innovation_data(model, u_ide, noise_std=0.0)
    u_val = prbs(np.random.default_rng(206), 200, 1)
    val = generate_innovation_data(model, u_val, noise_std=0.0, seed=306)
    return model, u_ide, rec, val


def test_criterion_06_end_to_end_recovery(noise_free_problem):
    model, u_ide, rec, val = noise_free_problem
    t0 = time.perf_counter()
    cfg = PipelineConfig(s=10, detrend=False)
    rep = identify(rec, cfg)
    assert rep.best.order == 2
    e_true = np.sort(np.linalg.eigvals(model.A))
    e_est = np.sort(np.linalg.eigvals(rep.best.model.A))
    eig_err = float(np.abs(e_true - e_est).max())
    assert eig_err <= 1e-3
    vaf_clean = evaluate(rep.best, val)
    assert vaf_clean >= 99.9

    # 20 dB output SNR: noise std is a tenth of the clean output std
    noise_std = float(simulate(model, u_ide).std()) / 10.0
    good = 0
    for seed in range(10):
        noisy = generate_innovation_data(model, u_ide, noise_std=noise_std, seed=seed)
        rep_n = identify(noisy, cfg)
        if evaluate(rep_n.best, val) >= 90.0:
            good += 1
    elapsed = time.perf_counter() - t0
    assert good >= 8
    assert elapsed < 120.0
    _report(6, f"order 2, eig err {eig_err:.1e}, VAF {vaf_clean:.3f}; 20dB trials {good}/10, {elapsed:.0f}s")


def test_criterion_07_variant_consistency(noise_free_problem):
    model, _, rec, val = noise_free_problem
    eigs = {}
    vafs = {}
    for variant in ("m1", "m2", "m3"):
        rep = identify(rec, PipelineConfig(s=10, detrend=False, variant=variant))
        eigs[variant] = np.sort(np.linalg.eigvals(rep.best.model.A))
        vafs[variant] = evaluate(rep.best, val)
        assert vafs[variant] >= 99.9
    spread = max(
        float(np.abs(eigs[a] - eigs[b]).max()) for a in eigs for b in eigs if a < b
    )
    assert spread <= 1e-4
    _report(7, f"variants agree to {spread:.1e} in eigenvalues; VAFs "
               + ", ".join(f"{k}={v:.3f}" for k, v in vafs.items()))


def test_criterion_08_order_selection_rule():
    def reference(sigma, max_order=10):
        logs = [np.log(max(s, 1e-12 * sigma[0])) for s in np.asarray(sigma, dtype=float)]
        t = 0.5 * (logs[0] + logs[-1])
        dmin = min(abs(l - t) for l in logs)
        best = next(i for i, l in enumerate(logs) if abs(l - t) <= dmin * (1 + 1e-9) + 1e-300)
        return max(1, min(best + 1, max_order))

    rng = np.random.default_rng(108)
    for _ in range(1000):
        k = int(rng.integers(1, 16))
        sigma = np.sort(np.exp(rng.uniform(-35, 8, size=k)))[::-1]
        if rng.random() < 0.25 and k >= 2:
            sigma[int(rng.integers(1, k))] = sigma[0]  # exact repeats force ties
            sigma = np.sort(sigma)[::-1]
        if rng.random() < 0.25 and k >= 3:
            sigma[-1] = sigma[0] * 1e-15  # sub-floor tail
            sigma = np.sort(sigma)[::-1]
        cap = int(rng.integers(1, 12))
        assert select_order(sigma, cap) == reference(sigma, cap)
    _report(8, "order-selection rule matches a 5-line reimplementation on 1000 vectors")


def test_criterion_09_protocol_fidelity(tmp_path):
    from n2sid.cli import main

    data_path = tmp_path / "daisy_standin.csv"
    code = main([
        "simulate", "--example", "order2", "--n", "1000", "--seed", "9",
        "--noise-std", "0.4", "--out", str(data_path),
    ])
    assert code == 0
    report_path = tmp_path / "report.json"
    sv_path = tmp_path / "sv.csv"
    vaf_path = tmp_path / "vaf.csv"
    code = main([
        "identify", "--data", str(data_path), "--inputs", "1", "--outputs", "1",
        "--s", "15", "--lambda-min", "0.0316227766", "--lambda-max", "1000",
        "--grid", "20", "--del", "120", "--detrend",
        "--n-ide-list", "80,120,150", "--n-val", "300",
        "--report", str(report_path), "--sv-csv", str(sv_path), "--vaf-csv", str(vaf_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["s"] == 15
    assert report["config"]["discard"] == 120
    assert len(report["lambda_grid"]) == 20
    assert report["lambda_grid"][0] == pytest.approx(10.0**-1.5)
    assert report["lambda_grid"][-1] == pytest.approx(1000.0)
    vaf_lines = vaf_path.read_text().strip().splitlines()
    assert vaf_lines[0] == "n_ide,vaf"
    assert [int(l.split(",")[0]) for l in vaf_lines[1:]] == [80, 120, 150]
    sv_lines = sv_path.read_text().strip().splitlines()
    assert len(sv_lines) == 21
    _report(9, "benchmark-protocol CLI run produced report, VAF-vs-N and singular-value files")


def test_criterion_10_output_only_equivalence():
    rng = np.random.default_rng(110)
    from n2sid.model import StateSpaceModel

    model = StateSpaceModel(
        A=[[0.85]], B=np.zeros((1, 0)), C=[[1.0]], D=np.zeros((1, 0)), K=[[0.85]]
    )
    rec = generate_innovation_data(model, np.zeros((120, 0)), noise_std=1.0, seed=1100)
    cfg = PipelineConfig(s=6, detrend=False, n_lambda=10)
    rep_oo = identify_output_only(rec.y, cfg)
    rep_zero = identify(IoRecord(u=np.zeros((120, 1)), y=rec.y), cfg)
    ok = np.isfinite(rep_oo.j_values) & np.isfinite(rep_zero.j_values)
    assert np.array_equal(np.isfinite(rep_oo.j_values), np.isfinite(rep_zero.j_values))
    assert np.any(ok)
    rel = np.abs(rep_oo.j_values[ok] - rep_zero.j_values[ok]) / (1.0 + np.abs(rep_zero.j_values[ok]))
    assert rel.max() <= 1e-6
    _report(10, f"output-only J curve matches zero-input identify, worst rel {rel.max():.1e}")
