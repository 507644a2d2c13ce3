import json
import os
import re
import stat
import warnings
from dataclasses import fields

import numpy as np
import pytest

from n2sid.admm import GAP_TOL, AdmmParams
from n2sid.cli import _build_config, _model_to_json, build_parser, example_model, main, read_csv, write_csv
from n2sid.model import IoRecord, simulate
from n2sid.pipeline import PipelineConfig, evaluate, identify


def run_cli(*argv):
    return main(list(argv))


def make_data_file(path, n=320, seed=0, noise=0.0):
    code = run_cli(
        "simulate", "--example", "order2", "--n", str(n), "--seed", str(seed),
        "--noise-std", str(noise), "--out", str(path),
    )
    assert code == 0
    return str(path)


# ---------------------------------------------------------------------------
# data files


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((40, 2)) * 10.0 ** rng.integers(-8, 8, size=(40, 2))
    y = rng.standard_normal((40, 1))
    path = tmp_path / "data.csv"
    write_csv(str(path), u, y)
    rec = read_csv(str(path), 2, 1)
    assert np.array_equal(rec.u, u)
    assert np.array_equal(rec.y, y)


def test_read_csv_errors(tmp_path):
    with pytest.raises(Exception):
        read_csv(str(tmp_path / "nope.csv"), 1, 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("u1,y1\n1.0\n")
    from n2sid.cli import UsageError

    with pytest.raises(UsageError):
        read_csv(str(bad), 1, 1)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(UsageError):
        read_csv(str(wrong), 1, 1)


def test_simulate_deterministic(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    make_data_file(p1, n=64, seed=42, noise=0.3)
    make_data_file(p2, n=64, seed=42, noise=0.3)
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_noise_free_matches_library(tmp_path):
    path = make_data_file(tmp_path / "clean.csv", n=50, seed=7, noise=0.0)
    rec = read_csv(path, 1, 1)
    model = example_model("order2")
    np.testing.assert_array_equal(rec.y, simulate(model, rec.u))


def test_simulate_flag_validation(tmp_path, capsys):
    code = run_cli("simulate", "--n", "10", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# identify


def test_identify_end_to_end(tmp_path):
    data = make_data_file(tmp_path / "d.csv")
    report_path = tmp_path / "report.json"
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "10", "--n-ide", "120", "--n-val", "200", "--no-detrend",
        "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["order"] == 2
    assert report["vaf_validation"] >= 99.9


def test_identify_missing_file(tmp_path, capsys):
    code = run_cli(
        "identify", "--data", str(tmp_path / "absent.csv"), "--inputs", "1", "--outputs", "1"
    )
    assert code == 2
    assert "absent.csv" in capsys.readouterr().err


def _nan_cell_csv(tmp_path):
    path = tmp_path / "d.csv"
    make_data_file(path, n=40)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    return ["identify", "--data", str(path), "--inputs", "1", "--outputs", "1", "--s", "6"]


def _text_file(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return str(path)


def _identify(tmp, *flags, data=None):
    data = data or make_data_file(tmp / "d.csv", n=200)
    return ["identify", "--data", data, "--inputs", "1", "--outputs", "1", *flags]


def _validate(tmp, report_text):
    report = _text_file(tmp, "report.json", report_text)
    return ["validate", "--report", report, "--data", make_data_file(tmp / "d.csv", n=60)]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["simulate", "--example", "order2", "--n", "-5", "--out", str(tmp / "x.csv")],
        lambda tmp: [
            "identify", "--data", make_data_file(tmp / "d.csv", n=200),
            "--inputs", "1", "--outputs", "1", "--s", "500",
        ],
        _nan_cell_csv,
        lambda tmp: [
            "identify", "--data", make_data_file(tmp / "d.csv", n=200), "--inputs", "1",
            "--outputs", "1", "--grid", "3", "--n-ide", "150", "--lambda-max", "inf",
        ],
        # finite bound, but the solver weight lambda * N leaves float range
        lambda tmp: [
            "identify", "--data", make_data_file(tmp / "d.csv", n=200), "--inputs", "1",
            "--outputs", "1", "--grid", "3", "--n-ide", "150", "--lambda-max", "1e308",
        ],
        lambda tmp: [
            "identify", "--data", make_data_file(tmp / "d.csv", n=400), "--inputs", "1",
            "--outputs", "1", "--del", "-60", "--n-ide", "60", "--s", "5", "--grid", "3",
        ],
        lambda tmp: [
            "simulate", "--example", "order2", "--n", "50", "--noise-std", "nan",
            "--out", str(tmp / "x.csv"),
        ],
        lambda tmp: [
            "simulate", "--example", "order2", "--n", "50", "--noise-std", "inf",
            "--out", str(tmp / "x.csv"),
        ],
        lambda tmp: _identify(tmp, "--outputs", "0"),
        lambda tmp: _identify(tmp, "--inputs", "-1"),
        lambda tmp: [
            "simulate", "--model", _text_file(tmp, "m.json", "5"), "--n", "10",
            "--out", str(tmp / "x.csv"),
        ],
        lambda tmp: _validate(tmp, "5"),
        lambda tmp: _identify(tmp, "--n-ide", "0"),
        lambda tmp: _identify(
            tmp, "--s", "6", "--grid", "3", "--vaf-csv", str(tmp / "v.csv"),
            "--report", str(tmp / "r.json"),
        ),
        lambda tmp: _identify(tmp, data=_text_file(tmp, "e.csv", "")),
        lambda tmp: _identify(tmp, data=_text_file(tmp, "h.csv", "u1,y1\n")),
        lambda tmp: _identify(tmp, data=_text_file(tmp, "t.csv", "u1,y1\n1.0,abc\n")),
        lambda tmp: _identify(tmp, "--order", "abc"),
        lambda tmp: _identify(tmp, "--n-ide-list", "1,x"),
        lambda tmp: ["simulate", "--example", "order3", "--n", "10", "--out", str(tmp / "x.csv")],
        lambda tmp: _validate(tmp, '{"order": 2}'),
        lambda tmp: _validate(tmp, "{not json"),
        lambda tmp: _identify(tmp, "--s", "6", "--grid", "3", "--report", str(tmp / "no/r.json")),
        lambda tmp: _identify(tmp, "--s", "6", "--grid", "3", "--sv-csv", str(tmp / "no/sv.csv")),
        lambda tmp: _identify(
            tmp, "--s", "6", "--grid", "3", "--n-ide", "100", "--n-val", "50",
            "--vaf-csv", str(tmp / "no/v.csv"),
        ),
        lambda tmp: ["simulate", "--example", "order2", "--n", "9", "--out", str(tmp / "no/x.csv")],
        lambda tmp: _identify(tmp, data=str(tmp)),
        lambda tmp: ["validate", "--report", str(tmp), "--data", make_data_file(tmp / "d.csv")],
        lambda tmp: _identify(tmp, "--s", "5", "--order", "7"),
        lambda tmp: _validate(tmp, json.dumps(
            {"model": _model_to_json(example_model("order2"), np.zeros(2)), "config": [1]}
        )),
    ],
    ids=[
        "negative-n", "s-beyond-record", "nan-cell", "lambda-max-inf", "lambda-max-overflow",
        "negative-del", "noise-std-nan", "noise-std-inf", "zero-outputs", "negative-inputs",
        "model-json-not-object", "report-json-not-object", "n-ide-zero", "vaf-csv-without-n-val",
        "empty-data-file", "header-only-data-file", "non-numeric-cell", "order-not-integer",
        "n-ide-list-not-integers", "unknown-example", "report-without-model", "invalid-json",
        "report-dir-missing", "sv-csv-dir-missing", "vaf-csv-dir-missing",
        "simulate-out-dir-missing", "data-is-directory", "report-is-directory",
        "order-beyond-window", "report-config-not-object",
    ],
)
def test_data_and_config_errors_exit_2_without_traceback(tmp_path, capsys, argv):
    args = argv(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(*args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # an error leaves no report behind (the --vaf-csv case asks for one)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--report", "no/r.json"),
        ("--sv-csv", "no/sv.csv"),
        ("--vaf-csv", "no/v.csv", "--n-ide", "100", "--n-val", "50"),
        ("--s", "5", "--order", "7"),
    ],
    ids=["report-dir-missing", "sv-csv-dir-missing", "vaf-csv-dir-missing", "order-beyond-window"],
)
def test_output_path_and_order_errors_stop_before_the_sweep(tmp_path, monkeypatch, flags):
    import n2sid.pipeline as pipeline_mod

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(pipeline_mod, "sweep", no_sweep)
    flags = [str(tmp_path / f) if f.startswith("no/") else f for f in flags]
    assert run_cli(*_identify(tmp_path, *flags)) == 2


@pytest.mark.parametrize("n_val", ["0", "-5", "1"])
def test_unusable_n_val_exits_2_naming_the_flag_before_the_sweep(tmp_path, monkeypatch, capsys, n_val):
    import n2sid.pipeline as pipeline_mod

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(pipeline_mod, "sweep", no_sweep)
    # one held-out row is identically zero once detrended
    assert run_cli(*_identify(tmp_path, "--n-ide", "100", "--n-val", n_val)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--n-val" in err and err.count("\n") == 1


def test_identify_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    import n2sid.cli as cli_mod
    from n2sid.errors import SolverError

    data = make_data_file(tmp_path / "d.csv", n=60)

    def boom(rec, cfg):
        raise SolverError("all lambda grid points failed")

    monkeypatch.setattr(cli_mod, "identify", boom)
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1", "--s", "6", "--grid", "3"
    )
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


def test_identify_fixed_order(tmp_path):
    data = make_data_file(tmp_path / "d.csv", n=100)
    report_path = tmp_path / "r.json"
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "8", "--grid", "6", "--order", "3", "--no-detrend",
        "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    finite = [o for o, j in zip(report["orders"], report["j_curve"]) if j is not None]
    assert finite and all(o == 3 for o in finite)
    assert report["order"] == 3


def test_identify_report_schema(tmp_path):
    data = make_data_file(tmp_path / "d.csv", n=90)
    report_path = tmp_path / "r.json"
    run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "6", "--grid", "4", "--no-detrend", "--report", str(report_path),
    )
    report = json.loads(report_path.read_text())
    assert set(report.keys()) == {
        "tool", "version", "config", "model", "order", "lambda_opt", "lambda_grid",
        "j_curve", "orders", "iterations", "converged", "gap", "singular_values", "failures",
        "vaf_validation", "vaf_validation_per_output", "timings",
    }
    assert set(report["model"].keys()) == {"A", "B", "C", "D", "K", "n", "m", "p", "x0_ide"}
    assert set(report["config"].keys()) == {
        "s", "lambda_min", "lambda_max", "n_lambda", "variant", "order", "max_order",
        "split", "discard", "detrend", "scale_outputs", "x0_policy", "inputs", "output_only",
        "n_ide", "n_val",
    }
    assert len(report["lambda_grid"]) == len(report["j_curve"]) == 4


def test_identify_report_has_each_grid_points_iterations_and_convergence(tmp_path):
    data = make_data_file(tmp_path / "d.csv", n=90, noise=0.2)
    report_path = tmp_path / "r.json"
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "6", "--grid", "4", "--no-detrend", "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    run = identify(read_csv(data, 1, 1), PipelineConfig(s=6, n_lambda=4, detrend=False))
    assert report["iterations"] == run.iterations.tolist()
    assert report["converged"] == run.converged.tolist()
    assert all(type(n) is int and n > 0 for n in report["iterations"])


def test_identify_reports_each_grid_points_gap_and_prints_the_selected_one(tmp_path, capsys):
    data = make_data_file(tmp_path / "d.csv", n=90, noise=0.2)
    report_path = tmp_path / "r.json"
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "6", "--grid", "4", "--no-detrend", "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    run = identify(read_csv(data, 1, 1), PipelineConfig(s=6, n_lambda=4, detrend=False))
    assert report["gap"] == run.gaps.tolist()
    selected = report["gap"][report["lambda_grid"].index(report["lambda_opt"])]
    assert f"gap={selected:.2e}" in capsys.readouterr().out


def test_identify_reported_vaf_reproducible(tmp_path):
    data = make_data_file(tmp_path / "d.csv", n=200)
    report_path = tmp_path / "r.json"
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "8", "--grid", "6", "--n-ide", "110", "--n-val", "80",
        "--no-detrend", "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    from n2sid.cli import _model_from_json

    model = _model_from_json(report["model"])
    rec = read_csv(data, 1, 1)
    val = IoRecord(u=rec.u[110:190], y=rec.y[110:190])
    again = evaluate(model, val, "ls_estimate")
    assert abs(again - report["vaf_validation"]) <= 1e-9


def test_identify_sv_and_vaf_csv(tmp_path):
    data = make_data_file(tmp_path / "d.csv", n=260)
    sv_path = tmp_path / "sv.csv"
    vaf_path = tmp_path / "vaf.csv"
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "8", "--grid", "5", "--no-detrend",
        "--n-ide-list", "60,90,120", "--n-val", "100",
        "--sv-csv", str(sv_path), "--vaf-csv", str(vaf_path),
    )
    assert code == 0
    sv_lines = sv_path.read_text().strip().splitlines()
    assert sv_lines[0].startswith("lambda,sv1")
    assert len(sv_lines) == 1 + 5
    vaf_lines = vaf_path.read_text().strip().splitlines()
    assert vaf_lines[0] == "n_ide,vaf"
    assert len(vaf_lines) == 1 + 3
    assert [int(l.split(",")[0]) for l in vaf_lines[1:]] == [60, 90, 120]


def test_identify_output_only_flag(tmp_path):
    data = make_data_file(tmp_path / "d.csv", n=150, noise=0.5, seed=5)
    report_path = tmp_path / "r.json"
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "6", "--grid", "5", "--output-only", "--no-detrend",
        "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["model"]["m"] == 0
    assert report["config"]["output_only"] is True


# ---------------------------------------------------------------------------
# validate


def test_validate_self_consistency(tmp_path, capsys):
    data = make_data_file(tmp_path / "d.csv", n=160)
    report_path = tmp_path / "r.json"
    run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "8", "--grid", "5", "--no-detrend", "--report", str(report_path),
    )
    capsys.readouterr()
    # generate validation data from the reported model itself, x0 = 0
    val_path = tmp_path / "val.csv"
    code = run_cli(
        "simulate", "--model", str(report_path), "--n", "100", "--seed", "3",
        "--noise-std", "0", "--out", str(val_path),
    )
    assert code == 0
    code = run_cli("validate", "--report", str(report_path), "--data", str(val_path), "--x0", "zero")
    out = capsys.readouterr().out
    assert code == 0
    agg = float([l for l in out.splitlines() if l.startswith("vaf aggregate")][0].split(":")[1])
    assert agg == pytest.approx(100.0, abs=1e-6)


def test_validate_scores_an_output_only_report_on_the_layout_identify_read(tmp_path, capsys):
    data = make_data_file(tmp_path / "d.csv", n=400, noise=0.3, seed=7)
    report_path = tmp_path / "r.json"
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1", "--s", "8",
        "--grid", "4", "--n-ide", "250", "--n-val", "150", "--output-only",
        "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["inputs"] == 1 and report["model"]["m"] == 0
    # the held-out slice in the u1,y1 layout identify read, inputs included
    rec = read_csv(data, 1, 1)
    val_path = tmp_path / "val.csv"
    write_csv(str(val_path), rec.u[250:], rec.y[250:])
    capsys.readouterr()
    assert run_cli("validate", "--report", str(report_path), "--data", str(val_path)) == 0
    out = capsys.readouterr().out
    assert _printed_vaf(out, "vaf aggregate") == pytest.approx(report["vaf_validation"], abs=1e-9)
    assert _printed_vaf(out, "vaf y1") == pytest.approx(report["vaf_validation_per_output"][0], abs=1e-9)


@pytest.mark.parametrize("inputs", [-1, 1.5, "1", True])
def test_validate_rejects_a_bad_input_count_in_the_report(tmp_path, capsys, inputs):
    report = {"model": _model_to_json(example_model("order2"), np.zeros(2)), "config": {"inputs": inputs}}
    capsys.readouterr()
    assert run_cli(*_validate(tmp_path, json.dumps(report))) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_dimension_mismatch(tmp_path, capsys):
    data = make_data_file(tmp_path / "d.csv", n=120)
    report_path = tmp_path / "r.json"
    run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "6", "--grid", "4", "--no-detrend", "--report", str(report_path),
    )
    bad_path = tmp_path / "bad.csv"
    rng = np.random.default_rng(0)
    write_csv(str(bad_path), rng.standard_normal((30, 2)), rng.standard_normal((30, 1)))
    code = run_cli("validate", "--report", str(report_path), "--data", str(bad_path))
    assert code == 2


def test_validate_aggregate_matches_library(tmp_path, capsys):
    data = make_data_file(tmp_path / "d.csv", n=200, noise=0.2, seed=9)
    report_path = tmp_path / "r.json"
    run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1",
        "--s", "8", "--grid", "5", "--n-ide", "120", "--n-val", "70",
        "--no-detrend", "--report", str(report_path),
    )
    val_path = tmp_path / "val.csv"
    make_data_file(val_path, n=60, seed=21, noise=0.2)
    capsys.readouterr()
    code = run_cli("validate", "--report", str(report_path), "--data", str(val_path))
    assert code == 0
    out = capsys.readouterr().out
    agg = float([l for l in out.splitlines() if l.startswith("vaf aggregate")][0].split(":")[1])
    from n2sid.cli import _model_from_json

    model = _model_from_json(json.loads(report_path.read_text())["model"])
    val = read_csv(str(val_path), 1, 1)
    assert agg == pytest.approx(evaluate(model, val, "ls_estimate"), abs=1e-12)


def _printed_vaf(out, label):
    return float([l for l in out.splitlines() if l.startswith(label)][0].split(":")[1])


def test_validate_detrends_like_identify_n_val(tmp_path, capsys):
    # an output offset that identify's detrending removes from both slices
    rec = read_csv(make_data_file(tmp_path / "raw.csv", n=700, seed=4, noise=0.1), 1, 1)
    data = tmp_path / "offset.csv"
    write_csv(str(data), rec.u, rec.y + 2.0)
    report_path = tmp_path / "r.json"
    code = run_cli(
        "identify", "--data", str(data), "--inputs", "1", "--outputs", "1",
        "--s", "8", "--grid", "4", "--n-ide", "400", "--n-val", "300",
        "--report", str(report_path),
    )
    assert code == 0
    val_path = tmp_path / "val.csv"
    write_csv(str(val_path), rec.u[400:], rec.y[400:] + 2.0)
    capsys.readouterr()
    assert run_cli("validate", "--report", str(report_path), "--data", str(val_path)) == 0
    out = capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert _printed_vaf(out, "vaf aggregate") == pytest.approx(report["vaf_validation"], abs=1e-9)
    assert _printed_vaf(out, "vaf y1") == pytest.approx(report["vaf_validation_per_output"][0], abs=1e-9)


def test_constant_output_channel_has_no_per_output_vaf(tmp_path, capsys):
    rec = read_csv(make_data_file(tmp_path / "raw.csv", n=260, seed=6, noise=0.1), 1, 1)
    y = np.hstack([rec.y, np.full((rec.N, 1), 3.0)])  # y2 is zero once detrended
    data, val_path = tmp_path / "d.csv", tmp_path / "val.csv"
    write_csv(str(data), rec.u, y)
    write_csv(str(val_path), rec.u[180:], y[180:])
    report_path = tmp_path / "r.json"
    with pytest.warns(UserWarning, match="rank-deficient"):
        code = run_cli(
            "identify", "--data", str(data), "--inputs", "1", "--outputs", "2",
            "--s", "6", "--grid", "3", "--n-ide", "180", "--n-val", "80",
            "--report", str(report_path),
        )
    assert code == 0
    report = json.loads(report_path.read_text())
    per = report["vaf_validation_per_output"]
    assert per[1] is None and np.isfinite(per[0])
    capsys.readouterr()
    assert run_cli("validate", "--report", str(report_path), "--data", str(val_path)) == 0
    out = capsys.readouterr().out
    assert "vaf y2: nan" in out.splitlines()
    assert _printed_vaf(out, "vaf y1") == pytest.approx(per[0], abs=1e-9)
    assert _printed_vaf(out, "vaf aggregate") == pytest.approx(report["vaf_validation"], abs=1e-9)


# ---------------------------------------------------------------------------
# one owner for each decision: the pipeline's config, selection and scoring


def test_identify_flags_default_to_the_pipeline_config():
    args = build_parser().parse_args(["identify", "--data", "d.csv", "--inputs", "1", "--outputs", "1"])
    defaults = PipelineConfig()
    built = _build_config(args)
    for f in fields(PipelineConfig):
        assert getattr(built, f.name) == getattr(defaults, f.name), f.name


def _held_out_record(tmp_path):
    """The first 700 samples of a noisy order-2 record, and its rows 400..699 as their own file."""
    data = make_data_file(tmp_path / "d.csv", n=700, seed=3, noise=0.2)
    rec = read_csv(data, 1, 1)
    val_path = tmp_path / "val.csv"
    write_csv(str(val_path), rec.u[400:], rec.y[400:])
    return data, str(val_path)


@pytest.mark.parametrize(
    "flags", [("--x0", "zero"), ("--x0", "ls"), ("--x0", "zero", "--output-only"), ("--no-detrend",)]
)
def test_validate_scores_as_identify_did_without_being_told_the_policy(tmp_path, capsys, flags):
    data, val_path = _held_out_record(tmp_path)
    report_path = tmp_path / "r.json"
    capsys.readouterr()
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1", "--s", "8", "--grid", "4",
        "--n-ide", "400", "--n-val", "300", "--report", str(report_path), *flags,
    )
    assert code == 0
    printed = float(re.search(r" vaf=(\S+) ", capsys.readouterr().out).group(1))
    assert run_cli("validate", "--report", str(report_path), "--data", val_path) == 0
    out = capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert _printed_vaf(out, "vaf aggregate") == pytest.approx(report["vaf_validation"], abs=1e-9)
    assert _printed_vaf(out, "vaf y1") == pytest.approx(report["vaf_validation_per_output"][0], abs=1e-9)
    assert f"{_printed_vaf(out, 'vaf aggregate'):.4f}" == f"{printed:.4f}"


def test_validate_x0_flag_overrides_the_reports_policy(tmp_path, capsys):
    data, val_path = _held_out_record(tmp_path)
    report_path = tmp_path / "r.json"
    code = run_cli(
        "identify", "--data", data, "--inputs", "1", "--outputs", "1", "--s", "8", "--grid", "4",
        "--n-ide", "400", "--n-val", "300", "--x0", "zero", "--report", str(report_path),
    )
    assert code == 0
    model = json.loads(report_path.read_text())["model"]
    capsys.readouterr()
    assert run_cli("validate", "--report", str(report_path), "--data", val_path, "--x0", "ls") == 0
    from n2sid.cli import _model_from_json

    expected = evaluate(_model_from_json(model), read_csv(val_path, 1, 1).detrended(), "ls_estimate")
    assert _printed_vaf(capsys.readouterr().out, "vaf aggregate") == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("policy", ["ls", "bogus", None, 5, ["zero"]])
def test_validate_rejects_a_malformed_x0_policy_in_the_report(tmp_path, capsys, policy):
    report = {"model": _model_to_json(example_model("order2"), np.zeros(2)), "config": {"x0_policy": policy}}
    argv = _validate(tmp_path, json.dumps(report))
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # an explicit --x0 replaces the report's policy
    assert run_cli(*argv, "--x0", "ls") == 0


def test_n_ide_list_is_a_spelling_of_n_ide(tmp_path, capsys):
    data = make_data_file(tmp_path / "d.csv", n=260, noise=0.1)
    outputs = []
    for spelling in ("--n-ide", "--n-ide-list"):
        report, vaf_csv = tmp_path / f"{spelling}.json", tmp_path / f"{spelling}.csv"
        capsys.readouterr()
        code = run_cli(
            "identify", "--data", data, "--inputs", "1", "--outputs", "1", "--s", "6", "--grid", "3",
            spelling, "80,120", "--n-val", "100", "--report", str(report), "--vaf-csv", str(vaf_csv),
        )
        assert code == 0
        stdout = re.sub(r"\(\d+\.\d+s\)", "", capsys.readouterr().out).replace(spelling, "")
        body = json.loads(report.read_text())
        del body["timings"]
        outputs.append((stdout, body, vaf_csv.read_text()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]["config"]["n_ide"] == 120
    assert [line.split(",")[0] for line in outputs[0][2].splitlines()] == ["n_ide", "80", "120"]


# ---------------------------------------------------------------------------
# certificates at extreme lambda


def _first_60_rows(tmp_path):
    rec = read_csv(make_data_file(tmp_path / "raw.csv", n=700, seed=3, noise=0.2), 1, 1)
    path = tmp_path / "d60.csv"
    write_csv(str(path), rec.u[:60], rec.y[:60])
    return str(path)


def test_a_void_certificate_is_reported_as_null(tmp_path):
    # at lambda/N up to 1e20 the fit weight swamps the closed-form adj(Y), and
    # the bound at the top of the grid lands far below the optimum
    report_path = tmp_path / "r.json"
    code = run_cli(
        "identify", "--data", _first_60_rows(tmp_path), "--inputs", "1", "--outputs", "1",
        "--s", "5", "--grid", "5", "--lambda-max", "1e20", "--report", str(report_path),
    )
    assert code == 0
    gaps = json.loads(report_path.read_text())["gap"]
    assert None in gaps
    assert all(g is None or g >= -GAP_TOL * AdmmParams().eps_rel for g in gaps)


def test_an_overflowing_certificate_emits_no_warning(tmp_path, capsys):
    data = _first_60_rows(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(
            "identify", "--data", data, "--inputs", "1", "--outputs", "1",
            "--s", "5", "--grid", "5", "--lambda-max", "1e200",
        )
    assert code == 0
    assert "gap=nan" in capsys.readouterr().out


def test_a_constant_output_that_is_not_a_round_number_has_no_per_output_vaf(tmp_path):
    """y2 = 0.3 detrends to exactly 0 like y2 = 3, not to rounding residue with a VAF of its own."""
    rec = read_csv(make_data_file(tmp_path / "raw.csv", n=700, seed=5, noise=0.1), 1, 1)
    reports = []
    for value in (0.3, 3.0):
        y = np.hstack([rec.y, np.full((rec.N, 1), value)])
        data, report_path = tmp_path / f"d{value}.csv", tmp_path / f"r{value}.json"
        write_csv(str(data), rec.u, y)
        with pytest.warns(UserWarning, match="rank-deficient"):
            code = run_cli(
                "identify", "--data", str(data), "--inputs", "1", "--outputs", "2",
                "--s", "8", "--grid", "4", "--n-ide", "400", "--n-val", "300",
                "--report", str(report_path),
            )
        assert code == 0
        reports.append(json.loads(report_path.read_text()))
    for report in reports:
        assert report["vaf_validation_per_output"][1] is None
    keys = ("order", "lambda_opt", "j_curve", "model", "vaf_validation", "vaf_validation_per_output")
    assert [reports[0][k] for k in keys] == [reports[1][k] for k in keys]


def test_output_files_take_the_mode_the_umask_gives(tmp_path):
    data = tmp_path / "d.csv"
    paths = [tmp_path / name for name in ("r.json", "sv.csv", "vaf.csv")]
    previous = os.umask(0o022)
    try:
        make_data_file(data, n=260)
        code = run_cli(
            "identify", "--data", str(data), "--inputs", "1", "--outputs", "1",
            "--s", "8", "--grid", "3", "--n-ide", "120", "--n-val", "100",
            "--report", str(paths[0]), "--sv-csv", str(paths[1]), "--vaf-csv", str(paths[2]),
        )
        assert code == 0
        os.umask(0o027)
        make_data_file(tmp_path / "other.csv", n=50)
    finally:
        os.umask(previous)
    for path in [data] + paths:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name
    assert stat.S_IMODE((tmp_path / "other.csv").stat().st_mode) == 0o640
