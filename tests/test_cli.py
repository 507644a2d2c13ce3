import json
import warnings

import numpy as np
import pytest

from n2sid.cli import example_model, main, read_csv, write_csv
from n2sid.model import IoRecord, simulate
from n2sid.pipeline import evaluate


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
    ],
    ids=[
        "negative-n", "s-beyond-record", "nan-cell", "lambda-max-inf", "lambda-max-overflow",
        "negative-del", "noise-std-nan", "noise-std-inf", "zero-outputs", "negative-inputs",
        "model-json-not-object", "report-json-not-object", "n-ide-zero", "vaf-csv-without-n-val",
        "empty-data-file", "header-only-data-file", "non-numeric-cell", "order-not-integer",
        "n-ide-list-not-integers", "unknown-example", "report-without-model", "invalid-json",
        "report-dir-missing", "sv-csv-dir-missing", "vaf-csv-dir-missing",
        "simulate-out-dir-missing", "data-is-directory", "report-is-directory",
        "order-beyond-window",
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
        "j_curve", "orders", "singular_values", "failures", "vaf_validation",
        "vaf_validation_per_output", "timings",
    }
    assert set(report["model"].keys()) == {"A", "B", "C", "D", "K", "n", "m", "p", "x0_ide"}
    assert set(report["config"].keys()) == {
        "s", "lambda_min", "lambda_max", "n_lambda", "variant", "order", "max_order",
        "split", "discard", "detrend", "scale_outputs", "x0_policy", "output_only",
        "n_ide", "n_val",
    }
    assert len(report["lambda_grid"]) == len(report["j_curve"]) == 4


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
