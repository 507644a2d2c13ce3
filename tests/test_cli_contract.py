"""Property tests of the CLI's exit-code contract.

Every run exits 0, 1 or 2; an exit 2 prints exactly one ``error:`` line;
no traceback escapes; a numpy RuntimeWarning counts as an error.  The
drawn tokens all pass argparse, so the properties exercise the program's
own checks, not the parser's.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from n2sid.cli import _model_to_json, example_model, main

N_SAMPLES = 60
EXAMPLES = settings(max_examples=40, derandomize=True, deadline=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_contract")
    data = str(tmp / "d.csv")
    assert main([
        "simulate", "--example", "order2", "--n", str(N_SAMPLES), "--seed", "1",
        "--noise-std", "0.2", "--out", data,
    ]) == 0
    return tmp, data


def run_contract(argv):
    """Run the CLI as a user would; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # rank-deficiency notes are legitimate output; a RuntimeWarning is not
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert [line.startswith("error: ") for line in err.splitlines()] == [True]


def sometimes(flags, values):
    """One of ``flags`` with a drawn value, in about one example of four; else nothing."""
    present = st.sampled_from([False, False, False, True])
    return present.flatmap(
        lambda on: st.tuples(st.sampled_from(flags), values).map(lambda fv: [fv[0], str(fv[1])])
        if on else st.just([])
    )


# each pool mixes values the program accepts with values it must reject
BOUNDS = st.sampled_from(["0.1", "100", "1e-300", "nan", "inf", "-1", "1e300"])
N_IDE = st.sampled_from(["20", "40", "30,45", "25", "0", "-3", "", "25,x", "20,,30", "70"])

identify_flags = st.tuples(
    st.integers(1, 8).map(lambda s: ["--s", str(s)]),
    st.sampled_from([0, 1, 2, 3, 3]).map(lambda g: ["--grid", str(g)]),
    sometimes(["--n-val"], st.sampled_from([10, 20, 30, 1, 0, -5])),
    sometimes(["--del"], st.sampled_from([0, 5, 10, -5])),
    sometimes(["--lambda-min"], BOUNDS),
    sometimes(["--lambda-max"], BOUNDS),
    sometimes(["--order"], st.sampled_from(["auto", "2", "3", "0", "x", "99"])),
    sometimes(["--n-ide", "--n-ide-list"], N_IDE),
    sometimes(["--x0"], st.sampled_from(["zero", "ls"])),
    sometimes(["--variant"], st.sampled_from(["m1", "m2", "m3"])),
    sometimes(["--split"], st.sampled_from(["none", "half"])),
    st.sampled_from([[], [], ["--output-only"]]),
    st.sampled_from([[], [], ["--no-detrend"]]),
    st.sampled_from([[], [], ["--scale-outputs"]]),
)


@EXAMPLES
@given(flags=identify_flags)
def test_identify_keeps_the_exit_code_contract(files, flags):
    tmp, data = files
    argv = ["identify", "--data", data, "--inputs", "1", "--outputs", "1",
            "--report", str(tmp / "r.json"), *[tok for group in flags for tok in group]]
    code, out, err = run_contract(argv)
    assert_contract(code, err)
    if code == 0:
        assert "n_ide=" in out


ODD = st.sampled_from([None, 5, -1, 1.5, "1", True, [1], {"x": 1}, "bogus"])


def mostly(good, odd=ODD):
    return st.sampled_from([False, False, True]).flatmap(lambda bad: odd if bad else good)


config_values = st.fixed_dictionaries({}, optional={
    "x0_policy": mostly(st.sampled_from(["zero", "ls_estimate"])),
    "inputs": mostly(st.sampled_from([0, 1, 1, 2])),
    "output_only": mostly(st.booleans()),
    "detrend": mostly(st.booleans()),
})


@EXAMPLES
@given(
    config=mostly(config_values),
    model_kind=st.sampled_from(["order2", "order2", "output_only", "missing", "malformed"]),
    x0=sometimes(["--x0"], st.sampled_from(["zero", "ls"])),
)
def test_validate_keeps_the_exit_code_contract(files, config, model_kind, x0):
    tmp, data = files
    model = example_model("order2")
    report = {"config": config}
    if model_kind == "order2":
        report["model"] = _model_to_json(model, np.zeros(2))
    elif model_kind == "output_only":
        report["model"] = {**_model_to_json(model, np.zeros(2)), "B": [[], []], "D": [[]], "m": 0}
    elif model_kind == "malformed":
        report["model"] = {"A": [[0.5]], "B": "x"}
    path = tmp / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run_contract(["validate", "--report", str(path), "--data", data, *x0])
    assert_contract(code, err)
    if code == 0:
        assert "vaf aggregate" in out
