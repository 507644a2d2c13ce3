"""N2SID_THREADS caps the BLAS that numpy loads, in the suite and in a fresh process.

The thread count is read as the benchmark reads it, by ``blas_threads`` in
bench/env.py, which imports no numpy.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import n2sid

ENV = Path(__file__).resolve().parents[1] / "bench" / "env.py"


def blas_threads():
    """The loaded OpenBLAS's thread count; the test is skipped when it cannot be read."""
    try:
        threads = runpy.run_path(str(ENV))["blas_threads"]()
    except OSError:  # no /proc/self/maps
        threads = None
    if threads is None:
        pytest.skip("the BLAS numpy loaded reports no thread count")
    return threads


def test_the_suite_runs_under_n2sid_threads(n2sid_threads):
    if not n2sid_threads:
        pytest.skip("N2SID_THREADS is not set")
    import numpy  # noqa: F401  (loads the BLAS if no test has yet)

    assert blas_threads() == int(n2sid_threads)


def test_importing_n2sid_before_numpy_applies_n2sid_threads():
    per_library = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in per_library}
    env["N2SID_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(n2sid.__file__).resolve().parents[1])
    code = f"import n2sid, numpy, runpy; print(runpy.run_path({str(ENV)!r})['blas_threads']())"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    if run.stdout.strip() == "None":
        pytest.skip("the BLAS numpy loaded reports no thread count")
    assert run.stdout.strip() == "1"
