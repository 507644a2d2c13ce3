"""Suite set-up: n2sid is imported before any test module imports numpy.

n2sid applies N2SID_THREADS to the BLAS thread variables, which the BLAS
reads only when numpy first loads it, and every test module imports
numpy before n2sid.
"""

import os

import n2sid  # noqa: F401
import pytest

# as the suite started: loading tools/equivalence.py sets it for the tool's own runs
_THREADS = os.environ.get("N2SID_THREADS")


@pytest.fixture(scope="session")
def n2sid_threads():
    """N2SID_THREADS as it was when numpy loaded its BLAS, or None."""
    return _THREADS
