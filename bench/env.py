"""Process environment of a benchmark run.

Pins the BLAS thread count through ``N2SID_THREADS``, loads n2sid from
this checkout's ``src`` directory (never from an installed copy), checks
the thread count the loaded BLAS actually uses, and records versions.
Importing this module does not import numpy, so a caller can time the
first numpy import as part of importing n2sid.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREADS = 1
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
MMAP_THRESHOLD = 4 * 1024 * 1024


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources, wrong thread count)."""


def pin_threads(environ=os.environ) -> None:
    """Set N2SID_THREADS and drop the per-library variables it would otherwise defer to."""
    environ["N2SID_THREADS"] = str(THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        environ.pop(var, None)


def fix_malloc_threshold() -> int | None:
    """Fix glibc's mmap threshold at 4 MiB; returns it, or None without glibc.

    By default glibc raises the threshold each time a mapped block is freed,
    so whether a later large array gets fresh pages or reuses heap depends
    on allocation history: identical long_siso runs peaked at 204 or 232 MB.
    With a fixed threshold, arrays of 4 MiB and more (M, its eigenvectors,
    d x d temporaries) are mapped and returned on free, so the peak follows
    the large arrays alive at the same time.  The per-iteration arrays of
    every workload are smaller and stay on the heap, as they would under the
    default once warm; 128 KiB, glibc's starting value, slowed long_siso.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    if libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return None
    return MMAP_THRESHOLD


def require_sources() -> Path:
    init = SRC / "n2sid" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no n2sid sources at {init}")
    return init


def load_n2sid():
    """Import n2sid from SRC; numpy must not have been imported before this."""
    init = require_sources()
    sys.path.insert(0, str(SRC))
    import n2sid
    import n2sid.cli
    import n2sid.pipeline

    if Path(n2sid.__file__).resolve() != init.resolve():
        raise SetupError(f"n2sid was imported from {n2sid.__file__}, not from {SRC}")
    return n2sid


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def check_threads() -> int | None:
    threads = blas_threads()
    if threads is not None and threads != THREADS:
        raise SetupError(f"BLAS runs {threads} threads, the benchmark pins {THREADS}")
    return threads


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "n2sid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def record(malloc_threshold: int | None) -> dict:
    """Versions and settings; call after load_n2sid()."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "n2sid_threads": os.environ.get("N2SID_THREADS"),
        "malloc_mmap_threshold": malloc_threshold,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
