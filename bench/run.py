"""n2sid benchmark: seeded workloads, a warm untraced timed phase, and a traced mode.

Run from the root of a repository checkout:

    python3 bench/run.py --workload paper_protocol --seed 1 --seconds 30 --trace 0

Workloads (see README.md): paper_protocol, long_siso, mimo_mixed.

--trace 0 measures set-up time in fresh processes, then runs jobs of the
workload back to back (closed loop, one client) for --seconds after a
warm-up job, and reports the end-to-end metrics.  --trace 1 runs each
input untraced and traced, in alternating order, and reports per-layer
metrics from the spans, plus the tracing overhead.  Every identification
is checked; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The full record (environment,
per-identification outcomes, all seven end-to-end figures with their
sample counts) is printed before it and written to bench/out/.

Exit code 2, and no result line, when the checkout has no n2sid sources
or the BLAS thread count cannot be pinned.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import env

WORKLOAD_NAMES = ("paper_protocol", "long_siso", "mimo_mixed")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150


def measure_setup(workload: str) -> list[dict]:
    """Fresh-process set-up probes, run one after another."""
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(env.BENCH / "setup_probe.py"), "--workload", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise env.SetupError(f"set-up probe failed ({out.returncode}): {out.stderr.strip()[-500:]}")
        probe = json.loads(out.stdout.splitlines()[-1])
        probe["setup_s"] = probe["import_s"] + probe["first_call_s"]
        probes.append(probe)
    return probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # numpy is first imported by n2sid, after the thread pin is in place
    env.pin_threads()
    malloc_threshold = env.fix_malloc_threshold()
    try:
        env.require_sources()
        probes = [] if args.trace else measure_setup(args.workload)
        n2sid = env.load_n2sid()
        env.check_threads()
    except (env.SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import harness

    return harness.run(args, n2sid, probes, malloc_threshold)


if __name__ == "__main__":
    sys.exit(main())
