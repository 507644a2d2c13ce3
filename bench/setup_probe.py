"""Set-up time of a fresh process: import n2sid, then make the workload's warm-up call.

Run by run.py, once per probe:

    python3 bench/setup_probe.py --workload NAME

Prints one JSON line with ``import_s`` and ``first_call_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import warnings

import env


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    env.pin_threads()
    env.fix_malloc_threshold()

    t0 = time.perf_counter()
    try:
        n2sid = env.load_n2sid()
    except env.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS, warmup_inputs

    workload = WORKLOADS[args.workload]
    inputs = warmup_inputs(workload)
    env.BENCH.joinpath("out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=env.BENCH / "out") as workdir:
        workload.prepare(inputs, workdir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            workload.call(n2sid, inputs, workdir)
            first_call_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "first_call_s": first_call_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
