"""Equivalence set: identify a fixed set of benchmark records and record every selection.

The records come from the benchmark's own generator (bench/inputs.py), so a
change to the package cannot change them.  The set has these groups:

* short: the paper's protocol, ``rng_for(seed, "paper_protocol", job)`` for
  each short seed and jobs 0-7, 1000 samples of the order-2 SISO system.
  The first 120 samples are dropped, the first 80, 120 and 150 rows that
  remain are identified, and rows 150-449, detrended, validate all three,
  as ``n2sid identify --del 120 --n-ide-list 80,120,150 --n-val 300`` does.
* mimo: ``rng_for(mimo_seed, "mimo_mixed", job)``, jobs 0-11, the order-4
  p = m = 2 system, identified on 400 samples with its inputs (mimo_io)
  and from its outputs only (mimo_output_only), validated on the next 300.
* long: ``rng_for(long_seed, "long_siso", job)``, jobs 0-5, the SISO system
  identified on 2000 samples and validated on the next 300.
* tall: ``rng_for(seed, "tall", job)`` for each short seed and jobs 0-3,
  328 samples of the SISO system.  The first 20, 24 and 28 rows are
  identified, where Z = A(X) is tall (6, 10 and 14 columns against 15
  rows), and rows 28-327, detrended, validate all three.
* variants: the short group's records of jobs 0-3 for each short seed,
  identified on their first 120 rows at the fixed order 4 under each of
  m1, m2 and m3, and validated on the short group's rows.

Every identification runs ``pipeline.identify`` (or ``identify_output_only``)
with s = 15 and the default 20-point grid, and ``pipeline.evaluate`` scores
its model.  The JSON written holds, per identification, the selected order,
lambda_opt, the validation VAF, the ADMM iterations over the grid, the count
of unconverged solves and of failed grid points, and a summary per group.

Usage (from the repository root; one BLAS thread unless N2SID_THREADS says
otherwise):

    python tools/equivalence.py --out new.json
    python tools/equivalence.py --out new.json --compare old.json
    python tools/equivalence.py --short-seeds 5,6 --mimo-seed 9 --long-seed 9 --out held_out.json

With ``--compare`` it also lists every identification that changed in
any field ("moved" when its order or lambda_opt did), each group's change in
iterations and median VAF (a group the older JSON lacks is left out, its
identifications listed as added), then counts, per group and in all, the
order moves (an identification that starts or stops raising counts as one),
the lambda_opt-only moves, the iteration changes and the changes of VAF
alone, and ends with how many of the identifications are identical in
every field.
``--check`` exits 1 when an identification raised or a solve did not
converge.  ``--fail-on-move GROUPS``, with ``--compare``, exits 1 when any
identification of the comma-separated groups moved its order or lambda_opt:

    python tools/equivalence.py --out new.json --compare old.json --fail-on-move short,mimo_io,long
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import statistics
import sys
import warnings
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.setdefault("N2SID_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

# n2sid first: it applies N2SID_THREADS before numpy loads its BLAS
from n2sid import IoRecord  # noqa: E402
from n2sid.pipeline import CHOICES, PipelineConfig, evaluate, identify, identify_output_only  # noqa: E402

import numpy as np  # noqa: E402


def _bench_inputs():
    """The benchmark's record generator, bench/inputs.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


inputs = _bench_inputs()

GROUPS = ("short", "mimo_io", "mimo_output_only", "long", "tall", "variants")
SHORT_JOBS, MIMO_JOBS, LONG_JOBS, TALL_JOBS, VARIANT_JOBS = 8, 12, 6, 4, 4
SHORT_DEL, SHORT_N_IDE, TALL_N_IDE, N_VAL = 120, (80, 120, 150), (20, 24, 28), 300
VARIANT_N_IDE, VARIANT_ORDER = 120, 4
VAF_FLOOR = 60.0  # the paper_protocol workload's floor; below_floor counts it in every group
CFG = PipelineConfig(s=15)
CHANGED_FIELDS = ("vaf", "iterations", "unconverged", "grid_failures")  # besides the selection


def _entry(group: str, key: str, run) -> dict:
    """One identification: run() returns (report, validation VAF)."""
    try:
        report, vaf = run()
    except Exception as exc:  # an identification that raises is recorded, not fatal
        return {"group": group, "key": key, "error": repr(exc)}
    solved = report.iterations >= 0
    return {
        "group": group,
        "key": key,
        "order": int(report.best.order),
        "lambda_opt": report.lambda_opt,
        "vaf": float(vaf),
        "iterations": int(report.iterations[solved].sum()),
        "unconverged": int(np.count_nonzero(solved & ~report.converged)),
        "grid_failures": len(report.failures),
    }


def _io(u, y, n_ide: int, val: IoRecord, cfg: PipelineConfig = CFG):
    def run():
        report = identify(IoRecord(u=u[:n_ide], y=y[:n_ide]), cfg)
        return report, evaluate(report.best, val)

    return run


def _output_only(y, n_ide: int, val: IoRecord):
    def run():
        report = identify_output_only(y[:n_ide], CFG)
        return report, evaluate(report.best, val)

    return run


def _short_record(seed: int, job: int):
    """(u, y, val) of a short record: the samples after the first SHORT_DEL, and its validation rows."""
    u, y = inputs.innovation_record(inputs.SISO2, 1000, inputs.rng_for(seed, "paper_protocol", job))
    u, y = u[SHORT_DEL:], y[SHORT_DEL:]
    start = max(SHORT_N_IDE)
    return u, y, IoRecord(u=u[start : start + N_VAL], y=y[start : start + N_VAL]).detrended()


def identifications(short_seeds, mimo_seed: int, long_seed: int):
    """(group, key, run) of every identification in the set, in a fixed order."""
    for seed in short_seeds:
        for job in range(SHORT_JOBS):
            u, y, val = _short_record(seed, job)
            for n_ide in SHORT_N_IDE:
                yield "short", f"seed={seed} job={job} n_ide={n_ide}", _io(u, y, n_ide, val)
    for job in range(MIMO_JOBS):
        u, y = inputs.innovation_record(inputs.MIMO4, 400 + N_VAL, inputs.rng_for(mimo_seed, "mimo_mixed", job))
        val = IoRecord(u=u[400:], y=y[400:]).detrended()
        yield "mimo_io", f"seed={mimo_seed} job={job}", _io(u, y, 400, val)
        out_val = IoRecord(u=np.zeros((N_VAL, 0)), y=val.y)
        yield "mimo_output_only", f"seed={mimo_seed} job={job}", _output_only(y, 400, out_val)
    for job in range(LONG_JOBS):
        u, y = inputs.innovation_record(inputs.SISO2, 2000 + N_VAL, inputs.rng_for(long_seed, "long_siso", job))
        val = IoRecord(u=u[2000:], y=y[2000:]).detrended()
        yield "long", f"seed={long_seed} job={job}", _io(u, y, 2000, val)
    start = max(TALL_N_IDE)
    for seed in short_seeds:
        for job in range(TALL_JOBS):
            u, y = inputs.innovation_record(inputs.SISO2, start + N_VAL, inputs.rng_for(seed, "tall", job))
            val = IoRecord(u=u[start:], y=y[start:]).detrended()
            for n_ide in TALL_N_IDE:
                yield "tall", f"seed={seed} job={job} n_ide={n_ide}", _io(u, y, n_ide, val)
    for seed in short_seeds:
        for job in range(VARIANT_JOBS):
            u, y, val = _short_record(seed, job)
            for variant in CHOICES["variant"]:
                run = _io(u, y, VARIANT_N_IDE, val, replace(CFG, order=VARIANT_ORDER, variant=variant))
                yield "variants", f"seed={seed} job={job} variant={variant}", run


def _quartiles(values: list) -> tuple[float, float]:
    """(q1, median) of the values, nan when there are none."""
    if not values:
        return math.nan, math.nan
    return float(np.percentile(values, 25)), float(statistics.median(values))


def summarize(entries: list) -> dict:
    summary = {}
    for group in GROUPS:
        rows = [e for e in entries if e["group"] == group]
        done = [e for e in rows if "error" not in e]
        q1, median = _quartiles([e["vaf"] for e in done])
        orders: dict = {}
        for e in done:
            orders[str(e["order"])] = orders.get(str(e["order"]), 0) + 1
        summary[group] = {
            "identifications": len(rows),
            "errors": len(rows) - len(done),
            "iterations": sum(e["iterations"] for e in done),
            "unconverged": sum(e["unconverged"] for e in done),
            "grid_failures": sum(e["grid_failures"] for e in done),
            "vaf_median": median,
            "vaf_q1": q1,
            "below_floor": sum(e["vaf"] < VAF_FLOOR for e in done),
            "orders": dict(sorted(orders.items(), key=lambda kv: int(kv[0]))),
        }
    return summary


KINDS = ("order", "lambda", "iterations", "vaf_only")


def changes(old: dict, new: dict) -> dict:
    """Per group, how many identifications in both JSONs changed in each way (KINDS).

    An order move is a changed order, or an identification that raised in
    one JSON only; a lambda move a changed lambda_opt at the same order; an
    iteration change a changed iteration count, whatever else moved; and a
    VAF-only change one where the VAF is the only field that differs.
    """
    before = {(e["group"], e["key"]): e for e in old["entries"]}
    counts = {group: dict.fromkeys(KINDS, 0) for group in GROUPS}
    others = ("order", "lambda_opt") + tuple(f for f in CHANGED_FIELDS if f != "vaf")
    for e in new["entries"]:
        was = before.get((e["group"], e["key"]))
        if was is None:
            continue
        tally = counts.setdefault(e["group"], dict.fromkeys(KINDS, 0))
        if ("error" in e) != ("error" in was):
            tally["order"] += 1
            continue
        if "error" in e:
            continue
        if e["order"] != was["order"]:
            tally["order"] += 1
        elif e["lambda_opt"] != was["lambda_opt"]:
            tally["lambda"] += 1
        tally["iterations"] += e["iterations"] != was["iterations"]
        tally["vaf_only"] += e["vaf"] != was["vaf"] and all(e[f] == was[f] for f in others)
    return counts


def _counts_text(tally: dict) -> str:
    return (
        f"order moves {tally['order']}, lambda-only moves {tally['lambda']}, "
        f"iteration changes {tally['iterations']}, vaf-only changes {tally['vaf_only']}"
    )


def compare(old: dict, new: dict) -> list[str]:
    """Lines naming every changed identification, each group's deltas and the count unchanged.

    A moved selection (order or lambda_opt) is listed as "moved", any other
    changed field (VAF, iterations, unconverged solves, grid failures) as
    "changed"; each group's line ends with its counts from ``changes``, a
    line gives the totals, and the last line counts the entries identical in
    every field.
    """
    counts = changes(old, new)
    lines = []
    before = {(e["group"], e["key"]): e for e in old["entries"]}
    identical = 0
    for e in new["entries"]:
        was = before.get((e["group"], e["key"]))
        if was is None:
            lines.append(f"added {e['group']} {e['key']}")
        elif json.dumps(was, sort_keys=True) == json.dumps(e, sort_keys=True):
            identical += 1
        elif "error" in e or "error" in was:
            lines.append(f"moved {e['group']} {e['key']}: error {was.get('error')} -> {e.get('error')}")
        elif (e["order"], e["lambda_opt"]) != (was["order"], was["lambda_opt"]):
            lines.append(
                f"moved {e['group']} {e['key']}: order {was['order']} -> {e['order']}, "
                f"lambda_opt {was['lambda_opt']:.4g} -> {e['lambda_opt']:.4g}, "
                f"vaf {was['vaf']:.2f} -> {e['vaf']:.2f}"
            )
        else:
            changed = [f"{f} {was[f]!r} -> {e[f]!r}" for f in CHANGED_FIELDS if was[f] != e[f]]
            lines.append(f"changed {e['group']} {e['key']}: " + ", ".join(changed))
    for group in GROUPS:
        a, b = old["summary"].get(group), new["summary"].get(group)
        if a is None or b is None or not (a["identifications"] or b["identifications"]):
            continue
        change = (b["iterations"] - a["iterations"]) / a["iterations"] if a["iterations"] else math.nan
        lines.append(
            f"{group}: iterations {a['iterations']} -> {b['iterations']} ({change:+.1%}), "
            f"vaf median {a['vaf_median']:.2f} -> {b['vaf_median']:.2f}, "
            f"q1 {a['vaf_q1']:.2f} -> {b['vaf_q1']:.2f}, "
            f"below {VAF_FLOOR:g} {a['below_floor']} -> {b['below_floor']}, "
            f"unconverged {a['unconverged']} -> {b['unconverged']}, "
            f"grid failures {a['grid_failures']} -> {b['grid_failures']}, "
            f"errors {a['errors']} -> {b['errors']}; " + _counts_text(counts[group])
        )
    total = {kind: sum(tally[kind] for tally in counts.values()) for kind in KINDS}
    lines.append("all groups: " + _counts_text(total))
    lines.append(f"{identical} of {len(new['entries'])} entries identical in every field")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="write the set's JSON here")
    parser.add_argument("--compare", default=None, help="a JSON written earlier, to list what moved")
    parser.add_argument("--short-seeds", default="1,2,3", help="comma-separated paper_protocol seeds")
    parser.add_argument("--mimo-seed", type=int, default=77)
    parser.add_argument("--long-seed", type=int, default=7)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if an identification raised or a solve did not converge")
    parser.add_argument("--fail-on-move", default=None, metavar="GROUPS",
                        help="with --compare, exit 1 if an order or lambda_opt moved in these groups "
                             "(comma-separated)")
    args = parser.parse_args(argv)
    guarded = [g for g in (args.fail_on_move or "").split(",") if g]
    if args.fail_on_move is not None and not args.compare:
        parser.error("--fail-on-move needs --compare")
    if set(guarded) - set(GROUPS):
        parser.error(f"--fail-on-move takes groups of {', '.join(GROUPS)}")
    # the extraction's rank warnings would bury the summary
    warnings.simplefilter("ignore", UserWarning)
    short_seeds = [int(v) for v in args.short_seeds.split(",") if v]

    entries = [_entry(*item) for item in identifications(short_seeds, args.mimo_seed, args.long_seed)]
    result = {
        "sets": {"short_seeds": short_seeds, "mimo_seed": args.mimo_seed, "long_seed": args.long_seed},
        "summary": summarize(entries),
        "entries": entries,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for group, row in result["summary"].items():
        print(group, json.dumps(row))
    moved = 0
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
        for line in compare(old, result):
            print(line)
        counts = changes(old, result)
        moved = sum(counts[g]["order"] + counts[g]["lambda"] for g in guarded)
        if moved:
            print(f"{moved} order or lambda_opt moves in {', '.join(guarded)}")
    for e in entries:
        if "error" in e:
            print(f"error {e['group']} {e['key']}: {e['error']}")
    bad = any("error" in e or e["unconverged"] for e in entries)
    return 1 if (args.check and bad) or moved else 0


if __name__ == "__main__":
    sys.exit(main())
