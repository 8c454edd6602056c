"""Benchmark slabsm on the cells of the paper's iteration tables.

  python3 bench/run.py --workload tables-test1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; slabsm is imported from its src/.  The
solver runs in this one process and thread, with BLAS pinned to one
thread, through the public API (builtin_problem, IterationConfig,
run_problem).  A pass runs every cell of the workload once, in an order
drawn from the seed; passes repeat until --seconds have gone by.  Every
solve is checked against reference.json, and a mismatch or an exception
counts as a failed solve.

Solve times are in reference seconds (speed.py): each solve's wall time
is scaled by the speed of the machine at that moment, measured by a fixed
calibration burst run before and after it, because the machine's speed
swings too much for raw wall times of separate runs to compare.  Raw wall
times are kept in the details.  Set-up times are wall seconds.

--trace 0 reports the end-to-end metrics:
  table_s.p50   median time of one pass over the workload's cells
  outers_per_s  outer iterations (sum of N_t) per second of pass time
  setup_s       median wall time, over fresh interpreters, of import
                slabsm, building the problem and one LowOrderSystem
  peak_rss_mb   peak resident memory of this process
--trace 1 alternates plain and traced passes and reports the per-layer
metrics of tracer.py, with the overhead of tracing against the plain
passes.

Earlier lines of standard output hold the provenance and run details
(pass count, the highest percentile with ten passes beyond it, the
failure fraction); the last line is the JSON result.  Details and, in
traced runs, the spans are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

from provenance import (ROOT, SRC, MissingSource, collect, import_slabsm,
                        pin_blas_threads)
from workloads import WORKLOADS

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import slabsm
from slabsm.fields import Mesh
from slabsm.losm import LowOrderSystem
spec = slabsm.builtin_problem(sys.argv[2])
LowOrderSystem(spec, Mesh.uniform(spec.width, spec.n_cells))
print(time.perf_counter() - t0)
"""


class Pass(NamedTuple):
    wall: float         # seconds in the solves
    time: float         # the same in reference seconds
    outers: int
    attempted: int
    failures: list


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for this long; at least one pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(problem: str) -> float:
    """Set-up wall seconds of one fresh interpreter.

    These stay in wall seconds: imports are dominated by work that the
    calibration burst does not track, and scaling by it widened the
    spread of set-up times between runs (0.19 to 0.35 of the median on
    tables-test1)."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                          problem], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def run_pass(slabsm, spec, cells, reference, tracer=None) -> Pass:
    """Solve and check every cell once, timing each solve in wall and in
    reference seconds (calibration bursts before and after it)."""
    from reference import mismatches
    from speed import REFERENCE_S, calibrate

    solve = slabsm.run_problem
    if tracer is not None:
        solve = tracer.wrap("driver", solve)
    wall = ref_time = 0.0
    outers = 0
    failures = []
    burst = calibrate()
    for cell in cells:
        if tracer is not None:
            tracer.solve += 1
        cfg = cell.config(slabsm)
        start = time.perf_counter()
        try:
            report = solve(spec, cfg)
        except Exception:
            report = None
            failures.append(f"{cell.key}: {traceback.format_exc()}")
        elapsed = time.perf_counter() - start
        prev, burst = burst, calibrate()
        scale = 2.0 * REFERENCE_S / (prev + burst)
        wall += elapsed
        ref_time += elapsed * scale
        if report is None:
            continue
        if tracer is not None:
            tracer.end_solve(report, scale)
        outers += report.N_t
        bad = mismatches(reference[cell.key], report)
        if bad:
            failures.append(f"{cell.key}: {'; '.join(bad)}")
    return Pass(wall, ref_time, outers, len(cells), failures)


def tail(times: list):
    """Highest nearest-rank percentile with ten passes beyond it."""
    n = len(times)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n,
            "value": sorted(times)[n - 11]}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        slabsm = import_slabsm()
    except MissingSource as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    from reference import load_reference
    from tracer import Tracer, metric_units

    prov = collect(args.seed)
    workload = WORKLOADS[args.workload]
    reference = load_reference()["cells"]
    spec = slabsm.builtin_problem(workload.problem)
    rng = random.Random(args.seed)
    tracer = Tracer(slabsm.driver) if args.trace else None
    setup_due = 0 if args.trace else SETUP_REPEATS
    if setup_due:
        measure_setup(workload.problem)     # uncounted: writes bytecode

    # warm-up solve, not counted: first-call costs are not the solver's
    run_pass(slabsm, spec, workload.cells[:1], reference)

    plain, traced, setup = [], [], []
    measured = 0.0
    while (measured < args.seconds or not plain
           or (tracer is not None and not traced)):
        # Set-up samples are spread over the run, outside the measured
        # time, so they see the same mix of machine speeds as the passes.
        if len(setup) < setup_due and \
                len(setup) * args.seconds <= measured * setup_due:
            setup.append(measure_setup(workload.problem))
        order = rng.sample(workload.cells, len(workload.cells))
        start = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            with tracer:
                traced.append(run_pass(slabsm, spec, order, reference,
                                       tracer))
        else:
            plain.append(run_pass(slabsm, spec, order, reference))
        measured += time.perf_counter() - start
    while len(setup) < setup_due:
        setup.append(measure_setup(workload.problem))

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    times = [p.time for p in plain]
    if tracer is None:
        metrics = {
            "table_s.p50": {"value": statistics.median(times), "unit": "s"},
            "outers_per_s": {"value": sum(p.outers for p in plain)
                             / sum(times), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    else:
        metrics = tracer.summary([p.time for p in traced], times)

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_s": times,
        "pass_wall_s": [p.wall for p in plain],
        "table_s.tail": tail(times),
        "setup_s": setup,
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "absent_metrics": sorted(set(metric_units()) - set(metrics))
        if tracer is not None else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{args.workload}-spans.jsonl")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # String hashing is randomised per process by default, which changes
    # the order of allocations; that alone moved the peak RSS of identical
    # runs by up to 15%.  Run with a fixed hash seed instead.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
