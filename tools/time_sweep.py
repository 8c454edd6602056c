"""Time `import slabsm`, one sweep, its moments and closures, the
low-order calls of one outer and one whole source-iteration and
multilevel outer of this checkout against another one.

    python3 tools/time_sweep.py OTHER_SRC [--calls 600]

OTHER_SRC is the src/ directory of another checkout, for instance of the
parent commit.  slabsm is imported fresh from this checkout's src/ and
then from OTHER_SRC, and both stay loaded.  On test1 and test2 each tree
gets the same inputs: a fixed seeded isotropic source (G, N, 2) for
`sweep.sweep_batch`, which also sweeps test1's data over a seeded
random nonuniform mesh of its N cells and width (row `test1-nu`), where
every cell's width differs from its neighbours', so the march forms its
coefficients at every step; the same source for `march`, the bare
compiled `slabsm_march` call of that sweep on addresses fetched
beforehand into one psi array, which shows the kernel's time apart from
its wrapper's; that source's swept psi for
`angular.angular_moments` and, with its moments, for
`closure_from_sweep`, taken from `slabsm.driver`, which binds it in
every tree, the per-outer glue between the sweep and the low-order
levels; for `losm.sum_closures` that sweep's group closures, whose grey
closure it sums, terms included; for `losm.grey_xs` that sweep's group
moments; for `losm.avg_scattering_xs` that sweep's scalar flux and the
problem's scattering matrix; for `LowOrderSystem.solve_grey` the grey
coefficients and grey closure of that sweep; for `sweep.build_ho_rhs`
the grey flux of that solve, those averaged cross sections and the
problem's sources; for `losm.compute_zeta` the grey flux of that solve
and the group moments; and for `LowOrderSystem.group_pass` and
`LowOrderSystem.equation_residual` the group moments, that zeta and the
group closures.  `driver._si_step` runs one source-iteration outer (the
scattering source, the sweep and the moments) from the fixed state whose
group flux is that sweep's phi, and `driver._multilevel_step` one
`mlsm(1,1)` outer (the sweep, its moments and closures, one group pass
and one grey solve) from the fixed state whose group flux is that
sweep's phi and whose grey flux is that solve's, so each row shows a
Level-1 change's share of a whole outer.  `operators` is one uncached
build of everything the problem's runs reuse, so a change in set-up cost
shows per call: a new `losm.ProblemOperators` of the problem's data with
every part built (its low-order operators and its edge table).  `import`
is the wall time of `import slabsm` in a fresh interpreter, measured
inside it, so a change in start-up cost shows as one in a call does.

Each tree sweeps with its operator record (`losm.problem_operators`)
and passes the record to `closure_from_sweep` and `driver._Run`.

The two trees' calls alternate, which one goes first alternating from
call to call, as the machine's speed drifts.  The low-order calls reuse
closures whose right-side terms were built with them, so no timed
low-order call builds them; the times of closure_from_sweep and
sum_closures include building the group and the grey closure's terms.
After a few untimed calls that build the per-problem data, each call is
timed alone with perf_counter.  The import row alternates the trees in
the same way over IMPORTS fresh interpreters per tree, after one untimed
import each that writes the bytecode.  Prints the median time of one
call per tree and the relative change from OTHER to this checkout.  One
process (and for the import row one child at a time) and one BLAS
thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# compare_runs sits beside this script and puts bench/ on sys.path
from compare_runs import import_from
from provenance import SRC, pin_blas_threads

PROBLEMS = ("test1", "test2")
WARMUP = 5
SEED = 1
IMPORTS = 7
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import slabsm; "
                "print(time.perf_counter() - t0)")


def import_seconds(src: Path) -> float:
    """Wall seconds of `import slabsm` from src in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return float(subprocess.run([sys.executable, "-c", IMPORT_TIMER],
                                env=env, capture_output=True, text=True,
                                check=True).stdout)


def interleaved_imports(this: Path, other: Path) -> tuple[float, float]:
    """Median import_seconds of `this` and of `other`, alternating which
    runs first."""
    for src in (this, other):
        import_seconds(src)     # untimed: writes the bytecode
    times = ([], [])
    for i in range(IMPORTS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[side].append(import_seconds((this, other)[side]))
    return statistics.median(times[0]), statistics.median(times[1])


def calls(slabsm, problem: str) -> dict:
    """The timed calls of one tree on one problem, by name, as closures
    over their inputs."""
    # numpy is imported only after main() has pinned the BLAS threads
    import numpy as np

    sweep, losm, driver = slabsm.sweep, slabsm.losm, slabsm.driver
    closure_from_sweep = driver.closure_from_sweep
    spec = slabsm.builtin_problem(problem)
    mesh = slabsm.fields.Mesh.uniform(spec.width, spec.n_cells)
    quad = slabsm.angular.build_double_gauss(spec.n_half)
    rhs = np.random.RandomState(SEED).rand(spec.G, spec.n_cells, 2)
    # the sweep, the closures and a run read the operator record
    ops = losm.problem_operators(spec, mesh)

    def sweep_batch():
        return sweep.sweep_batch(ops, rhs)

    # the bare march into one psi, on the addresses of `arrays`, which
    # march holds, fetched here: (G, M, N), the record's sigma_t, mabs and
    # dx, rhs and psi
    arrays = (ops.sigma_t, ops.mabs, ops.dx, rhs,
              np.empty((spec.G, ops.mabs.size, spec.n_cells, 2)))
    march_args = (spec.G, ops.mabs.size, spec.n_cells,
                  *(a.ctypes.data for a in arrays))
    slabsm_march = sweep.kernel("slabsm_march")

    def march():
        slabsm_march(*march_args)
        return arrays[-1]

    def operators():
        # in the order of a multilevel run: its LowOrderSystem first
        fresh = losm.ProblemOperators(ops.sigma_t, ops.removal, ops.dx,
                                      ops.n_half)
        return fresh.low_order, fresh.edges

    psi = sweep_batch()
    moments = slabsm.angular.angular_moments(psi, quad)
    phi, J = moments.phi, moments.J
    closure_args = (psi, quad, moments, ops)
    closures = closure_from_sweep(*closure_args)
    closure = losm.sum_closures(closures)
    coeffs = losm.grey_xs(phi, J, spec)
    system = losm.LowOrderSystem(spec, mesh)
    grey_phi, _ = system.solve_grey(coeffs, closure)
    zeta = losm.compute_zeta(grey_phi, phi)
    sbar_s = losm.avg_scattering_xs(phi, spec.sigma_s)
    si_run = driver._Run(spec, driver.IterationConfig(method="si"), quad,
                         ops, None)
    si_state = driver.TransportState(phi, phi.sum(axis=0))
    ml_run = driver._Run(spec, driver.IterationConfig(method="mlsm"), quad,
                         ops, system)
    ml_state = driver.TransportState(phi, grey_phi)
    return {
        "sweep_batch": sweep_batch,
        "march": march,
        "angular_moments": lambda: slabsm.angular.angular_moments(psi,
                                                                  quad),
        "closure_from_sweep": lambda: closure_from_sweep(*closure_args),
        "sum_closures": lambda: losm.sum_closures(closures),
        "grey_xs": lambda: losm.grey_xs(phi, J, spec),
        "avg_scattering_xs": lambda: losm.avg_scattering_xs(phi,
                                                            spec.sigma_s),
        "solve_grey": lambda: system.solve_grey(coeffs, closure),
        "build_ho_rhs": lambda: sweep.build_ho_rhs(grey_phi, sbar_s, spec.Q),
        "compute_zeta": lambda: losm.compute_zeta(grey_phi, phi),
        "group_pass": lambda: system.group_pass(phi, zeta, closures),
        "equation_residual": lambda: system.equation_residual(
            phi, J, zeta, closures),
        "si_step": lambda: driver._si_step(si_run, si_state),
        "multilevel_step": lambda: driver._multilevel_step(ml_run,
                                                           ml_state),
        "operators": operators,
    }


def nonuniform_sweep(slabsm):
    """One tree's sweep_batch, as a closure, on test1's data over a seeded
    random mesh of test1's N cells and width, of a seeded isotropic
    source."""
    import numpy as np

    spec = slabsm.builtin_problem("test1")
    rng = np.random.RandomState(SEED)
    dx = rng.rand(spec.n_cells) + 0.5
    dx *= spec.width / dx.sum()
    ops = slabsm.losm.ProblemOperators(
        spec.sigma_t, spec.sigma_t - np.diag(spec.sigma_s), dx, spec.n_half)
    rhs = rng.rand(spec.G, spec.n_cells, 2)
    return lambda: slabsm.sweep.sweep_batch(ops, rhs)


def interleaved(this, other, n_calls: int) -> tuple[float, float]:
    """Median seconds of one call of `this` and of `other`, alternating
    which runs first."""
    for _ in range(WARMUP):
        this(), other()
    times = ([], [])
    for i in range(n_calls):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            fn = (this, other)[side]
            t0 = time.perf_counter()
            fn()
            times[side].append(time.perf_counter() - t0)
    return statistics.median(times[0]), statistics.median(times[1])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="src/ of the other checkout")
    ap.add_argument("--calls", type=int, default=600,
                    help="timed calls per tree, function and problem")
    args = ap.parse_args(argv)
    if args.calls < 1:
        ap.error("--calls must be at least 1")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if not (args.other / "slabsm" / "__init__.py").is_file():
        print(f"no slabsm package under {args.other}", file=sys.stderr)
        return 2
    pin_blas_threads()
    trees = []
    for src in (SRC, args.other):
        slabsm = import_from(src)
        trees.append(({p: calls(slabsm, p) for p in PROBLEMS},
                      nonuniform_sweep(slabsm)))
    (this, this_nu), (other, other_nu) = trees
    print(f"median of {args.calls} interleaved calls (import: of "
          f"{IMPORTS} fresh interpreters), in ms")
    print(f"{'call':18s} {'problem':8s} {'this':>8s} {'other':>8s} "
          f"{'change':>8s}")

    def row(name, problem, t_this, t_other):
        print(f"{name:18s} {problem:8s} {1e3 * t_this:8.3f} "
              f"{1e3 * t_other:8.3f} {t_this / t_other - 1.0:+8.1%}")

    row("import", "-", *interleaved_imports(SRC, args.other))
    for name in this[PROBLEMS[0]]:
        for p in PROBLEMS:
            row(name, p, *interleaved(this[p][name], other[p][name],
                                      args.calls))
        if name == "sweep_batch":
            row(name, "test1-nu", *interleaved(this_nu, other_nu,
                                               args.calls))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
