"""Check that two slabsm source trees give identical or near-identical runs.

    python3 tools/compare_runs.py OTHER_SRC [--rtol R]

OTHER_SRC is the src/ directory of another checkout, for instance of the
parent commit.  Every cell of bench/workloads.py and source iteration on
test1 run from OTHER_SRC first, then from this checkout's src/.  These
all have 128 cells and 16 directions, so si, mlsm and mlsm-aa1 with
k_max = s_max = 2 also run on four small problems: the README example
config, a two-group one-cell problem with n_half = 1 (both edges of the
mesh are vacuum boundaries), a three-group problem with 7 cells and
n_half = 3, and a one-group problem with 5 cells, whose AA(1) run falls
back on most of its passes.  Each is built by slabsm.problem.ProblemSpec
from float arrays, so that a tree whose ProblemSpec converts nothing
gets the same inputs as one whose ProblemSpec copies them.  Last,
mlsm-aa1 with k_max = s_max = 1 runs on a three-group problem with 11
cells (c = 0.99 in every group, sigma_t over five decades), where it
stops as diverged at N_t = 27 with |alpha0| up to 4.06.

Without --rtol each run is compared by ==: N_t, M_lo, status, rho_num,
rho_irregular, the residual history, lo_solve_counts, aa_fallbacks and
aa_alpha_peak.  The whole final TransportState is compared by
np.array_equal, and by np.array_equal of np.signbit, since array_equal
takes -0.0 for +0.0: psi, phi_ho, J_ho, P, phi, J, grey_phi, grey_J and
zeta, and every field of closures, grey_closure and grey_coeffs.  A state
field that is None, as the multilevel fields of source iteration are, must
be None on both sides.  Every field the OTHER run reports must be present
and equal in this checkout's run; a field only this checkout reports, as
closures.dx and closures.terms are against a tree whose closures did not
carry them, is compared only in the reruns below, and the end lists it
by name.

With --rtol R, for a change that reorders floating-point operations, N_t,
M_lo, status, rho_irregular, lo_solve_counts and aa_fallbacks stay exact,
every state array must lie within R of its own max |value| in the OTHER
run, and the residual history within R * max |grey_phi|.  Each run prints
the relative change of rho_num and aa_alpha_peak, which the rounding of
the last residuals moves by far more than R and which bench/reference.py
bounds; the end prints the worst deviation of each field over all runs.
Two grey coefficients are printed there but not held to R, as each is a
ratio of rounding noise at some nodes: eta vanishes in exact arithmetic
wherever every group current has one sign (on every run here |eta| stays
below 1e-16), and sbar_t is the |J|-weighted mean of sigma_t, which at
test1's symmetric centre weighs group currents of 1e-12 to 1e-17.

Then this checkout's runs repeat in reverse order, and each must equal its
first run exactly, in both modes: each problem's operator record
(losm.problem_operators) outlives a run and is shared by every later run
of the same data, and it must not make a run depend on what ran before
it.  Exits 1 at the first difference and 0 when every run passes.  One
process and one BLAS thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from provenance import SRC, pin_blas_threads  # noqa: E402
from workloads import WORKLOADS, Cell  # noqa: E402

SCALARS = ("N_t", "M_lo", "status", "rho_num", "rho_irregular",
           "residual_history", "lo_solve_counts", "aa_fallbacks",
           "aa_alpha_peak")
ARRAYS = ("psi", "phi_ho", "J_ho", "P", "phi", "J", "grey_phi", "grey_J",
          "zeta")
# compared exactly in both modes
EXACT = ("N_t", "M_lo", "status", "rho_irregular", "lo_solve_counts",
         "aa_fallbacks")
# reported as relative changes under --rtol
REPORTED = ("rho_num", "aa_alpha_peak")
# ratios of rounding noise at some nodes: reported, not held to --rtol
NOISY = ("grey_coeffs.eta", "grey_coeffs.sbar_t")
# dataclasses of arrays, compared field by field
STRUCTS = ("closures", "grey_closure", "grey_coeffs")
# the small problem that runs only mlsm-aa1(1,1), which diverges on it
DIVERGENT = "aa1-diverges"
# ProblemSpec arguments of the small problems, by name; run() turns the
# lists into float arrays
SMALL = {
    "readme": dict(G=2, sigma_t=[1.0, 2.0], sigma_s=[[0.2, 0.1], [0.3, 0.5]],
                   Q=[1.0, 0.0], width=10.0, n_cells=16, n_half=4),
    "one-cell": dict(G=2, sigma_t=[1.0, 1.5],
                     sigma_s=[[0.4, 0.2], [0.3, 0.9]], Q=[1.0, 0.5],
                     width=2.0, n_cells=1, n_half=1),
    "seven-cell": dict(G=3, sigma_t=[1.0, 1.5, 2.0],
                       sigma_s=[[0.3, 0.1, 0.0], [0.4, 0.6, 0.3],
                                [0.1, 0.5, 1.2]],
                       Q=[1.0, 0.5, 0.2], width=5.0, n_cells=7, n_half=3),
    "one-group": dict(G=1, sigma_t=[1.0], sigma_s=[[0.5]], Q=[1.0],
                      width=4.0, n_cells=5, n_half=2),
    DIVERGENT: dict(G=3, sigma_t=[48.87, 2.322, 0.0009134],
                    sigma_s=[[14.61, 1.185, 0.0001787],
                             [25.3, 0.9799, 0.0003008],
                             [8.472, 0.1337, 0.0004248]],
                    Q=[0.672, 1.813, 1.741], width=12.5, n_cells=11,
                    n_half=2),
}


def cells() -> list:
    """Every distinct workload cell, source iteration on test1, the three
    methods on each small problem but DIVERGENT, then mlsm-aa1(1,1) on
    DIVERGENT."""
    out = {cell.key: cell for wl in WORKLOADS.values() for cell in wl.cells}
    si = Cell("test1", "si")
    out[si.key] = si
    return (list(out.values())
            + [Cell(name, method, 2, 2) for name in SMALL
               if name != DIVERGENT for method in ("si", "mlsm", "mlsm-aa1")]
            + [Cell(DIVERGENT, "mlsm-aa1", 1, 1)])


def import_from(src: Path):
    """slabsm imported from `src`, replacing any copy already loaded."""
    for name in [n for n in sys.modules if n.split(".")[0] == "slabsm"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import slabsm
    finally:
        sys.path.pop(0)
    if not Path(slabsm.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"slabsm was imported from {slabsm.__file__}, not {src}")
    return slabsm


def run(slabsm, cell) -> dict:
    """The report's scalars and every array of its final state, by name."""
    if cell.problem in SMALL:
        import numpy as np

        spec = slabsm.problem.ProblemSpec(name=cell.problem, **{
            key: np.array(value, dtype=float) if isinstance(value, list)
            else value for key, value in SMALL[cell.problem].items()})
    else:
        spec = slabsm.builtin_problem(cell.problem)
    report = slabsm.run_problem(spec, cell.config(slabsm))
    rec = {name: getattr(report, name) for name in SCALARS}
    for name in ARRAYS + STRUCTS:
        value = getattr(report.state, name)
        if name in STRUCTS and value is not None:
            rec.update({f"{name}.{field}": array
                        for field, array in vars(value).items()})
        else:
            rec[name] = value
    return rec


def differences(a: dict, b: dict) -> list[str]:
    """The fields of run b that run a lacks or holds otherwise; a field
    only a reports is not compared."""
    # numpy is imported only after main() has pinned the BLAS threads
    import numpy as np

    out = [name for name in SCALARS if a[name] != b[name]]
    for name in sorted(b.keys() - set(SCALARS)):
        x, y = a.get(name), b[name]
        missing = name not in a
        if missing or (x is None) != (y is None) or x is not None and not (
                np.array_equal(x, y)
                and np.array_equal(np.signbit(x), np.signbit(y))):
            out.append(name)
    return out


def _deviation(x, y, scale) -> float:
    """max |x - y| / scale, 0 for equal arrays (NaN where both are NaN)
    and inf for arrays of other shapes."""
    import numpy as np

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return float("inf")
    d = np.abs(x - y)
    d[np.isnan(x) & np.isnan(y)] = 0.0
    if not d.any():
        return 0.0
    return float(d.max() / scale) if scale > 0 else float("inf")


def deviations(a: dict, b: dict) -> dict:
    """Deviation of run a from run b in each field of b: each array
    relative to its own max |value| in b, the residual history relative
    to b's max |grey_phi|; inf where a field is None or missing on one
    side only."""
    import numpy as np

    out = {"residual_history": _deviation(
        a["residual_history"], b["residual_history"],
        np.abs(b["grey_phi"]).max())}
    for name in sorted(b.keys() - set(SCALARS)):
        x, y = a.get(name), b[name]
        if x is None and y is None and name in a:
            continue
        out[name] = (float("inf") if x is None or y is None
                     else _deviation(x, y, np.abs(y).max()))
    return out


def relative_change(new, old) -> str:
    if new is None or old is None:
        return f"{new} (was {old})"
    return f"{new:.6g} ({new / old - 1.0 if old else new - old:+.2e})"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="src/ of the other checkout")
    ap.add_argument("--rtol", type=float, default=None,
                    help="relative tolerance of the state arrays and the "
                         "residual history (default: bitwise)")
    args = ap.parse_args(argv)
    if args.rtol is not None and not args.rtol >= 0:
        ap.error("--rtol must be a number >= 0")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    other = args.other
    if not (other / "slabsm" / "__init__.py").is_file():
        print(f"no slabsm package under {other}", file=sys.stderr)
        return 2
    pin_blas_threads()
    todo = cells()
    slabsm = import_from(other)
    reference = [run(slabsm, cell) for cell in todo]
    slabsm = import_from(SRC)
    first, worst, only_here = [], {}, set()
    for cell, ref in zip(todo, reference):
        first.append(run(slabsm, cell))
        rec = first[-1]
        only_here |= rec.keys() - ref.keys()
        if args.rtol is None:
            diff = differences(rec, ref)
        else:
            dev = deviations(rec, ref)
            for name, value in dev.items():
                worst[name] = max(worst.get(name, 0.0), value)
            diff = ([name for name in EXACT if rec[name] != ref[name]]
                    + [name for name, value in dev.items()
                       if name not in NOISY and not value <= args.rtol])
        if diff:
            print(f"DIFFERENT {cell.key}: {', '.join(diff)}")
            return 1
        if args.rtol is None:
            print(f"identical {cell.key}")
        else:
            print(f"within {args.rtol:g} {cell.key}: "
                  + "  ".join(f"{name} {relative_change(rec[name], ref[name])}"
                              for name in REPORTED))
    if args.rtol is None:
        print(f"all {len(todo)} runs identical")
    else:
        print("worst deviation per field over all runs:")
        for name, value in sorted(worst.items()):
            print(f"  {name:26s} {value:.3e}"
                  + (" (not held to --rtol)" if name in NOISY else ""))
        print(f"all {len(todo)} runs within {args.rtol:g}")
    if only_here:
        print("fields only this checkout reports, compared in the reruns: "
              + ", ".join(sorted(only_here)))
    for cell, rec in reversed(list(zip(todo, first))):
        diff = differences(run(slabsm, cell), rec)
        if diff:
            print(f"RERUN DIFFERENT {cell.key}: {', '.join(diff)}")
            return 1
        print(f"rerun identical {cell.key}")
    print(f"all {len(todo)} reruns in reverse order identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
