"""Check that two slabsm source trees give identical runs.

    python3 tools/compare_runs.py OTHER_SRC

OTHER_SRC is the src/ directory of another checkout, for instance of the
parent commit.  Every cell of bench/workloads.py and source iteration on
test1 run from OTHER_SRC first, then from this checkout's src/.  These
all have 128 cells and 16 directions, so si, mlsm and mlsm-aa1 with
k_max = s_max = 2 also run on three small problems built with
slabsm.problem.make_problem: the README example config, a two-group
one-cell problem with n_half = 1 (both edges of the mesh are vacuum
boundaries) and a three-group problem with 7 cells and n_half = 3.  Each
run is compared by ==: N_t, M_lo, status, rho_num, rho_irregular, the
residual history, lo_solve_counts, aa_fallbacks and aa_alpha_peak.  The
whole final TransportState is compared by np.array_equal, and by
np.array_equal of np.signbit, since array_equal takes -0.0 for +0.0: psi,
phi_ho, J_ho, P, phi, J, grey_phi, grey_J and zeta, and every field of
closures, grey_closure and grey_coeffs.  A state field that is None, as the
multilevel fields of source iteration are, must be None on both sides.
Then this checkout's runs repeat in reverse order, and each must equal its
first run: the per-problem caches (the low-order operators of
losm._operators, with the grey matrix's fixed column order, and the march
coefficients of sweep._march_coefficients) must not make a run depend on
what ran before it.  Exits 1 at the first
difference and 0 when every run is identical.  One process and one BLAS
thread, as in the benchmark.
"""

from __future__ import annotations

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
# dataclasses of arrays, compared field by field
STRUCTS = ("closures", "grey_closure", "grey_coeffs")
# make_problem arguments of the small problems, by name
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
}


def cells() -> list:
    """Every distinct workload cell, source iteration on test1, then the
    three methods on each small problem."""
    out = {cell.key: cell for wl in WORKLOADS.values() for cell in wl.cells}
    si = Cell("test1", "si")
    out[si.key] = si
    return list(out.values()) + [Cell(name, method, 2, 2) for name in SMALL
                                 for method in ("si", "mlsm", "mlsm-aa1")]


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
        spec = slabsm.problem.make_problem(name=cell.problem,
                                           **SMALL[cell.problem])
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
    # numpy is imported only after main() has pinned the BLAS threads
    import numpy as np

    out = [name for name in SCALARS if a[name] != b[name]]
    for name in sorted((a.keys() | b.keys()) - set(SCALARS)):
        x, y = a.get(name), b.get(name)
        if (x is None) != (y is None) or x is not None and not (
                np.array_equal(x, y)
                and np.array_equal(np.signbit(x), np.signbit(y))):
            out.append(name)
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other = Path(argv[0])
    if not (other / "slabsm" / "__init__.py").is_file():
        print(f"no slabsm package under {other}", file=sys.stderr)
        return 2
    pin_blas_threads()
    todo = cells()
    slabsm = import_from(other)
    reference = [run(slabsm, cell) for cell in todo]
    slabsm = import_from(SRC)
    first = []
    for cell, ref in zip(todo, reference):
        first.append(run(slabsm, cell))
        diff = differences(first[-1], ref)
        if diff:
            print(f"DIFFERENT {cell.key}: {', '.join(diff)}")
            return 1
        print(f"identical {cell.key}")
    print(f"all {len(todo)} runs identical")
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
