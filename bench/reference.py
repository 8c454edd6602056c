"""Reference results of every benchmark cell, and the check against them.

reference.json pins, per cell, what the solver produced at the commit
that defined the benchmark: N_t, M_lo and status (exact), rho_num, the
final grey scalar flux and, for source iteration, the residual history.
A speedup that changes any of these beyond the tolerances below is a
changed algorithm, and the benchmark counts the solve as failed.

Tolerances.  The grey flux must agree to 1e-12 of its largest entry, the
agreement the project asks of any change that keeps the algorithm.  Each
residual is a difference of two grey fluxes, so residual histories get
the same absolute tolerance.  rho_num is a geometric mean of ratios of
residuals near the 1e-9 stopping threshold, where rounding alone moves it:
factoring the grey system with a dense LU in place of splu (same
algebra, other rounding) moved rho_num by up to 7.2e-5 relative while
the final flux moved by 4e-15.  rho_num is therefore held to 1e-3
relative, still well inside the digits the paper's tables print.

capture_reference.py wrote reference.json.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

FLUX_RTOL = 1e-12
RHO_RTOL = 1e-3


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def cell_record(report, with_history: bool) -> dict:
    """The pinned quantities of one RunReport, as JSON-ready values."""
    rec = {
        "N_t": report.N_t,
        "M_lo": report.M_lo,
        "status": report.status,
        "rho_num": report.rho_num,
        "grey_phi": np.asarray(report.state.grey_phi).tolist(),
    }
    if with_history:
        rec["residual_history"] = [float(h) for h in report.residual_history]
    return rec


def mismatches(ref: dict, report) -> list[str]:
    """Every way `report` departs from the reference record `ref`."""
    out = []
    for name in ("N_t", "M_lo", "status"):
        got = getattr(report, name)
        if got != ref[name]:
            out.append(f"{name} {got!r} != {ref[name]!r}")

    rho, ref_rho = report.rho_num, ref["rho_num"]
    if (rho is None) != (ref_rho is None):
        out.append(f"rho_num {rho!r} != {ref_rho!r}")
    elif rho is not None and not abs(rho - ref_rho) <= RHO_RTOL * abs(ref_rho):
        out.append(f"rho_num {rho!r} differs from {ref_rho!r} "
                   f"by more than {RHO_RTOL:g} relative")

    ref_phi = np.asarray(ref["grey_phi"])
    phi = np.asarray(report.state.grey_phi)
    atol = FLUX_RTOL * float(np.max(np.abs(ref_phi)))
    if phi.shape != ref_phi.shape:
        out.append(f"grey flux shape {phi.shape} != {ref_phi.shape}")
    elif not np.max(np.abs(phi - ref_phi)) <= atol:
        out.append("grey flux differs by more than "
                   f"{FLUX_RTOL:g} of its maximum")

    if "residual_history" in ref:
        hist = np.asarray(report.residual_history, dtype=float)
        ref_hist = np.asarray(ref["residual_history"])
        if hist.shape != ref_hist.shape:
            out.append(f"residual history length {hist.size} != "
                       f"{ref_hist.size}")
        elif not np.max(np.abs(hist - ref_hist)) <= atol:
            out.append("residual history differs by more than "
                       f"{FLUX_RTOL:g} of the grey flux maximum")
    return out
