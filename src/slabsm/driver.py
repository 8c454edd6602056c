"""The outer iteration shared by source iteration, MLSM and MLSM-AA(1).

One outer is one step, (run, state) -> (next TransportState, diagnostics),
with the run's fixed inputs in `_Run`.  `_si_step` sweeps against the
lagged scattering source and takes the moments.  `_multilevel_step`
sweeps against sbar_s times the grey flux; `_low_order_levels` then
freezes the closures of that psi and runs k_max cycles of [ s_max
multigroup low-order passes, a grey coefficient update and one grey
solve ], and runs sweep-free once before the loop, on the flat guess.
MLSM and MLSM-AA(1) share that one pass loop.  MLSM takes each pass
output, and MLSM-AA(1) mixes the last two outputs, which is Anderson
acceleration AA(m) with m = 1; m = 0 is MLSM's plain step.  `run_problem`
steps ell = 1..max_outer and only decides when to stop.  Convergence is
measured on successive grey scalar fluxes, so N_t counts the outers that
contain a transport sweep.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .accel import aa1_alpha
from .angular import AngularQuadrature, angular_moments, build_double_gauss
from .fields import Mesh
from .losm import (LowOrderSystem, ProblemOperators, avg_scattering_xs,
                   closure_from_sweep, compute_zeta, grey_xs,
                   problem_operators, sum_closures)
from .problem import ProblemSpec, whole_count
from .sweep import build_ho_rhs, sweep_batch

log = logging.getLogger(__name__)

METHOD_SI = "si"
METHOD_MLSM = "mlsm"
METHOD_MLSM_AA1 = "mlsm-aa1"
METHODS = (METHOD_SI, METHOD_MLSM, METHOD_MLSM_AA1)

STATUS_CONVERGED = "converged"
STATUS_MAX_OUTER = "max_outer"
STATUS_DIVERGED = "diverged"
STATUS_NON_FINITE = "non_finite"

# rho_num is withheld when the last ratios' half-range spread exceeds this
IRREGULAR_SPREAD = 0.25
# diverged: the change grew past DIVERGENCE_FACTOR times its value
# DIVERGENCE_WINDOW outers earlier
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_WINDOW = 10


@dataclass(frozen=True)
class IterationConfig:
    """Solver selection and iteration controls, checked on construction
    and immutable after it (vary one with `dataclasses.replace`, which
    checks again).

    k_max counts grey cycles per outer iteration, s_max multigroup passes
    per cycle; source iteration ignores both.
    """

    method: str = METHOD_MLSM
    k_max: int = 1
    s_max: int = 1
    epsilon: float = 1e-9
    max_outer: int = 1000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"expected one of {METHODS}")
        for name in ("k_max", "s_max", "max_outer"):
            object.__setattr__(self, name, whole_count(
                getattr(self, name), name, ValueError))
        # True would run as a tolerance of 1; inf would stop after one
        # outer as converged, NaN never
        eps = self.epsilon
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real):
            raise ValueError(f"epsilon must be a real number, got {eps!r}")
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError("epsilon must be finite and positive")


@dataclass(frozen=True, eq=False)
class TransportState:
    """Per-outer transport data plus the evolving low-order iterate, frozen
    and compared by identity (the zero start of source iteration sets only
    phi and grey_phi; a multilevel state's P is its closures' P)."""

    phi: np.ndarray            # (G, N, 2) low-order iterate
    grey_phi: np.ndarray       # (N, 2)
    psi: np.ndarray = None     # (G, M, N, 2)
    phi_ho: np.ndarray = None  # (G, N, 2) transport moments
    J_ho: np.ndarray = None
    P: np.ndarray = None       # (G, N, 2) closure moments
    J: np.ndarray = None
    # multilevel only: None for source iteration
    closures: object = None    # ClosureData with a leading group axis
    grey_closure: object = None
    grey_J: np.ndarray = None
    grey_coeffs: object = None
    zeta: np.ndarray = None    # of the final grey_phi and phi


@dataclass(frozen=True, eq=False)
class RunReport:
    """Outcome of one solver run of `config`, frozen and compared by identity.

    N_t counts outer transport iterations; residual_history holds the
    per-iteration convergence measure (one entry per counted iteration;
    a non_finite run ends on the offending entry).  rho_num is None when
    the terminal ratios are too irregular to quote, when fewer than four
    entries or an exact zero leave no rate to quote, when a max_outer run
    stagnated (geometric-mean ratio >= 1), and after a non_finite stop.
    lo_solve_counts records the instrumented low-order solves of every
    executed outer pass, including the sweep-free initial one.
    """

    config: IterationConfig
    problem: str
    N_t: int
    rho_num: float | None
    rho_irregular: bool
    M_lo: int
    residual_history: list
    status: str
    timings: dict
    lo_solve_counts: list
    aa_fallbacks: int
    aa_alpha_peak: float
    state: TransportState


class SpectralEstimate(NamedTuple):
    rho: float
    irregular: bool
    spread: float


def convergence_measure(phi_new: np.ndarray, phi_old: np.ndarray) -> float:
    """Infinity norm of the grey-flux change over cell averages (absolute:
    the published iteration counts are reproduced by this norm only)."""
    if phi_new.shape != phi_old.shape:
        raise ValueError("flux fields must share a mesh")
    return float(np.max(np.abs(phi_new[:, 0] - phi_old[:, 0])))


def estimate_spectral_radius(history) -> SpectralEstimate | None:
    """Geometric-mean convergence rate over the last min(5, len-1) ratios,
    or None when no rate exists: fewer than four entries, or a
    nonpositive one (a run that converged exactly ends on 0.0).

    Flagged irregular when the ratios' relative half-range spread,
    (max - min) / (2 * geometric mean), exceeds IRREGULAR_SPREAD.
    """
    h = np.asarray(list(history), dtype=float)
    if h.size < 4 or np.any(h <= 0.0):
        return None
    ratios = (h[1:] / h[:-1])[-min(5, h.size - 1):]
    rho = float(np.exp(np.mean(np.log(ratios))))
    spread = float((ratios.max() - ratios.min()) / (2.0 * rho))
    return SpectralEstimate(rho=rho, irregular=spread > IRREGULAR_SPREAD,
                            spread=spread)


def si_infinite_medium_rho(spec: ProblemSpec) -> float:
    """Flat-mode source-iteration spectral radius: the largest eigenvalue
    modulus of T^-1 S with T = diag(sigma_t) and S the scattering
    matrix."""
    M = spec.sigma_s / spec.sigma_t[:, None]
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def lo_solve_count(cfg: IterationConfig) -> int:
    """Low-order solves per transport iteration: k_max * (s_max + 1)."""
    return cfg.k_max * (cfg.s_max + 1)


def _status(history, cfg) -> str | None:
    """Terminal status after the latest convergence measure, or None to
    keep iterating."""
    delta = history[-1]
    if not math.isfinite(delta):
        return STATUS_NON_FINITE
    if delta <= cfg.epsilon:
        return STATUS_CONVERGED
    w = DIVERGENCE_WINDOW
    if len(history) > w and delta > DIVERGENCE_FACTOR * history[-1 - w]:
        return STATUS_DIVERGED
    return None


class OuterDiagnostics(NamedTuple):
    """Low-order solves, AA(1) fallbacks and peak |alpha0| of one outer."""

    lo_solves: int
    aa_fallbacks: int
    aa_alpha_peak: float


class _Run(NamedTuple):
    """What every step of one run reads, bound once per run: ops is the
    problem's operator record, and system is None for source iteration."""

    spec: ProblemSpec
    cfg: IterationConfig
    quad: AngularQuadrature
    ops: ProblemOperators
    system: LowOrderSystem | None


def _si_step(run: _Run, state: TransportState):
    """One source-iteration outer: sweep against the lagged scattering
    source and take the moments.  Solves no low-order system, so its
    diagnostics are None."""
    spec = run.spec
    scatter = np.einsum("gh,hnc->gnc", spec.sigma_s, state.phi)
    scatter[:, :, 0] += spec.Q[:, None]
    psi = sweep_batch(run.ops, 0.5 * scatter)
    phi, J, P = angular_moments(psi, run.quad)
    new = TransportState(phi=phi, grey_phi=phi.sum(axis=0), psi=psi,
                         phi_ho=phi, J_ho=J, P=P, J=J)
    return new, None


def _multilevel_step(run: _Run, state: TransportState):
    """One multilevel outer: sweep against sbar_s times the lagged grey
    flux, then the low-order levels on that psi."""
    spec = run.spec
    sbar_s = avg_scattering_xs(state.phi, spec.sigma_s)
    psi = sweep_batch(run.ops, build_ho_rhs(state.grey_phi, sbar_s, spec.Q))
    return _low_order_levels(run, psi, state.grey_phi)


def _low_order_levels(run: _Run, psi, grey_phi):
    """Low-order levels on the swept psi against the lagged grey_phi;
    None, on the first pass, takes the grey sum of psi's moments.

    The one multigroup pass loop: each pass refreshes zeta and runs
    group_pass.  mlsm takes the pass output.  mlsm-aa1 mixes it with the
    previous output (the cycle's start on the first pass) by AA(1) on
    their low-order equation residuals, which costs no solve beyond the
    pass; a degenerate residual pair takes the plain step a0 = 0.
    """
    cfg, system = run.cfg, run.system
    moms = angular_moments(psi, run.quad)
    closures = closure_from_sweep(psi, run.quad, moms, run.ops)
    grey_closure = sum_closures(closures)
    # the inner multigroup iteration restarts from the fresh transport
    # moments; the grey lag carries over
    phi, J = moms.phi, moms.J
    if grey_phi is None:
        grey_phi = phi.sum(axis=0)
    solves0 = system.n_group_passes + system.n_grey_solves
    aa1 = cfg.method == METHOD_MLSM_AA1
    fallbacks, peak = 0, 0.0
    for _k in range(cfg.k_max):
        prev = (phi, J)
        for s in range(cfg.s_max):
            zeta = compute_zeta(grey_phi, phi)
            if aa1 and s == 0:
                r_prev = system.equation_residual(phi, J, zeta, closures)
            hat = system.group_pass(phi, zeta, closures)
            if not aa1:
                phi, J = hat
                continue
            r_curr = system.equation_residual(*hat, zeta, closures)
            a0 = aa1_alpha(r_prev, r_curr)
            if a0 is None:
                a0 = 0.0
                fallbacks += 1
                log.debug("AA(1) degenerate residual pair at pass %d; plain "
                          "step", s + 1)
            peak = max(peak, abs(a0))
            a1 = 1.0 - a0
            phi = a0 * prev[0] + a1 * hat[0]
            J = a0 * prev[1] + a1 * hat[1]
            prev, r_prev = hat, r_curr
        grey_coeffs = grey_xs(phi, J, run.spec)
        grey_phi, grey_J = system.solve_grey(grey_coeffs, grey_closure)
    state = TransportState(
        phi=phi, grey_phi=grey_phi, psi=psi, phi_ho=moms.phi,
        J_ho=moms.J, P=moms.P, J=J, closures=closures,
        grey_closure=grey_closure, grey_J=grey_J,
        grey_coeffs=grey_coeffs, zeta=compute_zeta(grey_phi, phi))
    solves = system.n_group_passes + system.n_grey_solves - solves0
    return state, OuterDiagnostics(solves, fallbacks, peak)


def run_problem(spec: ProblemSpec, cfg: IterationConfig) -> RunReport:
    """Run the configured method to convergence, divergence, a non-finite
    residual or max_outer.

    Source iteration starts from a zero flux and builds no low-order
    system.  The multilevel methods start from the flat guess psi = 1/2,
    so phi_g = 1 and every averaging denominator is safely away from
    zero, with P identically zero.  The problem's operator record is
    looked up once, by the low-order system if there is one.
    """
    t0 = time.perf_counter()
    quad = build_double_gauss(spec.n_half)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    G, N = spec.G, spec.n_cells
    multilevel = cfg.method != METHOD_SI
    system = LowOrderSystem(spec, mesh) if multilevel else None
    ops = system.ops if multilevel else problem_operators(spec, mesh)
    run = _Run(spec, cfg, quad, ops, system)
    diagnostics = []
    if multilevel:
        step = _multilevel_step
        flat = np.zeros((G, quad.n_angles, N, 2))
        flat[..., 0] = 0.5
        state, diag = _low_order_levels(run, flat, None)
        diagnostics.append(diag)
    else:
        step = _si_step
        state = TransportState(np.zeros((G, N, 2)), np.zeros((N, 2)))

    history: list[float] = []
    for _ in range(cfg.max_outer):
        new, diag = step(run, state)
        diagnostics.append(diag)
        history.append(convergence_measure(new.grey_phi, state.grey_phi))
        state = new
        status = _status(history, cfg)
        if status is not None:
            break
    else:
        status = STATUS_MAX_OUTER
    if status in (STATUS_DIVERGED, STATUS_NON_FINITE):
        log.warning("run stopped at outer iteration %d: %s", len(history),
                    status)

    est = (None if status == STATUS_NON_FINITE
           else estimate_spectral_radius(history))
    if est is not None and status == STATUS_MAX_OUTER and est.rho >= 1.0:
        est = None      # stagnated, e.g. at the rounding floor: no rate
    diagnostics = [d for d in diagnostics if d is not None]
    return RunReport(
        config=cfg, problem=spec.name, N_t=len(history),
        rho_num=None if est is None or est.irregular else est.rho,
        rho_irregular=est is not None and est.irregular,
        M_lo=lo_solve_count(cfg) if multilevel else 0,
        residual_history=history, status=status,
        timings={"wall_seconds": time.perf_counter() - t0},
        lo_solve_counts=[d.lo_solves for d in diagnostics],
        aa_fallbacks=sum(d.aa_fallbacks for d in diagnostics),
        aa_alpha_peak=max((d.aa_alpha_peak for d in diagnostics),
                          default=0.0),
        state=state)
