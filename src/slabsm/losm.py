"""Levels 2 and 3: multigroup and grey low-order second-moment solvers.

The low-order discretization is obtained by taking the zeroth and first
angular moments of the discretized LD transport equations, keeping the
scalar flux and current as LD fields (two coefficients per cell).  Edge
closures use the decomposition int mu^2 psi = phi/3 - P with P and the
edge reconstruction constants frozen from the latest sweep (sweep module),
which makes the low-order solution algebraically identical to the
transport moments at a consistent fixed point.

Per cell i the four equations (divided through by dx) are, with hatted
edge quantities from the frozen reconstructions,

    ( J^_{i+1} - J^_i ) / dx           + removal * phi_a = S_a
    ( 3 J^_{i+1} + 3 J^_i - 6 J_a )/dx + removal * phi_s = S_s
    ( phi^_{i+1} - phi^_i ) / (3 dx)   + sigma_t * J_a   = ( P^_{i+1} - P^_i )/dx
    ( phi^_{i+1} + phi^_i - 2 phi_a )/dx + sigma_t * J_s = ( 3 P^_{i+1} + 3 P^_i - 6 P_a )/dx

which form one banded system of dimension 4*n_cells per group, solved
directly.  The grey system reuses the machinery with solution-averaged
coefficients; all weighted averages and field products are collocated at
the two cell-edge values so the group-summed grey equations coincide
exactly with the sum of the group equations at convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .fields import Mesh, const_field, from_nodes, to_nodes
from .problem import ProblemSpec
from .sweep import ClosureData

DENOM_EPS = 1e-30


# ---------------------------------------------------------------------------
# Averaged cross sections and correction factors
# ---------------------------------------------------------------------------

def avg_scattering_xs(phi_groups: np.ndarray, sigma_s: np.ndarray) -> np.ndarray:
    """Flux-weighted scattering cross sections, one LD field per group:

        sbar_s,g = sum_g' sigma_{s,g'->g} phi_g' / sum_g' phi_g'

    evaluated at the cell-edge values.  Nodes whose flux sum falls below
    the safeguard threshold get the unweighted row mean instead.
    """
    num = np.einsum("gh,hnc->gnc", sigma_s, phi_groups)
    num_n = to_nodes(num)
    den_n = to_nodes(phi_groups.sum(axis=0))
    fallback = sigma_s.mean(axis=1)
    safe = np.abs(den_n) >= DENOM_EPS
    out = np.broadcast_to(fallback[:, None, None], num_n.shape).copy()
    np.divide(num_n, den_n, out=out, where=safe)
    return from_nodes(out)


def compute_zeta(grey_phi: np.ndarray, phi_groups: np.ndarray) -> np.ndarray:
    """Multiplicative coupling correction zeta = grey phi / sum_g phi_g,
    evaluated at the cell-edge values; safeguarded nodes fall back to 1
    (plain lagged coupling)."""
    den_n = to_nodes(phi_groups.sum(axis=0))
    num_n = to_nodes(grey_phi)
    safe = np.abs(den_n) >= DENOM_EPS
    out = np.ones_like(num_n)
    np.divide(num_n, den_n, out=out, where=safe)
    return from_nodes(out)


@dataclass
class GreyCoefficients:
    """Solution-averaged coefficients of the grey low-order system.

    All entries are LD coefficient arrays (n_cells, 2).
    """

    sbar_a: np.ndarray
    sbar_t: np.ndarray
    eta: np.ndarray
    P: np.ndarray
    Q: np.ndarray


def grey_xs(phi_groups: np.ndarray, J_groups: np.ndarray, spec: ProblemSpec,
            P_groups: np.ndarray | None = None) -> GreyCoefficients:
    """Grey absorption / total / drift coefficients from the group solution.

        sbar_a = sum sigma_a,g phi_g / sum phi_g
        sbar_t = sum sigma_t,g |J_g| / sum |J_g|
        eta    = sum (sigma_t,g - sbar_t) J_g / sum phi_g

    evaluated at the cell-edge values.  Safeguards: a vanishing |J| sum
    makes sbar_t the phi-weighted (then unweighted) mean of sigma_t, and a
    vanishing phi sum makes sbar_a the unweighted mean of sigma_a and eta
    zero.  P is the group sum of the closure moments, Q the group-summed
    external source.
    """
    n_cells = phi_groups.shape[1]
    sigma_a = spec.sigma_a()
    phi_n = to_nodes(phi_groups)
    J_n = to_nodes(J_groups)
    absJ_n = np.abs(J_n)

    den_phi = phi_n.sum(axis=0)
    den_J = absJ_n.sum(axis=0)
    safe_phi = np.abs(den_phi) >= DENOM_EPS
    safe_J = den_J >= DENOM_EPS

    sbar_a_n = np.full_like(den_phi, sigma_a.mean())
    np.divide(np.einsum("g,gne->ne", sigma_a, phi_n), den_phi,
              out=sbar_a_n, where=safe_phi)

    sbar_t_phi = np.full_like(den_phi, spec.sigma_t.mean())
    np.divide(np.einsum("g,gne->ne", spec.sigma_t, phi_n), den_phi,
              out=sbar_t_phi, where=safe_phi)
    sbar_t_n = sbar_t_phi.copy()
    np.divide(np.einsum("g,gne->ne", spec.sigma_t, absJ_n), den_J,
              out=sbar_t_n, where=safe_J)

    eta_n = np.zeros_like(den_phi)
    eta_num = (spec.sigma_t[:, None, None] - sbar_t_n[None]) * J_n
    np.divide(eta_num.sum(axis=0), den_phi, out=eta_n, where=safe_phi)

    P = (P_groups.sum(axis=0) if P_groups is not None
         else np.zeros((n_cells, 2)))
    Q = const_field(spec.Q.sum(), n_cells)
    return GreyCoefficients(sbar_a=from_nodes(sbar_a_n),
                            sbar_t=from_nodes(sbar_t_n),
                            eta=from_nodes(eta_n), P=P, Q=Q)


def sum_closures(closures) -> ClosureData:
    """Group-summed closure functionals for the grey system."""
    total = ClosureData(dJ=np.zeros_like(closures[0].dJ),
                        dphi=np.zeros_like(closures[0].dphi),
                        Phat=np.zeros_like(closures[0].Phat),
                        P=np.zeros_like(closures[0].P))
    for c in closures:
        total.dJ += c.dJ
        total.dphi += c.dphi
        total.Phat += c.Phat
        total.P += c.P
    return total


# ---------------------------------------------------------------------------
# Banded system assembly
# ---------------------------------------------------------------------------

def _edge_J_stencil(e: int, n_cells: int):
    if e == 0:
        c = 0
        return [(4 * c + 0, -0.5), (4 * c + 1, 0.5)]
    if e == n_cells:
        c = n_cells - 1
        return [(4 * c + 0, 0.5), (4 * c + 1, 0.5)]
    lc, rc = e - 1, e
    return [(4 * lc + 0, 0.25), (4 * lc + 1, 0.25),
            (4 * lc + 2, 0.5), (4 * lc + 3, 0.5),
            (4 * rc + 0, -0.25), (4 * rc + 1, 0.25),
            (4 * rc + 2, 0.5), (4 * rc + 3, -0.5)]


def _edge_phi_stencil(e: int, n_cells: int):
    if e == 0:
        c = 0
        return [(4 * c + 0, 0.5), (4 * c + 1, -0.5),
                (4 * c + 2, -0.75), (4 * c + 3, 0.75)]
    if e == n_cells:
        c = n_cells - 1
        return [(4 * c + 0, 0.5), (4 * c + 1, 0.5),
                (4 * c + 2, 0.75), (4 * c + 3, 0.75)]
    lc, rc = e - 1, e
    return [(4 * lc + 0, 0.5), (4 * lc + 1, 0.5),
            (4 * lc + 2, 0.75), (4 * lc + 3, 0.75),
            (4 * rc + 0, 0.5), (4 * rc + 1, -0.5),
            (4 * rc + 2, -0.75), (4 * rc + 3, 0.75)]


def _assemble_lo_matrix(mesh: Mesh, z_mass: np.ndarray, f_mass_J: np.ndarray,
                        f_mass_phi: np.ndarray | None = None) -> csc_matrix:
    """Low-order operator with mass coefficients given as LD pairs.

    z_mass[i] = (avg, slope) coefficients of the removal field acting on
    phi in the zeroth-moment rows; f_mass_J likewise for sigma_t acting on
    J in the first-moment rows; f_mass_phi for the optional drift term on
    phi (grey system).
    """
    N = mesh.n_cells
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for i in range(N):
        dx = mesh.dx[i]
        r0, r1, r2, r3 = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        jl = _edge_J_stencil(i, N)
        jr = _edge_J_stencil(i + 1, N)
        pl = _edge_phi_stencil(i, N)
        pr = _edge_phi_stencil(i + 1, N)

        for c, v in jr:
            add(r0, c, v / dx)
        for c, v in jl:
            add(r0, c, -v / dx)
        add(r0, 4 * i + 0, z_mass[i, 0])
        add(r0, 4 * i + 1, z_mass[i, 1])

        for c, v in jr:
            add(r1, c, 3.0 * v / dx)
        for c, v in jl:
            add(r1, c, 3.0 * v / dx)
        add(r1, 4 * i + 2, -6.0 / dx)
        add(r1, 4 * i + 0, z_mass[i, 1])
        add(r1, 4 * i + 1, z_mass[i, 0])

        for c, v in pr:
            add(r2, c, v / (3.0 * dx))
        for c, v in pl:
            add(r2, c, -v / (3.0 * dx))
        add(r2, 4 * i + 2, f_mass_J[i, 0])
        add(r2, 4 * i + 3, f_mass_J[i, 1])
        if f_mass_phi is not None:
            add(r2, 4 * i + 0, f_mass_phi[i, 0])
            add(r2, 4 * i + 1, f_mass_phi[i, 1])

        for c, v in pr:
            add(r3, c, v / dx)
        for c, v in pl:
            add(r3, c, v / dx)
        add(r3, 4 * i + 0, -2.0 / dx)
        add(r3, 4 * i + 2, f_mass_J[i, 1])
        add(r3, 4 * i + 3, f_mass_J[i, 0])
        if f_mass_phi is not None:
            add(r3, 4 * i + 0, f_mass_phi[i, 1])
            add(r3, 4 * i + 1, f_mass_phi[i, 0])

    return csc_matrix((vals, (rows, cols)), shape=(4 * N, 4 * N))


def _lo_rhs(mesh: Mesh, S: np.ndarray, closure: ClosureData) -> np.ndarray:
    """Right side holding the source and every frozen closure term."""
    dx = mesh.dx
    dJ, dphi, Phat = closure.dJ, closure.dphi, closure.Phat
    b = np.empty(4 * mesh.n_cells)
    b[0::4] = S[:, 0] - (dJ[1:] - dJ[:-1]) / dx
    b[1::4] = S[:, 1] - 3.0 * (dJ[1:] + dJ[:-1]) / dx
    b[2::4] = ((Phat[1:] - Phat[:-1]) - (dphi[1:] - dphi[:-1]) / 3.0) / dx
    b[3::4] = (3.0 * (Phat[1:] + Phat[:-1]) - 6.0 * closure.P[:, 0]
               - (dphi[1:] + dphi[:-1])) / dx
    return b


def _split_solution(u: np.ndarray, n_cells: int):
    x = u.reshape(n_cells, 4)
    return x[:, 0:2].copy(), x[:, 2:4].copy()


def _pack_state(phi: np.ndarray, J: np.ndarray) -> np.ndarray:
    out = np.empty((phi.shape[0], 4))
    out[:, 0:2] = phi
    out[:, 2:4] = J
    return out.ravel()


class LowOrderSystem:
    """Factorized multigroup low-order operators plus the grey solver.

    The per-group matrices depend only on the cross sections and the mesh,
    so they are factorized once; the grey matrix is rebuilt each solve
    because its coefficients track the evolving group solution.  Counters
    record executed solves for the cost accounting: one parallel group
    pass counts as one low-order solve, as does one grey solve.
    """

    def __init__(self, spec: ProblemSpec, mesh: Mesh):
        self.spec = spec
        self.mesh = mesh
        removal = spec.sigma_t - np.diag(spec.sigma_s)
        if np.any(removal <= 0):
            g = int(np.argmin(removal))
            raise ValueError(
                f"group {g + 1} has sigma_t - sigma_s,g->g = {removal[g]:.3e};"
                " the group low-order system requires it positive")
        self.removal = removal
        self.coupling = spec.sigma_s.copy()
        np.fill_diagonal(self.coupling, 0.0)
        N = mesh.n_cells
        self.Q_fields = np.zeros((spec.G, N, 2))
        self.Q_fields[:, :, 0] = spec.Q[:, None]

        self._A = []
        self._lu = []
        zeros = np.zeros((N, 2))
        for g in range(spec.G):
            z_mass = zeros.copy()
            z_mass[:, 0] = removal[g]
            f_mass = zeros.copy()
            f_mass[:, 0] = spec.sigma_t[g]
            A = _assemble_lo_matrix(mesh, z_mass, f_mass)
            self._A.append(A.tocsr())
            try:
                self._lu.append(splu(A))
            except RuntimeError as err:
                raise RuntimeError(
                    f"singular low-order system for group {g + 1}: {err}"
                ) from err
        self.n_group_passes = 0
        self.n_grey_solves = 0

    # -- multigroup level -------------------------------------------------

    def group_source(self, phi_groups: np.ndarray,
                     zeta: np.ndarray) -> np.ndarray:
        """S_g = zeta * sum_{g' != g} sigma_{s,g'->g} phi_g' + Q_g, with the
        zeta product collocated at the cell-edge values."""
        coupling = np.einsum("gh,hnc->gnc", self.coupling, phi_groups)
        S = from_nodes(to_nodes(zeta)[None] * to_nodes(coupling))
        return S + self.Q_fields

    def solve_group_rhs(self, g: int, S_g: np.ndarray,
                        closure_g: ClosureData):
        b = _lo_rhs(self.mesh, S_g, closure_g)
        u = self._lu[g].solve(b)
        return _split_solution(u, self.mesh.n_cells)

    def group_pass(self, phi_groups, J_groups, zeta, closures):
        """One Jacobi pass of the decoupled group solvers against the
        coupling lagged at the input state (counts as one solve: the
        groups are independent and could run in parallel)."""
        S = self.group_source(phi_groups, zeta)
        results = [self.solve_group_rhs(g, S[g], closures[g])
                   for g in range(self.spec.G)]
        phi_new = np.stack([r[0] for r in results])
        J_new = np.stack([r[1] for r in results])
        self.n_group_passes += 1
        return phi_new, J_new

    def equation_residual(self, phi_groups, J_groups, zeta, closures):
        """Residual of the multigroup low-order equations at the given
        state (matrix applications only; no solves are consumed)."""
        S = self.group_source(phi_groups, zeta)
        r_phi = np.empty_like(phi_groups)
        r_J = np.empty_like(J_groups)
        for g in range(self.spec.G):
            b = _lo_rhs(self.mesh, S[g], closures[g])
            r = b - self._A[g] @ _pack_state(phi_groups[g], J_groups[g])
            r_phi[g], r_J[g] = _split_solution(r, self.mesh.n_cells)
        return r_phi, r_J

    # -- grey level --------------------------------------------------------

    def solve_grey(self, coeffs: GreyCoefficients, closure: ClosureData):
        grey_closure = ClosureData(dJ=closure.dJ, dphi=closure.dphi,
                                   Phat=closure.Phat, P=coeffs.P)
        A = _assemble_lo_matrix(self.mesh, coeffs.sbar_a, coeffs.sbar_t,
                                coeffs.eta)
        b = _lo_rhs(self.mesh, coeffs.Q, grey_closure)
        try:
            u = splu(A.tocsc()).solve(b)
        except RuntimeError as err:
            raise RuntimeError(f"singular grey low-order system: {err}") from err
        self.n_grey_solves = self.n_grey_solves + 1
        return _split_solution(u, self.mesh.n_cells)


def group_particle_balance(system: LowOrderSystem, g: int, phi_g, J_g,
                           S_g, closure_g) -> tuple[float, float]:
    """(leakage + removal, source) of a converged group solve, from the
    telescoped zeroth-moment rows."""
    mesh = system.mesh
    N = mesh.n_cells
    phi_n = to_nodes(phi_g)
    J_left = -0.5 * phi_n[0, 0] + closure_g.dJ[0]
    J_right = 0.5 * phi_n[N - 1, 1] + closure_g.dJ[N]
    leakage = J_right - J_left
    removal = float(np.sum(system.removal[g] * phi_g[:, 0] * mesh.dx))
    source = float(np.sum(S_g[:, 0] * mesh.dx))
    return leakage + removal, source
