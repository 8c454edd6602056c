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

    ( J^_{i+1} - J^_i ) / dx               + (removal phi)_a = S_a
    ( 3 J^_{i+1} + 3 J^_i - 6 J_a ) / dx   + (removal phi)_s = S_s
    ( phi^_{i+1} - phi^_i ) / (3 dx)       + (sigma_t J)_a   = ( P^_{i+1} - P^_i ) / dx
    ( phi^_{i+1} + phi^_i - 2 phi_a ) / dx + (sigma_t J)_s   = ( 3 P^_{i+1} + 3 P^_i - 6 P_a ) / dx

where (c u)_a = c_a u_a + c_s u_s and (c u)_s = c_s u_a + c_a u_s for LD
fields c and u.  The grey system has sbar_a for removal and sbar_t for
sigma_t and adds the drift (eta phi)_a, (eta phi)_s to the two J rows; its
solution-averaged coefficients and field products are collocated at the two
cell-edge values, so the group-summed grey equations coincide exactly with
the sum of the group equations at convergence.  A cell's unknowns (phi_a,
phi_s, J_a, J_s) couple only to its two neighbours: the operator is block
tridiagonal with 4x4 blocks, a derivative stencil built once per mesh from
the edge-reconstruction weights plus cell-diagonal mass blocks.
"""

from __future__ import annotations

import functools
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
# Block-tridiagonal system assembly
# ---------------------------------------------------------------------------

# LD product c * u as a 2x2 block on (u_a, u_s): [[c_a, c_s], [c_s, c_a]]
_LD_PRODUCT = np.array([[0, 1], [1, 0]])


def _couple(left, right):
    """(N, 3, ...) blocks on cells i-1, i, i+1 from the terms of edges i
    (`left`) and i+1 (`right`), each (N, 2, ...) on the cells beside it."""
    return np.stack([left[:, 0], right[:, 0] + left[:, 1], right[:, 1]],
                    axis=1)


def _stencil_blocks(dx: np.ndarray):
    """Derivative part of the operator as (N, 3, 4, 4) blocks, where
    blocks[i, k] couples the four rows of cell i to the unknowns
    (phi_a, phi_s, J_a, J_s) of cell i + k - 1, plus the boolean support
    of the blocks (entries with at least one term, kept where the terms
    cancel)."""
    N = dx.size
    # edge reconstructions (sweep.closure_from_sweep) as weights on the
    # unknowns of the cells left [:, 0] and right [:, 1] of each edge; at
    # the vacuum boundaries J = -/+ phi/2 of the boundary cell's trace
    w_J = np.zeros((N + 1, 2, 4))
    w_J[1:, 0] = 0.25, 0.25, 0.5, 0.5
    w_J[:-1, 1] = -0.25, 0.25, 0.5, -0.5
    w_J[0, 1] = -0.5, 0.5, 0.0, 0.0
    w_J[N, 0] = 0.5, 0.5, 0.0, 0.0
    w_phi = np.zeros((N + 1, 2, 4))
    w_phi[1:, 0] = 0.5, 0.5, 0.75, 0.75
    w_phi[:-1, 1] = 0.5, -0.5, -0.75, 0.75
    # row r of cell i: (c_r edge_{i+1} + c'_r edge_i) / h_r, with the
    # edge J^ in rows 0-1 and the edge phi^ in rows 2-3
    w = np.stack([w_J, w_J, w_phi, w_phi], axis=2)
    h = np.stack([dx, dx, 3.0 * dx, dx], axis=-1)[:, None, :, None]
    blocks = _couple(np.array([-1.0, 3.0, -1.0, 1.0])[:, None] * w[:-1] / h,
                     np.array([1.0, 3.0, 1.0, 1.0])[:, None] * w[1:] / h)
    support = _couple(w[:-1] != 0, w[1:] != 0)
    # in-cell terms -6 J_a / dx and -2 phi_a / dx
    blocks[:, 1, 1, 2] -= 6.0 / dx
    blocks[:, 1, 3, 0] -= 2.0 / dx
    support[:, 1, 1, 2] = support[:, 1, 3, 0] = True
    return blocks, support


@functools.lru_cache(maxsize=16)
def _block_layout(dx_bytes: bytes):
    """(stencil, take, indices, indptr) for float64 cell widths `dx_bytes`:
    B.reshape(-1)[take] is the CSC data of blocks B on the stencil's
    support.  Cached and read-only: every run rebuilds its LowOrderSystem
    on the same mesh, and per-system copies raised the peak RSS of
    repeated test1 table runs by about a quarter (heap drift)."""
    stencil, support = _stencil_blocks(np.frombuffer(dx_bytes))
    i, k, a, b = np.nonzero(support)
    rows, cols = 4 * i + a, 4 * (i + k - 1) + b
    order = np.lexsort((rows, cols))
    indptr = np.searchsorted(cols[order], np.arange(4 * len(support) + 1))
    layout = (stencil, np.flatnonzero(support)[order],
              rows[order].astype(np.int32), indptr.astype(np.int32))
    for shared in layout:
        shared.setflags(write=False)
    return layout


def _mass_blocks(removal: np.ndarray, sigma_t: np.ndarray,
                 drift: np.ndarray) -> np.ndarray:
    """Cell-diagonal 4x4 blocks of removal*phi and sigma_t*J + drift*phi,
    from LD coefficient pairs (..., 2)."""
    m = np.zeros(removal.shape[:-1] + (4, 4))
    m[..., :2, :2] = removal[..., _LD_PRODUCT]
    m[..., 2:, 2:] = sigma_t[..., _LD_PRODUCT]
    m[..., 2:, :2] = drift[..., _LD_PRODUCT]
    return m


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

    The stencil blocks and their CSC layout are built once per mesh.  The
    per-group matrices add constant removal / sigma_t mass blocks and are
    factorized once; the grey matrix adds the sbar_a / sbar_t / eta mass
    blocks of each solve's coefficients to the same stencil and is
    refactorized every solve.  Counters record executed solves for the
    cost accounting: one parallel group pass counts as one low-order
    solve, as does one grey solve.
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

        self._stencil, self._take, self._indices, self._indptr = (
            _block_layout(np.asarray(mesh.dx, dtype=float).tobytes()))

        zero = np.zeros(spec.G)
        mass = _mass_blocks(np.stack([removal, zero], axis=-1),
                            np.stack([spec.sigma_t, zero], axis=-1),
                            np.zeros((spec.G, 2)))
        blocks = np.tile(self._stencil, (spec.G, 1, 1, 1, 1))
        blocks[:, :, 1] += mass[:, None]
        # np.take, not [:, take]: splu needs each group's row contiguous
        data = np.take(blocks.reshape(spec.G, -1), self._take, axis=1)
        self._A = []
        self._lu = []
        for g in range(spec.G):
            A = self._matrix(data[g])
            self._A.append(A.tocsr())
            try:
                self._lu.append(splu(A))
            except RuntimeError as err:
                raise RuntimeError(
                    f"singular low-order system for group {g + 1}: {err}"
                ) from err
        self.n_group_passes = 0
        self.n_grey_solves = 0

    def _matrix(self, data: np.ndarray) -> csc_matrix:
        """CSC matrix with entries `data` on the stencil's support."""
        n = 4 * self.mesh.n_cells
        return csc_matrix((data, self._indices, self._indptr), shape=(n, n))

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
        mass = _mass_blocks(coeffs.sbar_a, coeffs.sbar_t, coeffs.eta)
        blocks = self._stencil.copy()
        blocks[:, 1] += mass
        A = self._matrix(blocks.reshape(-1)[self._take])
        b = _lo_rhs(self.mesh, coeffs.Q, grey_closure)
        try:
            u = splu(A).solve(b)
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
