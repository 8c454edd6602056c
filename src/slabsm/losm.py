"""Levels 2 and 3: multigroup and grey low-order second-moment solvers.

The low-order discretization is obtained by taking the zeroth and first
angular moments of the discretized LD transport equations, keeping the
scalar flux and current as LD fields (two coefficients per cell).  Edge
closures use the decomposition int mu^2 psi = phi/3 - P with P and the
edge reconstruction constants frozen from the latest sweep
(closure_from_sweep), which makes the low-order solution algebraically
identical to the transport moments at a consistent fixed point.

Per cell i the four equations (divided through by dx) are, with hatted
edge quantities from the frozen reconstructions: `edge_weights` on the
traces of the cells beside the edge plus the constants dJ and dphi,

    ( J^_{i+1} - J^_i ) / dx               + (removal phi)_a = S_a
    ( 3 J^_{i+1} + 3 J^_i - 6 J_a ) / dx   + (removal phi)_s = S_s
    ( phi^_{i+1} - phi^_i ) / (3 dx)       + (sigma_t J)_a   = ( P^_{i+1} - P^_i ) / dx
    ( phi^_{i+1} + phi^_i - 2 phi_a ) / dx + (sigma_t J)_s   = ( 3 P^_{i+1} + 3 P^_i - 6 P_a ) / dx

where (c u)_a = c_a u_a + c_s u_s and (c u)_s = c_s u_a + c_a u_s for LD
fields c and u.  The closure's terms, built once with it, move to the right
sides (ClosureData.terms, (..., N, 4) per cell row): rows 2-3 complete, and
in rows 0-1 the dJ terms that S_a and S_s are reduced by.  The grey system
has sbar_a for removal and sbar_t for sigma_t and adds the drift
(eta phi)_a, (eta phi)_s to the two J rows; its solution-averaged
coefficients and field products are collocated at the two cell-edge values,
so the group-summed grey equations coincide exactly with the sum of the
group equations at convergence.  A cell's unknowns (phi_a, phi_s, J_a, J_s)
couple only to its two neighbours: the operator is block tridiagonal with
4x4 blocks: the derivative stencil of the closures' edge table
`edge_weights` plus cell-diagonal mass blocks.  Group data carry a leading
group axis, so one call builds every group's right side.  Every matrix is
the stencil in LAPACK band storage plus the cell mass entries, gathered
straight from the flat coefficient stack [sbar_a, sbar_t, eta, 0].  Each
grey solve is one band LU solve (dgbsv); each multigroup pass is one solve
of one SuperLU factor of all group matrices.  The problem's operator
record (ProblemOperators) holds all that is built once per problem.
Only these levels need scipy (the two solves and the sparse residual
matrix), so it loads where the record first builds its low-order
operators (ProblemOperators.low_order and _factor), not with this
module: importing slabsm, the Level-1 sweep (numpy and its compiled
march) and source iteration need no scipy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .angular import (AngularQuadrature, MomentSet, angular_moments,
                      build_double_gauss)
from .fields import Mesh, const_field, from_nodes, nodal_product, to_nodes
from .problem import ProblemSpec
from .sweep import march_coefficients, upwind_edge_psi

DENOM_EPS = 1e-30


# -- Averaged cross sections and correction factors -------------------------

def _ratio(num_n: np.ndarray, den_n: np.ndarray, fallback) -> np.ndarray:
    """num_n / den_n shaped as num_n, and the value of `fallback()`
    (broadcast) where |den_n| < DENOM_EPS; a NaN den_n gives NaN, which
    stops the run.  The fallback is lazy: when no node needs it, this is
    one plain divide and `fallback` is never called: the test for it is
    one NaN-ignoring minimum, so a NaN beside a tiny denominator still
    takes the fallback there."""
    if not np.fmin.reduce(np.abs(den_n), axis=None) < DENOM_EPS:
        return num_n / den_n
    small = np.abs(den_n) < DENOM_EPS
    out = np.full(num_n.shape, fallback(), dtype=float)
    np.divide(num_n, den_n, out=out, where=~small)
    return out


def avg_scattering_xs(phi_groups: np.ndarray, sigma_s: np.ndarray) -> np.ndarray:
    """Flux-weighted scattering cross sections, one LD field per group:

        sbar_s,g = sum_g' sigma_{s,g'->g} phi_g' / sum_g' phi_g'

    evaluated at the cell-edge values.  Nodes whose flux sum falls below
    the safeguard threshold get the unweighted row mean instead.
    """
    num_n = to_nodes(np.einsum("gh,hnc->gnc", sigma_s, phi_groups))
    den_n = to_nodes(phi_groups.sum(axis=0))
    return from_nodes(_ratio(num_n, den_n,
                             lambda: sigma_s.mean(axis=1)[:, None, None]))


def compute_zeta(grey_phi: np.ndarray, phi_groups: np.ndarray) -> np.ndarray:
    """Multiplicative coupling correction zeta = grey phi / sum_g phi_g,
    evaluated at the cell-edge values; safeguarded nodes fall back to 1
    (plain lagged coupling)."""
    den_n = to_nodes(phi_groups.sum(axis=0))
    return from_nodes(_ratio(to_nodes(grey_phi), den_n, lambda: 1.0))


@dataclass(frozen=True, eq=False)
class GreyCoefficients:
    """Solution-averaged coefficients of the grey low-order system,
    frozen.

    All entries are LD coefficient arrays (n_cells, 2).
    """

    sbar_a: np.ndarray
    sbar_t: np.ndarray
    eta: np.ndarray
    Q: np.ndarray


def grey_xs(phi_groups: np.ndarray, J_groups: np.ndarray,
            spec: ProblemSpec) -> GreyCoefficients:
    """Grey absorption / total / drift coefficients from the group solution.

        sbar_a = sum sigma_a,g phi_g / sum phi_g
        sbar_t = sum sigma_t,g |J_g| / sum |J_g|
        eta    = sum (sigma_t,g - sbar_t) J_g / sum phi_g

    evaluated at the cell-edge values.  Safeguards: a vanishing |J| sum
    makes sbar_t the phi-weighted (then unweighted) mean of sigma_t, and a
    vanishing phi sum makes sbar_a the unweighted mean of sigma_a and eta
    zero.  Q is the group-summed external source; the group-summed
    closure moment comes with the grey closure (sum_closures).
    """
    n_cells = phi_groups.shape[1]
    sigma_a, sigma_t = spec.sigma_a(), spec.sigma_t
    phi_n = to_nodes(phi_groups)
    J_n = to_nodes(J_groups)
    absJ_n = np.abs(J_n)

    den_phi = phi_n.sum(axis=0)
    sbar_a_n = _ratio(np.einsum("g,gne->ne", sigma_a, phi_n), den_phi,
                      sigma_a.mean)
    sbar_t_n = _ratio(np.einsum("g,gne->ne", sigma_t, absJ_n),
                      absJ_n.sum(axis=0),
                      lambda: _ratio(np.einsum("g,gne->ne", sigma_t, phi_n),
                                     den_phi, sigma_t.mean))
    # (sigma_t,g - sbar_t) J_g, formed in place
    eta_num = np.subtract(sigma_t[:, None, None], sbar_t_n)
    eta_num *= J_n
    eta_n = _ratio(eta_num.sum(axis=0), den_phi, lambda: 0.0)

    Q = const_field(spec.Q.sum(), n_cells)
    return GreyCoefficients(sbar_a=from_nodes(sbar_a_n),
                            sbar_t=from_nodes(sbar_t_n),
                            eta=from_nodes(eta_n), Q=Q)


# -- Closures frozen from the latest sweep ----------------------------------

@dataclass(frozen=True, eq=False)
class ClosureData:
    """Frozen transport functionals that close the low-order systems, and
    the right-side terms they give on cells of widths dx (N,).

    Each functional carries a leading group axis, (G, N+1) on the cell
    edges and (G, N, 2) for P; the grey closure (sum_closures) has none.
    dJ holds the additive constants of the edge-current reconstruction,
    and in slots 0 and N the boundary closure constants C of J =
    n*(phi/2) + C; dphi the edge-scalar-flux reconstruction constants,
    Phat the edge closure moment sum w*(1/3 - mu^2)*psi, and P the cell
    LD coefficients of the closure moment (from closure_from_sweep, the
    sweep's own, which a TransportState shares).  terms, (..., N, 4),
    holds every closure term of the low-order right sides per cell row
    (_closure_terms), built with the closure.  Every array is made
    read-only, the given ones included, so none can leave the terms
    stale.  Closures compare by identity.
    """

    dJ: np.ndarray
    dphi: np.ndarray
    Phat: np.ndarray
    P: np.ndarray
    dx: np.ndarray
    terms: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", _closure_terms(self))
        for array in vars(self).values():
            array.setflags(write=False)


def edge_weights(N: int) -> np.ndarray:
    """Edge reconstruction weights of an N-cell mesh, (N+1, 2, 4): the
    edge J^ (row 0) and phi^ (row 1) on the traces [phi, J] of the cells
    left and right of each edge, from half-range P1 partial moments,

        J^   = [phi/4 + J/2]_left + [-phi/4 + J/2]_right
        phi^ = [phi/2 + 3J/4]_left + [phi/2 - 3J/4]_right

    and J^ = -/+ phi/2 of the boundary cell's trace at the vacuum edges.
    Read-only; ProblemOperators.edges holds one per problem.
    """
    w = np.zeros((N + 1, 2, 4))
    w[1:, :, :2] = [[0.25, 0.5], [0.5, 0.75]]
    w[:-1, :, 2:] = [[-0.25, 0.5], [0.5, -0.75]]
    w[0, 0, 2:] = -0.5, 0.0
    w[N, 0, :2] = 0.5, 0.0
    w.setflags(write=False)
    return w


def _closure_terms(closure: ClosureData) -> np.ndarray:
    """The closure terms of the low-order right sides, (..., N, 4), one
    column per cell row (module docstring), with the closure's leading
    axes."""
    dx = closure.dx
    dJ, dphi, Phat = closure.dJ, closure.dphi, closure.Phat
    c = np.empty(dJ.shape[:-1] + (dx.size, 4))
    np.divide(dJ[..., 1:] - dJ[..., :-1], dx, c[..., 0])
    np.divide(3.0 * (dJ[..., 1:] + dJ[..., :-1]), dx, c[..., 1])
    np.divide((Phat[..., 1:] - Phat[..., :-1])
              - (dphi[..., 1:] - dphi[..., :-1]) / 3.0, dx, c[..., 2])
    np.divide(3.0 * (Phat[..., 1:] + Phat[..., :-1])
              - 6.0 * closure.P[..., 0]
              - (dphi[..., 1:] + dphi[..., :-1]), dx, c[..., 3])
    return c


def closure_from_sweep(psi: np.ndarray, quad: AngularQuadrature,
                       moments: MomentSet,
                       ops: ProblemOperators) -> ClosureData:
    """Edge and cell closure functionals of every group, and their
    right-side terms on the problem's cells, from the latest sweep, psi
    (G, M, N, 2), and its angular moments.  dJ and dphi are the exact edge
    moments minus their reconstructions by the record's edge table
    (ProblemOperators.edges) from the one-sided traces, so
    imposing them on the low-order system reproduces the transport moments
    identically at a consistent solution."""
    N = psi.shape[-2]
    edge = angular_moments(upwind_edge_psi(psi, quad)[..., None], quad)
    phi, J = moments.phi, moments.J
    lead = phi.shape[:-2]
    # trace rows t_k (4, ..., N+1): [phi, J] of the cells left (a + s) and
    # right (a - s) of each edge, zero outside the slab
    t = np.zeros((4,) + lead + (N + 1,))
    np.add(phi[..., 0], phi[..., 1], t[0, ..., 1:])
    np.add(J[..., 0], J[..., 1], t[1, ..., 1:])
    np.subtract(phi[..., 0], phi[..., 1], t[2, ..., :-1])
    np.subtract(J[..., 0], J[..., 1], t[3, ..., :-1])
    # [J^, phi^] = w0 t0 + w1 t1 + w2 t2 + w3 t3, summed left to right,
    # from one product; contiguous weights keep the k axis outermost
    w = np.ascontiguousarray(ops.edges.T)
    wt = np.multiply(w.reshape((4, 2) + (1,) * len(lead) + (N + 1,)),
                     t[:, None])
    recon = wt[0] + wt[1] + wt[2] + wt[3]
    return ClosureData(dJ=edge.J[..., 0] - recon[0],
                       dphi=edge.phi[..., 0] - recon[1],
                       Phat=edge.P[..., 0], P=moments.P, dx=ops.dx)


def sum_closures(closures: ClosureData) -> ClosureData:
    """Group-summed closure functionals for the grey system, with the
    grey right-side terms built from the summed functionals."""
    return ClosureData(dJ=closures.dJ.sum(axis=0),
                       dphi=closures.dphi.sum(axis=0),
                       Phat=closures.Phat.sum(axis=0),
                       P=closures.P.sum(axis=0), dx=closures.dx)


# -- Block-tridiagonal system assembly --------------------------------------

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
    # edge_weights on the unknowns of the cells left [:, 0] and right
    # [:, 1] of each edge, whose traces are u_a + u_s and u_a - u_s
    table = edge_weights(N)
    ld = np.stack([table, table * [1.0, 1.0, -1.0, -1.0]], axis=-1)
    w_J, w_phi = ld.reshape(N + 1, 2, 2, 4).swapaxes(0, 1)
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


def _mass_gather(N: int) -> np.ndarray:
    """Index (N, 4, 4) of each cell mass block entry in the flat stack
    [sbar_a, sbar_t, eta, 0] of three LD pairs (N, 2) and a zero: removal
    * phi in rows 0-1, sigma_t * J + drift * phi in rows 2-3, each LD
    product c * u as [[c_a, c_s], [c_s, c_a]], and +0.0 elsewhere."""
    # field of each block entry, 3 for the zero, and its LD coefficient
    field = np.array([[0, 0, 3, 3], [0, 0, 3, 3], [2, 2, 1, 1], [2, 2, 1, 1]])
    coef = np.tile(_LD_PRODUCT, (2, 2))
    cell = 2 * np.arange(N)[:, None, None]
    return np.minimum(2 * N * field + cell + coef, 6 * N)


def _pairs(a: np.ndarray) -> np.ndarray:
    """a (..., 2k), float64 with a contiguous last axis, as complex128
    (..., k), each LD pair one item: a copy or a subtract (two float
    subtractions) of every other pair is then one loop, not one per cell."""
    return a.view(np.complex128)


def _lo_rhs(S: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Right sides (..., 4N) of the sources S (..., N, 2), with S's leading
    axes, and the closure terms c (ClosureData.terms): S - c in rows 0-1.
    One contiguous copy of the terms, then one subtract into rows 0-1."""
    b = np.empty(S.shape[:-1] + (4,))
    np.copyto(b, terms)
    rows = _pairs(b)[..., :1]
    np.subtract(_pairs(S), rows, rows)
    return b.reshape(S.shape[:-2] + (-1,))


def _split_solution(u: np.ndarray):
    """(phi, J) LD coefficients (..., N, 2) of cell-ordered unknowns
    (..., 4N)."""
    x = _pairs(u).reshape(u.shape[:-1] + (-1, 2))
    return (x[..., :1].copy().view(np.float64),
            x[..., 1:].copy().view(np.float64))


def _block_diagonal(data, indices, indptr):
    """Compressed (CSC or CSR) storage (data, indices, indptr) of the block
    diagonal of G n x n matrices of one sparsity, each stored as a row of
    data (G, nnz) on the shared indices and indptr."""
    G, nnz = data.shape
    n = indptr.size - 1
    offsets = np.arange(G)[:, None]
    return (data.reshape(-1), (indices + n * offsets).reshape(-1),
            np.concatenate(([0], (indptr[1:] + nnz * offsets).reshape(-1))))


def _factor(data, indices, indptr):
    """One SuperLU factor of the block diagonal of the G group matrices, given
    in CSC as data (G, nnz) on the shared indices and indptr, and the position
    of each group unknown in its solution, (n,) for n unknowns per group.
    COLAMD orders by sparsity alone, so the column order perm_c of one group's
    own factor is every group's.  Each group's columns go into the block in
    that order, and the block is factored in its natural order: SuperLU then
    rebuilds each group's own factor inside the block, so one solve of the
    block is the G group solves bit for bit, and unknown k of group g sits
    at g n + perm_c[k] of its solution.  If the block is singular, the groups
    are factored one at a time to name the first singular one."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    G, n = data.shape[0], indptr.size - 1

    def group(g):
        return csc_matrix((data[g], indices, indptr), shape=(n, n))

    try:
        # a copy, so the order-only factor is freed before the block's
        perm_c = splu(group(0)).perm_c.copy()
        # column c goes to column perm_c[c]: the data positions of the
        # columns taken in that order
        columns = np.argsort(perm_c)
        counts = np.diff(indptr)[columns]
        start = np.concatenate(([0], np.cumsum(counts)))
        take = (np.repeat(indptr[columns] - start[:-1], counts)
                + np.arange(start[-1]))
        block = csc_matrix(_block_diagonal(data.take(take, axis=1),
                                           indices[take],
                                           start), shape=(G * n, G * n))
        return splu(block, permc_spec="NATURAL"), perm_c
    except RuntimeError:
        for g in range(G):
            try:
                splu(group(g))
            except RuntimeError as err:
                raise RuntimeError("singular low-order system for group "
                                   f"{g + 1}: {err}") from err
        raise


@dataclass(frozen=True, eq=False)
class ProblemOperators:
    """What every run of one problem reuses (problem_operators): from the
    cell widths dx (N,), sigma_t (G,), removal sigma_t - sigma_s,g->g (G,)
    and double Gauss order n_half, the sweep's march (march: sigma_t,
    |mu| and dx, from which the compiled march forms its cell
    coefficients), the closures' edge table (edges) and the low-order
    operators (low_order), each built on first use and kept: so source
    iteration factors nothing and a LowOrderSystem builds no march, and a
    failed build raises again on the next use.  Every run of the same
    data shares the record, and the record is read-only: no sweep or solve
    writes into it, so it needs no lock, and runs may overlap in threads
    and give their serial answers.  It keeps read-only float64 copies of
    sigma_t, removal and dx, so a later write into the caller's arrays
    cannot change them under the parts built from them.  Compared by
    identity."""

    sigma_t: np.ndarray
    removal: np.ndarray
    dx: np.ndarray
    n_half: int

    def __post_init__(self):
        for name in ("sigma_t", "removal", "dx"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @functools.cached_property
    def march(self):
        return march_coefficients(self.sigma_t, self.dx,
                                  build_double_gauss(self.n_half).mu)

    @functools.cached_property
    def edges(self) -> np.ndarray:
        return edge_weights(self.dx.size)

    @functools.cached_property
    def low_order(self):
        """(grey_band, gbsv, A, lu, unknowns).  grey_band(coefs) gives
        (kl, ku, ab): the stencil plus the cell mass blocks of the
        coefficient stack coefs (_mass_gather) in the LAPACK band storage
        of dgbsv, A[r, c] = ab[kl + ku + r - c, c], with bandwidths kl and
        ku read from the stencil's support (7 each, fewer for one cell).
        grey_band copies the band, then makes one addition stencil + mass
        per centre-block support entry.  gbsv is LAPACK's dgbsv, which the
        grey solve calls on that band.  Each group matrix is the stencil on
        its support (explicit zeros kept, so every group has one sparsity)
        with the group's constant removal / sigma_t block added on every
        cell by that same addition, read off once in CSC order for SuperLU;
        A, their block diagonal, is that read-off in CSR.  lu is the one
        SuperLU factor of all of them (_factor), and unknowns (2, N, 2) the
        position in each group's part of its solution of the LD
        coefficients of phi (unknowns[0]) and J (unknowns[1]).  scipy is
        imported here and in _factor, once per problem, so no solve runs an
        import.  If any removal is not positive, a ValueError names the
        group of the least one, before anything is built."""
        removal = self.removal
        if np.any(removal <= 0):
            g = int(np.argmin(removal))
            raise ValueError(
                f"group {g + 1} has sigma_t - sigma_s,g->g = {removal[g]:.3e};"
                " the group low-order system requires it positive")
        from scipy.linalg.lapack import dgbsv
        from scipy.sparse import csc_matrix

        stencil, support = _stencil_blocks(self.dx)
        i, k, a, b = np.nonzero(support)
        rows, cols = 4 * i + a, 4 * (i + k - 1) + b
        G, N, n = self.removal.size, self.dx.size, 4 * self.dx.size
        kl, ku = int((rows - cols).max()), int((cols - rows).max())
        # flat positions in ab.T, which is (n, 2 kl + ku + 1) and C-ordered,
        # so that ab itself is the Fortran-ordered array dgbsv works in
        band = cols * (2 * kl + ku + 1) + kl + ku + rows - cols
        entries = stencil[support]
        stencil_band = np.zeros((n, 2 * kl + ku + 1))
        stencil_band.reshape(-1)[band] = entries
        # the centre-block support entries: band and coefficient positions
        centre = k == 1
        mass_pos = band[centre]
        coef_index = _mass_gather(N)[i[centre], a[centre], b[centre]]

        def grey_band(coefs):
            abT = stencil_band.copy()
            abT.reshape(-1)[mass_pos] += coefs[coef_index]
            return kl, ku, abT.T

        # each group matrix on the support: the stencil, and on the
        # centre-block entries the group's removal / sigma_t block, added
        # as grey_band adds a mass; read off in CSC order
        coefs = np.zeros((G, 6 * N + 1))
        coefs[:, :2 * N:2] = self.removal[:, None]
        coefs[:, 2 * N:4 * N:2] = self.sigma_t[:, None]
        data = np.tile(entries, (G, 1))
        data[:, centre] += coefs[:, coef_index]
        order = np.lexsort((rows, cols))
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cols, minlength=n))))
        csc = data.take(order, axis=1), rows[order], indptr
        lu, perm_c = _factor(*csc)
        unknowns = perm_c.reshape(N, 2, 2).swapaxes(0, 1).copy()
        A = csc_matrix(_block_diagonal(*csc), shape=(G * n, G * n)).tocsr()
        for shared in (stencil_band, mass_pos, coef_index, A.data, A.indices,
                       A.indptr, unknowns):
            shared.setflags(write=False)
        return grey_band, dgbsv, A, lu, unknowns


def problem_operators(spec: ProblemSpec, mesh: Mesh) -> ProblemOperators:
    """The operator record of spec on mesh, the same for every run of the
    same data (_operators)."""
    removal = spec.sigma_t - np.diag(spec.sigma_s)
    return _operators(spec.sigma_t.tobytes(), removal.tobytes(),
                      mesh.dx.tobytes(), spec.n_half)


@functools.lru_cache(maxsize=8)
def _operators(sigma_t: bytes, removal: bytes, dx: bytes, n_half: int):
    """The record of the float64 sigma_t, removal and dx of these bytes.
    Cached: refactoring the group matrices on every run cost about a sixth
    of the test1 table cells' solve time and scattered SuperLU workspaces
    over the heap."""
    return ProblemOperators(*map(np.frombuffer, (sigma_t, removal, dx)),
                            n_half)


class LowOrderSystem:
    """Factorized multigroup low-order operators plus the grey solver, of
    the problem's operator record (ops.low_order, built with the first
    system of the problem).  Each group pass is one solve of the group
    matrices' one factor.  Each grey solve adds its sbar_a / sbar_t / eta
    coefficients, gathered from their flat stack, to a copy of the
    stencil band and solves it by one dgbsv call, a banded LU with partial
    pivoting.  Each call builds its right side from the closure's terms
    (ClosureData.terms); the system keeps no state between calls but its
    counters, which record executed solves for the cost accounting: one
    parallel group pass counts as one low-order solve, as does one grey
    solve.
    """

    def __init__(self, spec: ProblemSpec, mesh: Mesh):
        self.ops = ops = problem_operators(spec, mesh)
        self.coupling = spec.sigma_s.copy()
        np.fill_diagonal(self.coupling, 0.0)
        N = mesh.n_cells
        self.Q_fields = np.zeros((spec.G, N, 2))
        self.Q_fields[:, :, 0] = spec.Q[:, None]
        (self._grey_band, self._gbsv, self._A, self._lu,
         self._unknowns) = ops.low_order
        self.n_group_passes = 0
        self.n_grey_solves = 0

    # -- multigroup level -------------------------------------------------

    def group_source(self, phi_groups: np.ndarray,
                     zeta: np.ndarray) -> np.ndarray:
        """S_g = zeta * sum_{g' != g} sigma_{s,g'->g} phi_g' + Q_g, with the
        zeta product collocated at the cell-edge values."""
        coupling = np.einsum("gh,hnc->gnc", self.coupling, phi_groups)
        S = nodal_product(coupling, zeta)
        S += self.Q_fields
        return S

    def group_pass(self, phi_groups, zeta, closures):
        """One Jacobi pass of the decoupled group solvers against the
        coupling lagged at the input state (counts as one solve: the
        groups are independent and could run in parallel).  All G group
        systems are solved by one solve of their one factor, and phi and J
        are read back from its column order by copies."""
        b = _lo_rhs(self.group_source(phi_groups, zeta), closures.terms)
        u = self._lu.solve(b.reshape(-1)).reshape(b.shape)
        self.n_group_passes += 1
        phi_at, J_at = self._unknowns
        return u.take(phi_at, axis=1), u.take(J_at, axis=1)

    def equation_residual(self, phi_groups, J_groups, zeta, closures):
        """Residual b - A x of the multigroup low-order equations at the
        given state, the vector AA(1) mixes: flat, in (group, cell,
        coefficient, field) order with phi before J (matrix applications
        only; no solves are consumed)."""
        r = _lo_rhs(self.group_source(phi_groups, zeta), closures.terms)
        x = np.concatenate((_pairs(phi_groups), _pairs(J_groups)), axis=-1)
        r = r.reshape(-1, 4)
        r -= (self._A @ x.view(np.float64).reshape(-1)).reshape(-1, 4)
        # per cell (phi_a, phi_s, J_a, J_s) -> (phi_a, J_a, phi_s, J_s),
        # a column at a time
        out = np.empty_like(r)
        for k, j in enumerate((0, 2, 1, 3)):
            out[:, k] = r[:, j]
        return out.reshape(-1)

    # -- grey level --------------------------------------------------------

    def solve_grey(self, coeffs: GreyCoefficients, closure: ClosureData):
        coefs = np.concatenate(
            (coeffs.sbar_a, coeffs.sbar_t, coeffs.eta, [0.0]), axis=None)
        b = _lo_rhs(coeffs.Q, closure.terms)
        if np.isfinite(coefs).all():
            kl, ku, ab = self._grey_band(coefs)
            _, _, u, info = self._gbsv(kl, ku, ab, b, overwrite_ab=1,
                                       overwrite_b=1)
            if info > 0:
                raise RuntimeError("singular grey low-order system: "
                                   f"dgbsv pivot {info} is exactly zero")
            if info < 0:
                raise RuntimeError(f"dgbsv rejected its argument {-info}")
        else:
            # a NaN solution stops the run as non_finite, whatever LAPACK
            # makes of NaN coefficients
            u = np.full_like(b, np.nan)
        self.n_grey_solves = self.n_grey_solves + 1
        return _split_solution(u)
