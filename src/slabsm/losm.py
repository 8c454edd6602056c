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
in rows 0-1 the dJ terms that S_a and S_s are reduced by.  All but the
two solves runs in the library of the sweep's march (sweep.kernel), one
call per use, in numpy's operation order, so bit for bit as the numpy
formulas it replaced.  The grey system has sbar_a for removal and sbar_t
for sigma_t and adds the drift
(eta phi)_a, (eta phi)_s to the two J rows; its solution-averaged
coefficients and field products are collocated at the two cell-edge values,
so the group-summed grey equations coincide exactly with the sum of the
group equations at convergence.  A cell's unknowns (phi_a, phi_s, J_a, J_s)
couple only to its two neighbours: the operator is block tridiagonal with
4x4 blocks: the derivative stencil of the closures' edge table
`edge_weights` plus cell-diagonal mass blocks.  Group data carry a leading
group axis, so one call builds every group's right side.  Every matrix is
the stencil plus the cell mass entries.  The grey matrix is in LAPACK
band storage, its mass gathered from one coefficient block [sbar_a,
sbar_t, eta, Q]; each grey solve is one band LU solve (dgbsv).  The group
matrices are read off once, in CSR, which the residual and one SuperLU
factor of them all read; each multigroup pass is one solve of that
factor.  The problem's operator record (ProblemOperators) holds all that
is built once per problem.  Only these levels need scipy (the two
solves), so it loads where the record first builds its low-order
operators (ProblemOperators.low_order and _factor), not with this module:
importing slabsm, the Level-1 sweep (numpy and its compiled march) and
source iteration need no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .angular import AngularQuadrature, MomentSet, build_double_gauss
from .fields import Mesh
from .problem import ProblemSpec
from .sweep import address, checked, kernel


# -- Averaged cross sections and correction factors -------------------------

def avg_scattering_xs(phi_groups: np.ndarray, sigma_s: np.ndarray) -> np.ndarray:
    """Flux-weighted scattering cross sections, one LD field per group:

        sbar_s,g = sum_g' sigma_{s,g'->g} phi_g' / sum_g' phi_g'

    evaluated at the cell-edge values.  Nodes whose flux sum falls below
    the safeguard threshold get the unweighted row mean instead.  One call
    of the compiled slabsm_scattering_xs.
    """
    phi = checked(phi_groups, (-1, -1, 2))
    G, N = phi.shape[:2]
    sigma_s = checked(sigma_s, (G, G))
    # held here, so that the row means outlive the call
    arrays = [sigma_s, sigma_s.mean(axis=1), phi, np.empty((G, N, 2))]
    kernel("slabsm_scattering_xs")(G, N, *map(address, arrays))
    return arrays[-1]


def compute_zeta(grey_phi: np.ndarray, phi_groups: np.ndarray) -> np.ndarray:
    """Multiplicative coupling correction zeta = grey phi / sum_g phi_g,
    evaluated at the cell-edge values; safeguarded nodes fall back to 1
    (plain lagged coupling).  One call of the compiled slabsm_zeta."""
    phi = checked(phi_groups, (-1, -1, 2))
    G, N = phi.shape[:2]
    grey, zeta = checked(grey_phi, (N, 2)), np.empty((N, 2))
    kernel("slabsm_zeta")(G, N, *map(address, (grey, phi, zeta)))
    return zeta


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
    closure moment comes with the grey closure (sum_closures).  One call
    of the compiled slabsm_grey_xs, which writes all four into one block.
    """
    G = spec.G
    phi = checked(phi_groups, (G, -1, 2))
    J = checked(J_groups, phi.shape)
    # held here, so that the constants outlive the call
    consts, at = _grey_constants(spec)
    out = np.empty((4,) + phi.shape[1:])
    kernel("slabsm_grey_xs")(G, phi.shape[1], at,
                             *map(address, (phi, J, out)))
    return GreyCoefficients(*out)


@functools.lru_cache(maxsize=8)
def _grey_constants(spec: ProblemSpec) -> tuple:
    """[sigma_a, sigma_t, mean of sigma_a, mean of sigma_t, sum of Q] of
    spec, read-only, and its address (specs are immutable)."""
    sigma_a = spec.sigma_a()
    consts = np.concatenate((sigma_a, spec.sigma_t, [
        sigma_a.mean(), spec.sigma_t.mean(), spec.Q.sum()]))
    consts.setflags(write=False)
    return consts, address(consts)


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
    (module docstring), built with the closure by one call of the compiled
    slabsm_closure_terms, each an elementwise formula in a fixed order.
    The arrays must fit one mesh, with one set of leading axes: dJ, dphi
    and Phat (..., N+1), P (..., N, 2) and dx (N,); a ValueError says so
    otherwise.  The closure keeps each as a C-contiguous float64 array,
    the given one if it is one already, else a copy, and makes every array
    read-only, so no write through them can leave the terms stale.  A
    given array kept as such may be a view: a write into its writable
    base still reaches the closure, leaving the terms stale.  Closures
    compare by identity.
    """

    dJ: np.ndarray
    dphi: np.ndarray
    Phat: np.ndarray
    P: np.ndarray
    dx: np.ndarray
    terms: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        for name in ("dJ", "dphi", "Phat", "P", "dx"):
            object.__setattr__(self, name, np.ascontiguousarray(
                getattr(self, name), dtype=float))
        dJ, dphi, Phat, P, dx = self.dJ, self.dphi, self.Phat, self.P, self.dx
        N, lead = dx.size, P.shape[:-2]
        edge = lead + (N + 1,)
        if (dx.ndim != 1 or P.shape[-2:] != (N, 2)
                or not dJ.shape == dphi.shape == Phat.shape == edge):
            raise ValueError("closure shapes do not fit one mesh: dJ, dphi "
                             "and Phat (..., N+1), P (..., N, 2), dx (N,)")
        terms = np.empty(lead + (N, 4))
        kernel("slabsm_closure_terms")(
            math.prod(lead), N, dJ.ctypes.data, dphi.ctypes.data,
            Phat.ctypes.data, P.ctypes.data, dx.ctypes.data,
            terms.ctypes.data)
        object.__setattr__(self, "terms", terms)
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


def closure_from_sweep(psi: np.ndarray, quad: AngularQuadrature,
                       moments: MomentSet,
                       ops: ProblemOperators) -> ClosureData:
    """Edge and cell closure functionals of every group, and their
    right-side terms on the problem's cells, from the latest sweep, psi
    (G, M, N, 2) or one group's (M, N, 2), and its angular moments, of the
    same leading axes.  dJ and dphi are the exact edge moments minus their
    reconstructions by the record's edge table (ProblemOperators.edges)
    from the one-sided traces, so imposing them on the low-order system
    reproduces the transport moments identically at a consistent
    solution; Phat is the edge moment of P, and P the given one.

    One call of the compiled slabsm_closure forms dJ, dphi and Phat of
    every group: the upwind edge traces (a + s of the cell left of the
    edge for mu > 0, a - s of the cell right of it for mu < 0, 0.0 at
    the vacuum edge), their moments summed over the directions in order
    from 0.0 as angular_moments sums psi, and the reconstruction
    ((w0 t0 + w1 t1) + w2 t2) + w3 t3 from the traces t of the moments;
    ClosureData then builds the terms."""
    psi = np.ascontiguousarray(psi, dtype=float)
    phi, J = (np.ascontiguousarray(a, dtype=float) for a in moments[:2])
    lead, N = psi.shape[:-3], ops.dx.size
    if (psi.shape[-3:] != (quad.n_angles, N, 2)
            or not phi.shape == J.shape == lead + (N, 2)):
        raise ValueError(f"psi {psi.shape} and moments {phi.shape} do not "
                         f"fit {quad.n_angles} directions on {N} cells")
    out = np.empty((3,) + lead + (N + 1,))
    kernel("slabsm_closure")(
        math.prod(lead), quad.n_angles, N, psi.ctypes.data, phi.ctypes.data,
        J.ctypes.data, quad.moment_weights.ctypes.data, ops.edges.ctypes.data,
        out.ctypes.data)
    dJ, dphi, Phat = out
    return ClosureData(dJ=dJ, dphi=dphi, Phat=Phat, P=moments.P, dx=ops.dx)


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
    """Index (N, 4, 4) of each cell mass block entry in the flat block
    [sbar_a, sbar_t, eta, Q] of four LD pairs (N, 2), index 6N standing
    for a zero: removal * phi in rows 0-1, sigma_t * J + drift * phi in
    rows 2-3, each LD product c * u as [[c_a, c_s], [c_s, c_a]], and +0.0
    elsewhere."""
    # field of each block entry, 3 for the zero, and its LD coefficient
    field = np.array([[0, 0, 3, 3], [0, 0, 3, 3], [2, 2, 1, 1], [2, 2, 1, 1]])
    coef = np.tile(_LD_PRODUCT, (2, 2))
    cell = 2 * np.arange(N)[:, None, None]
    return np.minimum(2 * N * field + cell + coef, 6 * N)


def _factor(data, indices, indptr):
    """One SuperLU factor of the block diagonal of the G group matrices, given
    in CSR as data (G, nnz) on the shared indices and indptr, and the position
    of each group unknown in its solution, (n,) for n unknowns per group.
    COLAMD orders by sparsity alone, so the column order perm_c of one group's
    own factor is every group's.  scipy's block_diag stacks each group's
    columns, taken in that order, into the block, which is factored in its
    natural order: SuperLU then rebuilds each group's own factor inside the
    block, so one solve of the block is the G group solves bit for bit, and
    unknown k of group g sits at g n + perm_c[k] of its solution.  If the
    block is singular, the groups are factored one at a time to name the
    first singular one."""
    from scipy.sparse import block_diag, csr_matrix
    from scipy.sparse.linalg import splu

    G, n = data.shape[0], indptr.size - 1

    def group(g):
        return csr_matrix((data[g], indices, indptr), shape=(n, n))

    try:
        # a copy, so the order-only factor is freed before the block's
        perm_c = splu(group(0).tocsc()).perm_c.copy()
        # column c goes to column perm_c[c]
        columns = np.argsort(perm_c)
        block = block_diag([group(g)[:, columns] for g in range(G)],
                           format="csc")
        return splu(block, permc_spec="NATURAL"), perm_c
    except RuntimeError:
        for g in range(G):
            try:
                splu(group(g).tocsc())
            except RuntimeError as err:
                raise RuntimeError("singular low-order system for group "
                                   f"{g + 1}: {err}") from err
        raise


@dataclass(frozen=True, eq=False)
class ProblemOperators:
    """What every run of one problem reuses (problem_operators), from the
    cell widths dx (N,), sigma_t (G,), removal sigma_t - sigma_s,g->g (G,)
    and double Gauss order n_half.

    Built on construction: read-only float64 copies of sigma_t and
    removal, dx as Mesh(dx).dx, mabs, the read-only |mu| of
    build_double_gauss(n_half), and the closures' edge table edges
    (edge_weights).  The sweep (sweep_batch) reads sigma_t, mabs and dx,
    from which the compiled march forms its cell coefficients, through
    march: the sizes G, M and N and the addresses of those three arrays,
    fetched once here, as slabsm_march takes them.  Built on
    first use and kept: the low-order operators (low_order), which import
    scipy and factor, so source iteration pays for neither; a failed build
    raises again on the next use.

    Checked on construction, so every sweep of the record can march: the
    rules of Mesh on dx and of build_double_gauss on n_half, sigma_t and
    removal 1-D, nonempty and of one length, sigma_t finite and positive,
    and no overflow of the cell determinant by the
    largest sigma_t * dx.  The removal > 0 check belongs to the low-order
    operators alone (low_order), so source iteration runs c = 1 problems.

    Every run of the same data shares the record, and the record is
    read-only: no sweep or solve writes into it, so it needs no lock, and
    runs may overlap in threads and give their serial answers.  Its copies
    keep a later write into the caller's arrays from changing the parts
    built from them.  Compared by identity."""

    sigma_t: np.ndarray
    removal: np.ndarray
    dx: np.ndarray
    n_half: int
    mabs: np.ndarray = dc_field(init=False)
    edges: np.ndarray = dc_field(init=False)
    march: tuple = dc_field(init=False, repr=False)

    def __post_init__(self):
        dx = Mesh(self.dx).dx
        mabs = np.abs(build_double_gauss(self.n_half).mu)
        parts = {"dx": dx, "mabs": mabs, "edges": edge_weights(dx.size)}
        for name in ("sigma_t", "removal"):
            parts[name] = np.array(getattr(self, name), dtype=float)
        for name, a in parts.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        sigma_t = self.sigma_t
        if sigma_t.ndim != 1 or sigma_t.size == 0 or (
                self.removal.shape != sigma_t.shape):
            raise ValueError("sigma_t and removal must be 1-D, nonempty and "
                             "of one length, one entry per group")
        if not np.all(np.isfinite(sigma_t) & (sigma_t > 0)):
            raise ValueError("sweep requires finite sigma_t > 0")
        # the cell solve divides by det = 6 mu^2 + 4 |mu| sd + sd^2; past
        # its overflow every psi would silently come out as 0.  Rounding
        # is monotone, so sd_max is the largest of the products sigma_t * dx.
        sd_max, mu_max = float(sigma_t.max() * dx.max()), float(mabs.max())
        if not math.isfinite(6.0 * mu_max**2 + 4.0 * mu_max * sd_max
                             + sd_max * sd_max):
            raise ValueError(f"sigma_t * dx = {sd_max:.3e} overflows the LD "
                             "cell determinant")
        object.__setattr__(self, "march", (
            sigma_t.size, mabs.size, dx.size,
            *(a.ctypes.data for a in (sigma_t, mabs, dx))))

    @functools.cached_property
    def low_order(self):
        """(grey_system, gbsv, csr, lu, unknowns).  grey_system(coeffs,
        terms) gives (kl, ku, ab, b, finite) by one compiled call: the
        stencil plus the mass blocks of the GreyCoefficients coeffs (from
        their one block [sbar_a, sbar_t, eta, Q], _mass_gather), one
        addition per centre-block support entry, in the band storage of
        LAPACK's dgbsv (gbsv), A[r, c] = ab[kl + ku + r - c, c], with
        bandwidths kl and ku read from the stencil's support (7 each, fewer
        for one cell); the right side of coeffs.Q and the closure terms; and
        whether every sbar_a, sbar_t and eta is finite.  Each group matrix
        is the stencil on its support (explicit zeros kept, so every group
        has one sparsity) with the group's constant removal / sigma_t block
        added on every cell by that same addition, read off once in CSR
        order, csr = (data (G, nnz), int32 indices, int32 indptr), which
        the residual and SuperLU's factor read.  lu is the one SuperLU
        factor of all of them (_factor), and unknowns (2, N, 2) the
        position in each group's part of its solution of the LD
        coefficients of phi (unknowns[0]) and J (unknowns[1]).  Every
        array is read-only.  scipy is imported here and in _factor.  If any
        removal is not positive, a ValueError names the group of the least
        one, before anything is built."""
        removal = self.removal
        if np.any(removal <= 0):
            g = int(np.argmin(removal))
            raise ValueError(
                f"group {g + 1} has sigma_t - sigma_s,g->g = {removal[g]:.3e};"
                " the group low-order system requires it positive")
        from scipy.linalg.lapack import dgbsv

        stencil, support = _stencil_blocks(self.dx)
        i, k, a, b = np.nonzero(support)
        rows, cols = 4 * i + a, 4 * (i + k - 1) + b
        G, N, n = self.removal.size, self.dx.size, 4 * self.dx.size
        kl, ku = int((rows - cols).max()), int((cols - rows).max())
        # flat positions in ab.T, which is (n, width) and C-ordered, so that
        # ab itself is the Fortran-ordered array dgbsv works in
        width = 2 * kl + ku + 1
        band = cols * width + kl + ku + rows - cols
        entries = stencil[support]
        stencil_band = np.zeros((n, width))
        stencil_band.reshape(-1)[band] = entries
        # the centre-block support entries: band and coefficient positions
        centre = k == 1
        mass_pos = band[centre].astype(np.int64)
        coef_index = _mass_gather(N)[i[centre], a[centre],
                                     b[centre]].astype(np.int64)
        # the closure holds them, so the addresses fetched once stay valid
        held = stencil_band, mass_pos, coef_index
        addresses = tuple(map(address, held))

        def grey_system(coeffs, terms):
            abT, rhs = np.empty((n, width)), np.empty(n)
            arrays = [checked(np.stack([coeffs.sbar_a, coeffs.sbar_t,
                                        coeffs.eta, coeffs.Q]), (4, N, 2)),
                      checked(terms, (N, 4)), abT, rhs]
            bad = kernel("slabsm_grey_system")(N, width, held[1].size,
                                               *addresses,
                                               *map(address, arrays))
            return kl, ku, abT.T, rhs, not bad

        # each group matrix on the support: the stencil, and on the
        # centre-block entries the group's removal / sigma_t block, added
        # as grey_system adds a mass; read off in CSR order
        coefs = np.zeros((G, 6 * N + 1))
        coefs[:, :2 * N:2] = self.removal[:, None]
        coefs[:, 2 * N:4 * N:2] = self.sigma_t[:, None]
        data = np.tile(entries, (G, 1))
        data[:, centre] += coefs[:, coef_index]
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows,
                                                            minlength=n))))
        csr = (data.take(order, axis=1), cols[order].astype(np.int32),
               indptr.astype(np.int32))
        lu, perm_c = _factor(*csr)
        unknowns = perm_c.reshape(N, 2, 2).swapaxes(0, 1).copy()
        for shared in (stencil_band, mass_pos, coef_index, *csr, unknowns):
            shared.setflags(write=False)
        return grey_system, dgbsv, csr, lu, unknowns


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
    system of the problem).  Each group pass is one compiled call that
    builds the right sides and one solve of the group matrices' one
    factor; each grey solve one compiled call that builds the band and the
    right side (ops.low_order) and one dgbsv call, a banded LU with
    partial pivoting; both read (phi, J) back by take.  The system keeps
    no state between calls but its counters, which record executed solves
    for the cost accounting: one parallel group pass counts as one
    low-order solve, as does one grey solve.  It fetches once the addresses
    of the per-problem arrays the library reads, and loads no library.
    """

    def __init__(self, spec: ProblemSpec, mesh: Mesh):
        self.ops = ops = problem_operators(spec, mesh)
        coupling = spec.sigma_s.copy()
        np.fill_diagonal(coupling, 0.0)
        coupling.setflags(write=False)
        self.coupling, self.Q = coupling, spec.Q
        (self._grey_system, self._gbsv, self._csr, self._lu,
         self._unknowns) = ops.low_order
        self._addresses = tuple(map(address, (coupling, self.Q, *self._csr)))
        # as unknowns: where phi and J sit in the grey solution, cell i at 4i
        self._grey_at = (4 * np.arange(ops.dx.size)[:, None]
                         + [[[0, 1]], [[2, 3]]])
        self._grey_at.setflags(write=False)
        self.n_group_passes = 0
        self.n_grey_solves = 0

    # -- multigroup level -------------------------------------------------

    def _right_sides(self, phi_groups, zeta, terms) -> np.ndarray:
        """Right sides (G, N, 4) of the group equations, one column per
        cell row: S - terms in rows 0-1 and the closure terms in rows 2-3,
        with the sources S_g = zeta * sum_{g' != g} sigma_{s,g'->g} phi_g'
        + Q_g, the zeta product at the cell-edge values.  One call of the
        compiled slabsm_group_rhs."""
        G, N = self.Q.size, self.ops.dx.size
        arrays = [checked(phi_groups, (G, N, 2)), checked(zeta, (N, 2)),
                  checked(terms, (G, N, 4)), np.empty((G, N, 4))]
        kernel("slabsm_group_rhs")(G, N, *self._addresses[:2],
                                   *map(address, arrays))
        return arrays[-1]

    def group_pass(self, phi_groups, zeta, closures):
        """One Jacobi pass of the decoupled group solvers against the
        coupling lagged at the input state (counts as one solve: the
        groups are independent and could run in parallel).  All G group
        systems are solved by one solve of their one factor, and phi and J
        are read back from its column order by copies."""
        b = self._right_sides(phi_groups, zeta, closures.terms)
        u = self._lu.solve(b.reshape(-1)).reshape(b.shape[0], -1)
        self.n_group_passes += 1
        phi_at, J_at = self._unknowns
        return u.take(phi_at, axis=1), u.take(J_at, axis=1)

    def equation_residual(self, phi_groups, J_groups, zeta, closures):
        """Residual b - A x of the multigroup low-order equations at the
        given state, the vector AA(1) mixes: flat, in (group, cell,
        coefficient, field) order with phi before J (matrix applications
        only; no solves are consumed).  One call of the compiled
        slabsm_group_residual, on the record's CSR group matrices."""
        G, N = self.Q.size, self.ops.dx.size
        arrays = [checked(phi_groups, (G, N, 2)),
                  checked(J_groups, (G, N, 2)), checked(zeta, (N, 2)),
                  checked(closures.terms, (G, N, 4)), np.empty(4 * G * N)]
        if kernel("slabsm_group_residual")(G, N, *self._addresses,
                                           *map(address, arrays)):
            raise MemoryError("no memory for the residual's work row")
        return arrays[-1]

    # -- grey level --------------------------------------------------------

    def solve_grey(self, coeffs: GreyCoefficients, closure: ClosureData):
        kl, ku, ab, b, finite = self._grey_system(coeffs, closure.terms)
        if finite:
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
        return tuple(u.take(self._grey_at))
