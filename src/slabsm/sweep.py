"""Level 1: linear-discontinuous transport sweep of the decoupled groups.

Both edges of the slab are vacuum boundaries: no particles enter, so every
march starts from psi_in = 0.  Weak form per cell and direction, with
upwind edge fluxes.  For mu > 0 (left-to-right march) the 2x2 cell system
for (psi_avg, psi_slope) is

    (mu + st*dx) a +        mu  s = dx*q_avg   + mu*psi_in
        -3 mu    a + (3mu + st*dx) s = dx*q_slope - 3*mu*psi_in

and the outflow trace a + s feeds the next cell.  A direction mu < 0 is
the same march with |mu| over the mirrored slab: cells in reverse order,
source and flux slopes negated, inflow from the right.  Each operation of
that march is an exact sign flip of the right-to-left cell solve, so every
direction of every group runs in one march of N steps, with the same
results.  The mu < 0 directions are the first half (AngularQuadrature
enforces that layout), so the mirror acts on a slice.

The march steps through a frame (N, 4, L), cell axis first, on L = G*M
lanes in (group, direction) order.  dx * rhs is formed on the source's own
(G, M', N, 2) array, M' = 1 for isotropic sources, in one multiply by the
factors [dx, -dx] of the mu < 0 half and [dx, dx] of the mu > 0 half:
x*(-dx) is -(x*dx) bit for bit, IEEE rounding being symmetric in sign, so
this is the mirror's negated slope.  Each half goes into rows 0-1
(average, slope) of the frame, the mu < 0 half in reverse cell order, and
rows 2-3 copy rows 1 and 0.  psi is read back from rows 0-1 one LD
coefficient at a time, cell axis innermost (loops of N, not of 2), and
the mu < 0 half is mirrored again, its slopes negated by a multiply by -1.

With m = |mu|, sd = st*dx and det = 6m^2 + 4m*sd + sd^2, the march solves
each cell in packed form: q = dx*[q_avg, q_slope] + [m, -3m]*psi_in, then

    [a, s] = (K q) / det,    K = [[3m + sd, -m], [3m, m + sd]].

A step makes six ufunc calls.  On the rows [ua, us, us, ua] it forms
q4 = u4 + [m, -3m, -3m, m]*psi_in = [qa, qs, qs, qa] (two calls), so
one multiply by the cell's block row [3m + sd, m + sd, -m, 3m] gives
diag(K) q in rows 0-1 and the off-diagonal products [-m qs, 3m qa] in
rows 2-3.  One add of the two row-halves gives K q into rows 0-1 of the
frame, one divide by det (repeated over both rows) gives [a, s] there,
and psi_in = a + s feeds the next cell.  Every operand but the broadcast
psi_in of the first call has its output's shape and is C-contiguous; the
block, det and the inflow weights depend on sigma_t, dx and mu only, so
they are built once per problem (ProblemOperators.march).  This rounds
exactly as the unpacked solve a = ((3m + sd) qa - m qs) / det,
s = (3m qa + (m + sd) qs) / det with qs = dx*q_slope - 3m psi_in: IEEE
defines x - y*z as x + (-y)*z, signed zeros included, 3m*x is (3m)*x, and
each two-term sum is the same single rounding (IEEE addition and
multiplication commute).

Each call passes its output positionally: out= costs keyword parsing on
every call, about 5% of a test2 march step (112 lanes) on numpy 2.4.6,
and the ufuncs are called through local names.  The block holds one row
per distinct cell (pair of widths met by the two halves), so on a
uniform mesh every step reads the same row, which stays in cache.  The
frame and the views each step reads and writes (u4, its rows 0-1, a and
s of the frame; the K and det rows of the block for the cell's widths)
are made once per problem with the block (march_coefficients), so a step
creates no view: the march loops over a tuple of per-cell steps.  The
frame is the one writable part of the march; every sweep fills all of it
before it reads it, so a sweep does not depend on the sweeps before it,
and sweeps of one march take turns on its lock.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .angular import AngularQuadrature
from .fields import nodal_product


def march_coefficients(sigma_t, dx, mu):
    """(shape, frame, steps, m_inc, dx_scale, lock) of the march on L = G*M
    lanes, shape = (G, M, N), for sigma_t (G,), cells of widths dx (N,)
    and directions mu (M,); a ValueError unless sigma_t is finite and
    positive, or where sigma_t * dx overflows the cell determinant.

    One read-only array block (R, 6, L) holds, for each of the R
    distinct cells, the entries [3m + sd, m + sd, -m, 3m] of K in rows
    0-3 and det in rows 4-5 (det twice, so that the divide reads an
    operand of its output's shape).  A cell of the march is its pair of
    widths (dx[N-1-i], dx[i]), as step i meets the mirrored slab on the
    mu < 0 half, so a uniform mesh has R = 1 and no mesh more than N;
    each row is computed as a row per cell would be, so the march rounds
    as it would on N rows.  frame (N, 4, G, M) is the march's scratch
    array, the only writable one, and lock the lock that its sweeps take
    turns on (the sharing contract is ProblemOperators').  steps is the
    tuple of the N per-cell steps (u4, u, coef_i, det_i, a, s): the
    cell's frame rows 0-3 on L lanes, its rows 0-1 and the row views a, s
    of rows 0 and 1, beside the (4, L) and (2, L) rows of its pair's row
    of the block, so the march makes no view per step.  m_inc is
    [m, -3m, -3m, m] (4, L), and dx_scale (2, 1, N, 2) holds the factors
    [dx, -dx] of the mu < 0 half and [dx, dx] of the mu > 0 half per cell
    and LD coefficient: 48*G*M*R bytes in the block (7.5 KiB for test1,
    whatever its N), 32*G*M*N in the frame (0.625 MiB), 32*(G*M + N) in
    the rest."""
    sigma_t = np.asarray(sigma_t, dtype=float)
    if not np.all(np.isfinite(sigma_t) & (sigma_t > 0)):
        raise ValueError("sweep requires finite sigma_t > 0")
    dx = np.asarray(dx, dtype=float)
    m = np.abs(np.asarray(mu, dtype=float))
    G, M, N = sigma_t.size, m.size, dx.size
    # [dx, -dx] for the mu < 0 half, whose slopes the mirror negates
    signs = np.array([[1.0, -1.0], [1.0, 1.0]])
    dx_scale = (signs[:, None, :] * dx[:, None])[:, None]
    # the mu < 0 half marches the mirrored slab, so step i meets the
    # widths (dx[N-1-i], dx[i]): one block row per distinct pair
    pairs, row_of = np.unique(np.stack([dx[::-1], dx], axis=1), axis=0,
                              return_inverse=True)
    R = pairs.shape[0]
    sd_cells = (sigma_t[None, :, None]
                * np.repeat(pairs, M // 2, axis=1)[:, None, :])
    # the cell solve divides by det = 6 mu^2 + 4 |mu| sd + sd^2; past its
    # overflow every psi would silently come out as 0
    sd_max, mu_max = float(sd_cells.max()), float(m.max())
    if not math.isfinite(6.0 * mu_max**2 + 4.0 * mu_max * sd_max
                         + sd_max * sd_max):
        raise ValueError(f"sigma_t * dx = {sd_max:.3e} overflows the LD "
                         "cell determinant")
    block = np.empty((R, 6, G * M))
    m3 = 3.0 * m
    block[:, :4] = np.stack([m3 + sd_cells, m + sd_cells,
                             np.broadcast_to(-m, sd_cells.shape),
                             np.broadcast_to(m3, sd_cells.shape)],
                            axis=1).reshape(R, 4, G * M)
    det = 6.0 * m**2 + 4.0 * m * sd_cells + sd_cells * sd_cells
    block[:, 4:] = det.reshape(R, 1, G * M)
    m_inc = np.tile(np.stack([m, -m3, -m3, m]), G)
    for a in (block, m_inc, dx_scale):
        a.setflags(write=False)
    frame = np.empty((N, 4, G, M))
    lanes = frame.reshape(N, 4, G * M)
    rows = list(zip(block[:, :4], block[:, 4:]))
    steps = tuple((u4, u, *rows[r], a, s) for u4, u, a, s, r
                  in zip(lanes, lanes[:, :2], lanes[:, 0], lanes[:, 1],
                         row_of.reshape(-1)))
    return (G, M, N), frame, steps, m_inc, dx_scale, threading.Lock()


def sweep_batch(march, rhs: np.ndarray) -> np.ndarray:
    """Sweep every group and direction of one problem, of march
    coefficients `march` (march_coefficients), in one pass between vacuum
    boundaries, (G, M, N, 2).  rhs is the source density per unit mu,
    either (G, N, 2) shared across directions or (G, M, N, 2) per
    direction.  Holds the march's lock while it fills and reads its frame
    (ProblemOperators); the psi returned is a new array."""
    (G, M, N), frame, steps, m_inc, dx_scale, lock = march
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape == (G, N, 2):
        rhs = rhs[:, None]
    elif rhs.shape != (G, M, N, 2):
        raise ValueError(f"rhs shape {rhs.shape} invalid")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs must be finite")
    h = M // 2
    # src[:, 0] is the mu < 0 half, src[:, 1] the mu > 0 half, each k wide
    # (1 for an isotropic source, whose one column serves both halves)
    k = (rhs.shape[1] + 1) // 2
    src = rhs.reshape(G, -1, k, N, 2) * dx_scale
    with lock:
        frame[:, :2, :, :h] = src[:, 0, :, ::-1].transpose(2, 3, 0, 1)
        frame[:, :2, :, h:] = src[:, 1].transpose(2, 3, 0, 1)
        frame[:, 2] = frame[:, 1]
        frame[:, 3] = frame[:, 0]

        inc = np.zeros(G * M)
        q4 = np.empty((4, G * M))
        diag_q, off_q = q4[:2], q4[2:]
        multiply, add, divide = np.multiply, np.add, np.divide
        for u4, u, coef_i, det_i, a, s in steps:
            multiply(m_inc, inc, q4)
            add(u4, q4, q4)
            multiply(coef_i, q4, q4)
            add(diag_q, off_q, u)
            divide(u, det_i, u)
            add(a, s, inc)
        psi = np.empty((G, M, N, 2))
        for c in (0, 1):
            psi[:, h:, :, c] = frame[:, c, :, h:].transpose(1, 2, 0)
        psi[:, :h, :, 0] = frame[::-1, 0, :, :h].transpose(1, 2, 0)
        # negated by a multiply, not np.negative: on numpy 2.4.6 np.negative
        # writes wrong values into a strided out= from some reversed,
        # transposed views with a size-1 axis, the kind read here
        np.multiply(frame[::-1, 1, :, :h].transpose(1, 2, 0), -1.0,
                    out=psi[:, :h, :, 1])
    return psi


def build_ho_rhs(grey_phi: np.ndarray, sbar_s: np.ndarray,
                 Q: np.ndarray) -> np.ndarray:
    """Isotropic sweep sources 0.5*(sbar_s,g * grey_phi) + 0.5*Q_g, (G, N, 2)
    from the averaged cross sections sbar_s (G, N, 2) and sources Q (G,).

    The product of the two LD fields is collocated at the cell-edge values,
    which keeps the averaged-cross-section identity exact at convergence.
    """
    if grey_phi.shape != sbar_s.shape[1:]:
        raise ValueError("grey flux and averaged cross section meshes differ")
    rhs = 0.5 * nodal_product(sbar_s, grey_phi)
    rhs[:, :, 0] += 0.5 * Q[:, None]
    return rhs


def upwind_edge_psi(psi: np.ndarray, quad: AngularQuadrature) -> np.ndarray:
    """Upwind angular flux on the N+1 cell edges, (..., M, N+1), of a
    vacuum-bounded sweep output (..., M, N, 2).

    Edge values for mu > 0, the second half of the directions, come from
    the left cell's right trace (zero at edge 0); mirrored for mu < 0.
    """
    N = psi.shape[-2]
    h = quad.n_angles // 2
    out = np.zeros(psi.shape[:-2] + (N + 1,))
    out[..., h:, 1:] = psi[..., h:, :, 0] + psi[..., h:, :, 1]
    out[..., :h, :N] = psi[..., :h, :, 0] - psi[..., :h, :, 1]
    return out
