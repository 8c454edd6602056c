"""The exact discrete solution of a problem, as a test oracle.

The discrete problem is linear: phi = T phi + c, where T is one
source-iteration outer without the external source (the scattering
source, the LD sweep and the scalar-flux moment) and c is that outer from
phi = 0 with the source.  So (I - T) phi = c is solved here to rounding by
GMRES, whose only operator is the sweep, plus two steps of iterative
refinement: Krylov-accelerated source iteration used as a reference
solver (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), not as a
method of the package.  It judges an answer, not the path to it: a
converged multilevel run must land on it, whatever order its arithmetic
takes.
"""

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from slabsm.angular import angular_moments, build_double_gauss
from slabsm.fields import Mesh
from slabsm.losm import problem_operators
from slabsm.sweep import sweep_batch

RESTART = 200
RTOL = 1e-14
REFINEMENTS = 2

_CACHE = {}


def si_outer(spec):
    """One source-iteration outer of the problem on flat group fluxes
    (G * N * 2,): outer(phi, source) = T phi, plus c when `source`."""
    quad = build_double_gauss(spec.n_half)
    ops = problem_operators(spec, Mesh.uniform(spec.width, spec.n_cells))
    shape = (spec.G, spec.n_cells, 2)

    def outer(phi, source):
        scatter = np.einsum("gh,hnc->gnc", spec.sigma_s, phi.reshape(shape))
        if source:
            scatter[:, :, 0] += spec.Q[:, None]
        psi = sweep_batch(ops, 0.5 * scatter)
        return angular_moments(psi, quad).phi.reshape(-1)

    return outer


def _key(spec):
    return (spec.G, spec.sigma_t.tobytes(), spec.sigma_s.tobytes(),
            spec.Q.tobytes(), float(spec.width), spec.n_cells, spec.n_half)


def oracle_flux(spec):
    """The group scalar fluxes (G, N, 2) that solve phi = T phi + c,
    cached per problem for the life of the process (read-only)."""
    key = _key(spec)
    if key not in _CACHE:
        outer = si_outer(spec)
        n = spec.G * spec.n_cells * 2
        op = LinearOperator((n, n), dtype=float,
                            matvec=lambda v: v - outer(v, False))
        c = outer(np.zeros(n), True)
        phi, _info = gmres(op, c, rtol=RTOL, atol=0.0, restart=RESTART)
        for _ in range(REFINEMENTS):
            # the correction of the true residual left, in at most one
            # restart cycle: RTOL of a residual already near rounding can
            # lie below what the sweep resolves, where GMRES would
            # stagnate until its maxiter
            d, _info = gmres(op, c - op.matvec(phi), rtol=RTOL, atol=0.0,
                             restart=RESTART, maxiter=1)
            phi = phi + d
        phi = phi.reshape(spec.G, spec.n_cells, 2)
        phi.setflags(write=False)
        _CACHE[key] = phi
    return _CACHE[key]


def fixed_point_residual(spec, phi):
    """max |phi - (T phi + c)| / max |phi| of group fluxes (G, N, 2)."""
    step = si_outer(spec)(phi.reshape(-1), True)
    return float(np.max(np.abs(phi.reshape(-1) - step))
                 / np.max(np.abs(phi)))
