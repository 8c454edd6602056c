import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse.linalg

from slabsm.angular import angular_moments, build_double_gauss
from slabsm.fields import Mesh
from scipy.sparse import block_diag, csc_matrix, csr_matrix, identity
from scipy.sparse import random as sparse_random
from scipy.sparse.linalg import splu

from slabsm import losm, sweep
from slabsm.driver import IterationConfig, run_problem
from slabsm.losm import (ClosureData, GreyCoefficients, LowOrderSystem,
                         ProblemOperators, _stencil_blocks,
                         avg_scattering_xs, closure_from_sweep, compute_zeta,
                         grey_xs, problem_operators, sum_closures)
from slabsm.problem import ProblemSpec, builtin_problem
from slabsm.sweep import build_ho_rhs, sweep_batch
from ld_fields import const_field, from_nodes, to_nodes


def lo_rhs(S, terms):
    """Right sides (..., 4N) of the low-order equations: the sources S
    (..., N, 2) minus the closure terms (ClosureData.terms) in rows 0-1 and
    the terms in rows 2-3, the formula the compiled right sides follow."""
    b = np.empty(S.shape[:-1] + (4,))
    b[..., 2:] = terms[..., 2:]
    np.subtract(S, terms[..., :2], out=b[..., :2])
    return b.reshape(S.shape[:-2] + (-1,))


def group_source(system, phi, zeta):
    """The group sources S_g = zeta * sum_{g' != g} sigma_{s,g'->g} phi_g'
    + Q_g, the zeta product at the cell-edge values, that the compiled
    right sides of the system's group passes hold."""
    coupling = np.einsum("gh,hnc->gnc", system.coupling, phi)
    S = from_nodes(to_nodes(coupling) * to_nodes(zeta))
    Q = np.zeros(S.shape)
    Q[:, :, 0] = system.Q[:, None]
    return S + Q


def residual_matrix(system):
    """The block diagonal of the system's CSR group matrices as a scipy
    CSR matrix, whose product the compiled residual reproduces."""
    data, indices, indptr = system._csr
    n = indptr.size - 1
    return block_diag([csr_matrix((d, indices, indptr), shape=(n, n))
                       for d in data], format="csr")


def _pass_residual(system, phi, J, zeta, closures):
    """Fixed-point residual A(x) - x of one group pass, flattened in
    (group, cell, coefficient, field) order."""
    phi_new, J_new = system.group_pass(phi, zeta, closures)
    return np.stack([phi_new - phi, J_new - J], -1).ravel()


def _removal(spec):
    """sigma_t - sigma_s,g->g, (G,)."""
    return spec.sigma_t - np.diag(spec.sigma_s)


def group_particle_balance(spec, mesh, phi, S, closures):
    """(leakage + removal, source), each (G,), of converged group solves
    (G, N, 2), from the telescoped zeroth-moment rows."""
    dx = mesh.dx
    phi_n = to_nodes(phi)
    J_left = -0.5 * phi_n[:, 0, 0] + closures.dJ[:, 0]
    J_right = 0.5 * phi_n[:, -1, 1] + closures.dJ[:, -1]
    removal = np.sum(_removal(spec)[:, None] * phi[..., 0] * dx, axis=-1)
    source = np.sum(S[..., 0] * dx, axis=-1)
    return J_right - J_left + removal, source


def _zero_closure(mesh, *groups):
    """Zero closure data on the mesh, with a leading group axis of length
    `groups` when given (group systems) and none for the grey system."""
    edges = np.zeros(groups + (mesh.n_cells + 1,))
    return ClosureData(dJ=edges, dphi=edges, Phat=edges,
                       P=np.zeros(groups + (mesh.n_cells, 2)), dx=mesh.dx)


def _group_closure(closures, g):
    """Closure data of groups `g`: an index drops the group axis, a slice
    keeps it."""
    return ClosureData(dJ=closures.dJ[g], dphi=closures.dphi[g],
                       Phat=closures.Phat[g], P=closures.P[g],
                       dx=closures.dx)


def _sweep_and_close(spec, rhs, mesh, quad):
    ops = problem_operators(spec, mesh)
    psi = sweep_batch(ops, rhs)
    mom = angular_moments(psi, quad)
    return psi, mom, closure_from_sweep(psi, quad, mom, ops)


# -- averaged cross sections and zeta ----------------------------------------

def test_avg_scattering_equal_fluxes():
    spec = builtin_problem("test2")
    phi = np.ones((spec.G, 4, 2)) * np.array([1.0, 0.0])
    sbar = avg_scattering_xs(phi, spec.sigma_s)
    expected = spec.sigma_s.mean(axis=1)
    assert np.allclose(sbar[:, :, 0], expected[:, None], atol=1e-13)
    assert np.allclose(sbar[:, :, 1], 0.0, atol=1e-15)


def test_avg_scattering_single_group():
    sigma_s = np.array([[0.37]])
    phi = np.random.RandomState(0).rand(1, 5, 2) + 1.0
    sbar = avg_scattering_xs(phi, sigma_s)
    assert np.allclose(sbar[0, :, 0], 0.37, atol=1e-13)


def test_avg_scattering_single_source_group():
    spec = builtin_problem("test1")
    phi = np.zeros((spec.G, 3, 2))
    phi[0, :, 0] = 1.0
    sbar = avg_scattering_xs(phi, spec.sigma_s)
    assert sbar[1, 0, 0] == pytest.approx(0.401686, abs=1e-6)


def test_avg_scattering_safeguard():
    sigma_s = np.array([[0.2, 0.6], [0.1, 0.3]])
    phi = np.zeros((2, 2, 2))
    sbar = avg_scattering_xs(phi, sigma_s)
    assert np.allclose(sbar[0, :, 0], 0.4)   # unweighted row mean
    assert np.allclose(sbar[1, :, 0], 0.2)


@pytest.mark.parametrize("G", [3, 200])
def test_scattering_fallback_outlives_the_call(monkeypatch, G):
    # the row means that the zero-flux nodes fall back to must stay alive
    # through the C call: here the library is entered only after arrays
    # of their size are filled with garbage, which would take a freed
    # buffer of theirs (numpy's cache below 1 KiB, malloc above)
    sigma_s = np.random.RandomState(G).rand(G, G)
    phi = np.ones((G, 3, 2))
    phi[:, 1] = 0.0
    library = losm.kernel

    def kernel(name):
        def call(*args):
            garbage = [np.full(G, 1e300) for _ in range(16)]
            library(name)(*args)
            return garbage
        return call

    monkeypatch.setattr(losm, "kernel", kernel)
    sbar = avg_scattering_xs(phi, sigma_s)
    assert np.array_equal(sbar[:, 1, 0], sigma_s.mean(axis=1))
    assert np.array_equal(sbar[:, 1, 1], np.zeros(G))


def test_zeta_trivials():
    n = 5
    grey = const_field(2.0, n)
    phi = np.zeros((2, n, 2))
    phi[:, :, 0] = 2.0
    zeta = compute_zeta(grey, phi)
    assert np.allclose(zeta[:, 0], 0.5, atol=1e-14)

    # consistency: grey equals the group sum -> zeta = 1
    zeta1 = compute_zeta(phi.sum(axis=0), phi)
    assert np.allclose(zeta1[:, 0], 1.0, atol=1e-14)
    assert np.allclose(zeta1[:, 1], 0.0, atol=1e-14)

    # safeguarded fallback
    zeta_sg = compute_zeta(grey, np.zeros((2, n, 2)))
    assert np.allclose(to_nodes(zeta_sg), 1.0)


# -- grey coefficients ---------------------------------------------------------

def test_grey_xs_trivials():
    spec = ProblemSpec(2, [1.0, 1.0], [[0.3, 0.0], [0.0, 0.3]], [1.0, 0.0],
                       width=1.0, n_cells=3, n_half=2)
    rng = np.random.RandomState(5)
    phi = rng.rand(2, 3, 2) + 1.0
    J = rng.randn(2, 3, 2) * 0.1
    coeffs = grey_xs(phi, J, spec)
    # equal sigma_t: sbar_t = sigma and eta = 0
    assert np.allclose(to_nodes(coeffs.sbar_t), 1.0, atol=1e-13)
    assert np.allclose(coeffs.eta, 0.0, atol=1e-13)
    assert np.allclose(coeffs.Q[:, 0], 1.0)


def test_grey_coefficients_are_frozen():
    coeffs = grey_xs(np.ones((1, 2, 2)), np.zeros((1, 2, 2)),
                     ProblemSpec(1, [2.0], [[1.0]], [1.0], width=1.0,
                                 n_cells=2, n_half=1))
    for name in ("sbar_a", "sbar_t", "eta", "Q"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(coeffs, name, np.zeros((2, 2)))


def test_grey_xs_arithmetic_example():
    # G=2, phi=(1,3), sigma_a=(0.1,0.5) -> sbar_a = (0.1+1.5)/4 = 0.4
    spec = ProblemSpec(2, [1.0, 1.0], [[0.9, 0.0], [0.0, 0.5]], [1.0, 1.0],
                       width=1.0, n_cells=2, n_half=1)
    phi = np.zeros((2, 2, 2))
    phi[0, :, 0] = 1.0
    phi[1, :, 0] = 3.0
    J = np.zeros((2, 2, 2))
    coeffs = grey_xs(phi, J, spec)
    assert np.allclose(coeffs.sbar_a[:, 0], 0.4, atol=1e-14)


def test_grey_xs_single_group():
    spec = ProblemSpec(1, [2.0], [[1.0]], [1.0], width=1.0, n_cells=2,
                       n_half=1)
    phi = np.ones((1, 2, 2)) * np.array([1.0, 0.1])
    J = np.ones((1, 2, 2)) * np.array([0.2, 0.01])
    coeffs = grey_xs(phi, J, spec)
    assert np.allclose(to_nodes(coeffs.sbar_a), 1.0, atol=1e-14)
    assert np.allclose(to_nodes(coeffs.sbar_t), 2.0, atol=1e-14)
    assert np.allclose(coeffs.eta, 0.0, atol=1e-14)


def test_grey_xs_convex_hull_and_eta_identity():
    spec = builtin_problem("test2")
    rng = np.random.RandomState(9)
    phi = rng.rand(spec.G, 6, 2) * np.array([1.0, 0.2]) + \
        np.array([1.0, 0.0])
    J = rng.rand(spec.G, 6, 2) * np.array([0.5, 0.05]) + \
        np.array([0.1, 0.0])     # all positive currents
    coeffs = grey_xs(phi, J, spec)
    sa = spec.sigma_a()
    a_nodes = to_nodes(coeffs.sbar_a)
    t_nodes = to_nodes(coeffs.sbar_t)
    assert np.all(a_nodes >= sa.min() - 1e-12)
    assert np.all(a_nodes <= sa.max() + 1e-12)
    assert np.all(t_nodes >= spec.sigma_t.min() - 1e-12)
    assert np.all(t_nodes <= spec.sigma_t.max() + 1e-12)
    # same-sign currents make the drift term vanish identically
    assert np.allclose(to_nodes(coeffs.eta), 0.0, atol=1e-13)
    # defining identity of sbar_t
    resid = np.einsum("g,gne->ne", spec.sigma_t, np.abs(to_nodes(J))) \
        - t_nodes * np.abs(to_nodes(J)).sum(axis=0)
    assert np.allclose(resid, 0.0, atol=1e-12)


# -- consistency: the central contract ----------------------------------------

def test_group_losm_matches_transport_moments_pure_absorber():
    spec = ProblemSpec(1, [1.0], [[0.0]], [1.0], width=8.0, n_cells=16,
                       n_half=4)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    quad = build_double_gauss(spec.n_half)
    rhs = const_field(0.5 * spec.Q[0], spec.n_cells)[None]
    psi, mom, clo = _sweep_and_close(spec, rhs, mesh, quad)

    system = LowOrderSystem(spec, mesh)
    zeta = const_field(1.0, spec.n_cells)
    phi_lag = np.zeros((1, spec.n_cells, 2))
    phi_lo, J_lo = system.group_pass(phi_lag, zeta, clo)
    assert np.allclose(phi_lo, mom.phi, atol=1e-12)
    assert np.allclose(J_lo, mom.J, atol=1e-12)


def test_grey_losm_matches_transport_moments_pure_absorber():
    spec = ProblemSpec(1, [1.5], [[0.0]], [2.0], width=6.0, n_cells=12,
                       n_half=4)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    quad = build_double_gauss(spec.n_half)
    rhs = const_field(0.5 * spec.Q[0], spec.n_cells)[None]
    psi, mom, clo = _sweep_and_close(spec, rhs, mesh, quad)

    system = LowOrderSystem(spec, mesh)
    coeffs = grey_xs(mom.phi, mom.J, spec)
    phi_lo, J_lo = system.solve_grey(coeffs, sum_closures(clo))
    assert np.allclose(phi_lo, mom.phi[0], atol=1e-12)
    assert np.allclose(J_lo, mom.J[0], atol=1e-12)


def test_losm_solution_is_exact_balance():
    # particle balance of any group solve holds to solver precision
    spec = ProblemSpec(1, [1.0], [[0.4]], [1.0], width=10.0, n_cells=20,
                       n_half=4)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    system = LowOrderSystem(spec, mesh)
    clo = _zero_closure(mesh, 1)
    zeta = const_field(1.0, spec.n_cells)
    phi_lag = np.zeros((1, spec.n_cells, 2))
    phi, _ = system.group_pass(phi_lag, zeta, clo)
    S = group_source(system, phi_lag, zeta)
    lhs, src = group_particle_balance(spec, mesh, phi, S, clo)
    assert np.all(np.abs(lhs - src) / np.abs(src) < 1e-10)


def test_group_losm_diffusion_limit():
    # thick slab with self-scattering: interior phi -> Q / (sigma_t - sigma_s)
    spec = ProblemSpec(1, [1.0], [[0.5]], [1.0], width=40.0, n_cells=200,
                       n_half=4)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    system = LowOrderSystem(spec, mesh)
    clo = _zero_closure(mesh, 1)
    zeta = const_field(1.0, spec.n_cells)
    phi_lag = np.zeros((1, spec.n_cells, 2))
    phi, J = system.group_pass(phi_lag, zeta, clo)
    assert phi[0, 100, 0] == pytest.approx(2.0, rel=1e-2)


def test_grey_losm_diffusion_limit():
    spec = ProblemSpec(1, [1.0], [[0.0]], [1.0], width=40.0, n_cells=200,
                       n_half=4)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    system = LowOrderSystem(spec, mesh)
    n = spec.n_cells
    coeffs = grey_xs(np.ones((1, n, 2)) * np.array([1.0, 0.0]),
                     np.zeros((1, n, 2)), spec)
    # pure absorber: sbar_a = sigma_t = 1, Q = 1 -> interior phi = 1
    phi, J = system.solve_grey(coeffs, _zero_closure(mesh))
    assert phi[100, 0] == pytest.approx(1.0, rel=1e-2)


def test_grey_zero_source_zero_solution():
    spec = ProblemSpec(1, [1.0], [[0.0]], [0.0], width=4.0, n_cells=8,
                       n_half=2)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    system = LowOrderSystem(spec, mesh)
    n = spec.n_cells
    phi_w = np.ones((1, n, 2)) * np.array([1.0, 0.0])
    coeffs = grey_xs(phi_w, np.zeros((1, n, 2)), spec)
    phi, J = system.solve_grey(coeffs, _zero_closure(mesh))
    assert np.allclose(phi, 0.0, atol=1e-13)
    assert np.allclose(J, 0.0, atol=1e-13)


def test_group_zero_inputs_zero_solution():
    spec = ProblemSpec(2, [1.0, 1.0], [[0.2, 0.1], [0.1, 0.2]], [0.0, 0.0],
                       width=4.0, n_cells=8, n_half=2)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    system = LowOrderSystem(spec, mesh)
    zeta = const_field(1.0, 8)
    phi_lag = np.zeros((2, 8, 2))
    phi, J = system.group_pass(phi_lag, zeta, _zero_closure(mesh, 2))
    assert np.allclose(phi, 0.0, atol=1e-14)
    assert np.allclose(J, 0.0, atol=1e-14)


def test_removal_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        spec = ProblemSpec(1, [1.0], [[1.0]], [1.0], width=1.0, n_cells=2,
                           n_half=1)
        LowOrderSystem(spec, Mesh.uniform(1.0, 2))


@pytest.mark.parametrize("removal, shown", [([1.0, -0.5], "-5.000e-01"),
                                             ([1.0, 0.0], "0.000e+00")])
def test_record_rejects_nonpositive_removal(removal, shown):
    # the record checks its removal before it builds any low-order
    # operator, however it is made, and raises again on the next access
    ops = ProblemOperators([1.0, 2.0], removal, np.full(4, 0.25), 2)
    message = (f"group 2 has sigma_t - sigma_s,g->g = {shown}; the group "
               "low-order system requires it positive")
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(message)):
            ops.low_order
    assert "low_order" not in vars(ops)


# -- the per-cell equations on a nonuniform mesh --------------------------------

def _edge_hats(phi, J, clo):
    """Hatted edge current and scalar flux (N+1,): the reconstructions of
    closure_from_sweep from the one-sided traces plus the frozen
    constants, with J = -/+ phi/2 of the trace at the vacuum edges."""
    phi_n, J_n = to_nodes(phi), to_nodes(J)
    lphi, lJ = phi_n[:-1, 1], J_n[:-1, 1]
    rphi, rJ = phi_n[1:, 0], J_n[1:, 0]
    J_hat = np.concatenate(([-0.5 * phi_n[0, 0]],
                            0.25 * lphi + 0.5 * lJ - 0.25 * rphi + 0.5 * rJ,
                            [0.5 * phi_n[-1, 1]]))
    phi_hat = np.concatenate(([0.5 * phi_n[0, 0] - 0.75 * J_n[0, 0]],
                              0.5 * lphi + 0.75 * lJ + 0.5 * rphi
                              - 0.75 * rJ,
                              [0.5 * phi_n[-1, 1] + 0.75 * J_n[-1, 1]]))
    return J_hat + clo.dJ, phi_hat + clo.dphi


def _ld_product(c, u):
    """(c u)_a, (c u)_s of two LD fields (n_cells, 2)."""
    return (c[:, 0] * u[:, 0] + c[:, 1] * u[:, 1],
            c[:, 1] * u[:, 0] + c[:, 0] * u[:, 1])


def _cell_equations(dx, phi, J, clo, S, P, removal, sigma_t, drift):
    """The module docstring's four equations per cell as residuals (4, N),
    with every term's magnitude for scaling."""
    J_hat, phi_hat = _edge_hats(phi, J, clo)
    Ph = clo.Phat
    terms = (
        ((J_hat[1:] - J_hat[:-1]) / dx, _ld_product(removal, phi)[0],
         -S[:, 0]),
        ((3 * J_hat[1:] + 3 * J_hat[:-1] - 6 * J[:, 0]) / dx,
         _ld_product(removal, phi)[1], -S[:, 1]),
        ((phi_hat[1:] - phi_hat[:-1]) / (3 * dx), _ld_product(sigma_t, J)[0],
         _ld_product(drift, phi)[0], -(Ph[1:] - Ph[:-1]) / dx),
        ((phi_hat[1:] + phi_hat[:-1] - 2 * phi[:, 0]) / dx,
         _ld_product(sigma_t, J)[1], _ld_product(drift, phi)[1],
         -(3 * Ph[1:] + 3 * Ph[:-1] - 6 * P[:, 0]) / dx),
    )
    resid = np.array([sum(row) for row in terms])
    scale = max(np.abs(t).max() for row in terms for t in row)
    return resid, scale


def _random_closure(rng, mesh, *groups):
    n = mesh.n_cells
    return ClosureData(dJ=rng.randn(*groups, n + 1),
                       dphi=rng.randn(*groups, n + 1),
                       Phat=rng.randn(*groups, n + 1),
                       P=rng.randn(*groups, n, 2), dx=mesh.dx)


@pytest.mark.parametrize("dx", [[0.3], [0.2, 0.45],
                                [0.1, 0.3, 0.05, 0.4, 0.2, 0.25, 0.4]])
def test_solves_satisfy_cell_equations_nonuniform_mesh(dx):
    dx = np.array(dx)
    n = dx.size
    mesh = Mesh(dx)
    spec = ProblemSpec(2, [1.0, 2.5], [[0.3, 0.2], [0.4, 1.1]], [1.0, 0.5],
                       width=dx.sum(), n_cells=n, n_half=2)
    system = LowOrderSystem(spec, mesh)
    rng = np.random.RandomState(n)
    zero = np.zeros((n, 2))

    closures = _random_closure(rng, mesh, spec.G)
    phi_lag = rng.rand(spec.G, n, 2)
    zeta = rng.rand(n, 2) + 0.5
    S = group_source(system, phi_lag, zeta)
    phi, J = system.group_pass(phi_lag, zeta, closures)
    for g in range(spec.G):
        clo = _group_closure(closures, g)
        resid, scale = _cell_equations(
            dx, phi[g], J[g], clo, S[g], clo.P,
            const_field(_removal(spec)[g], n),
            const_field(spec.sigma_t[g], n), zero)
        assert np.abs(resid).max() <= 1e-12 * scale

    clo = _random_closure(rng, mesh)
    coeffs = GreyCoefficients(sbar_a=rng.rand(n, 2) * [1.0, 0.2] + [0.5, 0],
                              sbar_t=rng.rand(n, 2) * [1.0, 0.2] + [1.0, 0],
                              eta=rng.randn(n, 2) * 0.3, Q=rng.rand(n, 2))
    assert np.all(coeffs.eta != 0.0)
    phi, J = system.solve_grey(coeffs, clo)
    resid, scale = _cell_equations(dx, phi, J, clo, coeffs.Q, clo.P,
                                   coeffs.sbar_a, coeffs.sbar_t, coeffs.eta)
    assert np.abs(resid).max() <= 1e-12 * scale


# -- fixed-point residual ------------------------------------------------------

def _test1_inner_setup(n_cells=32):
    base = builtin_problem("test1")
    spec = ProblemSpec(base.G, base.sigma_t, base.sigma_s, base.Q,
                       width=base.width, n_cells=n_cells, n_half=4)
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    quad = build_double_gauss(spec.n_half)
    system = LowOrderSystem(spec, mesh)
    # freeze transport data from a sweep of the flat-guess source
    rhs = 0.5 * spec.Q[:, None, None] * const_field(1.0, spec.n_cells)
    _, mom, closures = _sweep_and_close(spec, rhs, mesh, quad)
    return spec, system, closures, mom.phi


def test_losm_residual_zero_at_fixed_point():
    spec, system, closures, phi0 = _test1_inner_setup()
    zeta = const_field(1.0, spec.n_cells)
    phi = phi0.copy()
    # converge the inner fixed point by plain iteration (rate ~ 0.96, the
    # slow mode the grey level exists to remove)
    for _ in range(900):
        phi, J = system.group_pass(phi, zeta, closures)
    r = _pass_residual(system, phi, J, zeta, closures)
    scale = np.abs(np.stack([phi, J], -1).ravel()).max()
    assert np.abs(r).max() / scale < 1e-12


def test_losm_residual_contracts():
    spec, system, closures, phi0 = _test1_inner_setup()
    zeta = const_field(1.0, spec.n_cells)
    phi = phi0.copy()
    J = np.zeros_like(phi)
    norms = []
    for _ in range(12):
        r = _pass_residual(system, phi, J, zeta, closures)
        norms.append(np.linalg.norm(r))
        phi, J = system.group_pass(phi, zeta, closures)
    ratios = np.array(norms[1:]) / np.array(norms[:-1])
    assert np.all(ratios[3:] < 1.0)


def test_losm_residual_operator_identity():
    # with lagged coupling, r at A's own output equals A(A(x)) - A(x)
    spec, system, closures, phi0 = _test1_inner_setup()
    zeta = const_field(1.0, spec.n_cells)
    phi1, J1 = system.group_pass(phi0, zeta, closures)
    phi2, J2 = system.group_pass(phi1, zeta, closures)
    r = _pass_residual(system, phi1, J1, zeta, closures)
    assert np.allclose(r, np.stack([phi2 - phi1, J2 - J1], -1).ravel(),
                       atol=1e-13)


def test_sum_closures_is_linear():
    spec, system, closures, _ = _test1_inner_setup()
    total = sum_closures(closures)
    assert np.allclose(total.dJ, sum(closures.dJ), atol=1e-15)
    assert np.allclose(total.P, sum(closures.P), atol=1e-15)


# -- the stencil against the literal reconstruction weights -----------------------

def _literal_stencil_blocks(dx):
    """The derivative stencil with the edge reconstruction weights on the
    unknowns (phi_a, phi_s, J_a, J_s) written out as literals."""
    N = dx.size
    w_J = np.zeros((N + 1, 2, 4))
    w_J[1:, 0] = 0.25, 0.25, 0.5, 0.5
    w_J[:-1, 1] = -0.25, 0.25, 0.5, -0.5
    w_J[0, 1] = -0.5, 0.5, 0.0, 0.0
    w_J[N, 0] = 0.5, 0.5, 0.0, 0.0
    w_phi = np.zeros((N + 1, 2, 4))
    w_phi[1:, 0] = 0.5, 0.5, 0.75, 0.75
    w_phi[:-1, 1] = 0.5, -0.5, -0.75, 0.75
    w = np.stack([w_J, w_J, w_phi, w_phi], axis=2)
    h = np.stack([dx, dx, 3.0 * dx, dx], axis=-1)[:, None, :, None]
    left = np.array([-1.0, 3.0, -1.0, 1.0])[:, None] * w[:-1] / h
    right = np.array([1.0, 3.0, 1.0, 1.0])[:, None] * w[1:] / h

    def couple(lo, hi):
        return np.stack([lo[:, 0], hi[:, 0] + lo[:, 1], hi[:, 1]], axis=1)

    blocks = couple(left, right)
    support = couple(w[:-1] != 0, w[1:] != 0)
    blocks[:, 1, 1, 2] -= 6.0 / dx
    blocks[:, 1, 3, 0] -= 2.0 / dx
    support[:, 1, 1, 2] = support[:, 1, 3, 0] = True
    return blocks, support


@pytest.mark.parametrize("dx", [[0.3], [0.2, 0.45],
                                [0.1, 0.3, 0.05, 0.4, 0.2, 0.25, 0.4],
                                [0.25] * 128])
def test_stencil_reads_the_closure_edge_table(dx):
    # the stencil derived from losm.edge_weights equals the one built
    # from the literal weights, on the one-cell mesh (both edges are
    # boundary rows) too
    dx = np.array(dx)
    blocks, support = _stencil_blocks(dx)
    ref_blocks, ref_support = _literal_stencil_blocks(dx)
    assert np.array_equal(support, ref_support)
    assert np.array_equal(blocks, ref_blocks)
    # off the support only zeros, so the gathered CSC data are the same
    assert not np.any(blocks[~support])


# -- the group axis ---------------------------------------------------------------

@pytest.mark.parametrize("n_half", [1, 3])
@pytest.mark.parametrize("dx", [[0.3], [0.2, 0.45],
                                [0.1, 0.3, 0.05, 0.4, 0.2, 0.25, 0.4]])
@pytest.mark.parametrize("G", [1, 3])
def test_group_axis_matches_per_group_slices(G, dx, n_half):
    # every layer from the sweep output to the group solve treats the
    # leading axis as independent groups: bitwise what each group alone
    # gives.  The groups are decoupled (diagonal sigma_s), so one G-group
    # pass equals G single-group passes.
    dx = np.array(dx)
    n = dx.size
    mesh = Mesh(dx)
    quad = build_double_gauss(n_half)
    rng = np.random.RandomState(10 * G + n)
    sigma_t = rng.rand(G) + 0.5
    sigma_s = np.diag(0.8 * sigma_t * rng.rand(G))
    Q = rng.rand(G)
    spec = ProblemSpec(G, sigma_t, sigma_s, Q, width=dx.sum(), n_cells=n,
                       n_half=n_half)
    grey = rng.rand(n, 2)
    sbar = rng.rand(G, n, 2)
    rhs = build_ho_rhs(grey, sbar, Q)
    system = LowOrderSystem(spec, mesh)
    psi = sweep_batch(system.ops, rhs)
    mom = angular_moments(psi, quad)
    closures = closure_from_sweep(psi, quad, mom, system.ops)
    zeta = rng.rand(n, 2) + 0.5
    phi, J = system.group_pass(mom.phi, zeta, closures)
    r = system.equation_residual(phi, J, zeta, closures).reshape(G, -1)

    for g in range(G):
        one = slice(g, g + 1)
        assert np.array_equal(rhs[one],
                              build_ho_rhs(grey, sbar[one], Q[one]))
        for batched, alone in zip(mom, angular_moments(psi[g], quad)):
            assert np.array_equal(batched[g], alone)
        alone = closure_from_sweep(psi[g], quad,
                                   angular_moments(psi[g], quad), system.ops)
        for field in ("dJ", "dphi", "Phat", "P", "terms"):
            assert np.array_equal(getattr(closures, field)[g],
                                  getattr(alone, field))
        spec_g = ProblemSpec(1, sigma_t[one], sigma_s[one, one], Q[one],
                             width=dx.sum(), n_cells=n, n_half=n_half)
        system_g = LowOrderSystem(spec_g, mesh)
        clo_g = _group_closure(closures, one)
        phi_g, J_g = system_g.group_pass(mom.phi[one], zeta, clo_g)
        assert np.array_equal(phi[one], phi_g)
        assert np.array_equal(J[one], J_g)
        r_g = system_g.equation_residual(phi[one], J[one], zeta, clo_g)
        assert np.array_equal(r[g], r_g)


def test_group_operators_factored_once_per_problem():
    mesh = Mesh.uniform(4.0, 8)

    def system(sigma_t=(1.0, 2.0), self_scatter=0.3, down_scatter=0.2):
        spec = ProblemSpec(2, sigma_t,
                           [[self_scatter, 0.1], [down_scatter, 0.5]],
                           [1.0, 1.0], width=4.0, n_cells=8, n_half=2)
        return LowOrderSystem(spec, mesh)

    a, b = system(), system()
    # one record, whose low-order operators are built once
    assert a.ops is b.ops and a.ops.low_order is b.ops.low_order
    assert a._lu is b._lu and a._csr is b._csr
    assert a._unknowns is b._unknowns
    # the group matrices hold removal and sigma_t, not the coupling
    assert system(down_scatter=0.25).ops is a.ops
    for other in (system(sigma_t=(1.0, 2.5)), system(self_scatter=0.4)):
        assert other.ops is not a.ops and other._lu is not a._lu
        assert not np.array_equal(other._csr[0], a._csr[0])
    # the solve counters stay per system
    phi = np.ones((2, 8, 2))
    a.group_pass(phi, const_field(1.0, 8), _zero_closure(mesh, 2))
    assert (a.n_group_passes, b.n_group_passes) == (1, 0)


def test_record_keeps_read_only_copies_of_its_data():
    # a write into the caller's arrays after the record is built and
    # swept leaves the record, what was built from it and later sweeps as
    # they were; the caller's arrays stay writable and share no memory
    # with the record
    sigma_t, removal = np.array([1.0, 2.0]), np.array([0.7, 1.5])
    dx = np.array([0.5, 0.25, 0.75, 0.5])
    ops = ProblemOperators(sigma_t, removal, dx, 2)
    rhs = np.random.RandomState(34).randn(2, dx.size, 2)
    first = sweep_batch(ops, rhs)
    low_order = ops.low_order
    parts = (ops.sigma_t, ops.removal, ops.dx, ops.mabs, ops.edges)
    kept = [a.copy() for a in parts]
    inputs = (sigma_t, removal, dx)
    assert all(a.flags.writeable for a in inputs)
    for a in inputs:
        a *= 3.0
    for got, want in zip(parts, kept):
        assert got.dtype == np.float64 and _same_bits(got, want)
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 1.0
    assert not any(np.shares_memory(a, b) for a in parts for b in inputs)
    assert ops.low_order is low_order
    assert _same_bits(sweep_batch(ops, rhs), first)
    # |mu| of the double Gauss set of n_half, and the edge table of N cells
    assert _same_bits(ops.mabs, np.abs(build_double_gauss(2).mu))
    assert _same_bits(ops.edges, losm.edge_weights(dx.size))
    # integer input is stored as float64
    ints = ProblemOperators([1, 2], [1, 1], [1], 1)
    assert all(a.dtype == float for a in (ints.sigma_t, ints.removal,
                                          ints.dx))



@pytest.mark.parametrize("sigma_t, removal", [
    ([1.0], [0.5, 0.7]),                # would broadcast to two groups
    ([1.0, 2.0], [0.5]),
    ([[1.0, 2.0]], [[0.5, 0.7]]),       # one group axis too many
    (1.0, 0.5),
    ([], []),
])
def test_record_rejects_group_data_of_other_shapes(sigma_t, removal):
    # one entry per group, in both arrays: a broadcast would build group
    # matrices for groups the sweep does not march
    with pytest.raises(ValueError, match="1-D, nonempty and of one length"):
        ProblemOperators(sigma_t, removal, [0.5] * 4, 2)


# -- bitwise pins of the closure terms and right sides; the grey solve ----

def _one_shot_rhs(mesh, S, closure):
    """Right sides (..., 4N) of the sources S and the closure, in one
    formula per row."""
    dx = mesh.dx
    dJ, dphi, Phat = closure.dJ, closure.dphi, closure.Phat
    b = np.empty(S.shape[:-2] + (4 * mesh.n_cells,))
    b[..., 0::4] = S[..., 0] - (dJ[..., 1:] - dJ[..., :-1]) / dx
    b[..., 1::4] = S[..., 1] - 3.0 * (dJ[..., 1:] + dJ[..., :-1]) / dx
    b[..., 2::4] = ((Phat[..., 1:] - Phat[..., :-1])
                    - (dphi[..., 1:] - dphi[..., :-1]) / 3.0) / dx
    b[..., 3::4] = (3.0 * (Phat[..., 1:] + Phat[..., :-1])
                    - 6.0 * closure.P[..., 0]
                    - (dphi[..., 1:] + dphi[..., :-1])) / dx
    return b


def _same_bits(a, b):
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _signed_zeros(rng, a):
    """a with about a third of its entries set to +0.0 or -0.0."""
    a = a.copy()
    pick = rng.rand(*a.shape) < 0.35
    a[pick] = rng.choice([0.0, -0.0], size=int(pick.sum()))
    return a


@pytest.mark.parametrize("groups", [(), (3,)])
def test_rhs_from_held_closure_terms_is_the_one_shot_formula(groups):
    # the terms a closure builds once give the one-shot right sides
    rng = np.random.RandomState(7)
    dx = np.array([0.1, 0.3, 0.05, 0.4, 0.2, 0.25, 0.4])
    mesh, n = Mesh(dx), dx.size
    clo = _random_closure(rng, mesh, *groups)
    clo = ClosureData(**{f: _signed_zeros(rng, getattr(clo, f))
                         for f in ("dJ", "dphi", "Phat", "P")}, dx=dx)
    S = _signed_zeros(rng, rng.randn(*groups, n, 2))
    S[..., 0, :] = -0.0         # -0.0 - 0.0 keeps its sign
    assert _same_bits(lo_rhs(S, clo.terms), _one_shot_rhs(mesh, S, clo))
    # group sources against the grey closure, as broadcasting gave them
    if groups:
        grey = _random_closure(rng, mesh)
        assert _same_bits(lo_rhs(S, grey.terms),
                          _one_shot_rhs(mesh, S, grey))


def test_grey_terms_are_the_one_shot_formula_on_the_summed_functionals():
    # sum_closures builds the grey terms from the summed functionals, not
    # as the sum of the group terms, which rounds otherwise
    rng = np.random.RandomState(3)
    dx = np.array([0.1, 0.3, 0.05, 0.4, 0.2, 0.25, 0.4])
    mesh, n = Mesh(dx), dx.size
    closures = _random_closure(rng, mesh, 5)
    grey = sum_closures(closures)
    for f in ("dJ", "dphi", "Phat", "P"):
        assert _same_bits(getattr(grey, f), getattr(closures, f).sum(axis=0))
    S = rng.randn(n, 2)
    assert _same_bits(lo_rhs(S, grey.terms), _one_shot_rhs(mesh, S, grey))
    assert not np.array_equal(grey.terms, closures.terms.sum(axis=0))


def test_closure_arrays_are_read_only():
    # a write into a closure, or into an array it was given, would leave
    # its terms stale, so it raises
    rng = np.random.RandomState(4)
    mesh = Mesh(np.array([0.2, 0.45, 0.3]))
    dJ = rng.randn(2, 4)
    closures = ClosureData(dJ=dJ, dphi=rng.randn(2, 4), Phat=rng.randn(2, 4),
                           P=rng.randn(2, 3, 2), dx=mesh.dx)
    for clo in (closures, sum_closures(closures)):
        for f in ("dJ", "dphi", "Phat", "P", "dx", "terms"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(clo, f)[0] += 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            clo.dJ = dJ
    with pytest.raises(ValueError, match="read-only"):
        dJ[0] += 1.0


@pytest.mark.parametrize("given", ["list", "float32", "strided"])
def test_closure_keeps_the_arrays_its_terms_are_built_from(given):
    # a list, a float32 array or a strided view is kept as the float64
    # copy the terms were built from, so a later write into the caller's
    # array changes neither the closure nor its terms
    rng = np.random.RandomState(5)
    dx = np.array([0.2, 0.45, 0.3])
    base = rng.randn(8)
    dJ = {"list": base[:4].tolist(), "float32": base[:4].astype(np.float32),
          "strided": base[::2]}[given]
    parts = dict(dphi=rng.randn(4), Phat=rng.randn(4), P=rng.randn(3, 2),
                 dx=dx)
    closure = ClosureData(dJ=dJ, **parts)
    kept = np.array(dJ, dtype=float)
    assert closure.dJ.dtype == np.float64 and closure.dJ.flags.c_contiguous
    assert _same_bits(closure.dJ, kept)
    assert _same_bits(closure.terms, ClosureData(dJ=kept, **parts).terms)
    if given != "list":
        dJ[0] = 5.0
    assert _same_bits(closure.dJ, kept)
    assert not closure.dJ.flags.writeable


def test_held_right_sides_follow_the_closure_object():
    # after calls on closures A, every result on closures B of other
    # values equals that of a fresh system given B
    dx = np.array([0.2, 0.45, 0.3, 0.1])
    mesh, n = Mesh(dx), dx.size
    spec = ProblemSpec(2, [1.0, 2.5], [[0.3, 0.2], [0.4, 1.1]], [1.0, 0.5],
                       width=dx.sum(), n_cells=n, n_half=2)
    rng = np.random.RandomState(11)
    A, B = _random_closure(rng, mesh, 2), _random_closure(rng, mesh, 2)
    grey_A, grey_B = _random_closure(rng, mesh), _random_closure(rng, mesh)
    phi, J = rng.rand(2, n, 2) + 0.5, rng.randn(2, n, 2)
    zeta = rng.rand(n, 2) + 0.5
    coeffs = GreyCoefficients(sbar_a=rng.rand(n, 2) * 0.1 + 0.5,
                              sbar_t=rng.rand(n, 2) * 0.1 + 1.5,
                              eta=rng.randn(n, 2) * 0.1,
                              Q=const_field(1.5, n))

    def fresh():
        return LowOrderSystem(spec, mesh)

    expected_pass = fresh().group_pass(phi, zeta, B)
    expected_res = fresh().equation_residual(phi, J, zeta, B)
    expected_grey = fresh().solve_grey(coeffs, grey_B)
    system = fresh()
    system.group_pass(phi, zeta, A)
    system.solve_grey(coeffs, grey_A)
    system.equation_residual(phi, J, zeta, A)
    for got, want in zip(system.group_pass(phi, zeta, B), expected_pass):
        assert _same_bits(got, want)
    for got, want in zip(system.solve_grey(coeffs, grey_B), expected_grey):
        assert _same_bits(got, want)
    assert _same_bits(system.equation_residual(phi, J, zeta, B),
                      expected_res)


def _mass_blocks(removal, sigma_t, drift):
    """Cell-diagonal 4x4 blocks of removal*phi and sigma_t*J + drift*phi,
    from LD coefficient pairs (..., 2): the blocks that the stencil band
    gathered before the solver took the coefficients straight from their
    stack."""
    ld = np.array([[0, 1], [1, 0]])
    m = np.zeros(removal.shape[:-1] + (4, 4))
    m[..., :2, :2] = removal[..., ld]
    m[..., 2:, 2:] = sigma_t[..., ld]
    m[..., 2:, :2] = drift[..., ld]
    return m


def _stencil_plus(dx, mass):
    """The stencil plus the cell mass blocks `mass` ((N, 4, 4) or one
    (4, 4) block for all cells), sparse CSC, on the stencil support with
    its explicit zeros."""
    blocks, support = _stencil_blocks(dx)
    blocks[:, 1] += mass
    i, k, a, b = np.nonzero(support)
    n = 4 * dx.size
    A = csc_matrix((blocks[support], (4 * i + a, 4 * (i + k - 1) + b)),
                   shape=(n, n))
    assert A.nnz == support.sum()
    return A


def _grey_matrix(mesh, coeffs):
    """The grey matrix, sparse, on the stencil support with its explicit
    zeros."""
    return _stencil_plus(mesh.dx, _mass_blocks(coeffs.sbar_a, coeffs.sbar_t,
                                               coeffs.eta))


def _colamd_grey_solve(mesh, coeffs, closure):
    """(phi, J) of the grey system solved by splu's default COLAMD
    factor."""
    A = _grey_matrix(mesh, coeffs)
    x = splu(A).solve(_one_shot_rhs(mesh, coeffs.Q, closure))
    x = x.reshape(-1, 4)
    return x[:, 0:2], x[:, 2:4]


def _assert_close_to_colamd(mesh, coeffs, closure, got, rtol=1e-12):
    """Each field of `got` within rtol of its max |value| of the COLAMD
    solve."""
    for a, b in zip(got, _colamd_grey_solve(mesh, coeffs, closure)):
        assert np.abs(a - b).max() <= rtol * np.abs(b).max()


SMALL_PROBLEMS = {
    "one-cell": dict(G=2, sigma_t=[1.0, 1.5],
                     sigma_s=[[0.4, 0.2], [0.3, 0.9]], Q=[1.0, 0.5],
                     width=2.0, n_cells=1, n_half=1),
    "seven-cell": dict(G=3, sigma_t=[1.0, 1.5, 2.0],
                       sigma_s=[[0.3, 0.1, 0.0], [0.4, 0.6, 0.3],
                                [0.1, 0.5, 1.2]],
                       Q=[1.0, 0.5, 0.2], width=5.0, n_cells=7, n_half=3),
}


@pytest.mark.parametrize("problem, k, s", [
    ("test1", 1, 1), ("test2", 1, 1), ("one-cell", 2, 2),
    ("seven-cell", 2, 2)])
def test_banded_grey_solve_matches_colamd_solve(monkeypatch, problem, k, s):
    # every grey solve of a 3-outer mlsm run; the band LU orders its
    # operations otherwise than SuperLU, so the two agree to rounding
    if problem in SMALL_PROBLEMS:
        spec = ProblemSpec(name=problem, **SMALL_PROBLEMS[problem])
    else:
        spec = builtin_problem(problem)
    seen = []
    real = LowOrderSystem.solve_grey

    def record(self, coeffs, closure):
        seen.append((coeffs, closure))
        return real(self, coeffs, closure)

    monkeypatch.setattr(LowOrderSystem, "solve_grey", record)
    run_problem(spec, IterationConfig(method="mlsm", k_max=k, s_max=s,
                                      max_outer=3))
    monkeypatch.undo()
    assert len(seen) == 4 * k
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    system = LowOrderSystem(spec, mesh)
    for coeffs, closure in seen:
        _assert_close_to_colamd(mesh, coeffs, closure,
                                system.solve_grey(coeffs, closure))


def _random_grey(rng, tau):
    """A grey system on cells of optical thickness about `tau` (n_cells,):
    the mesh, coefficients with sbar_a <= sbar_t and a drift of up to a
    fifth of sbar_t, and a random closure."""
    n = tau.size
    sbar_t = rng.uniform(0.5, 2.0, n)
    mesh = Mesh(tau / sbar_t)
    sbar_t = np.stack([sbar_t, sbar_t * rng.uniform(-0.3, 0.3, n)], -1)
    coeffs = GreyCoefficients(sbar_a=sbar_t * rng.uniform(0.01, 1.0, (n, 1)),
                              sbar_t=sbar_t,
                              eta=sbar_t * rng.uniform(-0.2, 0.2, (n, 2)),
                              Q=const_field(1.0, n))
    return mesh, coeffs, _random_closure(rng, mesh)


def _grey_system(mesh):
    spec = ProblemSpec(1, [1.0], [[0.5]], [1.0], width=mesh.dx.sum(),
                       n_cells=mesh.n_cells, n_half=2)
    return LowOrderSystem(spec, mesh)


@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("tau", [1e-4, 1e-2, 1.0, 1e2, 1e4])
def test_banded_grey_solve_thin_and_thick_cells(n, tau):
    # uniformly thin or thick cells keep the grey matrix well conditioned
    # (cond_inf at most about 1e3 here), so both factorizations agree to
    # rounding
    rng = np.random.RandomState(n)
    for _ in range(5):
        mesh, coeffs, closure = _random_grey(
            rng, tau * rng.uniform(0.5, 2.0, n))
        _assert_close_to_colamd(mesh, coeffs, closure,
                                _grey_system(mesh).solve_grey(coeffs, closure))


def test_banded_grey_solve_mixed_cells_is_backward_stable():
    # neighbours from 1e-4 to 1e4 mean free paths thick: cond_inf is 1e6
    # to 1e7, so the solution is pinned by its normwise backward error
    rng = np.random.RandomState(5)
    for _ in range(20):
        mesh, coeffs, closure = _random_grey(
            rng, 10.0 ** rng.permutation(np.arange(-4.0, 5.0)))
        phi, J = _grey_system(mesh).solve_grey(coeffs, closure)
        A = _grey_matrix(mesh, coeffs)
        b = _one_shot_rhs(mesh, coeffs.Q, closure)
        x = np.concatenate([phi, J], axis=-1).reshape(-1)
        scale = abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        assert np.abs(A @ x - b).max() <= 1e-14 * scale


def test_grey_band_widths_follow_the_support():
    # one cell has n = 4 unknowns: its widths come from its own support
    for n, widths in [(1, (3, 1)), (2, (7, 7)), (9, (7, 7))]:
        system = _grey_system(Mesh(np.full(n, 0.5)))
        zero = np.zeros((n, 2))
        kl, ku, ab, _, _ = system._grey_system(
            GreyCoefficients(zero, zero, zero, zero), np.zeros((n, 4)))
        assert (kl, ku) == widths
        assert ab.shape == (2 * kl + ku + 1, 4 * n)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_grey_band_is_the_grey_matrix(n):
    # the per-problem stencil band plus the mass holds every entry of the
    # grey matrix in its band slot, signs of zeros included, and +0.0 off
    # the stencil support
    rng = np.random.RandomState(3 + n)
    mesh = Mesh(rng.uniform(0.1, 1.0, n))
    system = _grey_system(mesh)
    for _ in range(3):
        coeffs = GreyCoefficients(
            *(_signed_zeros(rng, rng.randn(n, 2)) for _ in range(3)),
            Q=const_field(1.0, n))
        kl, ku, ab, _, _ = system._grey_system(coeffs, np.zeros((n, 4)))
        A = _grey_matrix(mesh, coeffs).tocoo()
        # scatter the stored entries, as A.toarray() sums onto +0.0
        dense = np.zeros(A.shape)
        dense[A.row, A.col] = A.data
        assert np.all(-ku <= A.row - A.col) and np.all(A.row - A.col <= kl)
        expected = np.zeros(ab.shape)
        for r, c in np.ndindex(A.shape):
            if -ku <= r - c <= kl:
                expected[kl + ku + r - c, c] = dense[r, c]
        assert _same_bits(ab, expected)
        off_support = np.ones(ab.shape, dtype=bool)
        off_support[kl + ku + A.row - A.col, A.col] = False
        assert not np.signbit(ab[off_support]).any()


def group_matrices(dx, sigma_t, removal):
    """The group matrices, CSC on the stencil support with its explicit
    zeros: the stencil plus each group's removal / sigma_t block."""
    return [_stencil_plus(dx, _mass_blocks(np.array([r, 0.0]),
                                           np.array([s, 0.0]), np.zeros(2)))
            for r, s in zip(removal, sigma_t)]


def group_reference_factors(spec, dx):
    """Each group matrix's own splu factor in its default COLAMD order:
    the reference the one block factor of all groups is held to."""
    return [splu(A) for A in group_matrices(dx, spec.sigma_t,
                                            _removal(spec))]


@pytest.mark.parametrize("G", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 9])
def test_group_matrices_are_the_stencil_plus_their_mass(monkeypatch, n, G):
    # the residual's CSR arrays, read off the band and handed to the block
    # factor, hold the stencil plus each group's removal / sigma_t block,
    # signs of zeros included; the block that SuperLU factors in its
    # natural order holds every stored entry of every group, explicit zeros
    # included, each group's columns in the order of its own COLAMD factor
    rng = np.random.RandomState(10 * G + n)
    dx = rng.uniform(0.1, 1.0, n)
    sigma_t = rng.uniform(1.0, 2.0, G)
    removal = sigma_t * rng.uniform(0.1, 1.0, G)
    factored, blocks = [], []
    real, real_splu = losm._factor, scipy.sparse.linalg.splu

    def record(*args):
        factored.append((args, real(*args)))
        return factored[-1][1]

    def record_block(A, **kwargs):
        if kwargs.get("permc_spec") == "NATURAL":
            # copied before splu, which may sort or sum them in place
            blocks.append((A.data.copy(), A.indices.copy(), A.indptr.copy()))
        return real_splu(A, **kwargs)

    monkeypatch.setattr(losm, "_factor", record)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", record_block)
    # built anew, not looked up: a record made by another test could be
    # served from the cache
    _, _, csr, lu, _ = ProblemOperators(sigma_t, removal, dx, 2).low_order
    [(args, (_, perm_c))] = factored
    assert all(a is b for a, b in zip(args, csr)) and len(args) == 3
    expected = group_matrices(dx, sigma_t, removal)
    data, indices, indptr = csr
    assert data.shape[0] == G and indices.dtype == indptr.dtype == np.int32
    rows = [csr_matrix((d, indices, indptr), shape=(4 * n,) * 2)
            for d in data]
    for got, want in zip(rows, [A.tocsr() for A in expected]):
        assert _same_bits(got.data, want.data)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
    [(block_data, block_indices, block_indptr)] = blocks
    assert block_data.size == G * data.shape[1]
    assert csc_matrix((block_data, block_indices, block_indptr),
                      shape=(4 * n * G,) * 2).has_sorted_indices
    for g, want in enumerate(expected):
        for j, c in enumerate(np.argsort(perm_c), start=4 * n * g):
            got = slice(block_indptr[j], block_indptr[j + 1])
            col = slice(want.indptr[c], want.indptr[c + 1])
            assert np.array_equal(block_indices[got],
                                  4 * n * g + want.indices[col])
            assert _same_bits(block_data[got], want.data[col])
    # read off one sorted support, they factor as the COO-built matrices:
    # the one block factor holds each group's own COLAMD factor
    wants = list(map(splu, expected))
    assert np.array_equal(lu.perm_r, np.concatenate(
        [want.perm_r + 4 * n * g for g, want in enumerate(wants)]))
    for name in ("L", "U"):
        got_f = getattr(lu, name).sorted_indices()
        want_f = block_diag([getattr(want, name) for want in wants],
                            format="csc").sorted_indices()
        assert _same_bits(got_f.data, want_f.data)
        assert np.array_equal(got_f.indices, want_f.indices)
        assert np.array_equal(got_f.indptr, want_f.indptr)


_BLOCK_SPECS = {
    "test1": builtin_problem("test1"),
    "test2": builtin_problem("test2"),
    "one-group": ProblemSpec(1, [1.5], [[0.9]], [1.0], width=3.0,
                             n_cells=6, n_half=2),
    "one-cell": ProblemSpec(2, [1.0, 2.0], [[0.3, 0.1], [0.2, 0.5]],
                            [1.0, 0.5], width=1.0, n_cells=1, n_half=2),
    "n_half-1": ProblemSpec(3, [1.0, 1.5, 2.0],
                            [[0.3, 0.1, 0.0], [0.4, 0.6, 0.3],
                             [0.1, 0.5, 1.2]],
                            [1.0, 0.5, 0.2], width=2.0, n_cells=5,
                            n_half=1),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_SPECS))
def test_one_block_solve_is_the_group_solves(name):
    # one solve of the block factor is the G group solves of the reference
    # bit for bit, signs of zeros included, on seeded right sides and
    # through group_pass; all groups share one column order, in which the
    # block is factored in its natural order
    from test_glue_bitwise import old_split_solution

    spec = _BLOCK_SPECS[name]
    mesh = Mesh.uniform(spec.width, spec.n_cells)
    system = LowOrderSystem(spec, mesh)
    refs = group_reference_factors(spec, mesh.dx)
    G, n = spec.G, 4 * spec.n_cells
    perm_c = refs[0].perm_c
    for ref in refs:
        assert np.array_equal(ref.perm_c, perm_c)
    assert np.array_equal(system._lu.perm_c, np.arange(G * n))
    assert np.array_equal(system._unknowns.swapaxes(0, 1).reshape(-1),
                          perm_c)
    rng = np.random.RandomState(sorted(_BLOCK_SPECS).index(name))
    for _ in range(3):
        b = _signed_zeros(rng, rng.randn(G, n))
        u = system._lu.solve(b.reshape(-1)).reshape(G, n)
        for ref, u_g, b_g in zip(refs, u, b):
            assert _same_bits(u_g[perm_c], ref.solve(b_g))
    phi = _signed_zeros(rng, rng.rand(G, spec.n_cells, 2))
    zeta = rng.rand(spec.n_cells, 2) + 0.5
    edges = [rng.randn(G, spec.n_cells + 1) for _ in range(3)]
    closures = ClosureData(*edges, P=rng.randn(G, spec.n_cells, 2),
                           dx=mesh.dx)
    b = lo_rhs(group_source(system, phi, zeta), closures.terms)
    want = old_split_solution(
        np.stack([ref.solve(b_g) for ref, b_g in zip(refs, b)]))
    for got, want_f in zip(system.group_pass(phi, zeta, closures), want):
        assert _same_bits(got, want_f)
        assert got.flags.c_contiguous


def test_block_factor_reads_back_a_generic_column_order():
    # the stencil's COLAMD orders are their own inverses; on a random
    # sparsity, whose order is not, unknown k of each group still sits at
    # perm_c[k] of the group's part of the block solution
    rng = np.random.RandomState(5)
    n, G = 40, 3
    pattern = (sparse_random(n, n, density=0.1, random_state=rng)
               + identity(n)).tocsr()
    data = rng.uniform(0.5, 2.0, (G, pattern.nnz))
    lu, perm_c = losm._factor(data, pattern.indices, pattern.indptr)
    assert not np.array_equal(perm_c[perm_c], np.arange(n))
    assert np.array_equal(lu.perm_c, np.arange(G * n))
    b = rng.randn(G, n)
    u = lu.solve(b.reshape(-1)).reshape(G, n)
    for d, u_g, b_g in zip(data, u, b):
        ref = splu(csr_matrix((d, pattern.indices, pattern.indptr),
                              shape=(n, n)).tocsc())
        assert np.array_equal(ref.perm_c, perm_c)
        assert _same_bits(u_g[perm_c], ref.solve(b_g))


def test_singular_grey_system_raises():
    # a finite grey matrix with a zero column: no mass on the unknown
    # phi_s of cell 1, as sbar_a and eta vanish there, and no stencil
    n = 3
    mesh = Mesh(np.full(n, 0.5))
    system = _grey_system(mesh)
    real = system._gbsv

    def zero_column(kl, ku, ab, b, **kwargs):
        ab[:, 5] = 0.0
        return real(kl, ku, ab, b, **kwargs)

    system._gbsv = zero_column
    coeffs = GreyCoefficients(sbar_a=const_field(0.5, n),
                              sbar_t=const_field(1.0, n),
                              eta=np.zeros((n, 2)), Q=const_field(1.0, n))
    coeffs.sbar_a[1] = 0.0
    with pytest.raises(RuntimeError,
                       match="singular grey low-order system"):
        system.solve_grey(coeffs, _zero_closure(mesh))


def test_singular_group_matrix_names_the_group():
    # three groups of one sparsity, explicit zeros kept: group g has a
    # zero row, whether it orders the columns (g = 1) or not
    pattern = csr_matrix(np.ones((2, 2)))
    for g in (1, 3):
        data = np.tile([1.0, 2.0, 0.5, 3.0], (3, 1))
        data[g - 1, 2:] = 0.0
        with pytest.raises(RuntimeError,
                           match=f"singular low-order system for group {g}"):
            losm._factor(data, pattern.indices, pattern.indptr)


def test_nan_denominators_give_nan_not_fallbacks():
    # a NaN flux sum divides through instead of taking the safeguard
    # value, so a broken state cannot iterate on finite fallbacks
    spec = ProblemSpec(2, [1.0, 2.0], [[0.3, 0.1], [0.2, 0.5]], [1.0, 0.0],
                       width=3.0, n_cells=3, n_half=2)
    phi = np.ones((2, 3, 2))
    phi[:, :, 1] = 0.25
    phi[0, 1, 0] = np.nan
    J = np.full((2, 3, 2), 0.1)
    grey_phi = const_field(2.0, 3)
    coeffs = grey_xs(phi, J, spec)
    fields = {"zeta": compute_zeta(grey_phi, phi),
              "sbar_s": avg_scattering_xs(phi, spec.sigma_s),
              "sbar_a": coeffs.sbar_a, "sbar_t": coeffs.sbar_t,
              "eta": coeffs.eta}
    for name, f in fields.items():
        assert np.isnan(f[..., 1, :]).all(), name
        assert np.isfinite(np.delete(f, 1, axis=-2)).all(), name
    # a denominator below DENOM_EPS still takes the fallback
    tiny = np.full((2, 3, 2), 1e-40)
    tiny[..., 1] = 0.0
    assert np.array_equal(compute_zeta(grey_phi, tiny), const_field(1.0, 3))


def _wrapper_calls(monkeypatch):
    """Each wrapper of a compiled Level-2/3 function, by name, on the
    arrays it is given, with the library replaced by one that fails the
    test if it is called: so a ValueError is raised before any C call."""
    spec = ProblemSpec(2, [1.0, 2.0], [[0.3, 0.1], [0.2, 0.5]], [1.0, 0.5],
                       width=2.0, n_cells=4, n_half=2)
    mesh = Mesh.uniform(2.0, 4)
    system = LowOrderSystem(spec, mesh)
    closures, grey = _zero_closure(mesh, 2), _zero_closure(mesh)
    field = np.ones((4, 2))

    def no_library(name):
        raise AssertionError(f"{name} called on a wrong shape")

    monkeypatch.setattr(losm, "kernel", no_library)
    monkeypatch.setattr(sweep, "kernel", no_library)

    def grey_coeffs(bad):
        return GreyCoefficients(field, field, bad, field)

    return {
        "compute_zeta": lambda f, g: compute_zeta(g, f),
        "avg_scattering_xs": lambda f, g: avg_scattering_xs(f, spec.sigma_s),
        "grey_xs": lambda f, g: grey_xs(f, f, spec),
        "build_ho_rhs": lambda f, g: build_ho_rhs(g, f, spec.Q),
        "group_pass": lambda f, g: system.group_pass(f, g, closures),
        "equation_residual": lambda f, g: system.equation_residual(
            f, f, g, closures),
        "solve_grey": lambda f, g: system.solve_grey(grey_coeffs(g), grey),
    }


@pytest.mark.parametrize("name", ["compute_zeta", "avg_scattering_xs",
                                  "grey_xs", "build_ho_rhs",
                                  "group_pass", "equation_residual",
                                  "solve_grey"])
def test_wrong_shapes_raise_before_the_library_is_called(monkeypatch, name):
    # group fields f (G, N, 2) and cell fields g (N, 2) of a 2-group,
    # 4-cell problem: a wrong G, N, coefficient axis or rank each raises
    call = _wrapper_calls(monkeypatch)[name]
    f, g = np.ones((2, 4, 2)), np.ones((4, 2))
    cells = name not in ("avg_scattering_xs", "grey_xs")
    bad = []
    if name != "solve_grey":
        bad += [(np.ones(shape), g) for shape in ((2, 4, 3), (4, 2))]
        if cells:
            bad.append((np.ones((2, 5, 2)), g))
        if name != "compute_zeta":
            bad.append((np.ones((3, 4, 2)), g))
    if cells:
        bad += [(f, np.ones(shape)) for shape in ((5, 2), (4, 3), (2, 4, 2))]
    for phi, cell in bad:
        with pytest.raises(ValueError):
            call(phi, cell)


def test_low_order_record_is_read_only_with_no_residual_matrix():
    # the record's CSR group matrices are read-only and no scipy matrix is
    # kept for the residual; each system fetches the addresses of what the
    # library reads once, into a tuple
    from scipy.sparse import issparse

    spec = ProblemSpec(2, [1.0, 2.0], [[0.3, 0.1], [0.2, 0.5]], [1.0, 0.5],
                       width=2.0, n_cells=4, n_half=2)
    system = LowOrderSystem(spec, Mesh.uniform(2.0, 4))
    grey_system, gbsv, csr, lu, unknowns = system.ops.low_order
    assert not any(issparse(part) for part in (grey_system, gbsv, lu, *csr))
    data, indices, indptr = csr
    for array in (*csr, unknowns, system.coupling, system.Q):
        with pytest.raises(ValueError, match="read-only"):
            array.reshape(-1)[0] = 1.0
    assert data.shape == (2, indices.size) and indptr[-1] == indices.size
    assert isinstance(system._addresses, tuple)
    assert system._addresses == tuple(
        a.ctypes.data for a in (system.coupling, system.Q, *csr))
