"""Bit-for-bit pins of the per-pass low-order glue against the formulas it
replaced, which are kept here as the reference: the same values, sign bits
and NaN positions, on random inputs that hold +0.0, -0.0, NaN and
denominators below DENOM_EPS."""

import numpy as np
import pytest
from scipy.linalg.lapack import dgbsv

from slabsm import losm
from slabsm.angular import MomentSet, angular_moments, build_double_gauss
from slabsm.fields import Mesh
from slabsm.losm import (DENOM_EPS, ClosureData, GreyCoefficients,
                         LowOrderSystem, ProblemOperators, _lo_rhs, _ratio,
                         _split_solution, _stencil_blocks, avg_scattering_xs,
                         closure_from_sweep, compute_zeta, edge_weights,
                         grey_xs, problem_operators)
from slabsm.problem import ProblemSpec
from slabsm.sweep import sweep_batch, upwind_edge_psi
from test_fields import _stacked_coeffs as old_from_nodes
from test_fields import _stacked_nodes as old_to_nodes
from test_losm import (_mass_blocks, _same_bits, _signed_zeros,
                       coefficient_stack, group_reference_factors)

DX = np.array([0.1, 0.3, 0.05, 0.4, 0.2, 0.25, 0.4])


# -- the replaced formulas ---------------------------------------------------

def old_ratio(num_n, den_n, fallback):
    out = np.full(num_n.shape, fallback, dtype=float)
    np.divide(num_n, den_n, out=out, where=~(np.abs(den_n) < DENOM_EPS))
    return out


def old_avg_scattering_xs(phi, sigma_s):
    num_n = old_to_nodes(np.einsum("gh,hnc->gnc", sigma_s, phi))
    den_n = old_to_nodes(phi.sum(axis=0))
    return old_from_nodes(old_ratio(num_n, den_n,
                                    sigma_s.mean(axis=1)[:, None, None]))


def old_compute_zeta(grey_phi, phi):
    den_n = old_to_nodes(phi.sum(axis=0))
    return old_from_nodes(old_ratio(old_to_nodes(grey_phi), den_n, 1.0))


def old_grey_xs(phi, J, spec):
    sigma_a = spec.sigma_a()
    phi_n, J_n = old_to_nodes(phi), old_to_nodes(J)
    absJ_n = np.abs(J_n)
    den_phi = phi_n.sum(axis=0)
    sbar_a_n = old_ratio(np.einsum("g,gne->ne", sigma_a, phi_n), den_phi,
                         sigma_a.mean())
    sbar_t_phi = old_ratio(np.einsum("g,gne->ne", spec.sigma_t, phi_n),
                           den_phi, spec.sigma_t.mean())
    sbar_t_n = old_ratio(np.einsum("g,gne->ne", spec.sigma_t, absJ_n),
                         absJ_n.sum(axis=0), sbar_t_phi)
    eta_num = (spec.sigma_t[:, None, None] - sbar_t_n[None]) * J_n
    eta_n = old_ratio(eta_num.sum(axis=0), den_phi, 0.0)
    return [old_from_nodes(a) for a in (sbar_a_n, sbar_t_n, eta_n)]


def old_closure_terms(dJ, dphi, Phat, P, dx):
    c = np.empty(dJ.shape[:-1] + (dx.size, 4))
    c[..., 0] = (dJ[..., 1:] - dJ[..., :-1]) / dx
    c[..., 1] = 3.0 * (dJ[..., 1:] + dJ[..., :-1]) / dx
    c[..., 2] = ((Phat[..., 1:] - Phat[..., :-1])
                 - (dphi[..., 1:] - dphi[..., :-1]) / 3.0) / dx
    c[..., 3] = (3.0 * (Phat[..., 1:] + Phat[..., :-1])
                 - 6.0 * P[..., 0]
                 - (dphi[..., 1:] + dphi[..., :-1])) / dx
    return c


def old_closure_from_sweep(psi, quad, moments):
    """(dJ, dphi, Phat, P) as the closure once built them."""
    N = psi.shape[-2]
    edge = angular_moments(upwind_edge_psi(psi, quad)[..., None], quad)
    nodes = old_to_nodes(np.stack([moments.phi, moments.J], axis=-2))
    t = np.zeros(nodes.shape[:-3] + (N + 1, 1, 4))
    t[..., 1:, 0, :2] = nodes[..., 1]
    t[..., :-1, 0, 2:] = nodes[..., 0]
    w = np.array(edge_weights(N))
    recon = (w[..., 0] * t[..., 0] + w[..., 1] * t[..., 1]
             + w[..., 2] * t[..., 2] + w[..., 3] * t[..., 3])
    return (edge.J[..., 0] - recon[..., 0], edge.phi[..., 0] - recon[..., 1],
            edge.P[..., 0], moments.P)


def old_lo_rhs(S, terms):
    b = np.empty(S.shape[:-1] + (4,))
    b[..., 2:] = terms[..., 2:]
    np.subtract(S, terms[..., :2], out=b[..., :2])
    return b.reshape(S.shape[:-2] + (-1,))


def old_split_solution(u):
    x = u.reshape(u.shape[:-1] + (-1, 4))
    return x[..., 0:2].copy(), x[..., 2:4].copy()


def old_group_source(system, phi, zeta):
    coupling = np.einsum("gh,hnc->gnc", system.coupling, phi)
    product = old_from_nodes(old_to_nodes(coupling) * old_to_nodes(zeta))
    return product + system.Q_fields


def old_equation_residual(system, phi, J, zeta, closures):
    b = old_lo_rhs(old_group_source(system, phi, zeta), closures.terms)
    x = np.concatenate([phi, J], axis=-1).reshape(-1)
    r = b.reshape(-1) - system._A @ x
    return r.reshape(phi.shape + (2,)).swapaxes(-1, -2).ravel()


def old_grey_band(dx, mass):
    """The stencil band plus the mass blocks (N, 4, 4) on the centre-block
    support entries, one addition per entry."""
    stencil, support = _stencil_blocks(dx)
    i, k, a, b = np.nonzero(support)
    rows, cols = 4 * i + a, 4 * (i + k - 1) + b
    kl, ku = int((rows - cols).max()), int((cols - rows).max())
    band = cols * (2 * kl + ku + 1) + kl + ku + rows - cols
    abT = np.zeros((4 * dx.size, 2 * kl + ku + 1))
    abT.reshape(-1)[band] = stencil[support]
    centre = k == 1
    abT.reshape(-1)[band[centre]] += mass.reshape(-1)[
        (16 * i + 4 * a + b)[centre]]
    return kl, ku, abT.T


# -- random inputs -------------------------------------------------------------

def _spec(G=3):
    return ProblemSpec(G, np.linspace(1.0, 2.5, G),
                       np.full((G, G), 0.1) + np.diag(np.full(G, 0.4)),
                       np.linspace(1.0, 0.2, G), width=DX.sum(),
                       n_cells=DX.size, n_half=2)


def _fluxes(rng, G=3):
    """(phi, J), (G, N, 2), with signed zeros, a NaN, and cells whose flux
    and current sums vanish at one node or both (below DENOM_EPS)."""
    N = DX.size
    phi = _signed_zeros(rng, rng.rand(G, N, 2) + 0.1)
    J = _signed_zeros(rng, rng.randn(G, N, 2))
    for f in (phi, J):
        f[:, 1] = 0.0                   # both nodes 0
        f[:, 2] = [1e-40, -1e-40]       # left node 0, right 2e-40
        f[:, 3] = [0.3, -0.3]           # left node 0.6, right -0.0
    phi[:, 6], J[:, 6] = [1.0, 0.0], 0.0    # sbar_t from phi alone
    phi[-1, 5, 1] = np.nan
    return phi, J


def _random_moments(rng, shape):
    """Moments whose traces hold +0.0 and -0.0."""
    return MomentSet(*(_signed_zeros(rng, rng.randn(*shape))
                       for _ in range(3)))


# -- the pins ------------------------------------------------------------------

def test_ratio_plain_divide_when_no_node_needs_its_fallback():
    rng = np.random.RandomState(1)
    num = _signed_zeros(rng, rng.randn(4, 7, 2))
    den = rng.uniform(0.5, 2.0, (7, 2)) * rng.choice([-1.0, 1.0], (7, 2))
    den[2, 1] = np.nan                  # divides through, fallback or not
    den[4, 0] = DENOM_EPS               # not below the threshold

    def fallback():
        raise AssertionError("fallback built though no node needs it")

    assert _same_bits(_ratio(num, den, fallback), old_ratio(num, den, 7.5))


@pytest.mark.parametrize("value", [7.5, np.arange(14.0).reshape(7, 2)])
def test_ratio_fallback_where_a_node_needs_it(value):
    rng = np.random.RandomState(2)
    num = _signed_zeros(rng, rng.randn(7, 2))
    den = rng.uniform(0.5, 2.0, (7, 2))
    den[1] = 0.0, -0.0
    den[3, 1] = 0.5 * DENOM_EPS
    den[5, 0] = np.nan
    calls = []

    def fallback():
        calls.append(1)
        return value

    assert _same_bits(_ratio(num, den, fallback),
                      old_ratio(num, den, value))
    assert calls == [1]


@pytest.mark.parametrize("G", [1, 3])
def test_node_averages_are_the_replaced_formulas(G):
    # with one group, cell 6 (no current, unit flux) gets sbar_t = sigma_t
    # exactly, so its drift is built from signed zeros
    rng = np.random.RandomState(3)
    spec = _spec(G)
    for _ in range(5):
        phi, J = _fluxes(rng, G)
        grey_phi = _signed_zeros(rng, rng.randn(DX.size, 2))
        with np.errstate(invalid="ignore"):
            assert _same_bits(avg_scattering_xs(phi, spec.sigma_s),
                              old_avg_scattering_xs(phi, spec.sigma_s))
            assert _same_bits(compute_zeta(grey_phi, phi),
                              old_compute_zeta(grey_phi, phi))
            coeffs = grey_xs(phi, J, spec)
            expected = old_grey_xs(phi, J, spec)
        for got, want in zip((coeffs.sbar_a, coeffs.sbar_t, coeffs.eta),
                             expected):
            assert _same_bits(got, want)


def test_grey_xs_builds_the_phi_weighted_fallback_only_when_needed(
        monkeypatch):
    # three ratios, and a fourth (the phi-weighted sigma_t mean) only for
    # a node whose |J| sum vanishes
    spec = _spec()
    calls = []
    real = losm._ratio

    def counted(num_n, den_n, fallback):
        calls.append(1)
        return real(num_n, den_n, fallback)

    monkeypatch.setattr(losm, "_ratio", counted)
    phi = np.ones((3, DX.size, 2))
    J = np.zeros((3, DX.size, 2))
    J[..., 0] = 0.2
    grey_xs(phi, J, spec)
    assert len(calls) == 3
    J[:, 4] = 0.0
    calls.clear()
    grey_xs(phi, J, spec)
    assert len(calls) == 4


@pytest.mark.parametrize("G", [None, 1, 4])
def test_closures_are_the_replaced_formula(G):
    # the boundary edges, where one side's traces are zero, included
    rng = np.random.RandomState(4)
    sigma_t = np.linspace(1.0, 2.0, G or 1)
    ops = ProblemOperators(sigma_t, sigma_t, DX, 2)
    quad = build_double_gauss(2)
    lead = () if G is None else (G,)
    for _ in range(3):
        rhs = rng.rand(G or 1, DX.size, 2)
        psi = sweep_batch(ops, rhs)
        psi = _signed_zeros(rng, psi.reshape(lead + psi.shape[1:]))
        for moments in (angular_moments(psi, quad),
                        _random_moments(rng, lead + (DX.size, 2))):
            clo = closure_from_sweep(psi, quad, moments, ops)
            old = old_closure_from_sweep(psi, quad, moments)
            for name, want in zip(("dJ", "dphi", "Phat", "P"), old):
                assert _same_bits(getattr(clo, name), want), name
            assert _same_bits(clo.terms, old_closure_terms(*old, DX))


def test_closure_terms_are_the_replaced_formula():
    rng = np.random.RandomState(5)
    for lead in [(), (3,)]:
        edges = [_signed_zeros(rng, rng.randn(*lead, DX.size + 1))
                 for _ in range(3)]
        edges[1][..., 2] = np.nan
        P = _signed_zeros(rng, rng.randn(*lead, DX.size, 2))
        clo = ClosureData(*edges, P=P, dx=DX)
        assert _same_bits(clo.terms, old_closure_terms(*edges, P, DX))


def test_edge_weights_cached_read_only():
    # one read-only table per problem, held by its operator record, and
    # the closures of every run of that problem read it
    ops = problem_operators(_spec(3), Mesh(DX))
    assert ops.edges is problem_operators(_spec(3), Mesh(DX.copy())).edges
    assert np.array_equal(ops.edges, edge_weights(DX.size))
    with pytest.raises(ValueError, match="read-only"):
        ops.edges[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        edge_weights(5)[0, 0, 0] = 1.0


@pytest.mark.parametrize("lead, terms_lead", [((), ()), ((3,), (3,)),
                                              ((3,), ())])
def test_right_sides_and_solution_split_are_the_replaced_formulas(
        lead, terms_lead):
    rng = np.random.RandomState(6)
    S = _signed_zeros(rng, rng.randn(*lead, DX.size, 2))
    S[..., 0, :] = -0.0
    S[..., 3, 1] = np.nan
    terms = _signed_zeros(rng, rng.randn(*terms_lead, DX.size, 4))
    assert _same_bits(_lo_rhs(S, terms), old_lo_rhs(S, terms))
    u = _signed_zeros(rng, rng.randn(*lead, 4 * DX.size))
    u[..., 5] = np.nan
    for got, want in zip(_split_solution(u), old_split_solution(u)):
        assert _same_bits(got, want)
        assert got.flags.c_contiguous and not np.shares_memory(got, u)


def _system_and_state(rng, G=3):
    spec = _spec(G)
    mesh = Mesh(DX)
    system = LowOrderSystem(spec, mesh)
    edges = [_signed_zeros(rng, rng.randn(G, DX.size + 1)) for _ in range(3)]
    closures = ClosureData(*edges, P=rng.randn(G, DX.size, 2), dx=DX)
    phi = _signed_zeros(rng, rng.rand(G, DX.size, 2))
    J = _signed_zeros(rng, rng.randn(G, DX.size, 2))
    zeta = _signed_zeros(rng, rng.rand(DX.size, 2) + 0.5)
    return system, phi, J, zeta, closures


def test_group_pass_and_residual_are_the_replaced_formulas():
    rng = np.random.RandomState(7)
    for _ in range(3):
        system, phi, J, zeta, closures = _system_and_state(rng)
        assert _same_bits(system.group_source(phi, zeta),
                          old_group_source(system, phi, zeta))
        assert _same_bits(system.equation_residual(phi, J, zeta, closures),
                          old_equation_residual(system, phi, J, zeta,
                                                closures))
        b = old_lo_rhs(old_group_source(system, phi, zeta), closures.terms)
        refs = group_reference_factors(_spec(), DX)
        u = np.stack([lu.solve(bg) for lu, bg in zip(refs, b)])
        for got, want in zip(system.group_pass(phi, zeta, closures),
                             old_split_solution(u)):
            assert _same_bits(got, want)


def _grey_coefficients(rng, n):
    return GreyCoefficients(
        *(_signed_zeros(rng, rng.randn(n, 2)) for _ in range(3)),
        Q=_signed_zeros(rng, rng.randn(n, 2)))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_coefficient_gather_is_the_mass_block_band(n):
    rng = np.random.RandomState(8 + n)
    dx = DX[:n]
    system = LowOrderSystem(ProblemSpec(1, [1.0], [[0.5]], [1.0],
                                        width=dx.sum(), n_cells=n,
                                        n_half=2), Mesh(dx))
    for _ in range(3):
        coeffs = _grey_coefficients(rng, n)
        coeffs.eta[-1, 0] = np.nan
        mass = _mass_blocks(coeffs.sbar_a, coeffs.sbar_t, coeffs.eta)
        got = system._grey_band(coefficient_stack(coeffs))
        want = old_grey_band(dx, mass)
        assert got[:2] == want[:2]
        assert _same_bits(got[2], want[2])


def test_grey_solve_is_the_replaced_formula():
    rng = np.random.RandomState(9)
    system, *_ = _system_and_state(rng)
    for _ in range(3):
        coeffs = _grey_coefficients(rng, DX.size)
        coeffs.sbar_t[:, 0] += 4.0       # keep the grey matrix regular
        edges = [_signed_zeros(rng, rng.randn(DX.size + 1))
                 for _ in range(3)]
        closure = ClosureData(*edges, P=rng.randn(DX.size, 2), dx=DX)
        kl, ku, ab = old_grey_band(DX, _mass_blocks(
            coeffs.sbar_a, coeffs.sbar_t, coeffs.eta))
        b = old_lo_rhs(coeffs.Q, closure.terms)
        _, _, u, info = dgbsv(kl, ku, ab, b)
        assert info == 0
        for got, want in zip(system.solve_grey(coeffs, closure),
                             old_split_solution(u)):
            assert _same_bits(got, want)
