"""Bit-for-bit pins of the per-pass low-order glue, which runs in the
compiled library, against the numpy formulas it replaced, which are kept
here as the reference: the same values, sign bits and NaN positions, on
random inputs that hold +0.0, -0.0, NaN and denominators below and at
DENOM_EPS.  No table cell reaches the safeguard fallbacks, so only these
pins cover them."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.lapack import dgbsv

from slabsm import losm
from slabsm.angular import MomentSet, angular_moments, build_double_gauss
from slabsm.fields import Mesh
from slabsm.losm import (ClosureData, GreyCoefficients, LowOrderSystem,
                         ProblemOperators, _stencil_blocks,
                         avg_scattering_xs, closure_from_sweep, compute_zeta,
                         edge_weights, grey_xs, problem_operators,
                         sum_closures)
from slabsm.problem import ProblemSpec
from slabsm.sweep import _SOURCE, build_ho_rhs, sweep_batch
from test_fields import _stacked_coeffs as old_from_nodes
from test_fields import _stacked_nodes as old_to_nodes
from test_losm import (_mass_blocks, _same_bits, _signed_zeros,
                       group_reference_factors, residual_matrix)
from test_losm import lo_rhs as old_lo_rhs

DX = np.array([0.1, 0.3, 0.05, 0.4, 0.2, 0.25, 0.4])


def c_define(name):
    """The value of `#define name` in the compiled library's source."""
    return float(re.search(rf"^#define {name} (\S+)$", _SOURCE.read_text(),
                           re.M).group(1))


# the safeguard threshold of every ratio of the compiled library
DENOM_EPS = c_define("DENOM_EPS")


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


def old_build_ho_rhs(grey_phi, sbar_s, Q):
    rhs = 0.5 * old_from_nodes(old_to_nodes(sbar_s) * old_to_nodes(grey_phi))
    rhs[:, :, 0] += 0.5 * Q[:, None]
    return rhs


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


def upwind_edge_psi(psi, quad):
    """Upwind angular flux on the N+1 cell edges, (..., M, N+1), of a
    vacuum-bounded sweep output (..., M, N, 2): for mu > 0, the second
    half of the directions, the left cell's right trace (zero at edge 0),
    and mirrored for mu < 0."""
    N = psi.shape[-2]
    h = quad.n_angles // 2
    out = np.zeros(psi.shape[:-2] + (N + 1,))
    out[..., h:, 1:] = psi[..., h:, :, 0] + psi[..., h:, :, 1]
    out[..., :h, :N] = psi[..., :h, :, 0] - psi[..., :h, :, 1]
    return out


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


def old_split_solution(u):
    x = u.reshape(u.shape[:-1] + (-1, 4))
    return x[..., 0:2].copy(), x[..., 2:4].copy()


def old_group_source(system, phi, zeta):
    coupling = np.einsum("gh,hnc->gnc", system.coupling, phi)
    product = old_from_nodes(old_to_nodes(coupling) * old_to_nodes(zeta))
    Q_fields = np.zeros(phi.shape)
    Q_fields[:, :, 0] = system.Q[:, None]
    return product + Q_fields


def old_equation_residual(system, phi, J, zeta, closures):
    b = old_lo_rhs(old_group_source(system, phi, zeta), closures.terms)
    x = np.concatenate([phi, J], axis=-1).reshape(-1)
    r = b.reshape(-1) - residual_matrix(system) @ x
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


def test_grey_xs_builds_the_phi_weighted_fallback_only_when_needed():
    # sbar_t is the |J|-weighted mean of sigma_t at every node but those
    # whose |J| sum vanishes, which alone take the phi-weighted mean
    spec = _spec()
    phi = np.ones((3, DX.size, 2))
    phi[:, :, 1] = 0.25
    J = np.zeros((3, DX.size, 2))
    J[..., 0] = np.array([0.2, -0.1, 0.4])[:, None]
    J[:, 4] = 0.0
    J[:, 5, 1] = J[:, 5, 0]             # left node 0, right 2 J_a
    sbar_t = grey_xs(phi, J, spec).sbar_t
    phi_n, absJ_n = old_to_nodes(phi), np.abs(old_to_nodes(J))
    with np.errstate(invalid="ignore"):
        by_J = (np.einsum("g,gne->ne", spec.sigma_t, absJ_n)
                / absJ_n.sum(axis=0))
    by_phi = np.einsum("g,gne->ne", spec.sigma_t, phi_n) / phi_n.sum(axis=0)
    needed = np.zeros(by_J.shape, dtype=bool)
    needed[4], needed[5, 0] = True, True
    assert _same_bits(sbar_t, old_from_nodes(np.where(needed, by_phi, by_J)))
    assert not np.isclose(by_phi[~needed], by_J[~needed]).any()


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


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(G=st.integers(1, 4), N=st.integers(1, 16), n_half=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), batched=st.booleans())
def test_compiled_closures_are_the_reference_formulas(G, N, n_half, seed,
                                                      batched):
    # the compiled closure functionals and terms, of a batch of groups or
    # of one group's psi alone, and the grey terms of their sums: every
    # bit, sign bits and NaN positions included, on seeded nonuniform
    # meshes, swept psi with signed zeros and moments with a NaN
    rng = np.random.RandomState(seed)
    dx = rng.rand(N) + 0.05
    sigma_t = rng.rand(G) + 0.5
    ops = ProblemOperators(sigma_t, sigma_t, dx, n_half)
    quad = build_double_gauss(n_half)
    psi = _signed_zeros(rng, sweep_batch(ops, rng.rand(G, N, 2)))
    if not batched:
        psi = psi[rng.randint(G)]
    moments = MomentSet(*(_signed_zeros(rng, m)
                          for m in angular_moments(psi, quad)))
    for m in moments:
        m.reshape(-1)[rng.randint(m.size)] = np.nan
    clo = closure_from_sweep(psi, quad, moments, ops)
    old = old_closure_from_sweep(psi, quad, moments)
    for name, want in zip(("dJ", "dphi", "Phat", "P"), old):
        assert _same_bits(getattr(clo, name), want), name
    assert _same_bits(clo.terms, old_closure_terms(*old, dx))
    if batched:
        grey = [a.sum(axis=0) for a in old]
        assert _same_bits(sum_closures(clo).terms,
                          old_closure_terms(*grey, dx))


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
    # the compiled right sides of the grey system (no lead axis) and of the
    # group systems, on their own terms or on the grey closure's terms
    # given to every group; then the read-back of (phi, J) from a solution
    # of each: solve_grey's, in cell order, and group_pass's, in its
    # column order (unknowns), are the replaced split of the cell order
    rng = np.random.RandomState(6)
    N = DX.size
    system = LowOrderSystem(_spec(), Mesh(DX))
    terms = _signed_zeros(rng, rng.randn(*terms_lead, N, 4))
    terms[..., 2, 0] = np.nan
    if lead:
        phi = _signed_zeros(rng, rng.randn(*lead, N, 2))
        phi[:, 3, 1] = np.nan
        zeta = _signed_zeros(rng, rng.randn(N, 2))
        S = old_group_source(system, phi, zeta)
        got = system._right_sides(phi, zeta, np.broadcast_to(
            terms, lead + (N, 4)))
        assert got.shape == lead + (N, 4)
    else:
        S = _signed_zeros(rng, rng.randn(N, 2))
        S[0] = -0.0
        S[3, 1] = np.nan
        coeffs = GreyCoefficients(*(rng.randn(N, 2) for _ in range(3)), Q=S)
        got = system._grey_system(coeffs, terms)[3]
    assert _same_bits(got.reshape(-1), old_lo_rhs(S, terms).reshape(-1))
    u = _signed_zeros(rng, rng.randn(*lead, 4 * N))
    u[..., 5] = np.nan
    if lead:
        system._lu = SimpleNamespace(solve=lambda b: u.reshape(-1))
        got = system.group_pass(phi, zeta, SimpleNamespace(
            terms=np.broadcast_to(terms, lead + (N, 4))))
        want = old_split_solution(
            u[:, system._unknowns.swapaxes(0, 1).reshape(-1)])
    else:
        system._gbsv = lambda *args, **kwargs: (None, None, u, 0)
        got = system.solve_grey(coeffs, SimpleNamespace(terms=terms))
        want = old_split_solution(u)
    for got_f, want_f in zip(got, want, strict=True):
        assert _same_bits(got_f, want_f)
        assert got_f.flags.c_contiguous and not np.shares_memory(got_f, u)


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
        terms = _signed_zeros(rng, rng.randn(n, 4))
        mass = _mass_blocks(coeffs.sbar_a, coeffs.sbar_t, coeffs.eta)
        got = system._grey_system(coeffs, terms)
        want = old_grey_band(dx, mass)
        assert got[:2] == want[:2]
        assert _same_bits(got[2], want[2])
        assert _same_bits(got[3], old_lo_rhs(coeffs.Q, terms))
        assert got[4] is False


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


# -- Hypothesis pins of every compiled Level-2/3 path ------------------------

def _random_spec(rng, G, N):
    """A seeded G-group spec of N cells: scattering columns below sigma_t."""
    sigma_t = rng.rand(G) + 0.5
    sigma_s = rng.rand(G, G) * sigma_t * (0.9 / G)
    return ProblemSpec(G, sigma_t, sigma_s, rng.rand(G), width=1.0,
                       n_cells=N, n_half=1)


def _special_fluxes(rng, G, N):
    """(phi, J) (G, N, 2) with signed zeros and, on seeded cells, every
    safeguard case: flux sums of signed zeros at both nodes, exactly
    DENOM_EPS at both, 0.0 at one and DENOM_EPS at the other, half of
    DENOM_EPS at both, a vanishing
    |J| sum under a regular flux sum (the phi-weighted sbar_t) and under a
    vanishing one (the mean of sigma_t), and a NaN in phi or in J."""
    phi = _signed_zeros(rng, rng.rand(G, N, 2) + 0.1)
    J = _signed_zeros(rng, rng.randn(G, N, 2))
    zeros = lambda: rng.choice([0.0, -0.0], (G, 2))  # noqa: E731
    for i, case in enumerate(rng.randint(0, 9, N)):
        if case == 1:
            phi[:, i] = zeros()
        elif case in (2, 3, 8):
            phi[:, i] = 0.0
            phi[0, i] = {2: [DENOM_EPS, 0.0], 8: [0.5 * DENOM_EPS, 0.0],
                         3: [0.5 * DENOM_EPS, 0.5 * DENOM_EPS]}[case]
        elif case == 4:
            J[:, i] = zeros()
        elif case == 5:
            phi[:, i], J[:, i] = zeros(), zeros()
        elif case == 6:
            phi[rng.randint(G), i, rng.randint(2)] = np.nan
        elif case == 7:
            J[rng.randint(G), i, rng.randint(2)] = np.nan
    return phi, J


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(G=st.integers(1, 11), N=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(G=1, N=1, seed=0)
def test_compiled_node_averages_are_the_reference_formulas(G, N, seed):
    # avg_scattering_xs, compute_zeta, grey_xs and build_ho_rhs: every
    # bit, sign bits and NaN positions included, through every fallback
    rng = np.random.RandomState(seed)
    spec = _random_spec(rng, G, N)
    phi, J = _special_fluxes(rng, G, N)
    grey_phi = _signed_zeros(rng, rng.randn(N, 2))
    with np.errstate(all="ignore"):
        sbar_s = avg_scattering_xs(phi, spec.sigma_s)
        assert _same_bits(sbar_s, old_avg_scattering_xs(phi, spec.sigma_s))
        assert _same_bits(compute_zeta(grey_phi, phi),
                          old_compute_zeta(grey_phi, phi))
        assert _same_bits(build_ho_rhs(grey_phi, sbar_s, spec.Q),
                          old_build_ho_rhs(grey_phi, sbar_s, spec.Q))
        coeffs = grey_xs(phi, J, spec)
        expected = old_grey_xs(phi, J, spec)
    for got, want in zip((coeffs.sbar_a, coeffs.sbar_t, coeffs.eta),
                         expected):
        assert _same_bits(got, want)
    Q = np.zeros((N, 2))
    Q[:, 0] = spec.Q.sum()
    assert _same_bits(coeffs.Q, Q)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(G=st.integers(1, 5), N=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
@example(G=1, N=1, seed=0)
def test_compiled_group_right_sides_and_residual(G, N, seed):
    # the group right sides and the AA(1) residual on the record's CSR
    # matrices, against numpy and scipy's CSR product
    rng = np.random.RandomState(seed)
    system = LowOrderSystem(_random_spec(rng, G, N), Mesh(rng.rand(N) + 0.05))
    phi, J = _special_fluxes(rng, G, N)
    zeta = _signed_zeros(rng, rng.randn(N, 2))
    edges = [_signed_zeros(rng, rng.randn(G, N + 1)) for _ in range(3)]
    closures = ClosureData(*edges, P=_signed_zeros(rng, rng.randn(G, N, 2)),
                           dx=system.ops.dx)
    with np.errstate(all="ignore"):
        S = old_group_source(system, phi, zeta)
        assert _same_bits(
            system._right_sides(phi, zeta, closures.terms).reshape(G, -1),
            old_lo_rhs(S, closures.terms))
        assert _same_bits(
            system.equation_residual(phi, J, zeta, closures),
            old_equation_residual(system, phi, J, zeta, closures))


@pytest.mark.parametrize("N", [1, 3])
def test_residual_rows_sum_their_products_from_positive_zero(N):
    # zero unknowns signed against every entry of one row make each of
    # its products -0.0: summed from +0.0 they give +0.0, so the -0.0
    # right side of rows 2-3 stays -0.0 in b - A x, as in scipy's product
    rng = np.random.RandomState(N)
    system = LowOrderSystem(_random_spec(rng, 2, N), Mesh(rng.rand(N) + 0.05))
    data, indices, indptr = system._csr
    closures = SimpleNamespace(terms=np.full((2, N, 4), -0.0))
    for row in range(4 * N):
        x = np.zeros((2, 4 * N))
        entries = slice(indptr[row], indptr[row + 1])
        x[0, indices[entries]] = np.copysign(0.0, -data[0, entries])
        x = x.reshape(2, N, 4)
        phi, J = x[..., :2].copy(), x[..., 2:].copy()
        args = phi, J, np.ones((N, 2)), closures
        got = system.equation_residual(*args)
        assert _same_bits(got, old_equation_residual(system, *args))
        if row % 4 >= 2:
            assert np.signbit(got.reshape(2, N, 2, 2)[0, row // 4, row % 2,
                                                     1])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(N=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([None, np.nan, np.inf, -np.inf]))
@example(N=1, seed=0, special=None)
def test_compiled_grey_system_is_the_band_and_right_side(N, seed, special):
    # the band (kl = 3, ku = 1 for one cell), the right side and the
    # finiteness flag of the grey system, a non-finite coefficient included
    rng = np.random.RandomState(seed)
    dx = rng.rand(N) + 0.05
    system = LowOrderSystem(_random_spec(rng, 1, N), Mesh(dx))
    coeffs = _grey_coefficients(rng, N)
    if special is not None:
        field = (coeffs.sbar_a, coeffs.sbar_t, coeffs.eta)[rng.randint(3)]
        field[rng.randint(N), rng.randint(2)] = special
    terms = _signed_zeros(rng, rng.randn(N, 4))
    kl, ku, ab, b, finite = system._grey_system(coeffs, terms)
    want = old_grey_band(dx, _mass_blocks(coeffs.sbar_a, coeffs.sbar_t,
                                          coeffs.eta))
    assert (kl, ku) == want[:2] and (N > 1 or (kl, ku) == (3, 1))
    assert _same_bits(ab, want[2])
    assert _same_bits(b, old_lo_rhs(coeffs.Q, terms))
    assert finite is (special is None)
