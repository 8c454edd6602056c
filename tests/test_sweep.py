import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slabsm import sweep
from slabsm.angular import angular_moments, build_double_gauss
from slabsm.driver import IterationConfig, run_problem
from slabsm.fields import Mesh
from slabsm.problem import ProblemSpec, builtin_problem
from slabsm.losm import (ProblemOperators, closure_from_sweep,
                         problem_operators)
from slabsm.sweep import build_ho_rhs, sweep_batch
from ld_fields import const_field, to_nodes
from test_fields import mesh_edges
from test_glue_bitwise import upwind_edge_psi

GAUSS3_T = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
GAUSS3_V = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _sweep(sigma_t, mesh, quad, rhs):
    """Sweep of sigma_t (G,) on the mesh in the directions of quad, a
    build_double_gauss set: psi (G, M, n_cells, 2).  The record's removal
    is sigma_t; a sweep never reads it."""
    n_half = quad.n_angles // 2
    assert quad is build_double_gauss(n_half)
    return sweep_batch(ProblemOperators(sigma_t, sigma_t, mesh.dx, n_half),
                       rhs)


def _sweep1(sigma_t, mesh, quad, rhs):
    """Single-group sweep: psi shaped (M, n_cells, 2)."""
    return _sweep(np.array([sigma_t]), mesh, quad, rhs[None])[0]


def sweep_per_direction(ops, rhs):
    """psi (G, M, N, 2) of the source rhs (G, M, N, 2), one per direction:
    a sweep of each direction d's source as the isotropic one, of which
    direction d is kept.  Each lane of the march reads only its group's
    source, so direction d of that sweep is the sweep of its own source."""
    return np.stack([sweep_batch(ops, rhs[:, d])[:, d]
                     for d in range(rhs.shape[1])], axis=1)


def cell_centers(mesh):
    """Midpoints of the cells."""
    edges = mesh_edges(mesh)
    return 0.5 * (edges[:-1] + edges[1:])


def _group_balance(psi, quad, mesh, sigma_t, rhs):
    """(leakage + collision, source) weak-form balance of one group's
    sweep output."""
    mom = angular_moments(psi, quad)
    J_hat = np.einsum("m,me->e", quad.w * quad.mu, upwind_edge_psi(psi, quad))
    leakage = J_hat[-1] - J_hat[0]
    collision = np.sum(sigma_t * mom.phi[:, 0] * mesh.dx)
    source = np.sum(2.0 * rhs[:, 0] * mesh.dx)
    return leakage + collision, source


def project_ld(f, mesh):
    """L2 projection of f(x) onto the LD space, 3-point Gauss per cell."""
    xc = cell_centers(mesh)
    h = mesh.dx / 2.0
    out = np.zeros((mesh.n_cells, 2))
    for t, v in zip(GAUSS3_T, GAUSS3_V):
        fx = f(xc + h * t)
        out[:, 0] += 0.5 * v * fx
        out[:, 1] += 1.5 * v * fx * t
    return out


def l2_error(psi, exact, mesh, quad):
    """Angular-weighted L2 norm of (psi_h - exact) over the slab."""
    xc = cell_centers(mesh)
    h = mesh.dx / 2.0
    total = 0.0
    for m in range(quad.n_angles):
        mu = quad.mu[m]
        for t, v in zip(GAUSS3_T, GAUSS3_V):
            x = xc + h * t
            num = psi[m, :, 0] + psi[m, :, 1] * t
            total += quad.w[m] * np.sum(v * h * (num - exact(x, mu))**2)
    return np.sqrt(total)


def test_zero_source_vacuum_gives_zero():
    quad = build_double_gauss(4)
    mesh = Mesh.uniform(10.0, 20)
    psi = _sweep1(2.0, mesh, quad, np.zeros((20, 2)))
    assert np.all(psi == 0.0)


def test_thick_slab_interior_reaches_infinite_medium():
    # sigma_t = 1, Q = 1, no scattering: interior phi -> Q/sigma_t = 1
    quad = build_double_gauss(8)
    mesh = Mesh.uniform(32.0, 128)
    rhs = const_field(0.5, 128)
    psi = _sweep1(1.0, mesh, quad, rhs)
    mom = angular_moments(psi, quad)
    assert mom.phi[64, 0] == pytest.approx(1.0, abs=1e-3)
    assert np.all(np.isfinite(psi))


def test_weak_form_balance():
    quad = build_double_gauss(8)
    mesh = Mesh.uniform(6.0, 24)
    rng = np.random.RandomState(11)
    rhs = rng.rand(24, 2) * np.array([1.0, 0.3])
    psi = _sweep1(1.7, mesh, quad, rhs)
    lhs, src = _group_balance(psi, quad, mesh, 1.7, rhs)
    assert abs(lhs - src) / abs(src) < 1e-12


def test_mirror_symmetry():
    quad = build_double_gauss(4)
    mesh = Mesh.uniform(5.0, 10)
    rng = np.random.RandomState(7)
    rhs = rng.rand(10, 2)
    psi = _sweep1(0.8, mesh, quad, rhs)

    rhs_m = rhs[::-1].copy()
    rhs_m[:, 1] *= -1.0
    psi_m = _sweep1(0.8, mesh, quad, rhs_m)
    # mirroring reverses cells, negates slopes, and swaps mu <-> -mu
    expected = psi[::-1, ::-1, :].copy()
    expected[:, :, 1] *= -1.0
    assert np.allclose(psi_m, expected, atol=1e-14)


def _inflow_distance(x, mu, W):
    """Distance from the inflow edge: x for mu > 0, W - x for mu < 0."""
    return x if mu > 0 else W - x


def test_manufactured_linear_solution_exact():
    # psi = d (1+mu), d the distance from the inflow edge, vanishes on the
    # vacuum inflow and lies in the LD trial space: reproduced to roundoff
    quad = build_double_gauss(4)
    sigma, W = 1.3, 4.0
    mesh = Mesh.uniform(W, 8)
    rhs = np.zeros((quad.n_angles, mesh.n_cells, 2))
    for m, mu in enumerate(quad.mu):
        rhs[m] = project_ld(
            lambda x: abs(mu) * (1 + mu)
            + sigma * _inflow_distance(x, mu, W) * (1 + mu), mesh)
    ops = ProblemOperators([sigma], [sigma], mesh.dx, 4)
    psi = sweep_per_direction(ops, rhs[None])[0]
    for m, mu in enumerate(quad.mu):
        exact_avg = _inflow_distance(cell_centers(mesh), mu, W) * (1 + mu)
        exact_slope = np.sign(mu) * (mesh.dx / 2.0) * (1 + mu)
        assert np.allclose(psi[m, :, 0], exact_avg, atol=1e-12)
        assert np.allclose(psi[m, :, 1], exact_slope, atol=1e-12)


def curved_solution(W):
    """psi = (d/W)^2 (1+mu), d the distance from the inflow edge, which
    vanishes on the vacuum inflow, and its source mu psi' + sigma psi."""
    def exact(x, mu):
        return (_inflow_distance(x, mu, W) / W)**2 * (1 + mu)

    def source(x, mu, sigma):
        d = _inflow_distance(x, mu, W)
        return abs(mu) * (1 + mu) * 2 * d / W**2 + sigma * exact(x, mu)
    return exact, source


@st.composite
def _vacuum_sweeps(draw):
    """(sigma_t, dx, n_half, source seed) of a random vacuum sweep: G in
    [1, 6], N in [1, 64], n_half in [1, 8], cell widths in [0.1, 1] and
    optical thicknesses sigma_t * dx from 1e-4 to 1e4."""
    G = draw(st.integers(1, 6))
    N = draw(st.integers(1, 64))
    dx = draw(st.lists(st.floats(0.1, 1.0), min_size=N, max_size=N))
    log_sigma_t = draw(st.lists(st.floats(-3.0, 4.0), min_size=G,
                                max_size=G))
    return (10.0 ** np.array(log_sigma_t), np.array(dx),
            draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_vacuum_sweeps())
def test_vacuum_sweep_is_finite_and_balanced(problem):
    # thin and thick cells alike: psi is finite and each group's leakage
    # plus collision equals its source
    sigma_t, dx, n_half, seed = problem
    mesh = Mesh(dx)
    quad = build_double_gauss(n_half)
    rng = np.random.RandomState(seed)
    rhs = rng.rand(sigma_t.size, dx.size, 2) + [0.01, -0.5]
    psi = _sweep(sigma_t, mesh, quad, rhs)
    assert np.all(np.isfinite(psi))
    for g in range(sigma_t.size):
        lhs, src = _group_balance(psi[g], quad, mesh, sigma_t[g], rhs[g])
        assert abs(lhs - src) <= 1e-12 * abs(src)


def test_build_ho_rhs_trivials():
    n = 6
    phi = const_field(2.0, n)
    sbar = np.stack([np.zeros((n, 2)), const_field(0.5, n)])
    rhs = build_ho_rhs(phi, sbar, np.array([1.0, 1.0]))
    assert np.allclose(rhs[0], const_field(0.5, n))
    assert np.allclose(rhs[1], const_field(1.0, n))


def test_build_ho_rhs_constant_xs_linear_flux_exact():
    n = 4
    sbar = const_field(0.7, n)
    phi = np.column_stack([np.linspace(1, 2, n), np.full(n, 0.1)])
    rhs = build_ho_rhs(phi, sbar[None], np.zeros(1))
    assert np.allclose(rhs[0], 0.5 * 0.7 * phi, atol=1e-15)


def test_build_ho_rhs_mesh_mismatch():
    with pytest.raises(ValueError):
        build_ho_rhs(const_field(1.0, 4), const_field(1.0, 5)[None],
                     np.zeros(1))


def test_upwind_edges_pick_correct_traces():
    quad = build_double_gauss(1)
    psi = np.zeros((2, 2, 2))
    psi[:, 0] = [1.0, 0.5]   # cell 0: left trace 0.5, right trace 1.5
    psi[:, 1] = [3.0, -1.0]  # cell 1: left trace 4.0, right trace 2.0
    edges = upwind_edge_psi(psi, quad)
    neg, pos = 0, 1
    assert edges[pos, 0] == 0.0          # vacuum inflow
    assert edges[pos, 1] == pytest.approx(1.5)
    assert edges[pos, 2] == pytest.approx(2.0)
    assert edges[neg, 2] == 0.0
    assert edges[neg, 1] == pytest.approx(4.0)
    assert edges[neg, 0] == pytest.approx(0.5)


def _explicit_closures(psi, quad, moments):
    """(dJ, dphi, Phat) from einsum edge moments and the interior and
    boundary reconstructions written out term by term."""
    N = psi.shape[-2]
    edge_psi = upwind_edge_psi(psi, quad)
    phi_hat = np.einsum("m,...me->...e", quad.w, edge_psi)
    J_hat = np.einsum("m,...me->...e", quad.w * quad.mu, edge_psi)
    P_hat = np.einsum("m,...me->...e", quad.w * (1.0 / 3.0 - quad.mu**2),
                      edge_psi)
    phi_n, J_n = to_nodes(moments.phi), to_nodes(moments.J)
    dJ = np.empty(phi_hat.shape)
    dphi = np.empty(phi_hat.shape)
    lphi, lJ = phi_n[..., :-1, 1], J_n[..., :-1, 1]
    rphi, rJ = phi_n[..., 1:, 0], J_n[..., 1:, 0]
    dJ[..., 1:N] = (J_hat[..., 1:N]
                    - (0.25 * lphi + 0.5 * lJ - 0.25 * rphi + 0.5 * rJ))
    dphi[..., 1:N] = (phi_hat[..., 1:N]
                      - (0.5 * lphi + 0.75 * lJ + 0.5 * rphi - 0.75 * rJ))
    dJ[..., 0] = J_hat[..., 0] + 0.5 * phi_n[..., 0, 0]
    dJ[..., N] = J_hat[..., N] - 0.5 * phi_n[..., N - 1, 1]
    dphi[..., 0] = phi_hat[..., 0] - (0.5 * phi_n[..., 0, 0]
                                      - 0.75 * J_n[..., 0, 0])
    dphi[..., N] = phi_hat[..., N] - (0.5 * phi_n[..., N - 1, 1]
                                      + 0.75 * J_n[..., N - 1, 1])
    return dJ, dphi, P_hat


@pytest.mark.parametrize("n_half", [1, 3])
@pytest.mark.parametrize("dx", [[0.3], [0.2, 0.45],
                                [0.1, 0.3, 0.05, 0.4, 0.2, 0.25, 0.4]])
@pytest.mark.parametrize("G", [1, 3])
def test_closures_match_explicit_reconstruction(G, dx, n_half):
    # closure_from_sweep applies the edge_weights table; it equals the
    # term-by-term formulas on sweep outputs and on arbitrary LD fluxes
    dx = np.array(dx)
    mesh = Mesh(dx)
    quad = build_double_gauss(n_half)
    rng = np.random.RandomState(7 * G + dx.size + n_half)
    sigma_t = rng.rand(G) + 0.5
    swept = _sweep(sigma_t, mesh, quad, rng.rand(G, dx.size, 2))
    for psi in (swept, rng.randn(*swept.shape)):
        moments = angular_moments(psi, quad)
        closure = closure_from_sweep(
            psi, quad, moments, ProblemOperators(sigma_t, sigma_t, dx, n_half))
        dJ, dphi, Phat = _explicit_closures(psi, quad, moments)
        assert np.array_equal(closure.dJ, dJ)
        assert np.array_equal(closure.dphi, dphi)
        assert np.array_equal(closure.Phat, Phat)
        assert np.array_equal(closure.P, moments.P)


def test_sigma_t_must_be_positive():
    # rejected when the record is constructed, in any group
    quad = build_double_gauss(2)
    mesh = Mesh.uniform(1.0, 2)
    for sigma_t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite sigma_t > 0"):
            _sweep1(sigma_t, mesh, quad, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite sigma_t > 0"):
            ProblemOperators([1.0, sigma_t], [1.0, 1.0], mesh.dx, 2)


@pytest.mark.parametrize("dx", [[1.0, 0.0], [0.5, -0.5, 0.5, 0.5],
                                [1.0, np.nan], [np.inf, 1.0],
                                [[0.5, 0.5], [0.5, 0.5]], []])
def test_record_rejects_widths_the_march_cannot_take(dx):
    # the record takes its widths through Mesh, so a zero, negative,
    # NaN or infinite width, a 2-D dx and an empty one raise Mesh's
    # error when it is constructed; none reaches a sweep, and a NaN width
    # is not reported as an overflow
    with pytest.raises(ValueError,
                       match="mesh cell widths must be finite and > 0"):
        ProblemOperators([1.0], [1.0], np.array(dx), 2)


@pytest.mark.parametrize("rhs, match", [
    (np.zeros((1, 3, 2)), "shape"),
    (np.zeros((1, 4, 2, 2)), "shape"),
    (np.zeros((2, 2)), "shape"),
    (np.full((1, 2, 2), np.nan), "rhs must be finite"),
    (np.full((1, 2, 2), np.inf), "rhs must be finite"),
    (np.zeros((2, 2, 2)), "shape"),
])
def test_bad_rhs_rejected(monkeypatch, rhs, match):
    # the source of a sweep is isotropic, (G, N, 2): a wrong N or G, a
    # source per direction (G, M, N, 2) and a NaN or inf raise before the
    # library is called
    def no_call(name):
        raise AssertionError(f"{name} called")
    monkeypatch.setattr(sweep, "kernel", no_call)
    quad = build_double_gauss(2)
    with pytest.raises(ValueError, match=match):
        _sweep([1.0], Mesh.uniform(1.0, 2), quad, rhs)


def test_nested_list_source_sweeps():
    ops = ProblemOperators([1.0, 2.0], [1.0, 2.0], [0.5, 0.25], 2)
    rhs = [[[1.0, 0.5], [0.0, -0.25]], [[2.0, 0.0], [1.5, 0.5]]]
    assert _same_bits(sweep_batch(ops, rhs), sweep_batch(ops, np.array(rhs)))


def test_sigma_t_dx_overflow_rejected():
    # sd = sigma_t * dx near 1e154 makes sd^2 overflow; the cell solve
    # would return psi = 0 instead of the true q / sigma_t
    quad = build_double_gauss(2)
    mesh = Mesh.uniform(4.0, 4)
    rhs = const_field(0.5, 4)
    with pytest.raises(ValueError, match="overflows"):
        _sweep1(1e160, mesh, quad, rhs)
    # raised by each construction of the record, which keeps nothing
    for _ in range(2):
        with pytest.raises(ValueError, match="overflows"):
            ProblemOperators(np.array([1e160]), np.array([1.0]), mesh.dx, 2)
    # still representable: thick cells give psi_a = q / sigma_t
    psi = _sweep1(1e150, mesh, quad, rhs)
    assert np.allclose(psi[:, 1:-1, 0], 0.5e-150, rtol=1e-12)


def test_group_axis_matches_single_group_sweeps():
    # one G=3 sweep equals three G=1 sweeps bitwise
    quad = build_double_gauss(4)
    mesh = Mesh.uniform(6.0, 12)
    rng = np.random.RandomState(21)
    sigma_t = np.array([0.3, 1.7, 25.0])
    rhs = rng.rand(3, 12, 2)
    psi = _sweep(sigma_t, mesh, quad, rhs)
    for g in range(3):
        assert np.array_equal(psi[g], _sweep1(sigma_t[g], mesh, quad, rhs[g]))


@pytest.mark.parametrize("thick", [False, True])
@pytest.mark.parametrize("n_half", [1, 3])
@pytest.mark.parametrize("dx", [[0.3], [0.2, 0.45],
                                [0.1, 0.3, 0.05, 0.4, 0.2, 0.25, 0.4]])
@pytest.mark.parametrize("G", [1, 3, 10])
def test_isotropic_source_matches_broadcast_source(G, dx, n_half, thick):
    # one march of a (G, N, 2) source is, in every group and direction,
    # the cell-by-cell solve of the same source given to each direction,
    # in cells of optical thickness about 1 and 1e100, with exact zeros
    # of both signs in the source
    dx = np.array(dx)
    N = dx.size
    mesh = Mesh(dx)
    quad = build_double_gauss(n_half)
    rng = np.random.RandomState(G + 10 * N + 100 * n_half)
    sigma_t = (rng.rand(G) + 0.5) * (1e100 if thick else 1.0)
    rhs = rng.randn(G, N, 2)
    rhs[rng.rand(G, N, 2) < 0.3] = 0.0
    rhs[rng.rand(G, N, 2) < 0.1] = -0.0
    psi = _sweep(sigma_t, mesh, quad, rhs)
    for g in range(G):
        ref = _reference_sweep(sigma_t[g], dx, quad, rhs[g])
        assert np.abs(psi[g] - ref).max() <= 1e-12 * np.abs(ref).max()


def _spec(sigma_t=(0.5, 2.0), n_cells=8, n_half=3):
    """A problem without scattering (problem_operators takes the cell
    widths from the mesh it is given, not from the spec's width)."""
    G = len(sigma_t)
    return ProblemSpec(G, sigma_t, np.zeros((G, G)), np.ones(G), width=4.0,
                       n_cells=n_cells, n_half=n_half)


def _same_bits(a, b):
    """Equal values and equal sign bits (array_equal takes -0.0 for
    +0.0)."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_operator_record_cached_per_problem():
    mesh = Mesh.uniform(4.0, 8)
    ops = problem_operators(_spec(), mesh)
    rhs = np.random.RandomState(3).randn(2, 8, 2)
    first = sweep_batch(ops, rhs)
    # a new spec and mesh of the same data get the one record, whose
    # sweep reads sigma_t, |mu| of the double Gauss set and dx
    assert problem_operators(_spec(), Mesh.uniform(4.0, 8)) is ops
    data = (ops.sigma_t, ops.mabs, ops.dx)
    assert _same_bits(ops.sigma_t, np.array([0.5, 2.0]))
    assert _same_bits(ops.mabs, np.abs(build_double_gauss(3).mu))
    assert _same_bits(ops.dx, mesh.dx)
    # dx alone (same N), sigma_t alone or n_half alone makes a new record,
    # which differs in that part only
    others = [((_spec(), Mesh.uniform(5.0, 8)), 3),
              ((_spec(sigma_t=(0.5, 2.5)), mesh), 1),
              ((_spec(n_half=2), mesh), 2)]
    for other, changed in others:
        record = problem_operators(*other)
        assert record is not ops
        assert [not _same_bits(a, b) for a, b in
                zip((record.sigma_t, record.mabs, record.dx), data)] == [
                    k == changed for k in (1, 2, 3)]
    # A, then enough other problems to evict A, then A again: a new record
    # of the same bits, which sweeps the same bits
    for n_cells in range(1, 10):
        problem_operators(_spec(n_cells=n_cells), Mesh.uniform(4.0, n_cells))
    rebuilt = problem_operators(_spec(), mesh)
    assert rebuilt is not ops
    assert all(_same_bits(a, b) for a, b in
               zip((rebuilt.sigma_t, rebuilt.mabs, rebuilt.dx), data))
    assert _same_bits(sweep_batch(rebuilt, rhs), first)


def test_march_keeps_its_own_copies():
    # the caller's sigma_t and dx stay writable, and writes into them
    # after the record is built change no later sweep: no array the march
    # reads shares their memory
    sigma_t = np.array([0.5, 2.0, 30.0])
    dx = np.array([0.3, 0.1, 0.45, 0.2, 0.25])
    ops = ProblemOperators(sigma_t, sigma_t.copy(), dx, 3)
    rhs = np.random.RandomState(34).randn(sigma_t.size, dx.size, 2)
    first = sweep_batch(ops, rhs)
    inputs = (sigma_t, dx)
    assert all(a.flags.writeable for a in inputs)
    for a in inputs:
        a *= 2.0
    assert _same_bits(sweep_batch(ops, rhs), first)
    assert not any(np.shares_memory(a, b)
                   for a in (ops.sigma_t, ops.mabs, ops.dx) for b in inputs)


def _meshes():
    """Cell widths: uniform, random, mirror-symmetric, repeating, a
    single cell, and meshes whose runs of equal widths start at other
    steps in the mirrored half's cell order than in the forward half's,
    with the number of distinct pairs (dx[N-1-i], dx[i]) of the widths
    that the two halves meet at one step."""
    rng = np.random.RandomState(30)
    yield np.full(6, 0.25), 1
    yield rng.rand(9) + 0.05, 9
    half = rng.rand(4) + 0.05
    yield np.concatenate((half, [0.7], half[::-1])), 5
    yield np.tile([0.2, 0.45], 3), 2
    yield np.array([0.3]), 1
    yield np.array([0.3, 0.3, 0.3, 0.5]), 3
    yield np.array([0.5, 0.3, 0.3, 0.3]), 3
    yield np.array([0.2, 0.2, 0.5, 0.5, 0.5, 0.1]), 5


# directions per half below, at, above and off a multiple of the march's
# block of eight lanes
N_HALF = (1, 3, 5, 8, 9, 12)


@pytest.mark.parametrize("dx, rows", list(_meshes()))
def test_march_has_one_row_per_distinct_cell(dx, rows):
    # each block of the march, one group's lanes of one half, forms its
    # coefficient rows at its first cell and again wherever the width
    # differs from the cell before's in its half's cell order (from cell
    # N-1 down in the mirrored half): once per run of equal widths, the
    # two halves' runs starting at different steps where the mesh is not
    # mirror-symmetric.  psi is bit for bit, signed zeros included, that
    # of the unpacked solve, which forms the coefficients at every step,
    # for random and +-0.0 sources, with full blocks and with tails
    assert len(set(zip(dx[::-1], dx))) == rows
    sigma_t = np.array([0.5, 2.0, 30.0])
    G, N = sigma_t.size, dx.size
    mesh = Mesh(dx)
    for n_half in N_HALF:
        quad = build_double_gauss(n_half)
        ops = ProblemOperators(sigma_t, sigma_t, dx, n_half)
        rng = np.random.RandomState(N + 100 * n_half)
        zeros = np.zeros((G, N, 2))
        zeros[rng.rand(G, N, 2) < 0.5] = -0.0
        for rhs in (rng.randn(G, N, 2), zeros):
            psi = sweep_batch(ops, rhs)
            assert _same_bits(psi, _unpacked_sweep(sigma_t, mesh, quad,
                                                   rhs)), n_half


def test_march_carries_nothing_between_sweeps():
    # a record is read-only and every sweep of it shares it: sweeps of two
    # records interleaved, with a random and a +-0.0 source and a rejected
    # NaN source between them, each give the bits of a sweep on a new
    # record, and no psi changes when later sweeps of its record run
    dx = np.array([0.3, 0.1, 0.45, 0.2, 0.25])
    sigma_t = np.array([0.5, 2.0, 30.0])
    G, N = sigma_t.size, dx.size
    ops = ProblemOperators(sigma_t, sigma_t, dx, 3)
    other = ProblemOperators([1.5, 0.2], [1.5, 0.2], np.full(7, 0.3), 3)
    read = (ops.sigma_t, ops.mabs, ops.dx)
    kept_read = [a.copy() for a in read]
    rng = np.random.RandomState(29)
    zeros = np.zeros((G, N, 2))
    zeros[rng.rand(G, N, 2) < 0.5] = -0.0
    nan = rng.randn(G, N, 2)
    nan[1, 2, 0] = np.nan
    swept = []
    for rhs in (rng.randn(G, N, 2), zeros):
        source = rhs.copy()
        psi = sweep_batch(ops, rhs)
        ref = sweep_batch(ProblemOperators(sigma_t, sigma_t, dx, 3), rhs)
        assert _same_bits(psi, ref)
        assert _same_bits(rhs, source)
        assert not any(np.shares_memory(psi, a) for a in (rhs, *read))
        swept.append((psi, psi.copy()))
        with pytest.raises(ValueError, match="finite"):
            sweep_batch(ops, nan)
        sweep_batch(other, rng.randn(2, 7, 2))
    # an earlier psi is not changed by later sweeps of its record
    for psi, kept in swept:
        assert _same_bits(psi, kept)
    assert len({id(psi) for psi, _ in swept}) == len(swept)
    # what the march reads is read-only and unchanged
    for a, kept in zip(read, kept_read):
        assert not a.flags.writeable
        assert _same_bits(a, kept)
    # a run's final TransportState.psi is its own array, not changed by
    # the sweeps of later runs of the problem
    spec = _spec()
    ops = problem_operators(spec, Mesh.uniform(spec.width, spec.n_cells))
    state = run_problem(spec, IterationConfig(method="si",
                                              max_outer=3)).state
    kept = state.psi.copy()
    for _ in range(3):
        sweep_batch(ops, rng.randn(spec.G, spec.n_cells, 2))
    run_problem(spec, IterationConfig(method="si", max_outer=2))
    assert _same_bits(state.psi, kept)


def _unpacked_sweep(sigma_t, mesh, quad, rhs):
    """The one march with the LD cell solve written out term by term in
    every step, with nothing hoisted but dx * source and sigma_t * dx, of
    the source rhs (G, N, 2) in every direction.  psi (G, M, N, 2)."""
    G, M, N = sigma_t.size, quad.n_angles, mesh.n_cells
    neg = quad.mu < 0
    m = np.abs(quad.mu)
    src = np.empty((G, M, N, 2))
    np.multiply(rhs[:, None], mesh.dx[:, None], out=src)
    src[:, neg] = src[:, neg, ::-1]
    src[:, neg, :, 1] *= -1.0
    dx = np.where(neg[:, None], mesh.dx[::-1], mesh.dx)
    sd_cells = sigma_t[:, None, None] * dx
    psi = np.empty((G, M, N, 2))
    inc = np.zeros((G, M))
    for i in range(N):
        sd = sd_cells[:, :, i]
        qa = src[:, :, i, 0] + m * inc
        qs = src[:, :, i, 1] - 3.0 * m * inc
        det = 6.0 * m**2 + 4.0 * m * sd + sd * sd
        a = ((3.0 * m + sd) * qa - m * qs) / det
        s = (3.0 * m * qa + (m + sd) * qs) / det
        psi[:, :, i, 0] = a
        psi[:, :, i, 1] = s
        inc = a + s
    psi[:, neg] = psi[:, neg, ::-1]
    psi[:, neg, :, 1] *= -1.0
    return psi


def test_march_matches_unpacked_cell_solve():
    # the packed solve (K q) / det of the module docstring rounds exactly
    # as the unpacked one: every bit, the sign of every zero included, in
    # one group and in many, on one cell and on many, and with a half of
    # directions that fills the march's blocks of lanes or leaves a tail
    rng = np.random.RandomState(17)
    n_cases = 0
    for G in (1, 3, 10):
        for N in (1, 2, 7, 128):
            dx = rng.rand(N) + 0.05 if N == 7 else np.full(N, 2.0 / N)
            mesh = Mesh(dx)
            for n_half in N_HALF:
                quad = build_double_gauss(n_half)
                # sigma_t * dx about 1e-10 (thin), 1 and 1e100 (thick)
                for tau in (1e-10, 1.0, 1e100):
                    sigma_t = tau / dx.mean() * (rng.rand(G) + 0.5)
                    rhs = rng.randn(G, N, 2)
                    # exact zeros of both signs
                    rhs[rng.rand(G, N, 2) < 0.3] = 0.0
                    rhs[rng.rand(G, N, 2) < 0.1] = -0.0
                    case = (G, N, n_half, tau)
                    ref = _unpacked_sweep(sigma_t, mesh, quad, rhs)
                    psi = _sweep(sigma_t, mesh, quad, rhs)
                    assert np.array_equal(psi, ref), case
                    assert np.array_equal(np.signbit(psi),
                                          np.signbit(ref)), case
                    n_cases += 1
    assert n_cases == 3 * 4 * len(N_HALF) * 3


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_vacuum_sweeps())
def test_march_matches_unpacked_cell_solve_on_random_sweeps(problem):
    # the bitwise pin above, over the property test's space of sweeps:
    # sources with exact zeros of both signs
    sigma_t, dx, n_half, seed = problem
    mesh = Mesh(dx)
    quad = build_double_gauss(n_half)
    rng = np.random.RandomState(seed)
    shape = (sigma_t.size, dx.size, 2)
    rhs = rng.randn(*shape)
    rhs[rng.rand(*shape) < 0.3] = 0.0
    rhs[rng.rand(*shape) < 0.1] = -0.0
    ref = _unpacked_sweep(sigma_t, mesh, quad, rhs)
    psi = _sweep(sigma_t, mesh, quad, rhs)
    assert np.array_equal(psi, ref)
    assert np.array_equal(np.signbit(psi), np.signbit(ref))


def _reference_sweep(sigma_t, dx, quad, rhs):
    """One group, one direction and one cell at a time: np.linalg.solve
    on the module docstring's 2x2 cell system, with the upwind edge on the
    inflow side (left for mu > 0, right for mu < 0), vacuum inflow and the
    source rhs (N, 2) in every direction.  psi (M, N, 2)."""
    N = dx.size
    psi = np.zeros((quad.n_angles, N, 2))
    for m, mu in enumerate(quad.mu):
        cells = range(N) if mu > 0 else range(N - 1, -1, -1)
        psi_in = 0.0
        for i in cells:
            sd = sigma_t * dx[i]
            A = [[abs(mu) + sd, mu], [-3.0 * mu, 3.0 * abs(mu) + sd]]
            b = [dx[i] * rhs[i, 0] + abs(mu) * psi_in,
                 dx[i] * rhs[i, 1] - 3.0 * mu * psi_in]
            psi[m, i] = np.linalg.solve(A, b)
            psi_in = psi[m, i, 0] + np.sign(mu) * psi[m, i, 1]
    return psi


def test_nonuniform_mesh_matches_per_cell_reference():
    # the mu < 0 directions march the cells in reverse, so they must meet
    # the widths in reverse too
    rng = np.random.RandomState(5)
    dx = rng.rand(7) + 0.05
    mesh = Mesh(dx)
    quad = build_double_gauss(3)
    sigma_t = np.array([0.6, 4.0])
    rhs = rng.randn(2, 7, 2)
    psi = _sweep(sigma_t, mesh, quad, rhs)
    for g in range(2):
        ref = _reference_sweep(sigma_t[g], dx, quad, rhs[g])
        assert np.abs(psi[g] - ref).max() <= 1e-12 * np.abs(ref).max()


# a fresh interpreter that runs one sweep with sysconfig's CC set to
# argv[1], and prints the error if building the march fails
_BUILD = """
import sys, sysconfig
sysconfig.get_config_vars()["CC"] = sys.argv[1]
from slabsm.losm import ProblemOperators
from slabsm.sweep import sweep_batch
ops = ProblemOperators([1.0], [1.0], [0.5, 0.5], 1)
try:
    psi = sweep_batch(ops, [[[1.0, 0.0], [1.0, 0.0]]])
except RuntimeError as err:
    print(err)
else:
    print(psi.sum())
"""


def _build(cache, compiler):
    """stdout of _BUILD in a fresh interpreter with the library cache in
    the directory `cache`."""
    src = pathlib.Path(sweep.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(cache))
    proc = subprocess.run([sys.executable, "-c", _BUILD, compiler], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_march_build_without_a_compiler_raises(tmp_path, compiler):
    # a compiler that cannot be run, or one that fails: the first sweep
    # raises, naming the command and the compiler's error output, and
    # leaves nothing in the cache
    cache = tmp_path / "cache"
    (cache / "slabsm").mkdir(mode=0o700, parents=True)
    cc = tmp_path / "cc"
    if compiler == "failing":
        cc.write_text('#!/bin/sh\necho "cc: no target" >&2\nexit 1\n')
        cc.chmod(0o700)
    out = _build(cache, str(cc))
    verdict = {"missing": "cannot run the C compiler: ",
               "failing": "the C compiler failed: "}[compiler]
    assert out.startswith(verdict + str(cc) + " -O2"), out
    assert "_march.c" in out
    assert ("cc: no target" in out) == (compiler == "failing")
    assert [p.name for p in cache.rglob("*")] == ["slabsm"]


def test_march_build_reuses_the_cached_library(tmp_path):
    # a compiler that logs each run: the first process compiles the march
    # into the cache, a fresh one with a warm cache runs no compiler
    log = tmp_path / "runs"
    cc = tmp_path / "cc"
    cc.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec cc "$@"\n')
    cc.chmod(0o700)
    cache = tmp_path / "cache"
    first = _build(cache, str(cc))
    assert first == _build(cache, str(cc)) != ""
    assert log.read_text() == "run\n"
    assert len(list((cache / "slabsm").iterdir())) == 1


def test_signature_table_is_the_library_source():
    # the ctypes table repeats each exported prototype of _march.c by hand:
    # (size arguments, pointer arguments, int return); a drift would pass
    # the wrong arguments through ctypes
    table = {}
    for returns, name, params in re.findall(
            r"^(\w+) (slabsm_\w+)\(([^)]*)\)", sweep._SOURCE.read_text(),
            re.M):
        params = [" ".join(p.split()) for p in params.split(",")]
        sizes = [p for p in params if re.fullmatch(r"ptrdiff_t \w+", p)]
        pointers = [p for p in params if "*" in p]
        assert len(sizes) + len(pointers) == len(params), name
        assert returns in ("int", "void"), name
        table[name] = (len(sizes), len(pointers), returns == "int")
    assert table == sweep._SIGNATURES
