import numpy as np
import pytest

from slabsm import driver
from slabsm.accel import aa1_alpha
from slabsm.driver import IterationConfig, run_problem
from slabsm.fields import Mesh
from slabsm.losm import (ClosureData, LowOrderSystem, _lo_rhs,
                         _split_solution)
from slabsm.problem import ProblemSpec


def _aa1_pair(r_prev, r_curr):
    """(a0, a1) as the driver forms them from aa1_alpha: a1 = 1 - a0."""
    a0 = aa1_alpha(r_prev, r_curr)
    return a0, 1.0 - a0


def _aa1_affine_step(a, b, x0, x1):
    """The driver's AA(1) combination on the scalar map A(x) = a x + b:
    residuals r_j = A(x_j) - x_j, mixed map values a0 A(x0) + a1 A(x1)."""
    ax0, ax1 = a * x0 + b, a * x1 + b
    a0, a1 = _aa1_pair(np.array([ax0 - x0]), np.array([ax1 - x1]))
    return a0 * ax0 + a1 * ax1


def test_alpha_current_already_optimal():
    r_prev = np.array([1.0, -2.0, 0.5])
    a0, a1 = _aa1_pair(r_prev, np.zeros(3))
    assert a0 == pytest.approx(0.0)
    assert a1 == pytest.approx(1.0)


def test_alpha_antisymmetric_pair():
    r = np.array([0.3, -1.1, 2.0])
    a0, a1 = _aa1_pair(-r, r)
    assert a0 == pytest.approx(0.5)
    assert a1 == pytest.approx(0.5)
    assert np.allclose(a0 * (-r) + a1 * r, 0.0)


def test_alpha_degenerate_pair():
    r = np.array([1.0, 2.0])
    assert aa1_alpha(r, r.copy()) is None
    # a non-finite denominator is degenerate too
    assert aa1_alpha(np.array([np.inf, 0.0]), r) is None


def test_alpha_length_mismatch():
    with pytest.raises(ValueError):
        aa1_alpha(np.ones(3), np.ones(4))


def test_alpha_sums_to_one_and_projection_inequality():
    rng = np.random.RandomState(12)
    for _ in range(200):
        n = rng.randint(2, 40)
        rp = rng.randn(n)
        rc = rng.randn(n)
        a0, a1 = _aa1_pair(rp, rc)
        assert a0 + a1 == pytest.approx(1.0, abs=1e-15)
        combo = np.linalg.norm(a0 * rp + a1 * rc)
        best_single = min(np.linalg.norm(rp), np.linalg.norm(rc))
        assert combo <= best_single + 1e-12


def test_aa_step_m0_is_plain_fixed_point():
    # a vanishing current residual makes the mix the plain map value
    x = np.array([1.0, 2.0])
    ax_prev = np.array([0.3, 0.7])
    ax = np.array([0.9, 1.4])
    a0, a1 = _aa1_pair(ax_prev - x, np.zeros(2))
    assert (a0, a1) == (0.0, 1.0)
    assert np.array_equal(a0 * ax_prev + a1 * ax, ax)


def test_aa_step_worked_scalar_example():
    # A(x) = 0.5 x + 1: x0=0, A(x0)=1, r0=1; x1=1, A(x1)=1.5, r1=0.5
    # alpha0 = 0.5*(-0.5)/0.25 = -1 -> x2 = -1*1 + 2*1.5 = 2, the fixed point
    assert _aa1_pair(np.array([1.0]), np.array([0.5])) == (-1.0, 2.0)
    assert _aa1_affine_step(0.5, 1.0, 0.0, 1.0) == pytest.approx(2.0,
                                                                 abs=1e-14)


def test_aa1_secant_exactness_random_affine():
    rng = np.random.RandomState(77)
    for _ in range(50):
        a = rng.uniform(-0.95, 0.95)
        b = rng.uniform(-3, 3)
        fixed = b / (1 - a)
        x = rng.uniform(-5, 5)
        x2 = _aa1_affine_step(a, b, x, a * x + b)
        assert x2 == pytest.approx(fixed, abs=1e-9 * max(1, abs(fixed)))


def test_aa_step_degenerate_falls_back(monkeypatch):
    # with every residual pair degenerate the driver takes the plain step
    # (0, 1) each pass, which reproduces unaccelerated MLSM bitwise
    spec = ProblemSpec(2, [1.0, 1.5], [[0.4, 0.2], [0.3, 0.9]], [1.0, 0.5],
                       width=8.0, n_cells=16, n_half=2)
    plain = run_problem(spec, IterationConfig(method="mlsm", s_max=2))

    def degenerate(r_prev, r_curr):
        return None

    monkeypatch.setattr(driver, "aa1_alpha", degenerate)
    rep = run_problem(spec, IterationConfig(method="mlsm-aa1", s_max=2))
    assert rep.aa_fallbacks == 2 * (rep.N_t + 1)
    assert rep.aa_alpha_peak == 0.0
    assert rep.residual_history == plain.residual_history
    assert np.array_equal(rep.state.grey_phi, plain.state.grey_phi)


def test_equation_residual_is_the_stacked_split_residual():
    # equation_residual returns b - A x in the (group, cell, coefficient,
    # field) order AA(1) mixes: bitwise the split (phi, J) residuals
    # stacked with phi before J
    rng = np.random.RandomState(8)
    dx = rng.rand(7) + 0.05
    mesh = Mesh(dx)
    spec = ProblemSpec(3, [1.0, 1.5, 2.0],
                       [[0.3, 0.1, 0.0], [0.4, 0.6, 0.3], [0.1, 0.5, 1.2]],
                       [1.0, 0.5, 0.2], width=dx.sum(), n_cells=7, n_half=2)
    system = LowOrderSystem(spec, mesh)
    closures = ClosureData(dJ=rng.randn(3, 8), dphi=rng.randn(3, 8),
                           Phat=rng.randn(3, 8), P=rng.randn(3, 7, 2),
                           dx=dx)
    phi, J, zeta = rng.rand(3, 7, 2), rng.randn(3, 7, 2), rng.rand(7, 2)
    r = system.equation_residual(phi, J, zeta, closures)

    b = _lo_rhs(system.group_source(phi, zeta), closures.terms)
    x = np.concatenate([phi, J], axis=-1).reshape(-1)
    r_phi, r_J = _split_solution(b - (system._A @ x).reshape(b.shape))
    expected = np.stack([r_phi, r_J], -1).ravel()
    assert np.array_equal(r, expected)
    assert np.array_equal(np.signbit(r), np.signbit(expected))
