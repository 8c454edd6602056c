import numpy as np
import pytest

from slabsm import driver
from slabsm.accel import DegenerateResidualPair, aa1_alpha, flatten_state
from slabsm.driver import IterationConfig, run_problem
from slabsm.problem import make_problem


def _aa1_affine_step(a, b, x0, x1):
    """The driver's AA(1) combination on the scalar map A(x) = a x + b:
    residuals r_j = A(x_j) - x_j, mixed map values a0 A(x0) + a1 A(x1)."""
    ax0, ax1 = a * x0 + b, a * x1 + b
    a0, a1 = aa1_alpha(np.array([ax0 - x0]), np.array([ax1 - x1]))
    return a0 * ax0 + a1 * ax1


def test_alpha_current_already_optimal():
    r_prev = np.array([1.0, -2.0, 0.5])
    a0, a1 = aa1_alpha(r_prev, np.zeros(3))
    assert a0 == pytest.approx(0.0)
    assert a1 == pytest.approx(1.0)


def test_alpha_antisymmetric_pair():
    r = np.array([0.3, -1.1, 2.0])
    a0, a1 = aa1_alpha(-r, r)
    assert a0 == pytest.approx(0.5)
    assert a1 == pytest.approx(0.5)
    assert np.allclose(a0 * (-r) + a1 * r, 0.0)


def test_alpha_degenerate_pair():
    r = np.array([1.0, 2.0])
    with pytest.raises(DegenerateResidualPair):
        aa1_alpha(r, r.copy())


def test_alpha_length_mismatch():
    with pytest.raises(ValueError):
        aa1_alpha(np.ones(3), np.ones(4))


def test_alpha_sums_to_one_and_projection_inequality():
    rng = np.random.RandomState(12)
    for _ in range(200):
        n = rng.randint(2, 40)
        rp = rng.randn(n)
        rc = rng.randn(n)
        a0, a1 = aa1_alpha(rp, rc)
        assert a0 + a1 == pytest.approx(1.0, abs=1e-15)
        combo = np.linalg.norm(a0 * rp + a1 * rc)
        best_single = min(np.linalg.norm(rp), np.linalg.norm(rc))
        assert combo <= best_single + 1e-12


def test_aa_step_m0_is_plain_fixed_point():
    # a vanishing current residual makes the mix the plain map value
    x = np.array([1.0, 2.0])
    ax_prev = np.array([0.3, 0.7])
    ax = np.array([0.9, 1.4])
    a0, a1 = aa1_alpha(ax_prev - x, np.zeros(2))
    assert (a0, a1) == (0.0, 1.0)
    assert np.array_equal(a0 * ax_prev + a1 * ax, ax)


def test_aa_step_worked_scalar_example():
    # A(x) = 0.5 x + 1: x0=0, A(x0)=1, r0=1; x1=1, A(x1)=1.5, r1=0.5
    # alpha0 = 0.5*(-0.5)/0.25 = -1 -> x2 = -1*1 + 2*1.5 = 2, the fixed point
    assert aa1_alpha(np.array([1.0]), np.array([0.5])) == (-1.0, 2.0)
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
    spec = make_problem(2, [1.0, 1.5], [[0.4, 0.2], [0.3, 0.9]], [1.0, 0.5],
                        width=8.0, n_cells=16, n_half=2)
    plain = run_problem(spec, IterationConfig(method="mlsm", s_max=2))

    def degenerate(r_prev, r_curr):
        raise DegenerateResidualPair("forced")

    monkeypatch.setattr(driver, "aa1_alpha", degenerate)
    rep = run_problem(spec, IterationConfig(method="mlsm-aa1", s_max=2))
    assert rep.aa_fallbacks == 2 * (rep.N_t + 1)
    assert rep.aa_alpha_peak == 0.0
    assert rep.residual_history == plain.residual_history
    assert np.array_equal(rep.state.grey_phi, plain.state.grey_phi)


def test_flatten_roundtrip():
    rng = np.random.RandomState(1)
    phi = rng.randn(3, 5, 2)
    J = rng.randn(3, 5, 2)
    u = flatten_state(phi, J).reshape(3, 5, 2, 2)
    assert np.array_equal(u[..., 0], phi)
    assert np.array_equal(u[..., 1], J)


def test_flatten_lengths():
    assert flatten_state(np.zeros((1, 1, 2)), np.zeros((1, 1, 2))).size == 4
    assert flatten_state(np.zeros((10, 128, 2)),
                         np.zeros((10, 128, 2))).size == 5120


def test_flatten_order_is_group_cell_coeff_field():
    phi = np.zeros((1, 2, 2))
    J = np.zeros((1, 2, 2))
    phi[0, 0] = [1, 2]   # cell 0: avg 1, slope 2
    J[0, 0] = [3, 4]
    phi[0, 1] = [5, 6]
    J[0, 1] = [7, 8]
    vec = flatten_state(phi, J)
    assert list(vec) == [1, 3, 2, 4, 5, 7, 6, 8]
