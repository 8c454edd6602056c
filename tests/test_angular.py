import numpy as np
import pytest

from slabsm.angular import (AngularQuadrature, angular_moments,
                            build_double_gauss)


def test_double_s8_has_16_directions():
    quad = build_double_gauss(8)
    assert quad.n_angles == 16


def test_normalization_and_symmetry():
    for n_half in (1, 2, 4, 8, 16):
        quad = build_double_gauss(n_half)
        assert quad.w.sum() == pytest.approx(2.0, abs=1e-14)
        assert (quad.w * quad.mu).sum() == pytest.approx(0.0, abs=1e-14)
        assert np.all(quad.w > 0)
        assert np.all(quad.mu != 0.0)
        assert np.all(np.diff(quad.mu) > 0)
        # mirrored pairs share weights
        assert np.allclose(np.sort(np.abs(quad.mu[quad.mu < 0])),
                           quad.mu[quad.mu > 0], atol=1e-15)


def test_second_moment_integral_exact():
    quad = build_double_gauss(8)
    assert (quad.w * quad.mu**2).sum() == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_half_range_exactness_up_to_degree():
    # degree <= 2*n_half - 1 integrated exactly on each half range
    for n_half in (2, 4, 8):
        quad = build_double_gauss(n_half)
        pos = quad.mu > 0
        for k in range(2 * n_half):
            analytic = 1.0 / (k + 1)
            val = (quad.w[pos] * quad.mu[pos]**k).sum()
            assert val == pytest.approx(analytic, abs=5e-14), (n_half, k)


@pytest.mark.parametrize("n_half", range(1, 9))
def test_double_gauss_has_the_enforced_layout(n_half):
    quad = build_double_gauss(n_half)
    AngularQuadrature(mu=quad.mu, w=quad.w)
    assert np.all(quad.mu[:n_half] < 0) and np.all(quad.mu[n_half:] > 0)


@pytest.mark.parametrize("mu, w", [
    ([0.5, -0.5], [1.0, 1.0]),                        # unsorted
    ([-0.5, 0.5, -0.2, 0.2], [0.5, 0.5, 0.5, 0.5]),   # unsorted
    ([-0.6, 0.5], [1.0, 1.0]),                        # asymmetric mu
    ([-0.5, 0.5], [0.9, 1.1]),                        # asymmetric w
    ([-0.5, 0.0, 0.5], [0.5, 1.0, 0.5]),              # zero ordinate
    ([], []),
    ([-0.5, 0.5], [1.0, 1.0, 1.0]),
])
def test_quadrature_layout_enforced(mu, w):
    # the sweep and the closures take the mu < 0 directions to be the
    # first half; any other layout would be swept in the wrong direction
    with pytest.raises(ValueError):
        AngularQuadrature(mu=np.array(mu), w=np.array(w))


def test_quadrature_keeps_read_only_copies():
    mu, w = np.array([-0.5, 0.5]), np.array([1.0, 1.0])
    quad = AngularQuadrature(mu=mu, w=w)
    mu[0], w[0] = 0.7, 3.0
    assert quad.mu[0] == -0.5 and quad.w[0] == 1.0
    assert mu.flags.writeable and w.flags.writeable
    assert not (quad.mu.flags.writeable or quad.w.flags.writeable)


def test_double_gauss_cached_per_order():
    # frozen, with read-only arrays, so every run of an order shares it
    assert build_double_gauss(3) is build_double_gauss(3)
    assert build_double_gauss(3) is not build_double_gauss(4)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        build_double_gauss(0)


def _const_psi(quad, n_cells, value):
    psi = np.zeros((quad.n_angles, n_cells, 2))
    psi[:, :, 0] = value
    return psi


def test_moments_isotropic():
    quad = build_double_gauss(8)
    mom = angular_moments(_const_psi(quad, 5, 3.0), quad)
    assert np.allclose(mom.phi[:, 0], 6.0, atol=1e-13)
    assert np.allclose(mom.J, 0.0, atol=1e-13)
    assert np.allclose(mom.P, 0.0, atol=1e-14)


def test_moments_linear_in_mu():
    quad = build_double_gauss(8)
    a, b = 1.7, -0.4
    psi = np.zeros((quad.n_angles, 3, 2))
    psi[:, :, 0] = (a + b * quad.mu)[:, None]
    mom = angular_moments(psi, quad)
    assert np.allclose(mom.phi[:, 0], 2 * a, atol=1e-13)
    assert np.allclose(mom.J[:, 0], 2 * b / 3, atol=1e-13)
    # P annihilates fluxes linear in mu
    assert np.allclose(mom.P, 0.0, atol=1e-14)


def test_moments_mu_squared():
    quad = build_double_gauss(8)
    psi = np.zeros((quad.n_angles, 2, 2))
    psi[:, :, 0] = (quad.mu**2)[:, None]
    mom = angular_moments(psi, quad)
    # int (1/3 - mu^2) mu^2 dmu = 2/9 - 2/5 = -8/45
    assert np.allclose(mom.P[:, 0], -8.0 / 45.0, atol=1e-14)


def test_moments_linearity():
    quad = build_double_gauss(4)
    rng = np.random.RandomState(42)
    psi1 = rng.rand(quad.n_angles, 6, 2)
    psi2 = rng.rand(quad.n_angles, 6, 2)
    a, b = 0.3, -1.2
    m1 = angular_moments(psi1, quad)
    m2 = angular_moments(psi2, quad)
    m = angular_moments(a * psi1 + b * psi2, quad)
    for combo, single1, single2 in zip(m, m1, m2):
        assert np.allclose(combo, a * single1 + b * single2, atol=1e-13)


def test_moments_direction_mismatch():
    quad = build_double_gauss(4)
    with pytest.raises(ValueError):
        angular_moments(np.zeros((5, 4, 2)), quad)


def _three_einsum_moments(psi, quad):
    """The moments as three single-weight einsums, one per moment."""
    mu, w = quad.mu, quad.w
    return [np.einsum("m,...mnc->...nc", weights, psi)
            for weights in (w, w * mu, w * (1.0 / 3.0 - mu**2))]


def test_one_einsum_moments_match_three_single_weight_einsums():
    # angular_moments forms phi, J and P in one einsum over the stacked
    # weights; every bit must be that of the three single-weight einsums,
    # the signs of zeros included, for the shapes the solver passes:
    # psi with no, one or two leading axes, and LD coefficients (last axis
    # 2) or edge values (last axis 1)
    rng = np.random.RandomState(24)
    n_cases = 0
    for n_half in range(1, 17):
        quad = build_double_gauss(n_half)
        assert not quad.moment_weights.flags.writeable
        for lead in ((), (3,), (2, 3)):
            for N in (1, 5, 128, 129):
                for last in (2, 1):
                    shape = lead + (quad.n_angles, N, last)
                    psi = rng.randn(*shape)
                    psi[rng.rand(*shape) < 0.3] = 0.0
                    psi[rng.rand(*shape) < 0.1] = -0.0
                    case = (n_half, lead, N, last)
                    moments = angular_moments(psi, quad)
                    for got, ref in zip(moments,
                                        _three_einsum_moments(psi, quad)):
                        assert got.shape == lead + (N, last), case
                        assert np.array_equal(got, ref), case
                        assert np.array_equal(np.signbit(got),
                                              np.signbit(ref)), case
                    n_cases += 1
    assert n_cases == 16 * 3 * 4 * 2
