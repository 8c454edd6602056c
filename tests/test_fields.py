import numpy as np
import pytest

from slabsm.angular import angular_moments, build_double_gauss
from slabsm.fields import Mesh, from_nodes, nodal_product, to_nodes
from slabsm.losm import ProblemOperators, closure_from_sweep
from slabsm.sweep import sweep_batch


def mesh_edges(mesh):
    """Positions of the N+1 cell edges."""
    return np.concatenate(([0.0], np.cumsum(mesh.dx)))


def test_mesh_uniform():
    mesh = Mesh.uniform(32.0, 128)
    assert mesh.dx.shape == (128,)
    assert mesh.dx[0] == pytest.approx(0.25)
    assert mesh_edges(mesh)[-1] == pytest.approx(32.0)


def test_mesh_invalid():
    for width in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and > 0"):
            Mesh.uniform(width, 4)
    with pytest.raises(ValueError, match="n_cells >= 1"):
        Mesh.uniform(1.0, 0)


@pytest.mark.parametrize("dx", [np.ones(0), np.ones((2, 1)), np.ones((1, 3)),
                                np.float64(1.0)])
def test_mesh_dx_must_be_non_empty_1d(dx):
    with pytest.raises(ValueError, match="non-empty 1-D dx"):
        Mesh(dx)


def test_mesh_is_its_cell_widths():
    dx = [0.5, 0.25, 1.0]
    mesh = Mesh(dx)
    assert mesh.n_cells == 3
    assert mesh.dx.dtype == float and np.array_equal(mesh.dx, dx)


def test_mesh_keeps_a_read_only_copy_of_dx():
    # a later write into the caller's array would give the mesh a width
    # the constructor rejects, and the caller's array stays writable,
    # also after a closure is built on the mesh
    dx = np.full(4, 0.5)
    mesh = Mesh(dx)
    quad = build_double_gauss(1)
    ops = ProblemOperators(np.ones(1), np.ones(1), mesh.dx, 1)
    psi = sweep_batch(ops, np.ones((1, 4, 2)))
    closure_from_sweep(psi, quad, angular_moments(psi, quad), ops)
    dx[0] = -1.0
    assert mesh.dx[0] == 0.5
    assert not mesh.dx.flags.writeable
    with pytest.raises(ValueError):
        mesh.dx[1] = 2.0


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_mesh_cell_widths_must_be_finite_and_positive(bad):
    # such a cell would sweep to finite numbers with no error
    dx = np.array([1.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite and > 0"):
        Mesh(dx)


def test_node_coefficient_roundtrip():
    rng = np.random.RandomState(3)
    c = rng.randn(7, 2)
    assert np.allclose(from_nodes(to_nodes(c)), c, atol=1e-15)


def test_nodal_product_inverts_ratio():
    rng = np.random.RandomState(4)
    num = rng.rand(9, 2) + 0.5
    den = rng.rand(9, 2) + 0.5
    ratio = from_nodes(to_nodes(num) / to_nodes(den))
    back = nodal_product(ratio, den)
    assert np.allclose(back, num, atol=1e-13)


def _stacked_nodes(c):
    """to_nodes as np.stack of the two traces."""
    return np.stack([c[..., 0] - c[..., 1], c[..., 0] + c[..., 1]], axis=-1)


def _stacked_coeffs(n):
    """from_nodes as np.stack of the average and the slope."""
    left, right = n[..., 0], n[..., 1]
    return np.stack([0.5 * (left + right), 0.5 * (right - left)], axis=-1)


@pytest.mark.parametrize("lead", [(), (5,), (3, 5)])
def test_node_maps_are_the_stacked_formulas_bit_for_bit(lead):
    # signed zeros, NaN and inf pass through as np.stack of the same
    # arithmetic gives them; the output is a new array every time
    rng = np.random.RandomState(len(lead))
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -2.5])
    values = rng.randn(*lead, 2)
    pick = rng.rand(*lead, 2) < 0.6
    values[pick] = rng.choice(specials, size=int(pick.sum()))
    for fn, ref in ((to_nodes, _stacked_nodes), (from_nodes, _stacked_coeffs)):
        with np.errstate(invalid="ignore", over="ignore"):
            out, expected = fn(values), ref(values)
        assert out.shape == expected.shape == values.shape
        assert out.dtype == np.float64
        assert np.array_equal(out, expected, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(expected))
        assert not np.shares_memory(out, values)
    # every sign pair of zeros, one by one
    zeros = np.array([[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
    for fn, ref in ((to_nodes, _stacked_nodes), (from_nodes, _stacked_coeffs)):
        assert np.array_equal(np.signbit(fn(zeros)), np.signbit(ref(zeros)))


def test_node_maps_read_strided_views():
    c = np.arange(24.0).reshape(3, 4, 2)[:, ::-2]
    assert np.array_equal(to_nodes(c), _stacked_nodes(c))
    assert np.array_equal(from_nodes(c), _stacked_coeffs(c))
    assert not np.shares_memory(from_nodes(c), c)
