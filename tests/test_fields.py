import numpy as np
import pytest

from slabsm.fields import Mesh, from_nodes, nodal_product, to_nodes
from test_sweep import mesh_edges


def test_mesh_uniform():
    mesh = Mesh.uniform(32.0, 128)
    assert mesh.dx.shape == (128,)
    assert mesh.dx[0] == pytest.approx(0.25)
    assert mesh_edges(mesh)[-1] == pytest.approx(32.0)


def test_mesh_invalid():
    for width in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and > 0"):
            Mesh.uniform(width, 4)


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
