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
    with pytest.raises(ValueError):
        Mesh.uniform(0.0, 4)


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
