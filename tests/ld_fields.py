"""Linear-discontinuous (LD) field helpers of the tests: the maps between
the (average, slope) coefficients of slabsm.fields' layout and the
(left, right) cell-edge traces, and constant fields.  The tests use them
as reference formulas and to build inputs; test_fields pins them.
"""

import numpy as np


def to_nodes(coeffs: np.ndarray) -> np.ndarray:
    """(avg, slope) -> (left value, right value), any leading shape."""
    a, s = coeffs[..., 0], coeffs[..., 1]
    out = np.empty(coeffs.shape)
    np.subtract(a, s, out[..., 0])
    np.add(a, s, out[..., 1])
    return out


def from_nodes(nodes: np.ndarray) -> np.ndarray:
    """(left value, right value) -> (avg, slope), any leading shape: the
    sum and difference, then one multiply by 0.5 over both halves."""
    left, right = nodes[..., 0], nodes[..., 1]
    out = np.empty(nodes.shape)
    np.add(left, right, out[..., 0])
    np.subtract(right, left, out[..., 1])
    return np.multiply(out, 0.5, out)


def const_field(value, n_cells: int) -> np.ndarray:
    """The constant LD field `value` on n_cells cells, (n_cells, 2)."""
    out = np.zeros((n_cells, 2))
    out[:, 0] = value
    return out
