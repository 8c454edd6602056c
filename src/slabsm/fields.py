"""Spatial mesh of the slab, and the linear-discontinuous (LD) layout.

Every spatial unknown in this package lives in the LD space: two
coefficients per cell, (average, slope), representing

    u(x) = u_avg + u_slope * 2*(x - x_i) / dx_i     on cell i,

so the one-sided cell-edge traces are u_avg -/+ u_slope.  Arrays of LD
coefficients are shaped (..., n_cells, 2) with the coefficient axis last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Mesh:
    """1D slab mesh given by its cell widths dx, a 1-D, non-empty array
    of finite widths > 0.  dx may be nonuniform; the built-ins are
    uniform.  The mesh keeps a read-only copy of dx, so the caller's
    array is neither frozen nor able to change the widths later."""

    dx: np.ndarray

    def __post_init__(self):
        # a zero, negative or non-finite width sweeps to finite numbers
        # with no error, so it is rejected here
        dx = np.array(self.dx, dtype=float)
        dx.setflags(write=False)
        object.__setattr__(self, "dx", dx)
        if not (dx.ndim == 1 and dx.size > 0
                and np.all(np.isfinite(dx) & (dx > 0))):
            raise ValueError("mesh cell widths must be finite and > 0, in "
                             f"a non-empty 1-D dx; got shape {dx.shape}")

    @property
    def n_cells(self) -> int:
        return self.dx.size

    @staticmethod
    def uniform(width: float, n_cells: int) -> "Mesh":
        if n_cells < 1:
            raise ValueError("mesh requires n_cells >= 1")
        return Mesh(np.full(n_cells, width / n_cells))

