"""Anderson acceleration: the closed-form AA(1) coefficient."""

from __future__ import annotations

import numpy as np


def aa1_alpha(r_prev: np.ndarray, r_curr: np.ndarray) -> float | None:
    """The a0 minimizing ||a0*r_prev + (1 - a0)*r_curr||_2:

        a0 = sum r_curr*(r_curr - r_prev) / sum (r_prev - r_curr)^2

    None for a degenerate pair, whose denominator is zero or not finite;
    the caller then takes the plain fixed-point step, a0 = 0.
    """
    r_prev = np.asarray(r_prev, dtype=float)
    r_curr = np.asarray(r_curr, dtype=float)
    if r_prev.shape != r_curr.shape:
        raise ValueError("residual vectors must have equal length")
    diff = r_prev - r_curr
    den = float(diff @ diff)
    if den <= 0.0 or not np.isfinite(den):
        return None
    return float(r_curr @ (r_curr - r_prev)) / den
