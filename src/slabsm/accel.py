"""Anderson acceleration: the closed-form AA(1) coefficients."""

from __future__ import annotations

import numpy as np


class DegenerateResidualPair(ValueError):
    """The two residuals coincide; the secant coefficient is undefined."""


def aa1_alpha(r_prev: np.ndarray, r_curr: np.ndarray) -> tuple[float, float]:
    """Coefficients minimizing ||a0*r_prev + a1*r_curr||_2 with a0 + a1 = 1:

        a0 = sum r_curr*(r_curr - r_prev) / sum (r_prev - r_curr)^2

    Raises DegenerateResidualPair on a zero denominator; callers fall back
    to the plain fixed-point step (0, 1).
    """
    r_prev = np.asarray(r_prev, dtype=float)
    r_curr = np.asarray(r_curr, dtype=float)
    if r_prev.shape != r_curr.shape:
        raise ValueError("residual vectors must have equal length")
    diff = r_prev - r_curr
    den = float(diff @ diff)
    if den <= 0.0 or not np.isfinite(den):
        raise DegenerateResidualPair("residual difference has zero norm")
    a0 = float(r_curr @ (r_curr - r_prev)) / den
    return a0, 1.0 - a0

