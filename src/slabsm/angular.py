"""Double Gauss-Legendre quadrature and discrete angular moments."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, eq=False)
class AngularQuadrature:
    """Ordinates mu in (-1,1)\\{0} and positive weights with sum(w) = 2.

    Enforced on construction: the ordinates are strictly sorted and
    nonzero, and mu and w are mirror-symmetric, so the mu < 0 directions
    are exactly the first half.  The quadrature keeps read-only copies of
    mu and w, and the moment weights [w, w mu, w (1/3 - mu^2)] (3, M)
    that `angular_moments` reads, built once from them.
    """

    mu: np.ndarray
    w: np.ndarray
    moment_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("mu", "w"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        mu, w = self.mu, self.w
        if mu.size == 0 or w.shape != mu.shape:
            raise ValueError("mu and w must be nonempty and of one shape")
        if not (np.all(np.diff(mu) > 0) and np.all(mu != 0.0)):
            raise ValueError("ordinates must be strictly sorted and nonzero")
        if not (np.array_equal(mu[::-1], -mu) and np.array_equal(w[::-1], w)):
            raise ValueError("ordinates and weights must be mirror-symmetric")
        weights = np.stack([w, w * mu, w * (1.0 / 3.0 - mu**2)])
        weights.setflags(write=False)
        object.__setattr__(self, "moment_weights", weights)

    @property
    def n_angles(self) -> int:
        return self.mu.size


def _legendre_and_derivative(n: int, x: np.ndarray):
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of the n-point Gauss-Legendre rule on (-1, 1).

    Newton iteration on the Legendre recurrence, tolerance 1e-15.
    """
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


@functools.lru_cache(maxsize=8)
def build_double_gauss(n_half: int) -> AngularQuadrature:
    """Double Gauss-Legendre set: the n_half-point rule mapped onto each
    half-range (0,1) and (-1,0).  2*n_half directions, sum(w) = 2.

    Cached per n_half: the quadrature is frozen and its arrays read-only,
    so every run of a problem shares one set."""
    if n_half < 1:
        raise ValueError("n_half must be >= 1")
    x, v = _gauss_legendre(n_half)
    mu_pos = 0.5 * (x + 1.0)
    w_half = 0.5 * v
    mu = np.concatenate([-mu_pos[::-1], mu_pos])
    w = np.concatenate([w_half[::-1], w_half])
    return AngularQuadrature(mu=mu, w=w)


class MomentSet(NamedTuple):
    """Zeroth, first, and second-moment-closure angular moments."""

    phi: np.ndarray
    J: np.ndarray
    P: np.ndarray


def angular_moments(psi: np.ndarray, quad: AngularQuadrature) -> MomentSet:
    """Angular moments of a discrete-ordinate LD flux, coefficient-wise.

    psi has shape (..., M, n_cells, 2), typically (G, M, n_cells, 2) with
    a leading group axis.  Returns LD coefficient arrays (..., n_cells, 2)

        phi = sum_m w_m psi_m
        J   = sum_m w_m mu_m psi_m
        P   = sum_m w_m (1/3 - mu_m^2) psi_m

    Moments of an LD-in-space flux are again LD in space, so the reduction
    acts independently on each coefficient.  One einsum over the stacked
    weights `quad.moment_weights` forms all three; its results are views
    of one (3, ..., n_cells, 2) array.  This is bitwise the same as three
    single-weight einsums, signed zeros included: the weight row k only
    adds an outer axis to the output, so each output element is still one
    sum over m of the same products w_km * psi_m, which numpy's einsum
    loop accumulates in the same order as in the single-weight form.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim < 3 or psi.shape[-3] != quad.n_angles:
        raise ValueError(
            f"psi shape {psi.shape} does not match {quad.n_angles} directions")
    phi, J, P = np.einsum("km,...mnc->k...nc", quad.moment_weights, psi)
    return MomentSet(phi=phi, J=J, P=P)
