"""The exact discrete solution (discrete_oracle) is itself a solution: its
fixed-point residual is at rounding level on the built-in problems and on
seeded small random ones."""

import numpy as np
import pytest

from slabsm.problem import ProblemSpec, builtin_problem
from discrete_oracle import fixed_point_residual, oracle_flux

# measured: 2.3e-16 to 5.2e-16 on these problems
RESIDUAL_BOUND = 1e-14


def random_spec(seed):
    """A small valid problem as the solver property suite draws them:
    tau = sigma_t * dx from 1e-3 to 1e3 per group, scattering ratios
    c <= 0.99 split at random over the groups it scatters into, and a
    source with a positive total."""
    rng = np.random.RandomState(seed)
    G, N, n_half = rng.randint(1, 5), rng.randint(1, 17), rng.randint(1, 5)
    width = rng.uniform(1.0, 20.0)
    sigma_t = 10.0 ** rng.uniform(-3.0, 3.0, G) * N / width
    c = rng.uniform(0.0, 0.99, G)
    split = rng.uniform(0.01, 1.0, (G, G))
    Q = rng.uniform(0.0, 2.0, G)
    Q[rng.randint(G)] += 0.5
    return ProblemSpec(G, sigma_t, split / split.sum(axis=0) * (c * sigma_t),
                       Q, width=width, n_cells=N, n_half=n_half)


@pytest.mark.parametrize("problem", ["test1", "test2"])
def test_oracle_is_the_fixed_point_of_the_builtins(problem):
    spec = builtin_problem(problem)
    assert fixed_point_residual(spec, oracle_flux(spec)) <= RESIDUAL_BOUND


@pytest.mark.parametrize("seed", range(8))
def test_oracle_is_the_fixed_point_of_random_problems(seed):
    spec = random_spec(seed)
    phi = oracle_flux(spec)
    assert phi.shape == (spec.G, spec.n_cells, 2)
    assert fixed_point_residual(spec, phi) <= RESIDUAL_BOUND
