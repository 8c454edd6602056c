"""slabsm: 1D multigroup discrete-ordinates transport with multilevel
second-moment acceleration of the source iterations."""

from .driver import IterationConfig, RunReport, run_problem
from .problem import builtin_problem

__version__ = "0.1.0"
