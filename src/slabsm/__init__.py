"""slabsm: 1D multigroup discrete-ordinates transport with multilevel
second-moment acceleration of the source iterations."""

from .accel import DegenerateResidualPair, aa1_alpha, flatten_state
from .angular import AngularQuadrature, MomentSet, angular_moments, \
    build_double_gauss
from .driver import (METHOD_MLSM, METHOD_MLSM_AA1, METHOD_SI,
                     IterationConfig, RunReport, SpectralEstimate,
                     TransportState, convergence_measure,
                     estimate_spectral_radius, lo_solve_count, run_problem,
                     si_infinite_medium_rho)
from .fields import Mesh, from_nodes, nodal_product, to_nodes
from .losm import (GreyCoefficients, LowOrderSystem, avg_scattering_xs,
                   compute_zeta, grey_xs, sum_closures)
from .problem import (BUILTIN_NAMES, ProblemError, ProblemSpec,
                      ValidationReport, builtin_problem, builtin_reference_c,
                      connection_strength, load_problem, make_problem,
                      problem_from_dict, validate_scattering)
from .sweep import (ClosureData, build_ho_rhs, closure_from_sweep,
                    sweep_batch, upwind_edge_psi)

__version__ = "0.1.0"
