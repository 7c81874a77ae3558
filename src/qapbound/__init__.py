"""Dual lower bounds for sparse incomplete quadratic assignment problems.

The package bundles an exact sparse solver for (dummy-label) linear
assignment problems, a linear-time shift of dual optima into the relative
interior of the dual optimal set, and an alternating dual-ascent scheme
that lower-bounds quadratic assignment objectives, together with readers
for the common benchmark formats and a CLI.
"""

from .model import (DEFAULT_TOLERANCE, DUMMY, DualInfeasibleError,
                    FeasibilityError, IlapDual, IlapInstance, IqapInstance,
                    LapDual, LapInstance, dual_objective, iqap_objective,
                    lap_objective)
from .lap import EqualitySubgraph, equality_subgraph, solve_lap
from .relative_interior import (ExchangeDigraph, build_exchange_digraph,
                                perfectly_matchable_edges,
                                shift_to_relative_interior)
from .reduction import (decompose_assignment, lift_assignment, lift_dual,
                        reduce_ilap_to_lap, solve_ilap)
from .wcsp import IqapDualState, mplp_pp_pass
from .beta_steps import beta_bca_pass, beta_coordinate_update, beta_exact_update
from .bounds import (DEFAULT_EPSILON, METHODS, BoundReport, SolverConfig,
                     dual_bound, run)
from .formats import (DEFAULT_DUMMY_COST, augment_instance,
                      convert_qaplib_to_iqap, load_instance, parse_dd,
                      parse_lap_file, parse_qaplib)

# The public names, listed so that ``from qapbound import *`` binds none of
# the submodules that the imports above bind as package attributes.
__all__ = ("DEFAULT_TOLERANCE", "DUMMY", "DualInfeasibleError",
           "FeasibilityError", "IlapDual", "IlapInstance", "IqapInstance",
           "LapDual", "LapInstance", "dual_objective", "iqap_objective",
           "lap_objective", "EqualitySubgraph", "equality_subgraph",
           "solve_lap", "ExchangeDigraph", "build_exchange_digraph",
           "perfectly_matchable_edges", "shift_to_relative_interior",
           "decompose_assignment", "lift_assignment", "lift_dual",
           "reduce_ilap_to_lap", "solve_ilap", "IqapDualState", "mplp_pp_pass",
           "beta_bca_pass", "beta_coordinate_update", "beta_exact_update",
           "DEFAULT_EPSILON", "METHODS", "BoundReport", "SolverConfig",
           "dual_bound", "run", "DEFAULT_DUMMY_COST", "augment_instance",
           "convert_qaplib_to_iqap", "load_instance", "parse_dd",
           "parse_lap_file", "parse_qaplib")
__version__ = "0.1.0"
