"""Discretize, solve and verify Bolza problems over Volterra integro-differential inclusions."""

from .mesh import (TimeMesh, PiecewiseLinearArc, PiecewiseConstantArc,
                   average_operator, l2_distance, sup_distance, w12_distance)
from .setvalued import (Singleton, BallOffset, PolytopeOffset,
                        distance_and_projection, averaged_modulus,
                        graph_normal_cone, coderivative)
from .kernel import (VolterraKernel, QuadratureTensors, kernel_average_w,
                     xi_tensor, mu_tensor, theta_vector, assemble_tensors,
                     continuous_accumulator, volterra_adjoint_integral)
from .gronwall import (discrete_gronwall_forward,
                       discrete_gronwall_backward, continuous_gronwall,
                       apriori_bounds)
from .problem import (ProblemData, TerminalCost, RunningCost, CallableArc,
                      WholeSpace, PointSet, BallSet, BoxSet, InflatedSet)
from .dynamics import (DiscreteTrajectory, ApproximationErrorReport, simulate,
                       approximate_arc, feasibility_residual)
from .bolza import (DiscreteBolzaProblem, SolveOptions, build_discrete_problem,
                    forward_trajectory, cost_Jk, cost_breakdown, cost_gradient,
                    solve_Pk)
from .conditions import (MultiplierSet, ConditionReport, adjoint_solve_smooth,
                         recover_multipliers,
                         euler_lagrange_residual, volterra_residual,
                         transversality_residual, nontriviality_value,
                         build_condition_report, perturbation_robustness)
from . import catalog

__version__ = "0.1.0"
