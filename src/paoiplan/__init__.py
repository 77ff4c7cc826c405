"""Joint sampling-delay and resource-allocation planning under peak-age tail constraints.

The package plans, for a set of sensors sharing one divisible resource, how
often each sensor should sample and how much resource it should get so that
the total cost of delayed sampling is minimal while every sensor's peak age
of information keeps an exponentially decaying tail at its required rate.
An exact convex solver and a closed-form approximation are provided, along
with large-deviations analysis and a Monte Carlo simulator that verify the
promised tail exponents.
"""

from .feasibility import FeasibilityReport, InfeasibleScenarioError, check_feasibility
from .ldp import ExponentResult, exponent_root, exponent_variational
from .model import AllocationPlan, Scenario, SolveMethod
from .sim import PaoiSummary, SimConfig, TailEstimate, simulate_plan, simulate_sensor
from .solver_approx import solve_approx
from .solver_exact import ConvergenceError, solve_exact

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
    "ConvergenceError",
    "ExponentResult",
    "FeasibilityReport",
    "InfeasibleScenarioError",
    "PaoiSummary",
    "Scenario",
    "SimConfig",
    "SolveMethod",
    "TailEstimate",
    "check_feasibility",
    "exponent_root",
    "exponent_variational",
    "simulate_plan",
    "simulate_sensor",
    "solve_approx",
    "solve_exact",
]
