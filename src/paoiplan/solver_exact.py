"""Exact joint planner: multiplier root-find plus closed-form recovery.

Minimizing the cost-weighted sum of sampling delays over resource shares is
convex, so the optimum is characterized by a single Lagrange multiplier
``lam`` on the budget constraint.  The per-sensor share at a given
multiplier is the positive root of a quadratic.  The multiplier is found by
Newton on 1/lam from zero: in ``s = 1/lam`` the budget equation is concave
and increasing with value 0 at ``s = 0``, so the iterates climb
monotonically to the root and stop when a step no longer raises ``s``.
"""
from __future__ import annotations

import math

import numpy as np

from .feasibility import InfeasibleScenarioError, check_feasibility
from .model import AllocationPlan, Scenario, SolveMethod, optimal_sampling_delay

# Newton from zero takes 3-8 steps at loads from 0.5 up to the boundary and
# up to about 30 when the minimum shares sit many decades below the slack.
_MAX_NEWTON_STEPS = 100


class ConvergenceError(RuntimeError):
    """Root finding failed to converge within the iteration budget."""


def _headroom(scenario: Scenario, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sensor share above ``theta/mu`` at ``s = 1/lam``, and its slope in ``s``.

    The stationarity condition ``mu*lam*r**2 - theta*lam*r - cost = 0`` has
    one positive root, ``(theta/mu) * (1 + sqrt(1 + q*s)) / 2`` with
    ``q = 4*cost*mu/theta**2``.  Its headroom ``(theta/(2*mu)) *
    (sqrt(1 + q*s) - 1)`` is written with expm1/log1p so that it keeps full
    relative precision when ``q*s`` is tiny (very large multipliers, or a
    scenario at the feasibility boundary); the slope is
    ``(cost/theta) / sqrt(1 + q*s)``.
    """
    mu, cost, theta = scenario.mu, scenario.cost, scenario.theta
    sqrt_minus_one = np.expm1(0.5 * np.log1p(4.0 * cost * mu / theta**2 * s))
    return theta / (2.0 * mu) * sqrt_minus_one, cost / theta / (1.0 + sqrt_minus_one)


def allocation_at_lambda(scenario: Scenario, lam: float) -> np.ndarray:
    """Per-sensor shares at multiplier ``lam``: the positive quadratic root.

    Every share strictly exceeds ``theta/mu``, so the service rate strictly
    dominates the exponent.
    """
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be a finite positive number, got {lam!r}")
    headroom, _ = _headroom(scenario, 1.0 / lam)
    return scenario.theta / scenario.mu + headroom


def residual(scenario: Scenario, lam: float) -> float:
    """Budget residual ``sum(r_i(lam)) - budget``; strictly decreasing in ``lam``."""
    return float(math.fsum(allocation_at_lambda(scenario, lam).tolist()) - scenario.budget)


def _find_multiplier(scenario: Scenario, slack: float) -> float:
    # Solve g(s) = slack, where g(s) is the total headroom.  The tangent of
    # the concave g lies above it, so each Newton step lands at or below the
    # root; in floats the iterates stop rising once they reach it.
    s = 0.0
    for _ in range(_MAX_NEWTON_STEPS):
        headroom, slope = _headroom(scenario, s)
        next_s = s + (slack - math.fsum(headroom.tolist())) / float(np.sum(slope))
        if not next_s > s:
            if s > 0.0 and math.isfinite(next_s):
                return 1.0 / s
            break
        s = next_s
    raise ConvergenceError(
        f"Newton on 1/lambda stopped at s={s!r} without meeting the budget slack {slack!r}"
    )


def solve_exact(scenario: Scenario) -> AllocationPlan:
    """Solve the joint delay/allocation problem to optimality.

    Returns a plan whose shares sum to the budget up to rounding, with each
    sampling delay at the tight point of its tail constraint.  Raises
    InfeasibleScenarioError when no allocation can dominate every exponent,
    ConvergenceError when a Newton step leaves the finite floats or the
    step cap is reached.
    """
    report = check_feasibility(scenario)
    if not report.feasible:
        raise InfeasibleScenarioError(report)
    lam = _find_multiplier(scenario, report.slack)
    shares = allocation_at_lambda(scenario, lam)
    delays = tuple(
        optimal_sampling_delay(nu, theta)
        for nu, theta in zip((scenario.mu * shares).tolist(), scenario.theta.tolist())
    )
    return AllocationPlan(
        r=tuple(shares.tolist()),
        b=delays,
        method=SolveMethod.EXACT,
        total_cost=scenario.delay_cost(delays),
        lam=lam,
    )
