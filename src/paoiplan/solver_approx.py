"""Closed-form large-system approximation of the joint plan.

Linearizing the exact share's square root (valid when the multiplier is
large, i.e. many sensors) gives each sensor its minimum required share
``theta/mu`` plus a slice of the remaining budget proportional to
``cost/theta``.  The matching sampling delays then have an explicit
expression, so no root-finding is needed.
"""
from __future__ import annotations

import numpy as np

from .feasibility import InfeasibleScenarioError, check_feasibility
from .model import AllocationPlan, Scenario, SolveMethod


def solve_approx(scenario: Scenario) -> AllocationPlan:
    """Approximately optimal plan in closed form.

    Shares sum to the budget exactly by construction (the slack is fully
    distributed).  Offered for every feasible scenario regardless of size;
    accuracy is measured, not enforced.
    """
    report = check_feasibility(scenario)
    if not report.feasible:
        raise InfeasibleScenarioError(report)
    mu, cost, theta = scenario.mu, scenario.cost, scenario.theta
    weights = cost / theta
    weight_sum = float(np.sum(weights))
    shares = theta / mu + weights * (report.slack / weight_sum)
    delays = np.log1p(theta**2 / (cost * mu) * (weight_sum / report.slack)) / theta
    return AllocationPlan(
        r=tuple(shares.tolist()),
        b=tuple(delays.tolist()),
        method=SolveMethod.APPROX,
        total_cost=scenario.delay_cost(delays),
        lam=None,
    )
