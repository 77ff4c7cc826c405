"""Closed-form large-system approximation of the joint plan.

Linearizing the exact share's square root (valid when the multiplier is
large, i.e. many sensors) gives each sensor its minimum required share
``theta/mu`` plus a slice of the remaining budget proportional to
``cost/theta``.  The matching sampling delays then have an explicit
expression, so no root-finding is needed.
"""
from __future__ import annotations

import numpy as np

from .feasibility import feasible_slack
from .model import AllocationPlan, Scenario, SolveMethod, _plan_from_headroom


def solve_approx(scenario: Scenario) -> AllocationPlan:
    """Approximately optimal plan in closed form.

    The headroom ``h_i = (cost_i/theta_i) * slack / W``, ``W = sum(cost/theta)``,
    goes to the plan constructor shared with ``solve_exact``; the delay is
    ``b_i = ln(1 + theta_i**2 * W / (cost_i * mu_i * slack)) / theta_i``.
    Shares sum to the budget by construction.  Offered for every feasible
    scenario regardless of size; accuracy is measured, not enforced.
    """
    slack = feasible_slack(scenario)
    weights = scenario.cost / scenario.theta
    headroom = weights * (slack / float(np.sum(weights)))
    return _plan_from_headroom(scenario, headroom, SolveMethod.APPROX)
