"""Closed-form approximation of the joint plan, accurate near full load.

Linearizing the exact share's square root (valid when the multiplier is
large, i.e. when little budget is left above the minimum shares) gives each
sensor its minimum required share ``theta/mu`` plus a slice of the
remaining budget proportional to ``cost/theta``.  The matching sampling
delays then have an explicit expression, so no root-finding is needed.
The load ``sum(theta/mu)/budget`` sets the cost gap to the exact plan, not
the number of sensors: on random scenarios it is about 0.17 relative at
load 0.5, 2.4e-2 at 0.9, 8e-4 at 0.99 and 5e-12 at 1 - 1e-6, at 1e3 and
1e5 sensors alike.
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
    Raises ValueError when every ``cost/theta`` underflows to 0 in floats.
    """
    slack = feasible_slack(scenario)
    weights, total = scenario._weight, scenario._weight_total
    if not total > 0.0:
        raise ValueError(
            "every cost/theta underflows to 0: the closed form has no weights to split the slack"
        )
    # One scope for the headroom and the plan.  Where slack/total or a weight
    # is past the floats (slack/total is 0 where total is inf), the headroom
    # may hold inf or inf*0 = NaN, which the plan refuses naming the sensor.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _plan_from_headroom(scenario, weights * (slack / total), SolveMethod.APPROX)
