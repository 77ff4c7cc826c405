"""Both planners against the Lagrange dual: a lower bound that reads no solver code.

By weak duality, ``helpers.dual_bound(scenario, s)`` is at most the cost of
every plan that fits the budget, at every ``s > 0``.  At the exact plan's
multiplier the bound meets its cost, which certifies the plan optimal; the
closed form's cost lies above the bound at its own ``s = slack/W``.
"""
import math

import numpy as np
import pytest

from helpers import dual_bound, scenario_at_load
from paoiplan import solve_approx, solve_exact

EPS = np.finfo(float).eps
LOADS = (0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9)
# Over 64 seeds at n = 2, 10 and 1000 and 6 at n = 1e5, at each load above,
# the exact cost minus the bound measured from -1.99 to 1.35 eps, relative,
# and the closed form's cost minus its bound at least -1.48 eps, at load
# 1 - 1e-9, where the two plans agree to rounding.  The bound is those,
# rounded up, with an eps to spare.
ROUNDING = 3 * EPS


@pytest.fixture(scope="module")
def scenarios():
    sizes = [(n, seed) for n in (2, 10, 1000) for seed in range(4)] + [(100_000, 0)]
    return [scenario_at_load(n, load, np.random.default_rng(seed)) for n, seed in sizes for load in LOADS]


def test_the_exact_cost_meets_the_dual_bound_at_its_multiplier(scenarios):
    for scenario in scenarios:
        plan = solve_exact(scenario)
        gap = plan.total_cost - dual_bound(scenario, 1.0 / plan.lam)
        assert abs(gap) <= ROUNDING * plan.total_cost, (scenario.n, gap / plan.total_cost / EPS)


def test_the_closed_form_costs_at_least_the_dual_bound_at_its_slack_share(scenarios):
    for scenario in scenarios:
        plan = solve_approx(scenario)
        slack = scenario.budget - math.fsum((scenario.theta / scenario.mu).tolist())
        s = slack / float(np.sum(scenario.cost / scenario.theta))
        gap = plan.total_cost - dual_bound(scenario, s)
        assert gap >= -ROUNDING * plan.total_cost, (scenario.n, gap / plan.total_cost / EPS)
