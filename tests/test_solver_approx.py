import math

import numpy as np
import pytest

from helpers import random_feasible_scenario, reference_closed_form, scenario_at_load, ulps
from paoiplan import (
    InfeasibleScenarioError,
    Scenario,
    SolveMethod,
    solve_approx,
    solve_exact,
)


def test_symmetric_case_is_exact():
    scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))
    plan = solve_approx(scenario)
    assert plan.method is SolveMethod.APPROX
    assert plan.lam is None
    np.testing.assert_allclose(plan.r, [0.5, 0.5], rtol=0, atol=1e-14)
    np.testing.assert_allclose(plan.b, [4 * math.log(2)] * 2, rtol=1e-14)

    exact = solve_exact(scenario)
    np.testing.assert_allclose(plan.r, exact.r, rtol=0, atol=1e-10)
    np.testing.assert_allclose(plan.b, exact.b, rtol=0, atol=1e-10)


def test_hand_evaluated_two_sensor_point():
    # slack 0.4 split in proportion cost/theta over a weight sum of 10.
    scenario = Scenario.from_arrays(mu=(1, 1), cost=(2, 1), theta=(0.3, 0.3))
    plan = solve_approx(scenario)
    assert plan.r[0] == pytest.approx(17 / 30, rel=1e-12)
    assert plan.r[1] == pytest.approx(13 / 30, rel=1e-12)


def test_infeasible_scenario_raises():
    with pytest.raises(InfeasibleScenarioError):
        solve_approx(Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.5, 0.5)))


@pytest.mark.parametrize("seed", range(15))
def test_budget_exhausted_exactly(seed):
    scenario = random_feasible_scenario(np.random.default_rng(seed))
    plan = solve_approx(scenario)
    assert math.fsum(plan.r) == pytest.approx(scenario.budget, abs=1e-12)
    plan.validate_for(scenario)


@pytest.mark.parametrize("seed", range(10))
def test_slack_split_proportional_to_cost_over_theta(seed):
    scenario = random_feasible_scenario(np.random.default_rng(seed))
    plan = solve_approx(scenario)
    extra = np.asarray(plan.r) - scenario.theta / scenario.mu
    weights = scenario.cost / scenario.theta
    ratios = extra / weights
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)


def test_raising_cost_raises_share_and_lowers_delay():
    base = Scenario.from_arrays(mu=(1, 1), cost=(2, 1), theta=(0.3, 0.3))
    previous = solve_approx(base)
    for c1 in (3.0, 5.0, 9.0):
        plan = solve_approx(Scenario.from_arrays(mu=(1, 1), cost=(c1, 1), theta=(0.3, 0.3)))
        assert plan.r[0] > previous.r[0]
        assert plan.b[0] < previous.b[0]
        previous = plan


def _approximation_gap(scenario: Scenario) -> float:
    """Relative excess cost of the closed form over the exact optimum."""
    exact = solve_exact(scenario).total_cost
    return (solve_approx(scenario).total_cost - exact) / exact


def test_gap_zero_for_symmetric_scenario():
    scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))
    assert abs(_approximation_gap(scenario)) <= 1e-10


def test_gap_nonnegative_on_asymmetric_point():
    scenario = Scenario.from_arrays(mu=(1, 1), cost=(2, 1), theta=(0.3, 0.3))
    assert _approximation_gap(scenario) >= 0.0


@pytest.mark.parametrize("seed", range(15))
def test_gap_nonnegative_on_random_scenarios(seed):
    scenario = random_feasible_scenario(np.random.default_rng(seed))
    assert _approximation_gap(scenario) >= -1e-10


@pytest.mark.parametrize("load,low,high", [
    (0.5, 0.12, 0.22), (0.9, 1.5e-2, 3.5e-2), (0.99, 5e-4, 1.2e-3), (1 - 1e-6, 2e-12, 8e-12),
])
def test_gap_is_set_by_the_load_not_the_size(load, low, high):
    # The README's accuracy figures: one band per load, at 1e3 and 1e4 sensors alike.
    for n in (1_000, 10_000):
        gap = _approximation_gap(scenario_at_load(n, load, np.random.default_rng(0)))
        assert low <= gap <= high, (n, gap)


@pytest.mark.parametrize("solve", [solve_approx, solve_exact])
def test_unrepresentable_headroom_is_refused_naming_the_sensor(solve):
    # The cheap sensor's headroom above theta/mu is about 1e-400, below the floats.
    scenario = Scenario.from_arrays(mu=(1, 1), cost=(1e200, 1e-200), theta=(0.25, 0.25))
    with pytest.raises(ValueError, match="sensor 1: its headroom above theta/mu cannot be represented"):
        solve(scenario)


# The worst error of each field against the 40-digit closed form, in units in
# the last place of the plan's value, over 200 draws per load at n = 2, 10
# and 200 (seeds [5, n, load * 1e6, draw]), rounded up.  Nearer full load the
# rounded slack budget - sum(theta/mu) sets the error, not the planner: the
# delays and the cost read up to about 7e4 ulp at 1 - 1e-6, so those loads
# are left out.
CLOSED_FORM_ULPS = {  # load: (r, b, total_cost)
    0.2: (3.0, 4.0, 3.0),
    0.5: (3.0, 5.0, 3.0),
    0.9: (7.0, 7.0, 4.0),
    0.99: (20.0, 25.0, 21.0),
}


@pytest.mark.parametrize("load", sorted(CLOSED_FORM_ULPS))
@pytest.mark.parametrize("n", [2, 10, 200])
def test_closed_form_is_within_its_ulp_bound_of_a_40_digit_reference(n, load):
    bound_r, bound_b, bound_cost = CLOSED_FORM_ULPS[load]
    for draw in range(5):
        scenario = scenario_at_load(n, load, np.random.default_rng([5, n, round(load * 1e6), draw]))
        plan = solve_approx(scenario)
        shares, delays, total_cost = reference_closed_form(scenario)
        assert max(map(ulps, plan.r.tolist(), shares)) <= bound_r, draw
        assert max(map(ulps, plan.b.tolist(), delays)) <= bound_b, draw
        assert ulps(plan.total_cost, total_cost) <= bound_cost, draw


# The same fields against the reference fed the package's own rounded
# slack, over 100 draws per load at n = 2, 10 and 200 (seeds
# [7, n, load * 1e12, draw]), rounded up to the next half: read apart from
# the slack's rounding, the closed form stays within a few ulps up to
# 1 - 1e-12.
CLOSED_FORM_AT_ITS_SLACK_ULPS = {  # load: (r, b, total_cost)
    0.2: (2.5, 4.0, 2.0),
    0.5: (3.0, 3.5, 2.0),
    0.9: (2.5, 3.0, 2.0),
    0.99: (1.5, 2.0, 1.5),
    0.999: (1.5, 2.0, 1.5),
    1 - 1e-6: (1.0, 1.5, 1.5),
    1 - 1e-9: (1.0, 1.5, 1.5),
    1 - 1e-12: (1.0, 1.5, 1.5),
}


@pytest.mark.parametrize("load", sorted(CLOSED_FORM_AT_ITS_SLACK_ULPS))
@pytest.mark.parametrize("n", [2, 10, 200])
def test_closed_form_is_within_its_ulp_bound_of_a_decimal_reference_at_its_slack(n, load):
    bounds = CLOSED_FORM_AT_ITS_SLACK_ULPS[load]
    for draw in range(2):
        scenario = scenario_at_load(n, load, np.random.default_rng([7, n, round(load * 1e12), draw]))
        plan = solve_approx(scenario)
        shares, delays, total_cost = reference_closed_form(scenario, scenario._load_and_slack[1])
        errors = (max(map(ulps, plan.r.tolist(), shares)), max(map(ulps, plan.b.tolist(), delays)),
                  ulps(plan.total_cost, total_cost))
        assert all(error <= bound for error, bound in zip(errors, bounds)), (draw, errors)
