import json
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from helpers import grid_min_cost_two_sensor, random_feasible_scenario, reference_exact, scenario_at_load, ulps
from paoiplan import ConvergenceError, InfeasibleScenarioError, Scenario, SolveMethod, solve_exact
from paoiplan.cli import EXIT_NONCONVERGED, main
from paoiplan.solver_exact import _MAX_NEWTON_STEPS, allocation_at_lambda, residual

SYMMETRIC = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))

# Two-sensor reference point theta=(0.25, 0.3), cost=(1, 1): multiplier and
# share frozen from an independent dev-time bisection; the cost was
# cross-checked against the r1-grid oracle (5.8097278579390235 at step 5e-6).
TWO_SENSOR = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.3))
TWO_SENSOR_LAMBDA = 8.899470899470892
TWO_SENSOR_R1 = 0.4827586206896553
TWO_SENSOR_COST = 5.809727857939022


class TestAllocationAtLambda:
    def test_symmetric_closed_form(self):
        shares = allocation_at_lambda(SYMMETRIC, 8.0)
        np.testing.assert_allclose(shares, [0.5, 0.5], rtol=0, atol=1e-14)

    def test_single_sensor_hand_value(self):
        scenario = Scenario.from_arrays(mu=(1,), cost=(2,), theta=(0.5,))
        share = allocation_at_lambda(scenario, 16.0)[0]
        assert share == pytest.approx(0.25 + 0.25 * math.sqrt(3), abs=1e-14)

    def test_large_lambda_collapses_to_minimum_share(self):
        shares = allocation_at_lambda(SYMMETRIC, 1e14)
        assert np.all(shares - 0.25 < 1e-6)
        assert np.all(shares > 0.25)  # strict dominance survives the collapse

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            allocation_at_lambda(SYMMETRIC, lam)


class TestResidual:
    def test_zero_at_symmetric_root(self):
        assert residual(SYMMETRIC, 8.0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_below_root(self):
        assert residual(SYMMETRIC, 4.0) > 0.0

    def test_large_lambda_limit_is_load_minus_budget(self):
        assert residual(SYMMETRIC, 1e14) == pytest.approx(-0.5, abs=1e-6)

    def test_strictly_decreasing(self):
        grid = np.logspace(-6, 10, 60)
        values = [residual(SYMMETRIC, lam) for lam in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def _stalled_headroom(scenario, s, with_slope=False):
    # The headroom of q = 0: 0 at every s, with slope cost/theta, so the gap
    # never closes and s climbs by slack/sum(cost/theta) at each step.
    headroom = np.zeros(scenario.n)
    return (headroom, scenario._weight) if with_slope else headroom


class TestSolveExact:
    def test_symmetric_example(self):
        plan = solve_exact(SYMMETRIC)
        assert plan.method is SolveMethod.EXACT
        np.testing.assert_allclose(plan.r, [0.5, 0.5], rtol=0, atol=1e-12)
        assert plan.lam == pytest.approx(8.0, rel=1e-10)
        assert plan.b[0] == pytest.approx(4 * math.log(2), rel=1e-12)
        assert plan.total_cost == pytest.approx(8 * math.log(2), rel=1e-12)
        plan.validate_for(SYMMETRIC)

    def test_single_sensor_takes_whole_budget(self):
        scenario = Scenario.from_arrays(mu=(1,), cost=(1,), theta=(0.5,))
        plan = solve_exact(scenario)
        assert plan.r[0] == pytest.approx(1.0, abs=1e-12)
        assert plan.b[0] == pytest.approx(2 * math.log(2), rel=1e-12)
        assert plan.total_cost == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_two_sensor_reference_point(self):
        plan = solve_exact(TWO_SENSOR)
        assert plan.lam == pytest.approx(TWO_SENSOR_LAMBDA, rel=1e-9)
        assert plan.r[0] == pytest.approx(TWO_SENSOR_R1, rel=1e-9)
        assert plan.total_cost == pytest.approx(TWO_SENSOR_COST, rel=1e-10)

    def test_boundary_scenario_raises_with_report(self):
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.5, 0.5))
        with pytest.raises(InfeasibleScenarioError) as excinfo:
            solve_exact(scenario)
        assert excinfo.value.report.load == 1.0
        assert not excinfo.value.report.feasible

    @pytest.mark.parametrize("seed", range(10))
    def test_kkt_conditions_on_random_scenarios(self, seed):
        rng = np.random.default_rng(seed)
        scenario = random_feasible_scenario(rng)
        plan = solve_exact(scenario)
        assert abs(math.fsum(plan.r) - scenario.budget) <= 1e-9
        for mu, cost, theta, r_i in zip(scenario.mu, scenario.cost, scenario.theta, plan.r):
            implied = cost / (r_i * (mu * r_i - theta))
            assert abs(implied - plan.lam) / plan.lam <= 1e-8

    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_matches_two_sensor_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            scenario = random_feasible_scenario(rng)
            if scenario.n == 2:
                break
        plan = solve_exact(scenario)
        assert plan.total_cost <= grid_min_cost_two_sensor(scenario) + 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        scenario = random_feasible_scenario(rng)
        perm = rng.permutation(scenario.n)
        permuted = Scenario.from_arrays(
            mu=scenario.mu[perm], cost=scenario.cost[perm], theta=scenario.theta[perm]
        )
        plan = solve_exact(scenario)
        plan_perm = solve_exact(permuted)
        np.testing.assert_allclose(plan_perm.r, np.asarray(plan.r)[perm], rtol=1e-9)
        np.testing.assert_allclose(plan_perm.b, np.asarray(plan.b)[perm], rtol=1e-9)
        assert plan_perm.lam == pytest.approx(plan.lam, rel=1e-9)
        assert plan_perm.total_cost == pytest.approx(plan.total_cost, rel=1e-11)

    def test_identical_sensors_share_equally(self):
        scenario = Scenario.from_arrays(mu=[1.3] * 5, cost=[2.5] * 5, theta=[0.2] * 5)
        plan = solve_exact(scenario)
        np.testing.assert_allclose(plan.r, [0.2] * 5, rtol=0, atol=1e-10)

    def test_budget_generalization(self):
        doubled = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25), budget=2.0)
        plan = solve_exact(doubled)
        assert math.fsum(plan.r) == pytest.approx(2.0, abs=1e-9)
        assert plan.total_cost < solve_exact(SYMMETRIC).total_cost  # more budget, cheaper plan

    def test_unrepresentable_multiplier_raises_convergence_error(self):
        # theta = 1e-200 overflows q = 4*(cost/theta)/(theta/mu) to inf: no finite Newton step exists.
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(1e-200, 0.5))
        with pytest.raises(ConvergenceError):
            solve_exact(scenario)

    def test_multiplier_past_the_floats_is_refused_naming_it(self):
        # Newton meets the slack at s = 3.3203125e-309, with a headroom of
        # 0.0625 per sensor, but 1/s is inf: there is no multiplier to plan at.
        scenario = Scenario.from_arrays(mu=[1.0] * 8, cost=[2e307] * 8, theta=[1.0] * 8, budget=8.5)
        with pytest.raises(ValueError, match=re.escape("lambda = 1/s passes the floats at s=3.3203125e-309")):
            solve_exact(scenario)

    def test_newton_stops_at_its_step_cap(self, monkeypatch):
        evaluations = []

        def counted(self, s, with_slope=False):
            evaluations.append(s)
            return _stalled_headroom(self, s, with_slope)

        monkeypatch.setattr(Scenario, "_headroom", counted)
        scenario = Scenario.from_arrays(mu=(1e300, 1e300), cost=(1, 1), theta=(1e299, 1e299))
        with pytest.raises(ConvergenceError, match=re.escape("stopped at s=4.0000000000000056e+300 ")):
            solve_exact(scenario)
        assert len(evaluations) == _MAX_NEWTON_STEPS

    def test_step_cap_exits_3_with_the_error_as_the_last_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(Scenario, "_headroom", _stalled_headroom)
        sensor = {"mu": 1e300, "cost": 1.0, "theta": 1e299}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"budget": 1.0, "sensors": [sensor, sensor]}))
        assert main(["solve", str(path)]) == EXIT_NONCONVERGED
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "error: Newton on 1/lambda stopped at s=4.0000000000000056e+300 "
            "without meeting the budget slack 0.8"
        )

    def test_large_system_meets_kkt_tolerances(self):
        scenario = scenario_at_load(100_000, 0.99, np.random.default_rng(2024))
        plan = solve_exact(scenario)
        r = plan.r
        assert abs(math.fsum(r.tolist()) - scenario.budget) <= 1e-9
        implied = scenario.cost / (r * (scenario.mu * r - scenario.theta))
        assert np.max(np.abs(implied - plan.lam)) / plan.lam <= 1e-8


@pytest.mark.parametrize("load", [0.9, 0.999, 1 - 1e-6, 1 - 1e-9])
@pytest.mark.parametrize("n", [2, 10, 200])
def test_matches_decimal_oracle(n, load):
    scenario = scenario_at_load(n, load, np.random.default_rng(n))
    plan = solve_exact(scenario)
    shares, _, _, lam = reference_exact(scenario)
    np.testing.assert_allclose(plan.r, [float(x) for x in shares], rtol=1e-13, atol=0)
    # The float slack carries an absolute rounding error near 1e-16, which the
    # multiplier inherits relative to the slack itself.
    slack = 1.0 - float(np.sum(scenario.theta / scenario.mu))
    assert plan.lam == pytest.approx(float(lam), rel=max(1e-12, 1e-15 / slack))


# The worst error of each field against the Decimal reference fed the
# package's own rounded slack, in units in the last place of the plan's
# value, over 100 draws per load at n = 2, 10 and 200 (seeds
# [7, n, load * 1e12, draw]), rounded up to the next half.  With the
# rounded slack the plan's own error shows at every load up to
# 1 - 1e-12; with the exact slack it is the slack's (ROADMAP direction 1).
EXACT_PLAN_ULPS = {  # load: (r, b, total_cost, lam)
    0.2: (3.0, 4.5, 3.0, 3.5),
    0.5: (3.0, 4.0, 2.5, 4.0),
    0.9: (2.0, 3.0, 2.5, 3.5),
    0.99: (1.5, 2.5, 1.0, 4.0),
    0.999: (1.0, 2.0, 1.5, 3.0),
    1 - 1e-6: (1.0, 1.5, 2.0, 2.5),
    1 - 1e-9: (1.0, 1.5, 1.5, 4.0),
    1 - 1e-12: (1.0, 1.5, 1.5, 2.5),
}


@pytest.mark.parametrize("load", sorted(EXACT_PLAN_ULPS))
@pytest.mark.parametrize("n", [2, 10, 200])
def test_exact_plan_is_within_its_ulp_bound_of_a_decimal_reference_at_its_slack(n, load):
    bounds = EXACT_PLAN_ULPS[load]
    for draw in range(2):
        scenario = scenario_at_load(n, load, np.random.default_rng([7, n, round(load * 1e12), draw]))
        plan = solve_exact(scenario)
        shares, delays, total_cost, lam = reference_exact(scenario, scenario._load_and_slack[1])
        errors = (max(map(ulps, plan.r.tolist(), shares)), max(map(ulps, plan.b.tolist(), delays)),
                  ulps(plan.total_cost, total_cost), ulps(plan.lam, lam))
        assert all(error <= bound for error, bound in zip(errors, bounds)), (draw, errors)


# The worst error of the headroom and its slope against 60 digits, in units
# in the last place, over ten 200-sensor draws at load 0.9 (seeds 0 to 9),
# rounded up to the next half.  The expm1/log1p form read up to 15 ulps
# for both at q*s = 1e14.
HEADROOM_ULPS, SLOPE_ULPS = 4.0, 2.5


def test_headroom_and_slope_are_within_their_ulp_bounds_at_every_decade_of_q_times_s():
    # s puts the sensors' median q*s at each decade from 1e-14 to 1e14; the
    # reference takes the exact inputs, so the error includes that of q.
    scenario = scenario_at_load(200, 0.9, np.random.default_rng(0))
    q_median = float(np.median(4.0 * (scenario._weight / scenario._min_share)))
    inputs = [[Decimal(x) for x in v.tolist()] for v in (scenario.mu, scenario.cost, scenario.theta)]
    worst_headroom = worst_slope = 0.0
    for decade in range(-14, 15):
        s = 10.0**decade / q_median
        headroom, slope = scenario._headroom(s, with_slope=True)
        with localcontext() as ctx:
            ctx.prec = 60
            for mu, cost, theta, h, w in zip(*inputs, headroom.tolist(), slope.tolist()):
                root = (1 + 4 * cost * mu / (theta * theta) * Decimal(s)).sqrt()
                worst_headroom = max(worst_headroom, ulps(h, theta / (2 * mu) * (root - 1)))
                worst_slope = max(worst_slope, ulps(w, cost / theta / root))
    assert worst_headroom <= HEADROOM_ULPS and worst_slope <= SLOPE_ULPS, (worst_headroom, worst_slope)


@pytest.mark.parametrize("load", [0.99, 0.9999])
def test_large_system_delays_match_decimal_oracle_at_the_multiplier(load):
    # The largest delays belong to the sensors with the least headroom, where
    # forming mu*r - theta from the rounded share cancels (at load 0.9999 that
    # route is 3.3e-13 off).  At 50 digits, from the plan's own multiplier:
    # h = (theta/(2mu))(sqrt(1 + q/lam) - 1), b = ln(1 + theta/(mu*h))/theta.
    scenario = scenario_at_load(100_000, load, np.random.default_rng(2024))
    plan = solve_exact(scenario)
    largest = np.argsort(plan.b)[-2000:]
    with localcontext() as ctx:
        ctx.prec = 50
        s = 1 / Decimal(plan.lam)
        exact = []
        for i in largest.tolist():
            mu, cost, theta = (
                Decimal(float(v[i])) for v in (scenario.mu, scenario.cost, scenario.theta)
            )
            headroom = theta / (2 * mu) * ((1 + 4 * cost * mu / (theta * theta) * s).sqrt() - 1)
            exact.append(float((1 + theta / (mu * headroom)).ln() / theta))
    np.testing.assert_allclose(plan.b[largest], exact, rtol=1e-13, atol=0)
