import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from helpers import grid_min_cost_two_sensor, random_feasible_scenario, scenario_at_load
from paoiplan import ConvergenceError, InfeasibleScenarioError, Scenario, SolveMethod, solve_exact
from paoiplan.solver_exact import allocation_at_lambda, residual

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

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_unrepresentable_multiplier_raises_convergence_error(self):
        # theta = 1e-200 overflows 4*cost*mu/theta**2 to inf: no finite Newton step exists.
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(1e-200, 0.5))
        with pytest.raises(ConvergenceError):
            solve_exact(scenario)

    def test_large_system_meets_kkt_tolerances(self):
        scenario = scenario_at_load(100_000, 0.99, np.random.default_rng(2024))
        plan = solve_exact(scenario)
        r = plan.r
        assert abs(math.fsum(r.tolist()) - scenario.budget) <= 1e-9
        implied = scenario.cost / (r * (scenario.mu * r - scenario.theta))
        assert np.max(np.abs(implied - plan.lam)) / plan.lam <= 1e-8


def _decimal_multiplier(scenario: Scenario) -> tuple[Decimal, list[Decimal]]:
    """Multiplier and shares at 50 digits, bisecting g(s) = slack in s = 1/lambda.

    Independent of the solver: the inputs are taken as exact decimals and
    the headroom is written as sqrt(1 + q*s) - 1 with no expm1/log1p.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        mu, cost, theta = (
            [Decimal(x) for x in values.tolist()]
            for values in (scenario.mu, scenario.cost, scenario.theta)
        )
        base = [t / m for t, m in zip(theta, mu)]
        half = [b / 2 for b in base]
        q = [4 * c * m / (t * t) for c, m, t in zip(cost, mu, theta)]
        slack = Decimal(scenario.budget) - sum(base)

        def g(s):
            return sum(h * ((1 + qi * s).sqrt() - 1) for h, qi in zip(half, q))

        # g is concave with slope sum(cost/theta) at 0, so slack/slope is a lower bound.
        lo = slack / sum(c / t for c, t in zip(cost, theta))
        hi = 2 * lo
        while g(hi) < slack:
            lo, hi = hi, 2 * hi
        while hi - lo > hi * Decimal("1e-40"):
            mid = (lo + hi) / 2
            if g(mid) < slack:
                lo = mid
            else:
                hi = mid
        s = (lo + hi) / 2
        shares = [b + h * ((1 + qi * s).sqrt() - 1) for b, h, qi in zip(base, half, q)]
        return 1 / s, shares


@pytest.mark.parametrize("load", [0.9, 0.999, 1 - 1e-6, 1 - 1e-9])
@pytest.mark.parametrize("n", [2, 10, 200])
def test_matches_decimal_oracle(n, load):
    scenario = scenario_at_load(n, load, np.random.default_rng(n))
    plan = solve_exact(scenario)
    lam, shares = _decimal_multiplier(scenario)
    np.testing.assert_allclose(plan.r, [float(x) for x in shares], rtol=1e-13, atol=0)
    # The float slack carries an absolute rounding error near 1e-16, which the
    # multiplier inherits relative to the slack itself.
    slack = 1.0 - float(np.sum(scenario.theta / scenario.mu))
    assert plan.lam == pytest.approx(float(lam), rel=max(1e-12, 1e-15 / slack))


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
