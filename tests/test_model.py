import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paoiplan import (
    AllocationPlan,
    InfeasibleRateError,
    Scenario,
    SolveMethod,
    lmgf_exponential,
    optimal_sampling_delay,
    rate_function_exponential,
    solve_exact,
)


def _scenario(first, second):
    """A two-sensor Scenario with ``mu = first`` and ``cost = second``."""
    return Scenario.from_arrays(first, second, (0.1, 0.2))


def _plan(first, second):
    """An AllocationPlan with ``r = first`` and ``b = second``."""
    return AllocationPlan(r=first, b=second, method=SolveMethod.EXACT, total_cost=1.0, lam=2.0)


# Checks shared by the two array-backed types, given a builder above and
# the names of the arrays the type stores (the builder's two come first).
def check_read_only_copies(build, names):
    first = np.array([1.0, 2.0])
    built = build(first, (3, 4))
    assert not np.shares_memory(getattr(built, names[0]), first)
    first[0] = 5.0
    assert getattr(built, names[0])[0] == 1.0
    for name in names:
        values = getattr(built, name)
        assert values.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 9.0


def check_rejects_non_vector(build):
    with pytest.raises(ValueError, match="one-dimensional"):
        build([[1.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        build(1.0, [1.0])


def check_value_equality(build):
    built = build((1, 2), (3, 4))
    assert built == build(np.array([1.0, 2.0]), [3.0, 4.0])
    assert built != build((1, 2), (3, 5))
    with pytest.raises(TypeError, match="unhashable"):
        hash(built)


class TestSensorSpec:
    """Per-sensor fields (mu, cost, theta), validated by Scenario.from_arrays."""

    def test_accepts_positive_fields(self):
        scenario = Scenario.from_arrays(mu=[1.5], cost=[2.0], theta=[0.3])
        assert (scenario.mu[0], scenario.cost[0], scenario.theta[0]) == (1.5, 2.0, 0.3)

    @pytest.mark.parametrize("field", ["mu", "cost", "theta"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite(self, field, bad):
        kwargs = {"mu": [1.0, 1.0], "cost": [1.0, 1.0], "theta": [0.5, 0.25]}
        kwargs[field][1] = bad
        with pytest.raises(ValueError, match=rf"Scenario\.{field}\[1\]"):
            Scenario.from_arrays(**kwargs)

    def test_coerces_numpy_scalars_to_float(self):
        scenario = Scenario.from_arrays(
            mu=[np.float32(2.0)], cost=[np.int64(1)], theta=[np.float64(0.5)]
        )
        for values in (scenario.mu, scenario.cost, scenario.theta):
            assert values.dtype == np.float64
            assert type(values.tolist()[0]) is float


class TestScenario:
    def test_from_arrays_round_trip(self):
        scenario = Scenario.from_arrays(mu=(1, 2), cost=(3, 4), theta=(0.1, 0.2))
        assert scenario.n == 2
        assert scenario.budget == 1.0
        np.testing.assert_array_equal(scenario.mu, [1.0, 2.0])
        np.testing.assert_array_equal(scenario.cost, [3.0, 4.0])
        np.testing.assert_array_equal(scenario.theta, [0.1, 0.2])

    def test_rejects_empty_sensor_list(self):
        with pytest.raises(ValueError, match="at least one sensor"):
            Scenario.from_arrays(mu=(), cost=(), theta=())

    def test_rejects_non_vector_input(self):
        check_rejects_non_vector(_scenario)

    def test_stored_arrays_are_read_only_copies(self):
        check_read_only_copies(_scenario, ("mu", "cost", "theta"))

    def test_equality_compares_values(self):
        check_value_equality(_scenario)
        scenario = Scenario.from_arrays(mu=(1, 2), cost=(3, 4), theta=(0.1, 0.2))
        assert scenario != Scenario.from_arrays(mu=(1, 2), cost=(3, 4), theta=(0.1, 0.2), budget=2)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.inf])
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(ValueError, match="budget"):
            Scenario.from_arrays(mu=(1,), cost=(1,), theta=(0.5,), budget=budget)

    def test_from_arrays_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Scenario.from_arrays(mu=(1, 1), cost=(1,), theta=(0.1, 0.2))


class TestAllocationPlan:
    def test_basic_construction(self):
        plan = AllocationPlan(r=(0.5, 0.5), b=(1.0, 1.0), method=SolveMethod.EXACT,
                              total_cost=2.0, lam=8.0)
        assert plan.n == 2
        assert plan.method is SolveMethod.EXACT

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            AllocationPlan(r=(0.5,), b=(1.0, 1.0), method=SolveMethod.EXACT, total_cost=1.0)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError, match=r"AllocationPlan\.r\[1\]"):
            AllocationPlan(r=(0.5, 0.0), b=(1.0, 1.0), method=SolveMethod.EXACT, total_cost=1.0)

    @pytest.mark.parametrize("field", ["r", "b"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_nonfinite_or_negative_entries(self, field, bad):
        kwargs = {"r": [0.5, 0.5], "b": [1.0, 1.0]}
        kwargs[field][1] = bad
        with pytest.raises(ValueError, match=rf"AllocationPlan\.{field}\[1\] must be a finite positive"):
            AllocationPlan(**kwargs, method=SolveMethod.EXACT, total_cost=1.0)

    def test_rejects_empty_plan(self):
        with pytest.raises(ValueError, match="at least one sensor"):
            AllocationPlan(r=(), b=(), method=SolveMethod.EXACT, total_cost=0.0)

    def test_rejects_non_vector_input(self):
        check_rejects_non_vector(_plan)

    def test_stored_arrays_are_read_only_copies(self):
        check_read_only_copies(_plan, ("r", "b"))

    def test_equality_compares_values(self):
        check_value_equality(_plan)
        plan = _plan((1, 2), (3, 4))
        assert plan != AllocationPlan(r=(1, 2), b=(3, 4), method=SolveMethod.APPROX,
                                      total_cost=1.0, lam=2.0)
        assert plan != AllocationPlan(r=(1, 2), b=(3, 4), method=SolveMethod.EXACT,
                                      total_cost=1.5, lam=2.0)
        assert plan != AllocationPlan(r=(1, 2), b=(3, 4), method=SolveMethod.EXACT,
                                      total_cost=1.0)

    def test_validate_for_checks_dominance_budget_and_cost(self):
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))
        b = (4 * math.log(2),) * 2
        good = AllocationPlan(r=(0.5, 0.5), b=b, method=SolveMethod.EXACT,
                              total_cost=math.fsum(b))
        good.validate_for(scenario)

        dominated = AllocationPlan(r=(0.25, 0.75), b=b, method=SolveMethod.EXACT,
                                   total_cost=math.fsum(b))
        with pytest.raises(ValueError, match="does not exceed"):
            dominated.validate_for(scenario)

        over_budget = AllocationPlan(r=(0.6, 0.6), b=b, method=SolveMethod.EXACT,
                                     total_cost=math.fsum(b))
        with pytest.raises(ValueError, match="above budget"):
            over_budget.validate_for(scenario)

        wrong_cost = AllocationPlan(r=(0.5, 0.5), b=b, method=SolveMethod.EXACT,
                                    total_cost=1.0)
        with pytest.raises(ValueError, match="total_cost"):
            wrong_cost.validate_for(scenario)

    def test_validate_for_accepts_total_cost_at_12_significant_digits(self):
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))
        plan = solve_exact(scenario)

        def with_total_cost(total_cost):
            return AllocationPlan(r=plan.r, b=plan.b, method=plan.method,
                                  total_cost=total_cost, lam=plan.lam)

        rounded = float(f"{plan.total_cost:.12g}")
        assert rounded != plan.total_cost
        with_total_cost(rounded).validate_for(scenario)
        with pytest.raises(ValueError, match="does not match recomputed value"):
            with_total_cost(plan.total_cost * (1 + 1e-6)).validate_for(scenario)


class TestLmgf:
    def test_zero_at_origin(self):
        assert lmgf_exponential(1.0, 0.0) == 0.0

    def test_direct_value(self):
        assert lmgf_exponential(1.0, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 100.0])
    def test_divergent_branch_is_inf(self, gamma):
        assert lmgf_exponential(1.0, gamma) == math.inf

    def test_negative_gamma_is_negative(self):
        assert lmgf_exponential(1.0, -1.0) == pytest.approx(-math.log(2), abs=1e-12)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="service rate"):
            lmgf_exponential(0.0, 0.5)

    @given(
        nu=st.floats(0.1, 10.0),
        g1=st.floats(-50.0, 0.99),
        g2=st.floats(-50.0, 0.99),
        weight=st.floats(0.01, 0.99),
    )
    def test_convex_in_gamma(self, nu, g1, g2, weight):
        gamma1, gamma2 = sorted((nu * g1, nu * g2))
        combo = weight * gamma1 + (1 - weight) * gamma2
        lhs = lmgf_exponential(nu, combo)
        rhs = weight * lmgf_exponential(nu, gamma1) + (1 - weight) * lmgf_exponential(nu, gamma2)
        assert lhs <= rhs + 1e-12


class TestRateFunction:
    def test_vanishes_at_mean(self):
        assert rate_function_exponential(1.0, 1.0) == 0.0

    def test_direct_value(self):
        assert rate_function_exponential(1.0, 2.0) == pytest.approx(1.0 - math.log(2), abs=1e-12)

    @pytest.mark.parametrize("x", [-1.0, 0.0])
    def test_off_support_is_inf(self, x):
        assert rate_function_exponential(1.0, x) == math.inf

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    def test_matches_brute_force_legendre_transform(self, nu):
        # Independent oracle: supremum of gamma*x - LMGF(gamma) on a dense grid.
        gammas = np.arange(-10.0 * nu, nu * (1 - 1e-9), 1e-4 * nu)
        lmgf_values = -np.log1p(-gammas / nu)
        for k in range(1, 51):
            x = 0.1 * k / nu
            sup = float(np.max(gammas * x - lmgf_values))
            assert rate_function_exponential(nu, x) == pytest.approx(sup, abs=1e-5)


class TestOptimalSamplingDelay:
    def test_hand_values(self):
        assert optimal_sampling_delay(0.5, 0.25) == pytest.approx(4 * math.log(2), abs=1e-12)
        assert optimal_sampling_delay(1.0, 0.5) == pytest.approx(2 * math.log(2), abs=1e-12)

    @pytest.mark.parametrize("nu", [0.25, 0.2])
    def test_infeasible_rate_raises(self, nu):
        with pytest.raises(InfeasibleRateError):
            optimal_sampling_delay(nu, 0.25)

    def test_strictly_decreasing_in_rate(self):
        theta = 0.5
        delays = [optimal_sampling_delay(nu, theta) for nu in np.linspace(0.6, 50.0, 200)]
        assert all(a > b for a, b in zip(delays, delays[1:]))
        assert delays[-1] < 0.05

    def test_definitional_round_trip(self):
        for nu in (0.5, 1.0, 3.0):
            for theta in np.linspace(0.05, 0.95, 10) * nu:
                b = optimal_sampling_delay(nu, theta)
                assert lmgf_exponential(nu, theta) / theta == pytest.approx(b, abs=1e-12)
