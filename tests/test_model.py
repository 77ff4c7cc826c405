import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paoiplan import (
    AllocationPlan,
    Scenario,
    SimConfig,
    SolveMethod,
    exponent_root,
    exponent_variational,
    solve_exact,
)
from paoiplan.model import _positive_vector, optimal_sampling_delay
from paoiplan.sim import _MAX_SAMPLES, simulate_sensor


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

    def test_equality_with_another_type_is_left_to_it(self):
        scenario = Scenario.from_arrays(mu=(1,), cost=(1,), theta=(0.5,))
        assert scenario.__eq__((1.0, 1.0, 0.5)) is NotImplemented
        assert scenario != (1.0, 1.0, 0.5)


class TestAllocationPlan:
    def test_basic_construction(self):
        plan = AllocationPlan(r=(0.5, 0.5), b=(1.0, 1.0), method=SolveMethod.EXACT,
                              total_cost=2.0, lam=8.0)
        assert plan.n == 2
        assert plan.method is SolveMethod.EXACT

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            AllocationPlan(r=(0.5,), b=(1.0, 1.0), method=SolveMethod.EXACT, total_cost=1.0)

    @pytest.mark.parametrize("method", list(SolveMethod))
    def test_method_given_as_its_string_is_the_enum_member(self, method):
        plan = AllocationPlan(r=(0.5,), b=(1.0,), method=method.value, total_cost=1.0)
        assert plan.method is method
        with pytest.raises(ValueError, match="'greedy' is not a valid SolveMethod"):
            AllocationPlan(r=(0.5,), b=(1.0,), method="greedy", total_cost=1.0)

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

        # Within the budget and above theta, but sensor 1's nu*b = 0.5 * 1.5 <= 1.
        unstable = AllocationPlan(r=(0.5, 0.5), b=(4.0, 1.5), method=SolveMethod.EXACT,
                                  total_cost=5.5)
        with pytest.raises(ValueError, match="sensor 1: nu\\*b = 0.75 <= 1, so its queue is unstable"):
            unstable.validate_for(scenario)

    def test_validate_for_caps_the_shares_relative_to_the_budget(self):
        # 500 times the exact shares of a 1e-12 budget sum to 5e-10, which an
        # absolute 1e-9 margin let through.  At 1e12 one ulp is 1.2e-4, far
        # above 1e-9, so the absolute margin refused any rounding at all.
        tiny = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25e-12, 0.25e-12), budget=1e-12)
        exact = solve_exact(tiny)
        inflated = AllocationPlan(r=exact.r * 500, b=exact.b, method=exact.method,
                                  total_cost=exact.total_cost, lam=exact.lam)
        assert math.fsum(inflated.r.tolist()) == pytest.approx(5e-10, rel=1e-12)
        exact.validate_for(tiny)
        with pytest.raises(ValueError, match="above budget"):
            inflated.validate_for(tiny)

        large = Scenario.from_arrays(mu=(1,), cost=(1,), theta=(1,), budget=1e12)
        over_by_one_ulp = AllocationPlan(r=(math.nextafter(1e12, math.inf),), b=(1.0,),
                                         method=SolveMethod.EXACT, total_cost=1.0)
        over_by_one_ulp.validate_for(large)

    def test_validate_for_caps_the_shares_at_the_largest_budget(self):
        # There budget * (1 + 1e-9) is inf; the bound is a difference, so a
        # share sum past the floats is still refused.
        largest = 1.7976931348623157e308
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(1, 1), budget=largest)
        plan = AllocationPlan(r=(largest, largest), b=(1.0, 1.0), method=SolveMethod.APPROX, total_cost=2.0)
        with pytest.raises(ValueError, match="^shares sum to inf, above budget 1.79769313486e\\+308$"):
            plan.validate_for(scenario)

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


# Each array-backed type built from its sensor vectors alone, with the names
# of the vectors in field order.
SENSOR_VECTOR_TYPES = {
    "Scenario": (lambda *vectors: Scenario(*vectors), ("mu", "cost", "theta")),
    "AllocationPlan": (lambda *vectors: AllocationPlan(*vectors, SolveMethod.EXACT, 1.0), ("r", "b")),
}


@pytest.mark.parametrize("owner", SENSOR_VECTOR_TYPES)
class TestSensorVectorRefusals:
    """Inputs that do not form a valid block of sensor vectors, and their messages."""

    def refuse(self, owner, first, second, rest, error, message):
        build, names = SENSOR_VECTOR_TYPES[owner]
        with pytest.raises(error, match=f"^{message}"):
            build(first, second, *[rest] * (len(names) - 2))
        return names

    def test_unequal_lengths(self, owner):
        names = SENSOR_VECTOR_TYPES[owner][1]
        lengths = ", ".join(["2", "1"] + ["2"] * (len(names) - 2))
        self.refuse(owner, [1, 1], [1], [0.5, 0.5], ValueError,
                    re.escape(f"{', '.join(names)} must have equal lengths, got {lengths}") + "$")

    def test_empty_vectors(self, owner):
        self.refuse(owner, [], (), np.array([]), ValueError, f"{owner} requires at least one sensor$")

    def test_bad_entry_in_the_first_field_wins_over_a_length_mismatch(self, owner):
        first = SENSOR_VECTOR_TYPES[owner][1][0]
        self.refuse(owner, [1, -1], [1], [0.5, 0.5], ValueError,
                    re.escape(f"{owner}.{first}[1] must be a finite positive number, got -1.0") + "$")

    def test_ragged_nested_input(self, owner):
        self.refuse(owner, [[1, 2], [3]], [1, 1], [0.5, 0.5], ValueError,
                    "setting an array element with a sequence")

    def test_string_entry(self, owner):
        self.refuse(owner, ["a", 1], [1, 1], [0.5, 0.5], ValueError,
                    re.escape("could not convert string to float: 'a'") + "$")

    def test_none_in_place_of_a_vector(self, owner):
        first = SENSOR_VECTOR_TYPES[owner][1][0]
        self.refuse(owner, None, [1, 1], [0.5, 0.5], ValueError,
                    re.escape(f"{owner}.{first} must be one-dimensional, got shape ()") + "$")

    @pytest.mark.parametrize("second", [[None, 1], (1, None), np.array([None, 1], dtype=object)])
    def test_none_entry_is_named_as_none(self, owner, second):
        # None converts to NaN; the refusal names the value the caller passed.
        second_name = SENSOR_VECTOR_TYPES[owner][1][1]
        i = next(index for index, value in enumerate(second) if value is None)
        self.refuse(owner, [1, 1], second, [0.5, 0.5], ValueError,
                    re.escape(f"{owner}.{second_name}[{i}] must be a finite positive number, got None") + "$")

    def test_nan_entry_is_still_named_as_nan(self, owner):
        first = SENSOR_VECTOR_TYPES[owner][1][0]
        self.refuse(owner, [1, math.nan], [1, 1], [0.5, 0.5], ValueError,
                    re.escape(f"{owner}.{first}[1] must be a finite positive number, got nan") + "$")

    def test_entry_that_is_not_a_number(self, owner):
        self.refuse(owner, [{}, 1], [1, 1], [0.5, 0.5], TypeError,
                    re.escape("float() argument must be a string or a real number, not 'dict'") + "$")


def _sensor_vector_inputs(n):
    """One field's n positive finite entries, as a list, tuple or numpy array of some dtype."""
    python_floats = st.floats(min_value=5e-324, max_value=np.finfo(np.float64).max)
    float32 = np.finfo(np.float32)
    float32s = st.floats(min_value=float(float32.smallest_subnormal), max_value=float(float32.max), width=32)
    counts = st.integers(min_value=1, max_value=2**63 - 1)
    return st.one_of(
        st.lists(python_floats, min_size=n, max_size=n),
        st.lists(python_floats, min_size=n, max_size=n).map(tuple),
        st.lists(python_floats, min_size=n, max_size=n).map(np.array),
        st.lists(float32s, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float32)),
        st.lists(counts, min_size=n, max_size=n).map(lambda v: [np.int64(x) for x in v]),
        st.lists(counts, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
    )


@given(data=st.data(), owner=st.sampled_from(sorted(SENSOR_VECTOR_TYPES)),
       n=st.integers(min_value=1, max_value=12))
def test_stored_rows_are_the_fields_validated_one_by_one(data, owner, n):
    build, names = SENSOR_VECTOR_TYPES[owner]
    inputs = [data.draw(_sensor_vector_inputs(n), label=name) for name in names]
    built = build(*inputs)
    for name, values in zip(names, inputs):
        row = getattr(built, name)
        expected = _positive_vector(name, values)
        assert row.dtype == np.float64 and row.shape == (n,)
        assert row.tobytes() == expected.tobytes()
        assert not row.flags.writeable and row.flags.c_contiguous
        if isinstance(values, np.ndarray):
            assert not np.shares_memory(row, values) and values.flags.writeable


class TestOptimalSamplingDelay:
    def test_hand_values(self):
        assert optimal_sampling_delay(0.5, 0.25) == pytest.approx(4 * math.log(2), abs=1e-12)
        assert optimal_sampling_delay(1.0, 0.5) == pytest.approx(2 * math.log(2), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, -0.25, math.nan])
    def test_nonpositive_exponent_raises(self, theta):
        with pytest.raises(ValueError, match=re.escape(f"outage exponent must be positive, got {theta!r}")):
            optimal_sampling_delay(1.0, theta)

    @pytest.mark.parametrize("nu", [0.25, 0.2, 0.0])
    def test_infeasible_rate_raises(self, nu):
        with pytest.raises(ValueError, match="must strictly exceed the outage exponent"):
            optimal_sampling_delay(nu, 0.25)

    def test_strictly_decreasing_in_rate(self):
        theta = 0.5
        delays = [optimal_sampling_delay(nu, theta) for nu in np.linspace(0.6, 50.0, 200)]
        assert all(a > b for a, b in zip(delays, delays[1:]))
        assert delays[-1] < 0.05

    def test_definitional_round_trip(self):
        for nu in (0.5, 1.0, 3.0):
            for theta in np.linspace(0.05, 0.95, 10) * nu:
                # The tight point LMGF(theta)/theta, LMGF(theta) = ln(nu/(nu - theta)).
                b = optimal_sampling_delay(nu, theta)
                assert math.log(nu / (nu - theta)) / theta == pytest.approx(b, abs=1e-12)


HUGE = 10**400  # a Python int past the floats: float() of it raises OverflowError


# Each is refused before any sample map is made: simulate_sensor checks nu
# and b first, and SimConfig its count when it is built.
@pytest.mark.parametrize("build,message", [
    (lambda: Scenario(mu=[HUGE], cost=[1.0], theta=[1.0]),
     "Scenario.mu[0] must be a finite positive number, got inf"),
    (lambda: Scenario(mu=HUGE, cost=[1.0], theta=[1.0]), "Scenario.mu must be one-dimensional, got shape ()"),
    (lambda: Scenario(mu=[1.0, 1.0], cost=[1.0, -HUGE], theta=[1.0, 1.0]),
     "Scenario.cost[1] must be a finite positive number, got -inf"),
    (lambda: Scenario(mu=[1.0], cost=[1.0], theta=[HUGE]),
     "Scenario.theta[0] must be a finite positive number, got inf"),
    (lambda: Scenario(mu=[1.0], cost=[1.0], theta=[1.0], budget=HUGE),
     "Scenario.budget must be a finite positive number, got inf"),
    (lambda: AllocationPlan(r=[HUGE], b=[1.0], method="exact", total_cost=1.0),
     "AllocationPlan.r[0] must be a finite positive number, got inf"),
    (lambda: AllocationPlan(r=[1.0], b=[1.0], method="exact", total_cost=HUGE),
     "AllocationPlan.total_cost must be finite"),
    (lambda: AllocationPlan(r=[1.0], b=[1.0], method="exact", total_cost=1.0, lam=HUGE),
     "AllocationPlan.lam must be finite and positive, got inf"),
    (lambda: exponent_root(HUGE, 1.0), "service rate must be finite and positive, got inf"),
    (lambda: exponent_variational(1.0, HUGE), "sampling delay must be finite and positive, got inf"),
    (lambda: simulate_sensor(1.0, HUGE, SimConfig(num_samples=1000)),
     "sampling delay must be finite and positive, got inf"),
    (lambda: SimConfig(num_samples=HUGE), f"num_samples must be at most {_MAX_SAMPLES}, got {HUGE}"),
    (lambda: SimConfig(num_samples=_MAX_SAMPLES + 1), f"num_samples must be at most {_MAX_SAMPLES}, got"),
])
def test_ints_past_the_floats_are_refused_as_inf(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_the_largest_sample_count_maps_at_most_sys_maxsize_bytes():
    # The map holds 10 000 warm-up slots and the samples, 8 bytes each, in whole 2 MiB pages.
    def map_length(samples):
        return -(-8 * (10_000 + samples) // (2 << 20)) * (2 << 20)

    assert SimConfig(num_samples=_MAX_SAMPLES).num_samples == _MAX_SAMPLES
    assert map_length(_MAX_SAMPLES) <= sys.maxsize < map_length(_MAX_SAMPLES + 1)
