import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import random_feasible_scenario
from paoiplan import Scenario, check_feasibility


def test_two_sensor_example():
    report = check_feasibility(Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.3, 0.3)))
    assert report.feasible
    assert report.load == pytest.approx(0.6, abs=1e-15)
    assert report.slack == pytest.approx(0.4, abs=1e-15)


def test_boundary_load_is_infeasible():
    report = check_feasibility(Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.5, 0.5)))
    assert not report.feasible
    assert report.load == 1.0
    assert report.slack == 0.0


def test_single_sensor_example():
    report = check_feasibility(Scenario.from_arrays(mu=(2,), cost=(1,), theta=(1.0,)))
    assert report.feasible
    assert report.load == 0.5


def test_negative_slack_reported():
    report = check_feasibility(Scenario.from_arrays(mu=(1,), cost=(1,), theta=(1.5,)))
    assert not report.feasible
    assert report.slack == pytest.approx(-0.5, abs=1e-15)


def test_binding_sensors_sorted_by_contribution():
    # Contributions theta/mu: 0.3, 0.05, 0.2 -> order (0, 2, 1).
    report = check_feasibility(
        Scenario.from_arrays(mu=(1, 2, 1), cost=(1, 1, 1), theta=(0.3, 0.1, 0.2))
    )
    assert report.binding_sensors == (0, 2, 1)


def test_binding_sensors_ties_break_by_index():
    report = check_feasibility(Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.2, 0.2)))
    assert report.binding_sensors == (0, 1)


def test_budget_generalization():
    scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.6, 0.6), budget=2.0)
    report = check_feasibility(scenario)
    assert report.feasible
    assert report.slack == pytest.approx(0.8, abs=1e-15)


@given(scale=st.sampled_from([0.125, 0.25, 0.5, 2.0, 4.0, 8.0]), seed=st.integers(0, 1000))
def test_scaling_invariance(scale, seed):
    # Power-of-two scales keep every theta/mu division exact, so the report
    # must come back bit-identical.
    rng = np.random.default_rng(seed)
    scenario = random_feasible_scenario(rng)
    scaled = Scenario.from_arrays(
        mu=scenario.mu * scale, cost=scenario.cost, theta=scenario.theta * scale
    )
    assert check_feasibility(scaled) == check_feasibility(scenario)


@given(seed=st.integers(0, 1000), index=st.integers(0, 9), factor=st.floats(1.0, 100.0))
def test_increasing_theta_never_restores_feasibility(seed, index, factor):
    rng = np.random.default_rng(seed)
    scenario = random_feasible_scenario(rng)
    theta = scenario.theta.copy()
    theta[index % scenario.n] *= factor
    bumped = check_feasibility(Scenario.from_arrays(mu=scenario.mu, cost=scenario.cost, theta=theta))
    original = check_feasibility(scenario)
    assert bumped.load >= original.load
    if not original.feasible:
        assert not bumped.feasible


@pytest.mark.parametrize("seed", range(20))
def test_constructive_witness_when_feasible(seed):
    # The even slack split must be a valid allocation whenever feasible.
    rng = np.random.default_rng(seed)
    scenario = random_feasible_scenario(rng)
    report = check_feasibility(scenario)
    assert report.feasible
    shares = scenario.theta / scenario.mu + report.slack / scenario.n
    assert np.all(scenario.mu * shares > scenario.theta)
    assert np.sum(shares) <= scenario.budget + 1e-12
