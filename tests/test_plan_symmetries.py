"""The model's exact symmetries as oracles for both planners.

Scaling a scenario by a power of two makes every product and quotient the
planners form exact in floats, so a planner that respects a symmetry
returns the scaled plan bit for bit, at any n and with no reference plan:

- cost scale: ``cost*8`` gives the same shares and delays, and the total
  cost and the multiplier times 8;
- budget scale: ``budget*4`` with ``mu/4`` gives the shares and the
  multiplier scaled by 4 and 1/4, and the same delays and total cost;
- time scale: ``(mu, cost, theta)/2`` gives the same shares, multiplier and
  total cost, and the delays times 2.

Sensor order is a symmetry too: every sum the planners take is correctly
rounded (``model._fsum``), so it does not depend on the order of its
terms, and a permuted scenario gives the permuted plan bit for bit.

Every relation is checked from 2 to 10 000 sensors, at loads from 0.5 to
1 - 1e-9.
"""
import numpy as np
import pytest

from helpers import scenario_at_load
from paoiplan import Scenario, solve_approx, solve_exact

PLANNERS = [solve_exact, solve_approx]
LOADS = [0.5, 0.9, 0.999, 1.0 - 1e-9]


def _draws(n: int, draws: int) -> int:
    # Three draws per load at 10 000 sensors keep each test under about 0.1 s.
    return 3 if n >= 10_000 else draws


def _scaled(scenario: Scenario):
    # (name, scaled scenario, factors on r, b, total_cost and lam)
    mu, cost, theta, budget = scenario.mu, scenario.cost, scenario.theta, scenario.budget
    return [
        ("cost*8", Scenario(mu, cost * 8.0, theta, budget), (1.0, 1.0, 8.0, 8.0)),
        ("budget*4, mu/4", Scenario(mu / 4.0, cost, theta, budget * 4.0), (4.0, 1.0, 1.0, 0.25)),
        ("(mu, cost, theta)/2", Scenario(mu / 2.0, cost / 2.0, theta / 2.0, budget), (1.0, 2.0, 1.0, 1.0)),
    ]


@pytest.mark.parametrize("solve", PLANNERS, ids=lambda solve: solve.__name__)
@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("n", [2, 10, 1000, 10_000])
def test_scaled_scenario_gives_the_scaled_plan_bit_for_bit(solve, n, load):
    for draw in range(_draws(n, 7)):
        scenario = scenario_at_load(n, load, np.random.default_rng([n, round(load * 1000), draw]))
        plan = solve(scenario)
        for name, scaled, (k_r, k_b, k_cost, k_lam) in _scaled(scenario):
            other = solve(scaled)
            where = (draw, name)
            assert other.r.tobytes() == (plan.r * k_r).tobytes(), where
            assert other.b.tobytes() == (plan.b * k_b).tobytes(), where
            assert other.total_cost == plan.total_cost * k_cost, where
            assert (other.lam is None) == (plan.lam is None), where
            if plan.lam is not None:
                assert other.lam == plan.lam * k_lam, where


@pytest.mark.parametrize("solve", PLANNERS, ids=lambda solve: solve.__name__)
@pytest.mark.parametrize("n", [2, 10, 100, 1000, 10_000])
def test_permuted_scenario_gives_the_permuted_plan_bit_for_bit(solve, n):
    for load in LOADS:
        for draw in range(_draws(n, 20)):
            rng = np.random.default_rng([7, n, round(load * 1000), draw])
            scenario = scenario_at_load(n, load, rng)
            order = rng.permutation(n)
            plan = solve(scenario)
            other = solve(Scenario(scenario.mu[order], scenario.cost[order], scenario.theta[order]))
            where = (load, draw)
            assert other.r.tobytes() == plan.r[order].tobytes(), where
            assert other.b.tobytes() == plan.b[order].tobytes(), where
            assert other.total_cost == plan.total_cost, where
            assert other.lam == plan.lam, where
