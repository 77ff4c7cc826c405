"""Shared test utilities: scenario generators and independent oracles."""
from __future__ import annotations

import numpy as np

from paoiplan import AllocationPlan, Scenario

# One line per acceptance criterion, printed in the terminal summary.
ACCEPTANCE_LINES: list[str] = []


def random_feasible_scenario(rng: np.random.Generator) -> Scenario:
    """N in 2..10, mu in [0.5, 4], cost in [1, 10], theta scaled to a load in [0.2, 0.9]."""
    n = int(rng.integers(2, 11))
    mu = rng.uniform(0.5, 4.0, n)
    cost = rng.uniform(1.0, 10.0, n)
    raw = rng.uniform(0.1, 1.0, n)
    load = float(rng.uniform(0.2, 0.9))
    theta = raw * (load / float(np.sum(raw / mu)))
    return Scenario.from_arrays(mu=mu, cost=cost, theta=theta)


def scenario_at_load(n: int, load: float, rng: np.random.Generator) -> Scenario:
    """mu in [0.5, 4], cost in [1, 10], theta scaled to the given load."""
    mu = rng.uniform(0.5, 4.0, n)
    cost = rng.uniform(1.0, 10.0, n)
    raw = rng.uniform(0.1, 1.0, n)
    return Scenario.from_arrays(mu, cost, raw * (load / float(np.sum(raw / mu))))


def grid_min_cost_two_sensor(scenario: Scenario, step: float = 1e-5) -> float:
    """Brute-force minimum of the two-sensor objective over an r1 grid.

    Deliberately independent of the solver: the objective is written out
    with plain numpy logs and the budget split enumerated directly.
    """
    assert scenario.n == 2
    (mu1, mu2), (c1, c2), (theta1, theta2) = scenario.mu, scenario.cost, scenario.theta
    r1 = np.arange(step, scenario.budget, step)
    r2 = scenario.budget - r1
    ok = (mu1 * r1 > theta1) & (mu2 * r2 > theta2)
    r1, r2 = r1[ok], r2[ok]
    total = (
        c1 / theta1 * np.log(mu1 * r1 / (mu1 * r1 - theta1))
        + c2 / theta2 * np.log(mu2 * r2 / (mu2 * r2 - theta2))
    )
    return float(total.min())


def plan_to_dict(plan: AllocationPlan) -> dict:
    """A plan's file fields as a dict: ``json.dumps`` of it with ``indent=2`` is
    the reference for the bytes the CLI writes for the plan."""
    data = {
        "r": plan.r.tolist(),
        "b": plan.b.tolist(),
        "method": plan.method.value,
        "total_cost": plan.total_cost,
    }
    if plan.lam is not None:
        data["lambda"] = plan.lam
    return data
