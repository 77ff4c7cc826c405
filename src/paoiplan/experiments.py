"""Scenario generators and sweep drivers for the built-in studies.

Two desk-scale studies ship with the package: a two-sensor trade-off sweep
of the first sensor's sampling delay against its required exponent (``fig2``
surface), and a cost-gap study comparing the exact and closed-form planners
over randomized systems of growing size (``fig3`` surface).  Each returns
rows whose field names are the columns of the CSV the CLI writes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Scenario
from .solver_approx import solve_approx
from .solver_exact import solve_exact

FIG2_C1_VALUES = (1.0, 5.0, 10.0)
FIG2_THETA1_GRID = tuple(round(0.05 * k, 2) for k in range(1, 14)) + (0.68, 0.69, 0.695)
FIG2_THETA2 = 0.3
FIG2_C2 = 1.0
FIG3_DEFAULT_N_VALUES = (4, 8, 16)


@dataclass(frozen=True)
class TradeoffRow:
    """One point of the delay-versus-exponent sweep for the first sensor."""

    c1: float
    theta1: float
    exact_b1: float
    approx_b1: float


@dataclass(frozen=True)
class CostGapRow:
    """Averaged exact/approximate costs and relative gap at one system size."""

    n: int
    c_max: float
    mean_exact_cost: float
    mean_approx_cost: float
    mean_gap: float
    stderr_gap: float


def fig2_sweep() -> list[TradeoffRow]:
    """Solve the two-sensor system over the grid of (cost, exponent) for sensor 1.

    The second sensor is fixed (theta 0.3, unit cost and rate), so the load
    is at most 0.695 + 0.3 < 1 and every grid point is feasible.  Rows are
    ordered by cost value, then ascending exponent.
    """
    rows = []
    for c1 in FIG2_C1_VALUES:
        for theta1 in FIG2_THETA1_GRID:
            scenario = Scenario.from_arrays(
                mu=(1.0, 1.0), cost=(c1, FIG2_C2), theta=(theta1, FIG2_THETA2)
            )
            exact = solve_exact(scenario)
            approx = solve_approx(scenario)
            rows.append(
                TradeoffRow(c1=float(c1), theta1=float(theta1),
                            exact_b1=float(exact.b[0]), approx_b1=float(approx.b[0]))
            )
    return rows


def _check_seed(seed: int) -> None:
    # SeedSequence refuses a negative seed without naming it.
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")


def fig3_scenario(n: int, c_max: float, seed: int) -> Scenario:
    """Randomized unit-rate scenario of size ``n`` for the cost-gap study.

    Exponents ramp in steps of 0.01 around a center value of ``0.5/n`` at
    sensor ``n/2``; costs are drawn uniformly from [1, c_max].  Raises
    ValueError when ``n`` is not a positive even integer, when ``c_max`` is
    below 1 or not finite, when ``seed`` is negative, or when the ramp
    drives an exponent to or below zero (which happens once
    ``0.5/n <= 0.01*(n/2 - 1)``).
    """
    _check_seed(seed)
    if not (isinstance(n, (int, np.integer)) and n > 0 and n % 2 == 0):
        raise ValueError(f"n must be a positive even integer, got {n!r}")
    if not 1.0 <= c_max < math.inf:
        raise ValueError(f"c_max must be at least 1 and finite, got {c_max!r}")
    half = n // 2
    center = 0.5 / n
    theta = [center + 0.01 * (i - half) for i in range(1, n + 1)]
    if theta[0] <= 0.0:
        raise ValueError(
            f"n={n} drives the smallest exponent to {theta[0]:.6g} <= 0; "
            f"the ramp requires 0.5/n > 0.01*(n/2 - 1)"
        )
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    cost = rng.uniform(1.0, c_max, size=n)
    # Feasible by construction: a positive ramp (n <= 10) has load 0.5 + 0.005n <= 0.55.
    return Scenario.from_arrays(mu=np.ones(n), cost=cost, theta=theta)


def _replication_seed(seed: int, n: int, rep: int) -> int:
    return int(np.random.SeedSequence((int(seed), int(n), int(rep))).generate_state(1, np.uint64)[0])


def fig3_sweep(n_values, c_max: float, replications: int, seed: int) -> list[CostGapRow]:
    """Average the exact/approximate cost gap over randomized cost draws.

    Each (size, replication) pair gets an independent substream derived
    from ``seed``, so results are deterministic and independent of the
    order of ``n_values``.  Raises ValueError on a negative ``seed``, and
    as ``fig3_scenario`` does.
    """
    _check_seed(seed)
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications!r}")
    rows = []
    for n in n_values:
        scenarios = [fig3_scenario(n, c_max, _replication_seed(seed, n, rep)) for rep in range(replications)]
        exact = np.array([solve_exact(scenario).total_cost for scenario in scenarios])
        approx = np.array([solve_approx(scenario).total_cost for scenario in scenarios])
        gaps = (approx - exact) / exact
        stderr_gap = float(np.std(gaps, ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
        rows.append(CostGapRow(n=int(n), c_max=float(c_max), mean_exact_cost=float(np.mean(exact)),
                               mean_approx_cost=float(np.mean(approx)), mean_gap=float(np.mean(gaps)),
                               stderr_gap=stderr_gap))
    return rows
