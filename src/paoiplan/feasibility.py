"""Feasibility of an outage-exponent vector against the resource budget.

A scenario admits a valid allocation iff the total required load
``sum(theta_i / mu_i)`` is strictly below the budget: each sensor needs at
least ``theta_i / mu_i`` of the resource before its service rate exceeds
its exponent, and strictly more to leave the tail constraint satisfiable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Scenario


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the load-versus-budget test, with slack and ranking."""

    feasible: bool
    load: float
    slack: float
    binding_sensors: tuple[int, ...]


class InfeasibleScenarioError(ValueError):
    """The requested outage exponents exceed what the budget can support."""

    def __init__(self, report: FeasibilityReport):
        self.report = report
        super().__init__(
            f"infeasible scenario: required load {report.load:.6g} is not strictly "
            f"below budget {report.load + report.slack:.6g}"
        )


def feasible_slack(scenario: Scenario) -> float:
    """Budget minus load, the planners' gate; InfeasibleScenarioError unless it is > 0.

    The full report, with its ranking, is built only for the error.
    """
    slack = scenario.budget - math.fsum((scenario.theta / scenario.mu).tolist())
    if not slack > 0.0:
        raise InfeasibleScenarioError(check_feasibility(scenario))
    return slack


def check_feasibility(scenario: Scenario) -> FeasibilityReport:
    """Decide feasibility and report load, slack, and per-sensor contributions.

    The boundary ``load == budget`` is infeasible: equality leaves no room
    for the strict service-rate dominance every sensor needs.
    ``binding_sensors`` lists all sensor indices by descending
    ``theta_i / mu_i`` contribution (ties broken by index).
    """
    contributions = scenario.theta / scenario.mu
    load = math.fsum(contributions.tolist())
    slack = scenario.budget - load
    # Stable sort of the negated contributions: tied sensors stay in index order.
    order = np.argsort(-contributions, kind="stable").tolist()
    return FeasibilityReport(
        feasible=load < scenario.budget,
        load=load,
        slack=slack,
        binding_sensors=tuple(order),
    )
