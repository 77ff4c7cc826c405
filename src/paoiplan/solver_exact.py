"""Exact joint planner: multiplier root-find plus closed-form recovery.

Minimizing the cost-weighted sum of sampling delays over resource shares is
convex, so the optimum is characterized by a single Lagrange multiplier
``lam`` on the budget constraint.  The per-sensor share at a given
multiplier is the positive root of a quadratic; the plan is built from its
headroom above ``theta/mu``.  The multiplier is found by Newton on 1/lam:
in ``s = 1/lam`` the budget equation is concave and increasing with value
0 at ``s = 0``, so the iterates climb monotonically to the root and stop
when a step no longer raises ``s``.  The first step, from ``s = 0``, needs
no evaluation: there every headroom is 0 and its slope is ``cost/theta``,
so Newton starts at the closed form's ``s = slack/sum(cost/theta)``.

Every headroom comes from the scenario's planning kernel (see ``model``):
``q = 4*(cost/theta)/(theta/mu)``, ``theta/(2*mu)`` and ``cost/theta`` are
computed once per scenario, not at each Newton step, so a step costs one
sqrt and a few products and quotients per sensor.  The Newton steps ask for
the headroom and its slope; ``allocation_at_lambda`` asks for the headroom
alone.  The plan is built from the headroom at ``1/lam``, where ``lam =
1/s`` for Newton's last iterate ``s``.  Where ``1/lam`` rounds back to
``s`` (about 87% of the fig3 scenarios), that is the headroom Newton's last
step evaluated, and it is reused; elsewhere it is evaluated once more at
``1/lam``.

Each step's two sums, the headroom total and the slope sum, are correctly
rounded (``model._fsum``), as is every sum in the kernel, so the iterates,
the multiplier and the plan do not depend on the order of the sensors.
"""
from __future__ import annotations

import math

import numpy as np

from .feasibility import feasible_slack
from .model import AllocationPlan, Scenario, SolveMethod, _fsum, _plan_from_headroom

# Newton takes 3-8 steps, the first of them from s = 0, at loads from 0.5 up
# to the boundary and up to about 30 when the minimum shares sit many decades
# below the slack.
_MAX_NEWTON_STEPS = 100


class ConvergenceError(RuntimeError):
    """Root finding failed to converge within the iteration budget."""


def allocation_at_lambda(scenario: Scenario, lam: float) -> np.ndarray:
    """Per-sensor shares at multiplier ``lam``: the positive quadratic root.

    Every share strictly exceeds ``theta/mu``, so the service rate strictly
    dominates the exponent.
    """
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be a finite positive number, got {lam!r}")
    return scenario._min_share + scenario._headroom(1.0 / lam)


def residual(scenario: Scenario, lam: float) -> float:
    """Budget residual ``sum(r_i(lam)) - budget``; strictly decreasing in ``lam``."""
    return _fsum(allocation_at_lambda(scenario, lam)) - scenario.budget


def _find_multiplier(scenario: Scenario, slack: float) -> tuple[float, float, np.ndarray]:
    # Solve g(s) = slack, where g(s) is the total headroom.  The tangent of
    # the concave g lies above it, so each Newton step lands at or below the
    # root; in floats the iterates stop rising once they reach it.  The step
    # from s = 0 takes g = 0 and the slope sum(cost/theta) from the kernel:
    # the headroom at 0 gives those same bits wherever q is finite.  Both
    # sums per step are _fsum's, correctly rounded in any sensor order, like
    # the kernel's.  A slope sum that is not positive (every slope
    # underflowing to 0, as it does where q*s passes the floats) ends the
    # search instead of dividing by it, and a step past the floats ends it
    # before the headroom is evaluated there.
    # Returns lam = 1/s with the last s and the headroom evaluated there,
    # and refuses an s so small that 1/s passes the floats.
    s, gap, slope_sum = 0.0, slack, scenario._weight_total
    for _ in range(_MAX_NEWTON_STEPS):
        next_s = s + gap / slope_sum if slope_sum > 0.0 else math.nan
        if not (s < next_s < math.inf):
            if s > 0.0 and math.isfinite(next_s):
                if 1.0 / s == math.inf:
                    raise ValueError(f"the budget multiplier lambda = 1/s passes the floats at s={s!r}")
                return 1.0 / s, s, headroom
            break
        s = next_s
        headroom, slope = scenario._headroom(s, with_slope=True)
        gap, slope_sum = slack - _fsum(headroom), _fsum(slope)
    raise ConvergenceError(
        f"Newton on 1/lambda stopped at s={s!r} without meeting the budget slack {slack!r}"
    )


def solve_exact(scenario: Scenario) -> AllocationPlan:
    """Solve the joint delay/allocation problem to optimality.

    The headroom at the multiplier goes to the plan constructor shared with
    ``solve_approx``: shares sum to the budget up to rounding, each delay at
    its tail constraint's tight point.  Raises InfeasibleScenarioError when
    no allocation can dominate every exponent, ConvergenceError when a
    Newton step leaves the finite floats or the step cap is reached, and
    ValueError when the multiplier or the plan cannot be represented in
    floats.
    """
    # One scope for every headroom and the plan: q*s past the floats (and
    # its inf/inf or 0*inf) stops Newton, which names s, and a delay past the floats is
    # refused by the plan, naming its sensor.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam, s, headroom = _find_multiplier(scenario, feasible_slack(scenario))
        if 1.0 / lam != s:  # 1/(1/s) rounds away from s: the plan is at 1/lam, not at s
            headroom = scenario._headroom(1.0 / lam)
        return _plan_from_headroom(scenario, headroom, SolveMethod.EXACT, lam)
