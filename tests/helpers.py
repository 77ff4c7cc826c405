"""Shared test utilities: scenario generators and independent oracles."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

import paoiplan
from paoiplan import AllocationPlan, ExponentResult, Scenario, SolveMethod, sim

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


def dual_bound(scenario: Scenario, s: float) -> float:
    """The Lagrange dual ``g(s)`` of the planning problem at multiplier ``1/s``.

    By weak duality ``g(s)`` is at most the cost of every plan whose shares
    fit the budget, for every ``s > 0``.  Written in each sensor's headroom
    ``h`` above ``theta/mu``, whose delay is ``b(h) = log1p(theta/(mu*h))/theta``:
    ``g(s) = sum(cost*b(h(s))) + (sum(h(s)) - slack)/s``, where ``h(s)``
    minimises ``cost*b(h) + h/s`` sensor by sensor.  Setting its derivative
    to 0 gives ``h*(h + theta/mu) = s*cost/mu``; the positive root is
    taken in its rationalised form, with no cancellation.  The budget term
    is written over the slack: ``(sum(r) - budget)/s`` cancels near full load.
    """
    min_share = scenario.theta / scenario.mu
    slack = scenario.budget - math.fsum(min_share.tolist())
    k = s * scenario.cost / scenario.mu
    h = 2.0 * k / (min_share + np.sqrt(min_share**2 + 4.0 * k))
    delays = np.log1p(min_share / h) / scenario.theta
    return math.fsum((scenario.cost * delays).tolist()) + (math.fsum(h.tolist()) - slack) / s


def _decimal_inputs(scenario: Scenario) -> tuple[list[Decimal], list[Decimal], list[Decimal]]:
    return tuple([Decimal(x) for x in v.tolist()] for v in (scenario.mu, scenario.cost, scenario.theta))


def _decimal_slack(scenario: Scenario, min_share: list[Decimal], slack: float | None) -> Decimal:
    # The exact inputs' slack, or the float slack given, taken as the exact rational it is.
    return Decimal(scenario.budget) - sum(min_share) if slack is None else Decimal(slack)


def reference_closed_form(
    scenario: Scenario, slack: float | None = None
) -> tuple[list[Decimal], list[Decimal], Decimal]:
    """The closed-form plan's shares, delays and total cost, at 40 digits.

    Independent of the package: the float inputs are taken as the exact
    rationals they are, and every step is carried in ``Decimal`` at 40
    significant digits, which is far below a float's last place.  The steps
    are the closed form's: the slack ``budget - sum(theta/mu)``, the weights
    ``w = cost/theta`` and their total ``W``, the headroom
    ``h = w*slack/W``, the share ``theta/mu + h``, the delay
    ``b = ln(1 + theta/(mu*h))/theta`` and the cost ``sum(cost*b)``.  A
    float ``slack`` (the package's rounded one) replaces the exact slack.
    """
    with localcontext() as context:
        context.prec = 40
        mu, cost, theta = _decimal_inputs(scenario)
        min_share = [t / m for t, m in zip(theta, mu)]
        slack = _decimal_slack(scenario, min_share, slack)
        weights = [c / t for c, t in zip(cost, theta)]
        total = sum(weights)
        headroom = [w * slack / total for w in weights]
        shares = [m + h for m, h in zip(min_share, headroom)]
        delays = [(1 + t / (m * h)).ln() / t for m, t, h in zip(mu, theta, headroom)]
        return shares, delays, sum(c * b for c, b in zip(cost, delays))


def reference_exact(
    scenario: Scenario, slack: float | None = None
) -> tuple[list[Decimal], list[Decimal], Decimal, Decimal]:
    """The exact plan's shares, delays, total cost and multiplier, to 40 digits.

    Built as ``reference_closed_form`` is, from the exact inputs in
    ``Decimal``, and independent of the package's float arithmetic.  The
    multiplier solves ``g(s) = slack`` in ``s = 1/lambda``, where ``g(s)``
    is the total headroom written as ``(theta/(2*mu))*(sqrt(1 + q*s) - 1)``
    with ``q = 4*cost*mu/theta**2``: no expm1/log1p and no rationalised
    root.  It is carried at 60 digits, so the cancellation in
    ``sqrt(1 + q*s) - 1`` leaves 40 of them down to ``q*s = 1e-20``.  ``g``
    is concave and increasing, so Newton's iterates from ``s = 0`` climb to
    the root; a bracket of relative width 1e-40 around the last one
    certifies it, whatever the iteration did.  The delays are
    ``ln(1 + theta/(mu*h))/theta`` at that headroom.  A float ``slack``
    (the package's rounded one, ``scenario._load_and_slack[1]``) replaces
    the exact slack, so the plan's own error can be read apart from the
    slack's.
    """
    with localcontext() as context:
        context.prec = 60
        mu, cost, theta = _decimal_inputs(scenario)
        min_share = [t / m for t, m in zip(theta, mu)]
        half = [m / 2 for m in min_share]
        weights = [c / t for c, t in zip(cost, theta)]
        q = [4 * c * m / (t * t) for c, m, t in zip(cost, mu, theta)]
        slack = _decimal_slack(scenario, min_share, slack)

        def headroom(s):
            return [h * ((1 + qi * s).sqrt() - 1) for h, qi in zip(half, q)]

        s, step = Decimal(0), slack / sum(weights)
        while step > s * Decimal("1e-50"):
            s += step
            slope = sum(w / (1 + qi * s).sqrt() for w, qi in zip(weights, q))
            step = (slack - sum(headroom(s))) / slope
        assert sum(headroom(s * (1 - Decimal("1e-40")))) <= slack <= sum(headroom(s * (1 + Decimal("1e-40"))))
        heads = headroom(s)
        shares = [m + h for m, h in zip(min_share, heads)]
        delays = [(1 + t / (m * h)).ln() / t for m, t, h in zip(mu, theta, heads)]
        return shares, delays, sum(c * b for c, b in zip(cost, delays)), 1 / s


def ulps(got: float, reference: Decimal) -> float:
    """The distance from ``got`` to ``reference`` in units in the last place of ``got``."""
    return float(abs(Decimal(got) - reference) / Decimal(math.ulp(got)))


def customer_order(count: int) -> np.ndarray:
    """Positions of ``count`` samples in the order ``sim._peak_ages`` serves them.

    The samples are cut into chunks of ``sim._CHUNK_ROWS`` x
    ``sim._CHUNK_COLUMNS`` while that many are left, then one chunk of
    ``(rows, left // rows)``, then one row of the rest.  Each chunk is a
    C-contiguous ``(height, width)`` array served column by column: its
    customer ``s*height + i`` is element ``[i, s]``.  The constants are read
    at each call, so a test may shrink the chunk.
    """
    rows, columns = sim._CHUNK_ROWS, sim._CHUNK_COLUMNS
    chunks, start = [np.arange(0)], 0
    while start < count:
        height = rows if count - start >= rows else 1
        width = min(columns, (count - start) // height)
        chunks.append(start + np.arange(height * width).reshape(height, width).T.ravel())
        start += height * width
    return np.concatenate(chunks)


def avx512_levels() -> list[str]:
    """numpy's AVX-512 dispatch levels that this CPU runs: empty where it runs none."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [
        name for name in __cpu_dispatch__
        if (name == "X86_V4" or name.startswith("AVX512")) and __cpu_features__.get(name)
    ]


# The child checks that the levels it was asked to disable are off.
_CLI_CHILD = (
    "import os, sys\n"
    "from numpy._core._multiarray_umath import __cpu_features__\n"
    "from paoiplan.cli import main\n"
    "assert not any(__cpu_features__[name] for name in os.environ.get('NPY_DISABLE_CPU_FEATURES', '').split())\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_cli(argv: list[str], disabled: str = "") -> subprocess.CompletedProcess:
    """``paoiplan argv`` in a child interpreter, with numpy's dispatch levels ``disabled`` off."""
    env = dict(os.environ, PYTHONPATH=str(Path(paoiplan.__file__).resolve().parents[1]),
               NPY_DISABLE_CPU_FEATURES=disabled)
    return subprocess.run([sys.executable, "-c", _CLI_CHILD, *argv], env=env, capture_output=True, timeout=120)


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


# A frozen copy of both planners as they stood before their per-sensor
# constants were kept on the scenario: every constant is recomputed from
# mu, cost and theta at each use, in the same operation order.  Its sums
# follow the package's one summation rule, a correctly rounded math.fsum,
# and its headroom the rationalised quadratic root, in lockstep with it.
# The package's plans must equal these bit for bit.


def frozen_headroom(scenario: Scenario, s: float) -> tuple[np.ndarray, np.ndarray]:
    mu, cost, theta = scenario.mu, scenario.cost, scenario.theta
    qs = 4.0 * (cost / theta / (theta / mu)) * s
    root = np.sqrt(1.0 + qs)
    return theta / (2.0 * mu) * (qs / (1.0 + root)), cost / theta / root


def frozen_find_multiplier(scenario: Scenario, slack: float) -> float:
    s = 0.0
    for _ in range(100):
        headroom, slope = frozen_headroom(scenario, s)
        next_s = s + (slack - math.fsum(headroom.tolist())) / math.fsum(slope.tolist())
        if not next_s > s:
            assert s > 0.0 and math.isfinite(next_s)
            return 1.0 / s
        s = next_s
    raise AssertionError("the frozen Newton loop reached its step cap")


def _frozen_plan(scenario: Scenario, headroom, method: SolveMethod, lam=None) -> AllocationPlan:
    mu, cost, theta = scenario.mu, scenario.cost, scenario.theta
    delays = np.log1p(theta / (mu * headroom)) / theta
    total_cost = math.fsum((cost * delays).tolist())
    return AllocationPlan(theta / mu + headroom, delays, method, total_cost, lam)


def _frozen_slack(scenario: Scenario) -> float:
    slack = scenario.budget - math.fsum((scenario.theta / scenario.mu).tolist())
    assert slack > 0.0
    return slack


def frozen_solve_exact(scenario: Scenario) -> AllocationPlan:
    lam = frozen_find_multiplier(scenario, _frozen_slack(scenario))
    headroom, _ = frozen_headroom(scenario, 1.0 / lam)
    return _frozen_plan(scenario, headroom, SolveMethod.EXACT, lam)


def frozen_solve_approx(scenario: Scenario) -> AllocationPlan:
    slack = _frozen_slack(scenario)
    weights = scenario.cost / scenario.theta
    headroom = weights * (slack / math.fsum(weights.tolist()))
    return _frozen_plan(scenario, headroom, SolveMethod.APPROX)


# A frozen copy of the variational exponent as it stood before its search
# was written as one flat loop: the objective is a closure called at every
# probe.  The package's results must equal these bit for bit.

_FROZEN_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def frozen_exponent_variational(nu: float, b: float) -> ExponentResult:
    if nu * b <= 1.0:
        return ExponentResult(psi=0.0, argmin_t=math.inf)
    c = min(nu * b, math.log(sys.float_info.max))

    def objective(u: float) -> float:
        x = math.exp(u)
        y = x + c
        return (y - 1.0 - math.log(y)) / x

    a, d = math.log(c - 1.0), c
    p, q = d - _FROZEN_INV_GOLDEN * (d - a), a + _FROZEN_INV_GOLDEN * (d - a)
    f_p, f_q = objective(p), objective(q)
    while d - a > 1e-9:
        if f_p <= f_q:
            d, q, f_q = q, p, f_p
            p = d - _FROZEN_INV_GOLDEN * (d - a)
            f_p = objective(p)
        else:
            a, p, f_p = p, q, f_q
            q = a + _FROZEN_INV_GOLDEN * (d - a)
            f_q = objective(q)
    u_star = 0.5 * (a + d)
    psi = nu * min(objective(u_star), 1.0)
    return ExponentResult(psi=psi, argmin_t=math.exp(u_star) / nu)
