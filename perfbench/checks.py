"""Output checks for the benchmark, at the acceptance suite's tolerances.

Each checked operation counts as attempted, and as failed when any check on
it finds a problem or it raises; the run goes on either way.  Every check
returns a list of problems, empty when the output is correct.
"""
from __future__ import annotations

import math

import numpy as np

BUDGET_TOL = 1e-9  # |sum r - budget|, criterion 2
STATIONARITY_RTOL = 1e-8  # cost / (r (mu r - theta)) against lambda, criterion 2
APPROX_DEFICIT_TOL = 1e-10  # approx cost may undercut the exact cost by this much, criterion 4
EXPONENT_ROOT_RTOL = 1e-9  # exponent_root(mu r, b) against the required theta
ROUTE_AGREEMENT_TOL = 1e-6  # |variational - root|, criterion 1
FIT_RTOL = 0.10  # fitted tail exponent against theta, criterion 7
RECOVERY_RTOL = 1e-12  # shares and delays recomputed at the solved multiplier
FIG2_BOUNDARY_RTOL = 0.02  # approx/exact delay at theta1 = 0.695, criterion 6

_KEPT_PROBLEMS = 20


class Checker:
    """Counts checked operations and keeps the first few problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = _KEPT_PROBLEMS - len(self.problems)
            self.problems.extend(problems[:max(room, 0)])


def _count_false(mask) -> int:
    return int(np.count_nonzero(~np.asarray(mask)))


def plan_problems(label: str, mu, theta, budget: float, plan) -> list[str]:
    """Budget met, every service rate above its exponent, every queue stable."""
    r = np.asarray(plan.r, dtype=float)
    b = np.asarray(plan.b, dtype=float)
    if r.size != mu.size or b.size != mu.size:
        return [f"{label}: covers {r.size} shares and {b.size} delays for {mu.size} sensors"]
    problems = []
    gap = abs(math.fsum(plan.r) - budget)
    if not gap <= BUDGET_TOL:
        problems.append(f"{label}: |sum r - budget| = {gap:.3g} > {BUDGET_TOL:g}")
    nu = mu * r
    if bad := _count_false(nu > theta):
        problems.append(f"{label}: {bad} sensors with mu*r <= theta")
    if bad := _count_false(nu * b > 1.0):
        problems.append(f"{label}: {bad} sensors with nu*b <= 1 (unstable queue)")
    return problems


def kkt_problems(mu, cost, theta, plan) -> list[str]:
    """Every sensor's implied multiplier matches the plan's lambda."""
    if plan.lam is None:
        return ["exact plan has no multiplier"]
    r = np.asarray(plan.r, dtype=float)
    implied = cost / (r * (mu * r - theta))
    worst = float(np.max(np.abs(implied - plan.lam) / plan.lam))
    if not worst <= STATIONARITY_RTOL:
        return [f"KKT stationarity {worst:.3g} > {STATIONARITY_RTOL:g}"]
    return []


def cost_order_problems(exact, approx) -> list[str]:
    deficit = approx.total_cost - exact.total_cost
    if not deficit >= -APPROX_DEFICIT_TOL:
        return [f"approx cost undercuts the exact optimum by {-deficit:.3g}"]
    return []


def recovery_problems(plan, budget_residual: float, shares, delays) -> list[str]:
    """The plan's shares and delays are what its multiplier gives back."""
    problems = []
    if not abs(budget_residual) <= BUDGET_TOL:
        problems.append(f"budget residual {budget_residual:.3g} at the solved multiplier")
    r = np.asarray(plan.r, dtype=float)
    if not np.allclose(shares, r, rtol=RECOVERY_RTOL, atol=0.0):
        problems.append("shares differ from the allocation at the solved multiplier")
    if not np.allclose(delays, plan.b, rtol=RECOVERY_RTOL, atol=0.0):
        problems.append("delays differ from the optimal sampling delays at the solved shares")
    return problems


def exponent_problems(theta: float, psi_root: float, psi_variational: float) -> list[str]:
    problems = []
    if not abs(psi_root - theta) <= EXPONENT_ROOT_RTOL * theta:
        problems.append(f"exponent_root {psi_root!r} differs from theta {theta!r}")
    if not abs(psi_variational - psi_root) <= ROUTE_AGREEMENT_TOL:
        problems.append(f"exponent routes disagree: {psi_variational!r} vs {psi_root!r}")
    return problems


def fit_problems(estimates, theta, num_samples: int) -> list[str]:
    """Each fitted exponent within FIT_RTOL of theta, from num_samples samples."""
    problems = []
    for index, (estimate, target) in enumerate(zip(estimates, theta)):
        count = estimate.paoi_samples_summary.count
        if count != num_samples:
            problems.append(f"sensor {index}: {count} samples, expected {num_samples}")
        fitted = estimate.fitted_exponent
        if fitted is None or not abs(fitted - target) <= FIT_RTOL * target:
            problems.append(f"sensor {index}: fitted exponent {fitted!r} vs theta {float(target)!r}")
    if len(estimates) != len(theta):
        problems.append(f"{len(estimates)} estimates for {len(theta)} sensors")
    return problems


def fig2_problems(rows) -> list[str]:
    """Exact delay rises with theta1 for each cost, and the closed form meets it at the boundary."""
    problems = []
    for c1 in sorted({row.c1 for row in rows}):
        series = [row for row in rows if row.c1 == c1]
        delays = [row.exact_b1 for row in series]
        if not all(a < b for a, b in zip(delays, delays[1:])):
            problems.append(f"fig2 c1={c1:g}: exact delay not increasing in theta1")
        boundary = [row for row in series if row.theta1 == 0.695]
        if not boundary or not abs(boundary[0].approx_b1 / boundary[0].exact_b1 - 1.0) <= FIG2_BOUNDARY_RTOL:
            problems.append(f"fig2 c1={c1:g}: boundary approx/exact ratio off or missing")
    return problems


def negative_self_test(paoiplan) -> Checker:
    """Run the checker on outputs known to be wrong; both must count as failed.

    One is a plan whose shares sum to 1.8 with every queue unstable
    (``nu*b <= 1``); the other a tail fit 11% above its target exponent.
    """
    checker = Checker()
    mu, theta = np.array([1.0, 1.0]), np.array([0.25, 0.25])
    corrupt = paoiplan.AllocationPlan(r=(0.9, 0.9), b=(0.5, 0.5), method="exact", total_cost=1.0, lam=1.0)
    checker.record(plan_problems("corrupt plan", mu, theta, 1.0, corrupt))
    summary = paoiplan.PaoiSummary(count=1_000_000, mean=5.0, max=60.0)
    off_target = paoiplan.TailEstimate(
        paoi_samples_summary=summary, ccdf_points=(), fitted_exponent=0.25 * 1.11, stderr=0.001
    )
    checker.record(fit_problems([off_target], theta[:1], 1_000_000))
    return checker
