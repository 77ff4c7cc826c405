"""Tail-exponent analysis of peak age under periodic sampling.

Two independent characterizations of the peak-age outage exponent are
implemented: a variational form (infimum of the scaled rate function along
the tail's most likely path) and a scalar root form (largest exponent whose
tail constraint the sampling delay still satisfies).  The two must agree;
their numerical agreement is the workhorse check for everything downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import lmgf_exponential, rate_function_exponential

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_T_INTERVAL_TOL = 1e-10


@dataclass(frozen=True)
class ExponentResult:
    """Outage exponent plus the minimizing horizon of the variational form.

    ``argmin_t`` is a diagnostic; it is ``+inf`` in the no-decay regime
    (sampling at or faster than the mean service time), where the infimum
    is only approached in the limit.
    """

    psi: float
    argmin_t: float


def _validate(nu: float, b: float) -> None:
    if not nu > 0.0:
        raise ValueError(f"service rate must be positive, got {nu!r}")
    if not b > 0.0:
        raise ValueError(f"sampling delay must be positive, got {b!r}")


def exponent_variational(nu: float, b: float) -> ExponentResult:
    """Outage exponent as inf over t > 0 of rate_function(t + b) / t.

    Returns exponent 0 when ``nu * b <= 1``: sampling at least as fast as
    the service mean leaves no exponential decay guarantee, the infimum
    being approached as t grows without bound.
    """
    _validate(nu, b)
    if nu * b <= 1.0:
        return ExponentResult(psi=0.0, argmin_t=math.inf)

    def objective(t: float) -> float:
        return rate_function_exponential(nu, t + b) / t

    # Bracket the minimum: the objective blows up at t -> 0+ and rises back
    # toward nu as t -> inf, so double the right edge until it turns upward.
    # The minimizer shrinks like (nu*b - 1)/nu near the no-decay boundary,
    # so the left edge must adapt or the bracket can miss it.
    lo = min(1e-6, 0.01 * (nu * b - 1.0) / nu)
    hi = max(1.0, 2.0 / nu)
    while objective(hi) <= objective(0.5 * hi) and hi < 1e18:
        hi *= 2.0

    # Golden-section search; terminates on the t-interval width (absolute,
    # tightened by a relative term so tiny minimizers are still resolved).
    a, d = lo, hi
    b_pt = d - _INV_GOLDEN * (d - a)
    c_pt = a + _INV_GOLDEN * (d - a)
    f_b, f_c = objective(b_pt), objective(c_pt)
    for _ in range(500):
        if d - a <= _T_INTERVAL_TOL and d - a <= 1e-3 * a:
            break
        if f_b <= f_c:
            d, c_pt, f_c = c_pt, b_pt, f_b
            b_pt = d - _INV_GOLDEN * (d - a)
            f_b = objective(b_pt)
        else:
            a, b_pt, f_b = b_pt, c_pt, f_c
            c_pt = a + _INV_GOLDEN * (d - a)
            f_c = objective(c_pt)
    t_star = 0.5 * (a + d)
    return ExponentResult(psi=objective(t_star), argmin_t=t_star)


def exponent_root(nu: float, b: float) -> float:
    """Outage exponent as the positive root of ``LMGF(theta) = theta * b``.

    The difference ``LMGF(theta) - theta*b`` is strictly convex, zero at the
    origin, initially decreasing when ``nu * b > 1``, and diverges at the
    LMGF pole, so the positive root is unique; found by bisection.  Returns
    0 when ``nu * b <= 1`` (no positive root exists).
    """
    _validate(nu, b)
    if nu * b <= 1.0:
        return 0.0

    def gap(theta: float) -> float:
        return lmgf_exponential(nu, theta) - theta * b

    lo = nu * 1e-15
    hi = nu * (1.0 - 1e-9)
    while gap(hi) <= 0.0:
        hi = nu - (nu - hi) / 16.0  # push toward the pole until the gap turns positive
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
