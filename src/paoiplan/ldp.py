"""Tail-exponent analysis of peak age under periodic sampling.

Two independent characterizations of the peak-age outage exponent are
implemented: a variational form (infimum of the scaled rate function along
the tail's most likely path) and a scalar root form (largest exponent whose
tail constraint the sampling delay still satisfies).  The two must agree;
their numerical agreement is the workhorse check for everything downstream.

Both routes work at unit service rate in the dimensionless load
``c = nu*b``: the exponent scales exactly as ``psi(nu, b) = nu*psi(1, nu*b)``,
so each search runs inside a closed-form bracket in ``c`` and its result is
scaled back by ``nu``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import _rate_and_delay, lmgf_exponential, rate_function_exponential

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_MAX_FLOAT = math.log(sys.float_info.max)
_LOG_WIDTH = 1e-9  # golden-section stop: bracket width in ln(nu*t)


@dataclass(frozen=True)
class ExponentResult:
    """Outage exponent plus the minimizing horizon of the variational form.

    ``argmin_t`` is a diagnostic; it is ``+inf`` in the no-decay regime
    (sampling at or faster than the mean service time), where the infimum
    is only approached in the limit.
    """

    psi: float
    argmin_t: float


def exponent_variational(nu: float, b: float) -> ExponentResult:
    """Outage exponent as inf over t > 0 of rate_function(t + b) / t.

    Returns exponent 0 when ``nu * b <= 1``: sampling at least as fast as
    the service mean leaves no exponential decay guarantee, the infimum
    being approached as t grows without bound.
    """
    nu, b = _rate_and_delay(nu, b)
    if nu * b <= 1.0:
        return ExponentResult(psi=0.0, argmin_t=math.inf)
    # Past c = ln(largest float) the minimizer x* (near e^c) overflows, while
    # psi/nu = 1 - 1/(x* + c) has long rounded to 1: searching there gives the same psi.
    c = min(nu * b, _LOG_MAX_FLOAT)

    def objective(u: float) -> float:
        x = math.exp(u)  # x = nu*t
        return rate_function_exponential(1.0, x + c) / x

    # Golden-section search over u = ln(nu*t).  The minimizer solves
    # ln y = c(1 - 1/y) at y = x + c, which puts it in
    # [(c - 1)*sqrt(c), e^c - c): inside [ln(c - 1), c] in u.
    a, d = math.log(c - 1.0), c
    p, q = d - _INV_GOLDEN * (d - a), a + _INV_GOLDEN * (d - a)
    f_p, f_q = objective(p), objective(q)
    while d - a > _LOG_WIDTH:
        if f_p <= f_q:
            d, q, f_q = q, p, f_p
            p = d - _INV_GOLDEN * (d - a)
            f_p = objective(p)
        else:
            a, p, f_p = p, q, f_q
            q = a + _INV_GOLDEN * (d - a)
            f_q = objective(q)
    u_star = 0.5 * (a + d)
    return ExponentResult(psi=nu * objective(u_star), argmin_t=math.exp(u_star) / nu)


def exponent_root(nu: float, b: float) -> float:
    """Outage exponent as the positive root of ``LMGF(theta) = theta * b``.

    In ``x = theta/nu`` the difference ``LMGF(x) - c*x`` at unit rate is
    strictly convex, zero at the origin, initially decreasing when
    ``c = nu * b > 1``, and positive at ``x = 1 - e^-c`` (where the LMGF
    equals ``c``), so the positive root is unique and lies in
    ``(0, 1 - e^-c]``; found by bisection.  Returns 0 when ``nu * b <= 1``
    (no positive root exists).
    """
    nu, b = _rate_and_delay(nu, b)
    c = nu * b
    if c <= 1.0:
        return 0.0
    lo, hi = 0.0, -math.expm1(-c)
    mid = 0.5 * hi
    while lo < mid < hi:
        if lmgf_exponential(1.0, mid) < c * mid:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return nu * mid
