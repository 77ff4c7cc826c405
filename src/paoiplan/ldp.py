"""Tail-exponent analysis of peak age under periodic sampling.

Two independent characterizations of the peak-age outage exponent are
implemented: a variational form (infimum of the scaled rate function along
the tail's most likely path) and a scalar root form (largest exponent whose
tail constraint the sampling delay still satisfies).  The two must agree;
their numerical agreement is the workhorse check for everything downstream.

Both routes work at unit service rate in the dimensionless load
``c = nu*b``: the exponent scales exactly as ``psi(nu, b) = nu*psi(1, nu*b)``,
so each route solves for ``psi/nu`` from ``c`` alone and its result is scaled
back by ``nu``.  The root form runs Newton's method down to the root from a
closed-form start above it; the variational form runs a golden-section
search inside a closed-form bracket.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import _rate_and_delay

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_MAX_FLOAT = math.log(sys.float_info.max)
_LOG_WIDTH = 1e-9  # golden-section stop: bracket width in ln(nu*t)


@dataclass(frozen=True)
class ExponentResult:
    """Outage exponent plus the minimizing horizon of the variational form.

    ``argmin_t`` is a diagnostic; it is ``+inf`` in the no-decay regime
    (sampling at or faster than the mean service time), where the infimum
    is only approached in the limit.  Its accuracy falls with the load
    ``c = nu*b``, because the objective flattens around the minimizer: against
    the identity ``t* = 1/(nu - psi) - b`` it is about 1e-7 relative at
    ``c = 5``, 2e-6 at 10, 2e-4 at 20 and 3% at 30.  Past ``c`` of about 37
    the value is meaningless (1.19e16 at ``c = 40``, against the true
    minimizer near ``e^40 = 2.35e17``).  ``psi`` is unaffected.
    """

    psi: float
    argmin_t: float


def exponent_variational(nu: float, b: float) -> ExponentResult:
    """Outage exponent as inf over t > 0 of rate_function(t + b) / t.

    The rate function of an exponential service time is the Legendre
    transform of its LMGF, ``nu*y - 1 - ln(nu*y)``.  Returns exponent 0
    when ``nu * b <= 1``: sampling at least as fast as the service mean
    leaves no exponential decay guarantee, the infimum being approached as
    t grows without bound.
    """
    nu, b = _rate_and_delay(nu, b)
    if nu * b <= 1.0:
        return ExponentResult(psi=0.0, argmin_t=math.inf)
    # Past c = ln(largest float) the minimizer x* (near e^c) overflows, while
    # psi/nu = 1 - 1/(x* + c) has long rounded to 1: searching there gives the same psi.
    c = min(nu * b, _LOG_MAX_FLOAT)

    def objective(u: float) -> float:
        x = math.exp(u)  # x = nu*t
        y = x + c
        if y == math.inf:
            return math.inf
        return (y - 1.0 - math.log(y)) / x

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
    # On the flat far side the objective can round above 1, while the true
    # infimum is below it; 1 is then the correctly rounded psi/nu.
    psi = nu * min(objective(u_star), 1.0)
    return ExponentResult(psi=psi, argmin_t=math.exp(u_star) / nu)


def exponent_root(nu: float, b: float) -> float:
    """Outage exponent as the positive root of ``LMGF(theta) = theta * b``.

    In ``x = theta/nu`` the difference ``F(x) = -log1p(-x) - c*x`` at unit
    rate is strictly convex, zero at the origin and initially decreasing
    when ``c = nu * b > 1``, so it has one positive root.  Newton's method
    runs down to it from ``min(1 - e^-c, 2(c - 1))``, where ``F`` is
    nonnegative: ``F(1 - e^-c) = c*e^-c``, and at ``2(c - 1)`` the log1p
    series beats ``2(c - 1)*c`` term by term.  On a convex function the
    tangent lies below it, so each step lands at or above the root, and in
    floats the iterates stop falling once they reach it.  Past ``c`` of
    about 37, ``1 - e^-c`` rounds to 1; the start is then the largest float
    below 1, which is returned when ``F`` is not positive there.  Returns 0
    when ``nu * b <= 1`` (no positive root exists).
    """
    nu, b = _rate_and_delay(nu, b)
    c = nu * b
    if c <= 1.0:
        return 0.0
    x = min(-math.expm1(-c), 2.0 * (c - 1.0), math.nextafter(1.0, 0.0))
    while True:
        excess = -math.log1p(-x) - c * x
        if not excess > 0.0:
            break
        next_x = x - excess / (1.0 / (1.0 - x) - c)
        if not next_x < x:
            break
        x = next_x
    return nu * x
