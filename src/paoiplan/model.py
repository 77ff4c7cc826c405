"""Domain types: the scenario, the plan, and the delay at a plan's tight point.

Each sensor's packet transmission time is exponential with rate ``mu * r``:
the service rate scales linearly with the resource share ``r``.  A
``Scenario`` holds the sensors and their shared budget; an
``AllocationPlan`` holds each sensor's share and sampling delay.  Both
planners build their plan through ``_plan_from_headroom``, which puts each
delay at the tight point of its tail constraint.

A scenario also carries the planning kernel: the per-sensor constants and
per-scenario sums that the feasibility test and both planners share, all
computed from ``mu``, ``cost``, ``theta`` and ``budget`` when the scenario
is built.  They are the minimum shares ``theta/mu``, the load
``sum(theta/mu)`` and the slack ``budget - load``, the closed form's
weights ``cost/theta`` and their total, and, for the exact planner,
``q = 4*(cost/theta)/(theta/mu)``, formed from the weights and minimum
shares (never ``cost*mu`` or ``theta**2``), and ``theta/(2*mu)``, from
which ``Scenario._headroom`` gives the headroom above the minimum shares
and its slope at ``s = 1/lam``.  No planning path recomputes them.

Every sum the kernel and the planners take goes through ``_fsum`` and is
correctly rounded, so it does not depend on the order of the sensors:
permuting a scenario's sensors permutes its plans bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np


_BUDGET_RTOL = 1e-9  # validate_for: shares may exceed the budget by rounding, relative to it
_COST_RTOL = 1e-9  # validate_for: a total_cost written at 12 significant digits still matches


def _as_float(value) -> float:
    """``float(value)``, but an int past the floats reads as inf (or -inf), as the CLI reads JSON."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _positive_vector(label: str, values) -> np.ndarray:
    """One field as a float64 vector; ValueError naming ``label`` unless 1-D, finite and positive."""
    try:
        vector = np.array(values, dtype=float)
    except OverflowError:
        vector = np.vectorize(_as_float, otypes=[float])(np.array(values, dtype=object))
    if vector.ndim != 1:
        raise ValueError(f"{label} must be one-dimensional, got shape {vector.shape}")
    ok = np.isfinite(vector) & (vector > 0.0)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        got = float(vector[i])
        # None converts to NaN: name the None the caller passed, not the NaN.
        if math.isnan(got) and isinstance(values, (list, tuple, np.ndarray)) and values[i] is None:
            got = None
        raise ValueError(f"{label}[{i}] must be a finite positive number, got {got!r}")
    return vector


def _rate_and_delay(nu: float, b: float) -> tuple[float, float]:
    """One sensor's service rate and sampling delay as Python floats, both finite and positive."""
    # Coerced once: numpy scalars (a plan's entries) would slow every scalar step.
    nu, b = _as_float(nu), _as_float(b)
    if not 0.0 < nu < math.inf:
        raise ValueError(f"service rate must be finite and positive, got {nu!r}")
    if not 0.0 < b < math.inf:
        raise ValueError(f"sampling delay must be finite and positive, got {b!r}")
    if nu * b == math.inf:
        raise ValueError(f"nu*b must be finite, got {nu!r} * {b!r}")
    return nu, b


def _fsum(values: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float64 array of nonnegative values.

    The planning kernel's one summation rule: the load, the closed form's
    weight total, Newton's headroom gap and slope sum, the residual, every
    plan cost and the share sum all come from here, so none of them
    depends on the sensors' order.  ``math.fsum`` reads the array's buffer,
    which gives the same bits as a list of its values without building
    one.  A sum past the floats is inf, as its rounding would be; a NaN
    entry gives NaN.
    """
    try:
        return math.fsum(values.data)
    except OverflowError:
        return math.inf


def _freeze_sensor_vectors(instance, names: tuple[str, ...]) -> None:
    """Replace the named fields by the read-only rows of one validated float64 copy.

    The fields are copied together into one ``(k, n)`` float64 block (a
    copy, so freezing it never freezes or shares a caller's array), tested
    once for finite positive entries and frozen once; each field becomes
    one C-contiguous row.  An input the block refuses (one that does not
    stack, is not k vectors, is empty or holds a bad entry) is refused as
    the fields checked one by one word it: each field in field order, then
    their lengths, then the sensor count.
    """
    values = [getattr(instance, name) for name in names]
    try:
        block = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        block = None
    # NaN fails both comparisons; count_nonzero is the cheapest all() of a small mask.
    if (block is None or block.ndim != 2 or not block.shape[1]
            or np.count_nonzero((block > 0.0) & (block < math.inf)) < block.size):
        owner = type(instance).__name__
        vectors = [_positive_vector(f"{owner}.{name}", value) for name, value in zip(names, values)]
        lengths = [str(v.size) for v in vectors]
        if len(set(lengths)) != 1:
            raise ValueError(f"{', '.join(names)} must have equal lengths, got {', '.join(lengths)}")
        if not vectors[0].size:
            raise ValueError(f"{owner} requires at least one sensor")
        raise AssertionError(f"{owner}: vectors valid one by one were refused as a block")
    block.flags.writeable = False
    for name, row in zip(names, block):
        object.__setattr__(instance, name, row)


def _value_eq(self, other) -> bool:
    # Field-by-field value equality: the generated __eq__ cannot compare arrays.
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A set of sensors sharing one divisible resource budget.

    Sensor ``i`` has mean transmission rate ``mu[i]`` per unit of resource
    (packets/time per share), delay unit cost ``cost[i]`` (the price of
    delaying sampling by one time unit), and required exponential decay
    rate ``theta[i]`` of its peak-age tail.  The three are stored once as
    validated, read-only float64 arrays of equal length, next to the
    planning kernel built from them.
    """

    mu: np.ndarray
    cost: np.ndarray
    theta: np.ndarray
    budget: float = 1.0

    def __post_init__(self) -> None:
        _freeze_sensor_vectors(self, ("mu", "cost", "theta"))
        budget = _as_float(self.budget)
        if not (math.isfinite(budget) and budget > 0.0):
            raise ValueError(f"Scenario.budget must be a finite positive number, got {budget!r}")
        object.__setattr__(self, "budget", budget)
        # The planning kernel (module docstring).  A value past the floats
        # comes out inf, 0 or NaN with no warning: an infinite theta/mu makes
        # the load infinite, which the feasibility test refuses; an infinite
        # cost/theta, or a weight total of inf or 0, makes the planners' gate
        # refuse the scenario, as its s = slack/total is 0 or inf; a q of 0,
        # inf or NaN (cost/theta over theta/mu past the floats, or either of
        # them) stops the root-find, which names where.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            min_share, weight = self.theta / self.mu, self.cost / self.theta
            root_constants = 4.0 * (weight / min_share), self.theta / (2.0 * self.mu)
        # slack > 0 is load < budget in IEEE arithmetic: the difference of two
        # unequal floats never rounds to 0, and an infinite load gives -inf.
        load = _fsum(min_share)
        kernel = {"_min_share": min_share, "_weight": weight, "_weight_total": _fsum(weight),
                  "_root_constants": root_constants, "_load_and_slack": (load, budget - load)}
        for name, value in kernel.items():
            object.__setattr__(self, name, value)

    __eq__ = _value_eq

    @classmethod
    def from_arrays(cls, mu, cost, theta, budget: float = 1.0) -> "Scenario":
        return cls(mu, cost, theta, budget)

    @property
    def n(self) -> int:
        return self.mu.size

    def delay_cost(self, b) -> float:
        """Cost-weighted delay sum ``sum(cost_i * b_i)``, correctly rounded.

        Every plan's ``total_cost`` comes from here, so recomputing it for
        the same delays reproduces it bit for bit.
        """
        return _fsum(self.cost * np.asarray(b, dtype=float))

    def _headroom(self, s: float, with_slope: bool = False):
        """Per-sensor share above ``theta/mu`` at ``s = 1/lam``, and its slope in ``s`` if asked.

        The stationarity condition ``mu*lam*r**2 - theta*lam*r - cost = 0``
        has one positive root, ``(theta/mu) * (1 + sqrt(1 + q*s)) / 2``.  Its
        headroom ``(theta/(2*mu)) * (sqrt(1 + q*s) - 1)`` is written in the
        rationalised form ``(theta/(2*mu)) * q*s / (1 + sqrt(1 + q*s))``,
        which does not cancel when ``q*s`` is tiny (very large multipliers,
        or a scenario at the feasibility boundary); the slope is
        ``(cost/theta) / sqrt(1 + q*s)``.  One sqrt per call, and the rest
        is IEEE arithmetic, so the result does not depend on numpy's vector
        loops.
        """
        q, half_min_share = self._root_constants
        qs = q * s
        root = np.sqrt(1.0 + qs)
        headroom = half_min_share * (qs / (1.0 + root))
        return (headroom, self._weight / root) if with_slope else headroom


class SolveMethod(str, Enum):
    EXACT = "exact"
    APPROX = "approx"


@dataclass(frozen=True, eq=False)
class AllocationPlan:
    """Per-sensor resource shares and sampling delays, plus solve provenance.

    ``r`` and ``b`` are validated, read-only float64 arrays of equal length.
    ``lam`` is the Lagrange multiplier of the budget constraint; it is None
    for approximate plans, where the multiplier is eliminated in closed form.
    """

    r: np.ndarray
    b: np.ndarray
    method: SolveMethod
    total_cost: float
    lam: float | None = None

    def __post_init__(self) -> None:
        _freeze_sensor_vectors(self, ("r", "b"))
        total = _as_float(self.total_cost)
        if not math.isfinite(total):
            raise ValueError("AllocationPlan.total_cost must be finite")
        if self.lam is not None:
            lam = _as_float(self.lam)
            if not (math.isfinite(lam) and lam > 0.0):
                raise ValueError(f"AllocationPlan.lam must be finite and positive, got {lam!r}")
            object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "total_cost", total)
        if not isinstance(self.method, SolveMethod):
            object.__setattr__(self, "method", SolveMethod(self.method))

    __eq__ = _value_eq

    @property
    def n(self) -> int:
        return self.r.size

    def validate_for(self, scenario: Scenario) -> None:
        """Raise ValueError unless the plan is consistent with ``scenario``.

        The package's one plan check, and the only one between a plan and
        the simulator.  Checks, in this order, the sensor count, strict
        service-rate dominance (``mu_i * r_i > theta_i``), that the shares
        exceed the budget by at most 1e-9 of it, that ``total_cost`` is
        within 1e-9 relative of the recomputed cost-weighted delay sum, and
        that every queue is stable with a load inside the floats
        (``1 < mu_i * r_i * b_i < inf``).  A per-sensor failure names the
        first failing sensor.  Every ``b_i`` is finite and positive, so a
        plan that passes has a finite positive rate ``mu_i * r_i`` too.
        """
        if self.n != scenario.n:
            raise ValueError(f"plan covers {self.n} sensors, scenario has {scenario.n}")
        # Products past the floats come out inf: the cost check refuses an
        # infinite delay cost, and the load check an infinite nu or nu*b.
        with np.errstate(over="ignore"):
            rates = scenario.mu * self.r
            loads = rates * self.b
            recomputed = scenario.delay_cost(self.b)
        dominated = np.flatnonzero(rates <= scenario.theta)
        if dominated.size:
            i = int(dominated[0])
            raise ValueError(
                f"sensor {i}: service rate {rates[i]:.6g} does not exceed "
                f"outage exponent {scenario.theta[i]:.6g}"
            )
        # Written as a difference, so a bound near the largest float cannot
        # overflow; an infinite share sum still fails it.
        total_share = _fsum(self.r)
        if total_share - scenario.budget > _BUDGET_RTOL * scenario.budget:
            raise ValueError(f"shares sum to {total_share:.12g}, above budget {scenario.budget:.12g}")
        if not (recomputed < math.inf and abs(self.total_cost - recomputed) <= _COST_RTOL * recomputed):
            raise ValueError(
                f"total_cost {self.total_cost!r} does not match recomputed value {recomputed!r}"
            )
        refused = np.flatnonzero(~((loads > 1.0) & (loads < math.inf)))
        if refused.size:
            i = int(refused[0])
            if loads[i] == math.inf:
                raise ValueError(f"sensor {i}: nu*b = {rates[i]:.6g} * {self.b[i]:.6g} is past the floats")
            raise ValueError(f"sensor {i}: nu*b = {loads[i]:.6g} <= 1, so its queue is unstable")


def _plan_from_headroom(scenario: Scenario, headroom, method: SolveMethod, lam=None) -> AllocationPlan:
    """Both planners' plan: shares ``theta/mu + headroom``, each delay at its tight point.

    The delay is ``optimal_sampling_delay(mu*r, theta)`` written in the
    headroom, ``log1p(theta/(mu*h))/theta``, so ``mu*r - theta`` never cancels.
    A headroom too small for floats (``mu*h`` underflows next to ``theta``)
    gives an infinite delay, ``theta/(mu*h)`` below the floats gives a
    delay of 0, and a NaN headroom (the exact planner's ``inf/inf`` where
    ``q/lam``, an ulp above Newton's last ``q*s``, passes the floats) gives
    a NaN delay; the closed form's headroom, a finite weight times the
    gate's finite ``s``, is never NaN.  ``AllocationPlan``
    refuses all three, blaming its own ``b``; the refusal is raised again
    naming the first sensor whose delay is not a finite positive number,
    and the cause, so a plan that passes costs no extra check.  Where the
    delays are fine but their cost-weighted sum passes the floats, the
    refusal names the sensor with the largest ``cost * b``; where a share
    ``theta/mu + headroom`` rounds past the floats, it names the first such
    sensor.  Runs inside its caller's numpy error scope, which must ignore
    overflow and division by zero.
    """
    mu, theta, min_share = scenario.mu, scenario.theta, scenario._min_share
    delays = np.log1p(theta / (mu * headroom)) / theta
    shares, total_cost = min_share + headroom, scenario.delay_cost(delays)
    try:
        return AllocationPlan(shares, delays, method, total_cost, lam)
    except ValueError:
        unrepresentable = np.flatnonzero(~((delays > 0.0) & (delays < math.inf)))
        if unrepresentable.size:
            i = int(unrepresentable[0])
            if delays[i] == math.inf:
                reason = "its headroom above theta/mu cannot be represented in floats"
            elif delays[i] == 0.0:
                reason = "its sampling delay underflows to 0 in floats"
            else:
                reason = "its headroom above theta/mu is not a number in floats"
        elif shares.max() == math.inf:
            i = int(np.argmax(shares))
            reason = "its share theta/mu + headroom passes the floats"
        elif total_cost == math.inf:
            i = int(np.argmax(scenario.cost * delays))
            reason = "the cost-weighted delay sum passes the floats, and its cost*b is the largest"
        else:
            raise
        raise ValueError(f"sensor {i}: {reason}") from None


def optimal_sampling_delay(nu: float, theta: float) -> float:
    """Smallest sampling period meeting tail exponent ``theta`` at service rate ``nu``.

    This is the tight point ``LMGF(theta) / theta`` of the tail constraint,
    where the service time's log moment generating function is
    ``LMGF(theta) = ln(nu / (nu - theta))``.  Requires ``nu > theta``; below
    that rate no sampling period can deliver the exponent.
    """
    if not theta > 0.0:
        raise ValueError(f"outage exponent must be positive, got {theta!r}")
    if not nu > theta:
        raise ValueError(f"service rate {nu!r} must strictly exceed the outage exponent {theta!r}")
    return -math.log1p(-theta / nu) / theta
