"""Domain types: the scenario, the plan, and the delay at a plan's tight point.

Each sensor's packet transmission time is exponential with rate ``mu * r``:
the service rate scales linearly with the resource share ``r``.  A
``Scenario`` holds the sensors and their shared budget; an
``AllocationPlan`` holds each sensor's share and sampling delay.  Both
planners build their plan through ``_plan_from_headroom``, which puts each
delay at the tight point of its tail constraint.

A scenario also carries the planning kernel: the per-sensor constants that
the feasibility test and both planners share, each computed from ``mu``,
``cost`` and ``theta`` on first use and then kept.  They are the minimum
shares ``theta/mu``, the closed form's weights ``cost/theta``, and, for the
exact planner only, ``q = 4*cost*mu/theta**2`` and ``theta/(2*mu)``, from
which ``Scenario._headroom`` gives the headroom above the minimum shares
and its slope at ``s = 1/lam``.  Nothing is evaluated before a path needs
it, so the feasibility test and the closed form never form ``theta**2``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np


_BUDGET_RTOL = 1e-9  # validate_for: shares may exceed the budget by rounding, relative to it
_COST_RTOL = 1e-9  # validate_for: a total_cost written at 12 significant digits still matches


def _positive_vector(label: str, values) -> np.ndarray:
    # np.array (not asarray) copies, so freezing the result never freezes the caller's array.
    vector = np.array(values, dtype=float)
    if vector.ndim != 1:
        raise ValueError(f"{label} must be one-dimensional, got shape {vector.shape}")
    ok = np.isfinite(vector) & (vector > 0.0)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"{label}[{i}] must be a finite positive number, got {float(vector[i])!r}")
    vector.flags.writeable = False
    return vector


def _rate_and_delay(nu: float, b: float) -> tuple[float, float]:
    """One sensor's service rate and sampling delay as Python floats, both finite and positive."""
    # Coerced once: numpy scalars (a plan's entries) would slow every scalar step.
    nu, b = float(nu), float(b)
    if not 0.0 < nu < math.inf:
        raise ValueError(f"service rate must be finite and positive, got {nu!r}")
    if not 0.0 < b < math.inf:
        raise ValueError(f"sampling delay must be finite and positive, got {b!r}")
    if nu * b == math.inf:
        raise ValueError(f"nu*b must be finite, got {nu!r} * {b!r}")
    return nu, b


def _freeze_sensor_vectors(instance, names: tuple[str, ...]) -> None:
    """Replace the named fields by validated read-only vectors, one entry per sensor."""
    owner = type(instance).__name__
    vectors = [_positive_vector(f"{owner}.{name}", getattr(instance, name)) for name in names]
    lengths = [str(v.size) for v in vectors]
    if len(set(lengths)) != 1:
        raise ValueError(f"{', '.join(names)} must have equal lengths, got {', '.join(lengths)}")
    if not vectors[0].size:
        raise ValueError(f"{owner} requires at least one sensor")
    for name, vector in zip(names, vectors):
        object.__setattr__(instance, name, vector)


class _kept:
    """A method read as an attribute, computed on first use and then kept.

    A non-data descriptor: the value is written into the instance
    ``__dict__`` (past a frozen dataclass's ``__setattr__``), where later
    reads find it before they reach the descriptor.  Unlike
    ``functools.cached_property`` on Python 3.11 it takes no lock; two
    threads that race on a first use both compute the same value.
    """

    def __init__(self, method) -> None:
        self.method, self.name, self.__doc__ = method, method.__name__, method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


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
    validated, read-only float64 arrays of equal length.
    """

    mu: np.ndarray
    cost: np.ndarray
    theta: np.ndarray
    budget: float = 1.0

    def __post_init__(self) -> None:
        _freeze_sensor_vectors(self, ("mu", "cost", "theta"))
        budget = float(self.budget)
        if not (math.isfinite(budget) and budget > 0.0):
            raise ValueError(f"Scenario.budget must be a finite positive number, got {self.budget!r}")
        object.__setattr__(self, "budget", budget)

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
        return math.fsum((self.cost * np.asarray(b, dtype=float)).tolist())

    @_kept
    def _min_share(self) -> np.ndarray:
        """``theta/mu``: below it a sensor's service rate does not exceed its exponent."""
        return self.theta / self.mu

    @_kept
    def _weight(self) -> np.ndarray:
        """``cost/theta``: the headroom's slope at ``s = 0``, the closed form's weights.

        A weight past the floats is inf, with no warning: the closed form
        then refuses its plan naming that sensor.
        """
        with np.errstate(over="ignore"):
            return self.cost / self.theta

    @_kept
    def _root_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact planner's ``q = 4*cost*mu/theta**2`` and ``theta/(2*mu)``."""
        return 4.0 * self.cost * self.mu / self.theta**2, self.theta / (2.0 * self.mu)

    def _headroom(self, s: float, with_slope: bool = False):
        """Per-sensor share above ``theta/mu`` at ``s = 1/lam``, and its slope in ``s`` if asked.

        The stationarity condition ``mu*lam*r**2 - theta*lam*r - cost = 0``
        has one positive root, ``(theta/mu) * (1 + sqrt(1 + q*s)) / 2``.  Its
        headroom ``(theta/(2*mu)) * (sqrt(1 + q*s) - 1)`` is written with
        expm1/log1p so that it keeps full relative precision when ``q*s`` is
        tiny (very large multipliers, or a scenario at the feasibility
        boundary); the slope is ``(cost/theta) / sqrt(1 + q*s)``.
        """
        q, half_min_share = self._root_constants
        sqrt_minus_one = np.expm1(0.5 * np.log1p(q * s))
        headroom = half_min_share * sqrt_minus_one
        return (headroom, self._weight / (1.0 + sqrt_minus_one)) if with_slope else headroom


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
        total = float(self.total_cost)
        if not math.isfinite(total):
            raise ValueError("AllocationPlan.total_cost must be finite")
        if self.lam is not None:
            lam = float(self.lam)
            if not (math.isfinite(lam) and lam > 0.0):
                raise ValueError(f"AllocationPlan.lam must be finite and positive, got {self.lam!r}")
            object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "total_cost", total)
        object.__setattr__(self, "method", SolveMethod(self.method))

    __eq__ = _value_eq

    @property
    def n(self) -> int:
        return self.r.size

    def validate_for(self, scenario: Scenario) -> None:
        """Raise ValueError unless the plan is consistent with ``scenario``.

        The package's one plan check.  Checks, in this order, the sensor
        count, strict service-rate dominance (``mu_i * r_i > theta_i``),
        that the shares sum to at most ``budget * (1 + 1e-9)``, that
        ``total_cost`` is within 1e-9 relative of the recomputed
        cost-weighted delay sum, and that every queue is stable
        (``mu_i * r_i * b_i > 1``).  A per-sensor failure names the first
        failing sensor.
        """
        if self.n != scenario.n:
            raise ValueError(f"plan covers {self.n} sensors, scenario has {scenario.n}")
        rates = scenario.mu * self.r
        dominated = np.flatnonzero(rates <= scenario.theta)
        if dominated.size:
            i = int(dominated[0])
            raise ValueError(
                f"sensor {i}: service rate {rates[i]:.6g} does not exceed "
                f"outage exponent {scenario.theta[i]:.6g}"
            )
        total_share = math.fsum(self.r.tolist())
        if total_share > scenario.budget * (1.0 + _BUDGET_RTOL):
            raise ValueError(f"shares sum to {total_share:.12g}, above budget {scenario.budget:.12g}")
        recomputed = scenario.delay_cost(self.b)
        if not abs(self.total_cost - recomputed) <= _COST_RTOL * recomputed:
            raise ValueError(
                f"total_cost {self.total_cost!r} does not match recomputed value {recomputed!r}"
            )
        with np.errstate(over="ignore"):  # an overflowing nu*b is refused by simulate_sensor
            unstable = np.flatnonzero(~(rates * self.b > 1.0))
        if unstable.size:
            i = int(unstable[0])
            raise ValueError(f"sensor {i}: nu*b = {rates[i] * self.b[i]:.6g} <= 1, so its queue is unstable")


def _plan_from_headroom(scenario: Scenario, headroom, method: SolveMethod, lam=None) -> AllocationPlan:
    """Both planners' plan: shares ``theta/mu + headroom``, each delay at its tight point.

    The delay is ``optimal_sampling_delay(mu*r, theta)`` written in the
    headroom, ``log1p(theta/(mu*h))/theta``, so ``mu*r - theta`` never cancels.
    A headroom too small for floats (``mu*h`` underflows next to ``theta``)
    gives an infinite delay, ``theta/(mu*h)`` below the floats gives a
    delay of 0, and a NaN headroom (the closed form's ``inf * 0`` where a
    weight ``cost/theta`` overflows) gives a NaN delay.  ``AllocationPlan``
    refuses all three, blaming its own ``b``; the refusal is raised again
    naming the first sensor whose delay is not a finite positive number,
    and the cause, so a plan that passes costs no extra check.
    """
    mu, theta, min_share = scenario.mu, scenario.theta, scenario._min_share
    with np.errstate(divide="ignore", over="ignore"):
        delays = np.log1p(theta / (mu * headroom)) / theta
    try:
        return AllocationPlan(min_share + headroom, delays, method, scenario.delay_cost(delays), lam)
    except ValueError:
        unrepresentable = np.flatnonzero(~((delays > 0.0) & (delays < math.inf)))
        if not unrepresentable.size:
            raise
        i = int(unrepresentable[0])
        if delays[i] == math.inf:
            reason = "its headroom above theta/mu cannot be represented in floats"
        elif delays[i] == 0.0:
            reason = "its sampling delay underflows to 0 in floats"
        else:
            reason = "its headroom above theta/mu is not a number in floats"
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
