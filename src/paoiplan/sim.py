"""Monte Carlo verification of the peak-age tail guarantees.

Each sensor is simulated as a periodically sampled FCFS single-server
queue: samples are taken every ``b`` time units and queue for transmission,
service times are i.i.d. exponential.  The peak age recorded at each
delivery is the delivery time minus the previous sample's generation time.
The empirical complementary CDF of those peaks is fitted on a log scale
over a quantile window, and the negated slope estimates the decay exponent
that the planner promised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import AllocationPlan, Scenario

_FIT_GRID_POINTS = 50
_MIN_FIT_POINTS = 10


@dataclass(frozen=True)
class SimConfig:
    """Sample counts, seed, and the quantile window for the tail fit."""

    num_samples: int = 1_000_000
    warmup: int = 10_000
    seed: int = 0
    fit_lo_quantile: float = 0.90
    fit_hi_quantile: float = 0.999

    def __post_init__(self) -> None:
        if self.num_samples < 1000:
            raise ValueError(f"num_samples must be at least 1000, got {self.num_samples!r}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be nonnegative, got {self.warmup!r}")
        if not (0.0 < self.fit_lo_quantile < self.fit_hi_quantile < 1.0):
            raise ValueError(
                "fit quantiles must satisfy 0 < lo < hi < 1, got "
                f"{self.fit_lo_quantile!r} and {self.fit_hi_quantile!r}"
            )


@dataclass(frozen=True)
class PaoiSummary:
    """Count, mean, and maximum of the recorded peak-age values."""

    count: int
    mean: float
    max: float


@dataclass(frozen=True)
class TailEstimate:
    """Empirical tail of the peak age plus the fitted decay exponent.

    ``fitted_exponent`` and ``stderr`` are None when the fit window is
    degenerate; ``fit_error`` then carries the reason.
    """

    paoi_samples_summary: PaoiSummary
    ccdf_points: tuple[tuple[float, float], ...]
    fitted_exponent: float | None
    stderr: float | None
    fit_error: str | None = None


def _peak_ages(service_times: list[float], b: float) -> list[float]:
    # Delivery recursion D_j = max(D_{j-1}, S_j) + T_j with S_j = (j-1)*b
    # and an empty start, reduced to the backlog v_j = max(v_{j-1} - b, 0) + T_j
    # so the floats stay O(1); the peak age is A_j = D_j - S_{j-1} = v_j + b.
    ages = []
    v = service_times[0]
    for t in service_times[1:]:
        v = (v - b if v > b else 0.0) + t
        ages.append(v + b)
    return ages


def _fit_tail(
    ages: np.ndarray, lo_quantile: float, hi_quantile: float
) -> tuple[tuple[tuple[float, float], ...], float | None, float | None, str | None]:
    sorted_ages = np.sort(ages)
    n = sorted_ages.size
    x_lo = float(np.quantile(sorted_ages, lo_quantile))
    x_hi = float(np.quantile(sorted_ages, hi_quantile))
    if x_hi > x_lo:
        grid = np.linspace(x_lo, x_hi, _FIT_GRID_POINTS)
    else:
        grid = np.array([x_lo])
    ccdf = (n - np.searchsorted(sorted_ages, grid, side="left")) / n
    points = tuple((float(x), float(p)) for x, p in zip(grid, ccdf))

    tail_count = int(n - np.searchsorted(sorted_ages, x_hi, side="left"))
    usable = ccdf > 0.0
    xs = grid[usable]
    if tail_count < _MIN_FIT_POINTS or np.unique(xs).size < _MIN_FIT_POINTS:
        return points, None, None, (
            f"degenerate fit window: {tail_count} samples at or above the upper "
            f"quantile and {np.unique(xs).size} usable grid points (need {_MIN_FIT_POINTS})"
        )

    ys = np.log(ccdf[usable])
    x_bar, y_bar = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - x_bar) ** 2))
    slope = float(np.sum((xs - x_bar) * (ys - y_bar)) / sxx)
    resid = ys - (y_bar + slope * (xs - x_bar))
    dof = xs.size - 2
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return points, -slope, stderr, None


def simulate_sensor(
    nu: float,
    b: float,
    config: SimConfig,
    *,
    stream: int = 0,
    service_times: Sequence[float] | None = None,
) -> TailEstimate:
    """Simulate one sensor and estimate its peak-age tail exponent.

    Draws ``warmup + num_samples`` exponential(rate ``nu``) service times by
    inverse transform from a substream selected by ``(config.seed, stream)``,
    runs the FCFS delivery recursion, discards the warm-up peaks, and fits
    the tail.  ``service_times`` replaces the random draw with a fixed
    sequence (test hook for hand-checked recursions).
    """
    if not nu > 0.0:
        raise ValueError(f"service rate must be positive, got {nu!r}")
    if not b > 0.0:
        raise ValueError(f"sampling delay must be positive, got {b!r}")
    if service_times is None:
        total = config.warmup + config.num_samples
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, stream)))
        draws = rng.random(total)
        times = (-np.log1p(-draws) / nu).tolist()
    else:
        times = [float(t) for t in service_times]
        if len(times) < 2:
            raise ValueError("service_times must contain at least two entries")
        if any(t <= 0.0 for t in times):
            raise ValueError("service_times must be strictly positive")

    ages = _peak_ages(times, b)
    kept = np.asarray(ages[max(0, config.warmup - 1):])
    if kept.size == 0:
        raise ValueError("warmup leaves no recorded peak-age samples")
    summary = PaoiSummary(count=int(kept.size), mean=float(kept.mean()), max=float(kept.max()))
    points, exponent, stderr, fit_error = _fit_tail(
        kept, config.fit_lo_quantile, config.fit_hi_quantile
    )
    return TailEstimate(
        paoi_samples_summary=summary,
        ccdf_points=points,
        fitted_exponent=exponent,
        stderr=stderr,
        fit_error=fit_error,
    )


def simulate_plan(
    scenario: Scenario, plan: AllocationPlan, config: SimConfig
) -> list[TailEstimate]:
    """Simulate every sensor of a plan on independent substreams.

    Sensors interact only through the static resource split, so each runs
    as its own queue with service rate ``mu_i * r_i`` and period ``b_i``.
    Results are ordered by sensor index and deterministic per seed.
    """
    if plan.n != scenario.n:
        raise ValueError(f"plan covers {plan.n} sensors, scenario has {scenario.n}")
    return [
        simulate_sensor(mu_i * r_i, b_i, config, stream=i)
        for i, (mu_i, r_i, b_i) in enumerate(zip(scenario.mu.tolist(), plan.r, plan.b))
    ]
