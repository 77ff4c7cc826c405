"""Monte Carlo verification of the peak-age tail guarantees.

Each sensor is simulated as a periodically sampled FCFS single-server
queue: samples are taken every ``b`` time units and queue for transmission,
service times are i.i.d. exponential.  The peak age recorded at each
delivery is the delivery time minus the previous sample's generation time.
The queue runs as Lindley's recursion on the waiting time, evaluated a
fixed-size block at a time with numpy prefix sums and prefix minima.  The
first 10 000 draws are a warm-up whose peaks are discarded.  The empirical
complementary CDF of the kept peaks is fitted on a log scale between their
0.90 and 0.999 quantiles, and the negated slope estimates the decay
exponent that the planner promised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AllocationPlan, Scenario, _rate_and_delay

_WARMUP = 10_000
_FIT_LO_QUANTILE = 0.90
_FIT_HI_QUANTILE = 0.999
_FIT_GRID_POINTS = 50
_MIN_FIT_POINTS = 10
_LINDLEY_BLOCK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Number of recorded peak-age samples and the seed of the random draw."""

    num_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1000:
            raise ValueError(f"num_samples must be at least 1000, got {self.num_samples!r}")


@dataclass(frozen=True)
class PaoiSummary:
    """Count, mean, and maximum of the recorded peak-age values."""

    count: int
    mean: float
    max: float


@dataclass(frozen=True, kw_only=True)
class TailEstimate:
    """Empirical tail of the peak age plus the fitted decay exponent.

    ``fitted_exponent`` and ``stderr`` are None when the fit window is
    degenerate; ``fit_error`` then carries the reason.
    """

    paoi_samples_summary: PaoiSummary
    fitted_exponent: float | None
    stderr: float | None
    fit_error: str | None = None
    ccdf_points: tuple[tuple[float, float], ...]


def _peak_ages(times: np.ndarray, b: float) -> np.ndarray:
    # Delivery recursion D_j = max(D_{j-1}, S_j) + T_j with S_j = (j-1)*b and
    # an empty start.  The waiting time u_j = max(D_{j-1} - S_j, 0) obeys
    # Lindley's u_j = max(u_{j-1} + T_{j-1} - b, 0) with u_1 = 0, which a
    # block solves as u = S - min(0, cummin S) for S the prefix sums of the
    # increments seeded with the backlog v = u + T carried in.  Restarting
    # the sums every block keeps them O(block) so they lose no precision;
    # the peak age is A_j = D_j - S_{j-1} = v_j + b.
    ages = np.empty(times.size - 1)
    carry = times[0]
    for start in range(1, times.size, _LINDLEY_BLOCK):
        stop = min(start + _LINDLEY_BLOCK, times.size)
        steps = times[start - 1:stop - 1] - b
        steps[0] = carry - b
        waits = np.cumsum(steps)
        waits -= np.minimum(np.minimum.accumulate(waits), 0.0)
        backlog = np.add(waits, times[start:stop], out=waits)
        carry = backlog[-1]
        np.add(backlog, b, out=ages[start - 1:stop - 1])
    return ages


def _fit_tail(
    ages: np.ndarray, lo_quantile: float, hi_quantile: float
) -> tuple[tuple[tuple[float, float], ...], float | None, float | None, str | None]:
    # Only samples at or above x_lo reach the grid, so sorting that tail
    # (about 1 - lo_quantile of them) gives the same counts as a full sort.
    n = ages.size
    x_lo, x_hi = np.quantile(ages, (lo_quantile, hi_quantile)).tolist()
    tail = np.sort(ages[ages >= x_lo])
    if x_hi > x_lo:
        grid = np.linspace(x_lo, x_hi, _FIT_GRID_POINTS)
    else:
        grid = np.array([x_lo])
    ccdf = (tail.size - np.searchsorted(tail, grid, side="left")) / n
    points = tuple((float(x), float(p)) for x, p in zip(grid, ccdf))

    tail_count = int(tail.size - np.searchsorted(tail, x_hi, side="left"))
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


def simulate_sensor(nu: float, b: float, config: SimConfig, *, stream: int = 0) -> TailEstimate:
    """Simulate one sensor and estimate its peak-age tail exponent.

    Draws ``_WARMUP + num_samples`` exponential(rate ``nu``) service times by
    inverse transform from a substream selected by ``(config.seed, stream)``,
    runs the FCFS delivery recursion, discards the warm-up peaks, and fits
    the tail over the 0.90-0.999 quantile window.
    """
    nu, b = _rate_and_delay(nu, b)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, stream)))
    # -log1p(-u)/nu, evaluated in place: sign flips are exact, so the
    # values are the same as the out-of-place expression.
    times = rng.random(_WARMUP + config.num_samples)
    np.log1p(np.negative(times, out=times), out=times)
    times /= -nu

    kept = _peak_ages(times, b)[_WARMUP - 1:]
    summary = PaoiSummary(count=int(kept.size), mean=float(kept.mean()), max=float(kept.max()))
    points, exponent, stderr, fit_error = _fit_tail(kept, _FIT_LO_QUANTILE, _FIT_HI_QUANTILE)
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
    Results are ordered by sensor index and deterministic per seed.  Raises
    ValueError as ``plan.validate_for`` does, or naming the first sensor
    with ``mu_i * r_i * b_i <= 1``: its queue is unstable.
    """
    plan.validate_for(scenario)
    nu, b = scenario.mu * plan.r, plan.b
    unstable = np.flatnonzero(~(nu * b > 1.0))
    if unstable.size:
        i = int(unstable[0])
        raise ValueError(f"sensor {i}: nu*b = {nu[i] * b[i]:.6g} <= 1, so its queue is unstable")
    return [
        simulate_sensor(nu_i, b_i, config, stream=i)
        for i, (nu_i, b_i) in enumerate(zip(nu.tolist(), b.tolist()))
    ]
