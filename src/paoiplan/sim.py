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

A plan's sensors run concurrently, one thread per CPU up to the number of
sensors, each on its own random substream, so the results are identical to
simulating them in sensor order.  Threads overlap only while numpy runs
without the interpreter lock, and each numpy call takes the lock back, so
the recursion's blocks are 16384 samples long: with 4096-sample blocks a
1M-sample sensor makes about 1 700 calls, and two threads running it
spent more time passing the lock than they saved.  A sensor holds one
array of samples, in a private anonymous memory map released when it
finishes: the peak ages are written over the draws, and the fit
partitions them once and sorts the top tenth in place, so peak memory is
about 8 bytes * (num_samples + 10 000) per sensor running at once.  The
map is rounded up to whole 2 MiB pages, so that Linux aligns it for
transparent huge pages, and the whole pages the samples fill are advised
MADV_HUGEPAGE: 1.01M samples then fault in as 3 huge pages and about 440
small ones rather than 1 970 small ones.
The partly filled last page is not advised and the rest is never
touched, so no memory is used that the samples do not need.
"""
from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .model import AllocationPlan, Scenario, _rate_and_delay

_WARMUP = 10_000
_FIT_LO_QUANTILE = 0.90
_FIT_HI_QUANTILE = 0.999
_FIT_GRID_POINTS = 50
_MIN_FIT_POINTS = 10
_LINDLEY_BLOCK = 16384
_HUGE_PAGE = 2 << 20  # bytes in a transparent huge page on x86-64 Linux


@dataclass(frozen=True)
class SimConfig:
    """Number of recorded peak-age samples and the seed of the random draw.

    Both are integers: ``num_samples`` at least 1000 and ``seed`` at least
    0.  Anything else raises ValueError naming the field.
    """

    num_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.num_samples < 1000:
            raise ValueError(f"num_samples must be at least 1000, got {self.num_samples!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


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
    degenerate; ``fit_error`` then carries the reason.  The fit holds at any
    float scale of the peak ages: it runs on them divided by a power of two
    near the window's upper end, which is exact, so peaks near 1e-300 and
    1e300 give the exponent of the same queue at unit scale, rescaled.
    """

    paoi_samples_summary: PaoiSummary
    fitted_exponent: float | None
    stderr: float | None
    fit_error: str | None = None
    ccdf_points: tuple[tuple[float, float], ...]


def _peak_ages(times: np.ndarray, b: float) -> np.ndarray:
    # Consumes times: the peak ages are written over the service times, and
    # the result is the view times[:-1].  Delivery recursion
    # D_j = max(D_{j-1}, S_j) + T_j with S_j = (j-1)*b and an empty start.
    # The waiting time u_j = max(D_{j-1} - S_j, 0) obeys Lindley's
    # u_j = max(u_{j-1} + T_{j-1} - b, 0) with u_1 = 0, which a block solves
    # as u = S - min(0, cummin S) for S the prefix sums of the increments
    # seeded with the backlog v = u + T carried in.  Restarting the sums
    # every block keeps them O(block), so at 16384 samples the ages stay
    # within about 3e-12 relative of the scalar recursion.  The prefix
    # minimum runs from min(first sum, 0), which makes it min(0, cummin S)
    # without a pass of its own (min is exact), and goes over the
    # increments, which the sums no longer need.  It is np.fmin's, about a
    # quarter faster per block than np.minimum's and the same bits: the two
    # differ only at NaN, and once a block's sums are NaN they stay NaN, so
    # waits - floor is NaN either way; a -0.0 floor is absorbed when T is
    # added.  The peak age is
    # A_j = D_j - S_{j-1} = v_j + b.  A block reads times[start - 1:stop]
    # before it writes times[start - 1:stop - 1], and the carry is its own
    # last backlog, so no service time is read after it is overwritten.
    carry = times[0]
    for start in range(1, times.size, _LINDLEY_BLOCK):
        stop = min(start + _LINDLEY_BLOCK, times.size)
        steps = times[start - 1:stop - 1] - b
        steps[0] = carry - b
        waits = np.cumsum(steps)
        first = waits[0]
        waits[0] = min(first, 0.0)
        floor = np.fmin.accumulate(waits, out=steps)
        waits[0] = first
        waits -= floor
        backlog = np.add(waits, times[start:stop], out=waits)
        carry = backlog[-1]
        np.add(backlog, b, out=times[start - 1:stop - 1])
    return times[:-1]


def _quantile(upper: np.ndarray, k: int, q: float) -> float:
    # np.quantile(ages, q) bit for bit, read from upper, the sorted order
    # statistics k to n - 1 of the n ages, for a q whose virtual index
    # (n - 1)*q is at least k.  numpy's default linear method reads
    # statistics j and j + 1 at that index and interpolates between them as
    # its _lerp does; from index n - 1 on it returns the maximum.
    n = k + upper.size
    index = (n - 1) * q
    if index < n - 1:
        j = math.floor(index)
        a, b, t = float(upper[j - k]), float(upper[j - k + 1]), index - j
        return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t
    return float(upper[-1])


def _fit_tail(
    ages: np.ndarray, lo_quantile: float, hi_quantile: float
) -> tuple[tuple[tuple[float, float], ...], float | None, float | None, str | None]:
    # Consumes ages' order: it partitions them at statistic k, the lower
    # quantile's, and sorts the part from k on (about 1 - lo_quantile of
    # them) in place, so take any summary whose rounding depends on the
    # order (the mean) before.  Partitioning at one kth stays on numpy's
    # fast path.  The sorted part holds both quantiles and every grid count:
    # the interpolation puts x_lo at or above statistic k, so the samples
    # below k reach no grid point, except copies of x_lo when it is that
    # statistic itself (t = 0, or ties).  np.linspace ends the grid at x_hi
    # exactly, and a collapsed window is the one point x_lo = x_hi, so the
    # last count is the samples at or above x_hi.
    n = ages.size
    k = min(math.floor((n - 1) * lo_quantile), n - 1)
    ages.partition(k)
    upper = ages[k:]
    upper.sort()
    x_lo, x_hi = _quantile(upper, k, lo_quantile), _quantile(upper, k, hi_quantile)
    if x_hi > x_lo:
        grid = np.linspace(x_lo, x_hi, _FIT_GRID_POINTS)
    else:
        grid = np.array([x_lo])
    counts = upper.size - np.searchsorted(upper, grid, side="left")
    if x_lo == upper[0]:
        counts[grid == x_lo] += np.count_nonzero(ages[:k] == x_lo)
    ccdf = counts / n
    points = tuple((float(x), float(p)) for x, p in zip(grid, ccdf))

    tail_count = int(counts[-1])
    usable = ccdf > 0.0
    # The regression runs on xs / scale, scale the power of two at or just
    # below x_hi, so its squared spread stays inside the floats whatever the
    # scale of the ages.  Dividing by a power of two is exact, and so is
    # every sum, product and square root after it, so the slope and stderr
    # divided by scale are the unscaled fit's bit for bit.
    scale = math.ldexp(1.0, math.frexp(x_hi)[1] - 1)
    xs = grid[usable] / scale
    if tail_count < _MIN_FIT_POINTS or np.unique(xs).size < _MIN_FIT_POINTS:
        return points, None, None, (
            f"degenerate fit window: {tail_count} samples at or above the upper "
            f"quantile and {np.unique(xs).size} usable grid points (need {_MIN_FIT_POINTS})"
        )

    ys = np.log(ccdf[usable])
    x_bar, y_bar = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - x_bar) ** 2))
    if not 0.0 < sxx < math.inf:
        return points, None, None, f"fit window spread {sxx!r} is not a finite positive number"
    slope = float(np.sum((xs - x_bar) * (ys - y_bar)) / sxx)
    resid = ys - (y_bar + slope * (xs - x_bar))
    dof = xs.size - 2
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return points, -slope / scale, stderr / scale, None


def simulate_sensor(nu: float, b: float, config: SimConfig, *, stream: int = 0) -> TailEstimate:
    """Simulate one sensor and estimate its peak-age tail exponent.

    Draws ``_WARMUP + num_samples`` exponential(rate ``nu``) service times by
    inverse transform from a substream selected by ``(config.seed, stream)``,
    runs the FCFS delivery recursion, discards the warm-up peaks, and fits
    the tail over the 0.90-0.999 quantile window.  Raises ValueError when
    ``nu``, ``b`` or ``nu*b`` is not finite and positive, or when the peak
    ages or their mean overflow the floats.
    """
    nu, b = _rate_and_delay(nu, b)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, stream)))
    # The samples live in an anonymous memory map, returned to the system as
    # soon as the sensor is done.  A malloc block this size can stay in the
    # arena of the worker thread that freed it, and how many arenas a run
    # touches depends on thread scheduling, so peak memory would vary by
    # whole arrays between identical runs.  The map is private where mmap
    # takes flags (not on Windows): mmap's default shared map is backed by
    # shared memory, whose pages fault in slower than private ones.  Once
    # the samples fill a 2 MiB page, a length of whole 2 MiB pages lets
    # Linux align the map on one (an unrounded map was not aligned), and
    # MADV_HUGEPAGE on the pages they fill makes each a single fault where
    # transparent huge pages are set to madvise.  Advising the partly used
    # last page too would fill all of it: more resident memory for no gain
    # in time.  The advice is best effort, as the flags are.
    count = _WARMUP + config.num_samples
    huge = 8 * count // _HUGE_PAGE * _HUGE_PAGE
    length = -(-8 * count // _HUGE_PAGE) * _HUGE_PAGE if huge else 8 * count
    if hasattr(mmap, "MAP_PRIVATE"):
        buffer = mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:
        buffer = mmap.mmap(-1, length)
    if huge and hasattr(mmap, "MADV_HUGEPAGE"):
        try:
            buffer.madvise(mmap.MADV_HUGEPAGE, 0, huge)
        except OSError:  # a kernel without transparent huge pages
            pass
    times = np.frombuffer(buffer, dtype=np.float64, count=count)
    with np.errstate(over="ignore", invalid="ignore"):
        # -log1p(-u)/nu, evaluated in place: sign flips are exact, so the
        # values are the same as the out-of-place expression.
        rng.random(out=times)
        np.log1p(np.negative(times, out=times), out=times)
        times /= -nu
        kept = _peak_ages(times, b)[_WARMUP - 1:]
        mean = float(kept.mean())
    # An infinite or NaN age, or a sum past the floats, makes the mean
    # non-finite, so a finite mean vouches for every age.  The fit sorts
    # the top of kept in place, which leaves the maximum at its end.
    if not math.isfinite(mean):
        raise ValueError(f"peak ages overflow the floats at nu={nu!r}, b={b!r}")
    points, exponent, stderr, fit_error = _fit_tail(kept, _FIT_LO_QUANTILE, _FIT_HI_QUANTILE)
    return TailEstimate(
        paoi_samples_summary=PaoiSummary(count=int(kept.size), mean=mean, max=float(kept[-1])),
        ccdf_points=points,
        fitted_exponent=exponent,
        stderr=stderr,
        fit_error=fit_error,
    )


def simulate_plan(
    scenario: Scenario, plan: AllocationPlan, config: SimConfig
) -> list[TailEstimate]:
    """Simulate every sensor of a plan on independent substreams, concurrently.

    Sensors interact only through the static resource split, so each runs
    as its own queue with service rate ``mu_i * r_i`` and period ``b_i``, on
    one of ``min(n, os.cpu_count())`` worker threads, which overlap while
    numpy runs without the interpreter lock.  Results are ordered by sensor
    index, deterministic per seed, and identical to simulating the sensors
    one after another.  Raises ValueError as ``plan.validate_for`` does,
    an unstable queue included.  An error in a sensor's simulation is
    raised unchanged, from the lowest failing sensor.
    """
    # Deferred: concurrent.futures imports logging, which nothing else in a
    # fresh `import paoiplan` needs.
    from concurrent.futures import ThreadPoolExecutor

    plan.validate_for(scenario)
    nu = scenario.mu * plan.r
    with ThreadPoolExecutor(max_workers=min(scenario.n, os.cpu_count() or 1)) as pool:
        return list(pool.map(
            lambda i, nu_i, b_i: simulate_sensor(nu_i, b_i, config, stream=i),
            range(scenario.n), nu.tolist(), plan.b.tolist(),
        ))
