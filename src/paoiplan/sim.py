"""Monte Carlo verification of the peak-age tail guarantees.

Each sensor is simulated as a periodically sampled FCFS single-server
queue: samples are taken every ``b`` time units and queue for transmission,
service times are i.i.d. exponential: numpy's ziggurat
``standard_exponential`` draws divided by the rate.  The peak age recorded
at each delivery is the delivery time minus the previous sample's
generation time.  The queue runs as Lindley's recursion on the waiting
time, evaluated as a two-level prefix scan (prefix sums, then prefix
minima) over chunks of 16 x 8192 samples.  The service times are i.i.d.,
so serving the customers in any fixed order gives an equally valid queue:
a chunk is a C-contiguous (16, 8192) array served column by column, which
makes each level of the scan one numpy call per row.  The first 10 000
draws are a warm-up, served as their own (16, 625) chunk, whose peaks are
discarded.  The empirical complementary CDF of the n kept peaks is fitted
on a log scale between their order statistics floor((n - 1)*0.90) and
floor((n - 1)*0.999), and the negated slope estimates the decay exponent
that the planner promised.  No numpy transcendental loop reaches an
estimate: the ziggurat is scalar code, the scan and the fit take sums,
products, quotients and minima, which round the same at every
vector-unit level numpy dispatches, and the fit's logs are scalar
``math.log``.  So the same inputs give the same estimate with numpy's
AVX-512 loops on or off.

A plan's sensors run concurrently, one thread per CPU up to the number of
sensors, each on its own random substream, so the results are identical to
simulating them in sensor order.  ``simulate_plan`` checks the plan once,
with ``AllocationPlan.validate_for``, and no sensor again after that;
``simulate_sensor``, whose rate and delay come straight from its caller,
checks them itself.  Threads overlap only while numpy runs without the
interpreter lock, and each numpy call takes the lock back, so the scan
keeps its calls few: about 40 array calls a chunk, about 360 for
a 1M-sample sensor with its warm-up.  (A loop over 4096-sample blocks made
about 1 700, and two threads running it spent more time passing the lock
than they saved.)  A sensor's samples are one array in a private anonymous
memory map: the peak ages are written over the draws, the scan's prefix
minima take one chunk of scratch (1 MiB), and the fit partitions the ages
once and sorts the top tenth in place.  ``simulate_plan`` gives each worker
thread one map, made for its first sensor and reused for every later one,
and releases the maps when it returns; ``simulate_sensor`` makes a map of
its own.  Once the samples fill a 2 MiB page, the map is rounded up to
whole 2 MiB pages, so that Linux aligns it for transparent huge pages, and
all of it is advised MADV_HUGEPAGE: 1.01M samples then fault in as 4 huge
pages rather than 1 970 small ones, once per worker.  A map below one
page is the samples' size and not advised.  So peak memory is about
8 bytes * (num_samples + 10 000), in whole 2 MiB pages from one page on,
plus 1 MiB per worker.
"""
from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import AllocationPlan, Scenario, _rate_and_delay

_WARMUP = 10_000
_FIT_LO_QUANTILE = 0.90
_FIT_HI_QUANTILE = 0.999
_FIT_GRID_POINTS = 50
_MIN_FIT_POINTS = 10
_CHUNK_ROWS = 16
_CHUNK_COLUMNS = 8192
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


def _peak_ages(times: np.ndarray, b: float, wait: float = 0.0) -> float:
    # Writes each customer's peak age over its service time, in place, and
    # returns the wait of the customer after the last; ``wait`` is the first
    # customer's.  The draws are i.i.d., so any fixed order of customers is
    # an equally valid queue.  times is taken a chunk at a time as a
    # C-contiguous (rows, columns) array, and customer s*rows + i of a chunk
    # is its element [i, s]: a chunk is served column by column.  Chunks are
    # 16 x 8192 while at least that many samples are left, then
    # (16, left // 16), then one row of the 1 to 15 samples after that.
    #
    # Lindley's u_{j+1} = max(u_j + T_j - b, 0) gives the peak age
    # A_j = u_j + T_j + b = Q_j - min(0, Q_0, ..., Q_{j-1}) + 2b, for Q the
    # inclusive prefix sums of T - b seeded with the wait carried in, and
    # the next chunk's wait Q_last - min(0, Q_0, ..., Q_last).  A chunk
    # forms Q and the exclusive prefix minimum as a two-level scan
    # (Blelloch 1990): one vector call per row for the sums down every
    # column, one cumsum over the column totals for each column's offset,
    # and the same two levels with np.fmin for the minimum.  That is about
    # 40 array calls a chunk, about 360 for a 1M-sample sensor with its
    # warm-up (730 at 16 x 4096, whose chunks were also slower).  The sums
    # restart every chunk, so they stay O(chunk): over a million samples
    # the ages stayed within 1.7e-11 relative of the scalar recursion for
    # nu*b from 1.05 to 4.  Carrying the wait in the sums, not as the
    # minimum's seed, makes a NaN carried in turn every later Q NaN.  Once
    # Q is NaN it stays NaN, so np.fmin, which skips NaN, gives the bits of
    # np.minimum (slower to accumulate): each peak past a NaN is NaN either
    # way, and a -0.0 minimum is absorbed when 2b is added.  The sums are
    # formed over the draws, and the minimum in one chunk of scratch.
    rows, columns = _CHUNK_ROWS, _CHUNK_COLUMNS
    scratch = np.empty(min(times.size, rows * columns))
    offsets_buffer, floor_buffer = np.empty(columns + 1), np.empty(columns + 1)
    start = 0
    while start < times.size:
        height = rows if times.size - start >= rows else 1
        width = min(columns, (times.size - start) // height)
        stop = start + height * width
        sums = times[start:stop].reshape(height, width)
        low = scratch[:stop - start].reshape(height, width)
        offsets, floor = offsets_buffer[:width + 1], floor_buffer[:width + 1]
        np.subtract(sums, b, out=sums)
        for i in range(1, height):
            np.add(sums[i - 1], sums[i], out=sums[i])
        offsets[0] = wait
        offsets[1:] = sums[-1]
        np.cumsum(offsets, out=offsets)
        sums += offsets[:-1]
        # low[i, s] becomes the minimum of 0 and every Q served before
        # customer [i, s]: the earlier rows of its column, then the
        # columns before it through floor.
        low[0] = np.inf
        for i in range(1, height):
            np.fmin(low[i - 1], sums[i - 1], out=low[i])
        floor[0] = 0.0
        np.fmin(low[-1], sums[-1], out=floor[1:])
        np.fmin.accumulate(floor, out=floor)
        np.fmin(low, floor[:-1], out=low)
        wait = float(offsets[-1] - floor[-1])
        sums -= low
        sums += 2.0 * b
        start = stop
    return wait


def _fit_tail(
    ages: np.ndarray, lo_quantile: float, hi_quantile: float
) -> tuple[tuple[tuple[float, float], ...], float | None, float | None, str | None]:
    # Consumes ages' order: it partitions them at statistic k, the lower
    # quantile's, and sorts the part from k on (about 1 - lo_quantile of
    # them) in place, so take any summary whose rounding depends on the
    # order (the mean) before.  Partitioning at one kth stays on numpy's
    # fast path.  The window's ends are the order statistics
    # k = floor((n - 1)*lo_quantile) and j = floor((n - 1)*hi_quantile) of
    # the n ages, so the sorted part holds both ends and every grid count:
    # the samples below k reach no grid point, except copies of x_lo, the
    # statistic k itself.  np.linspace ends the grid at x_hi exactly, and a
    # collapsed window is the one point x_lo = x_hi, so the last count is
    # the samples at or above x_hi.
    n = ages.size
    k, j = (math.floor((n - 1) * q) for q in (lo_quantile, hi_quantile))
    ages.partition(k)
    upper = ages[k:]
    upper.sort()
    x_lo, x_hi = float(upper[0]), float(upper[j - k])
    if x_hi > x_lo:
        grid = np.linspace(x_lo, x_hi, _FIT_GRID_POINTS)
    else:
        grid = np.array([x_lo])
    counts = upper.size - np.searchsorted(upper, grid, side="left")
    counts[grid == x_lo] += np.count_nonzero(ages[:k] == x_lo)
    ccdf = counts / n
    points = tuple((float(x), float(p)) for x, p in zip(grid, ccdf))

    tail_count = int(counts[-1])
    # The regression runs on xs / scale, scale the power of two at or just
    # below x_hi, so its squared spread stays inside the floats whatever the
    # scale of the ages.  Dividing by a power of two is exact, and so is
    # every sum, product and square root after it, so the slope and stderr
    # divided by scale are the unscaled fit's bit for bit.
    scale = math.ldexp(1.0, math.frexp(x_hi)[1] - 1)
    xs = grid / scale
    if tail_count < _MIN_FIT_POINTS or np.unique(xs).size < _MIN_FIT_POINTS:
        return points, None, None, (
            f"degenerate fit window: {tail_count} samples at or above the upper "
            f"quantile and {np.unique(xs).size} usable grid points (need {_MIN_FIT_POINTS})"
        )

    # At most 50 logs, taken with the platform's scalar log: np.log's
    # AVX-512 loop rounds some of them differently (3 of the 10 000 values
    # k/1e5 up to 0.1), which can move the fit's last bits.  Each ccdf value
    # is positive: a grid point is at most x_hi, statistic j, so at least
    # n - j >= 1 ages lie at or above it.  At least 10 distinct xs in (0, 2)
    # give a finite positive spread sxx.
    ys = np.array([math.log(p) for p in ccdf.tolist()])
    x_bar, y_bar = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - x_bar) ** 2))
    slope = float(np.sum((xs - x_bar) * (ys - y_bar)) / sxx)
    resid = ys - (y_bar + slope * (xs - x_bar))
    dof = xs.size - 2
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return points, -slope / scale, stderr / scale, None


def _sample_array(count: int) -> np.ndarray:
    # An array of count float64 slots in an anonymous memory map of its own,
    # returned to the system when the last array over it is gone.  A malloc
    # block this size can stay in the arena of the worker thread that freed
    # it, and how many arenas a run touches depends on thread scheduling, so
    # peak memory would vary by whole arrays between identical runs.  The
    # map is private where mmap takes flags (not on Windows): mmap's default
    # shared map is backed by shared memory, whose pages fault in slower
    # than private ones.  Once the samples fill a 2 MiB page, a length of
    # whole 2 MiB pages lets Linux align the map on one (an unrounded map
    # was not aligned), and MADV_HUGEPAGE on all of it makes each page a
    # single fault where transparent huge pages are set to madvise.  The
    # partly filled last page is advised too: that makes all of it resident,
    # up to 2 MiB more, but unadvised it faults in 4 KiB at a time, about
    # 437 of a 1.01M-sample map's 440 faults.  The advice is best effort, as
    # the flags are.
    length = 8 * count
    huge = length >= _HUGE_PAGE
    if huge:
        length = -(-length // _HUGE_PAGE) * _HUGE_PAGE
    if hasattr(mmap, "MAP_PRIVATE"):
        buffer = mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:
        buffer = mmap.mmap(-1, length)
    if huge and hasattr(mmap, "MADV_HUGEPAGE"):
        try:
            buffer.madvise(mmap.MADV_HUGEPAGE, 0, length)
        except OSError:  # a kernel without transparent huge pages
            pass
    return np.frombuffer(buffer, dtype=np.float64, count=count)


def _simulate(times: np.ndarray, nu: float, b: float, config: SimConfig, stream: int) -> TailEstimate:
    # simulate_sensor's estimate for a validated nu and b, drawn into times,
    # an array of _WARMUP + config.num_samples floats whose values are never
    # read: the draw overwrites every one.  The estimate holds Python floats
    # only, so times can serve the next sensor as soon as this returns.
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, stream)))
    with np.errstate(over="ignore", invalid="ignore"):
        rng.standard_exponential(out=times)
        times /= nu
        # The warm-up is its own (16, 625) chunk, so the kept peaks are
        # the contiguous rest of the samples.
        wait = _peak_ages(times[:_WARMUP], b)
        kept = times[_WARMUP:]
        _peak_ages(kept, b, wait)
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


def simulate_sensor(nu: float, b: float, config: SimConfig, *, stream: int = 0) -> TailEstimate:
    """Simulate one sensor and estimate its peak-age tail exponent.

    Draws ``_WARMUP + num_samples`` exponential(rate ``nu``) service times,
    standard exponentials from a substream selected by
    ``(config.seed, stream)`` divided by ``nu``, runs the FCFS delivery
    recursion, discards the warm-up peaks, and fits the tail between the
    order statistics ``floor((n - 1)*0.90)`` and ``floor((n - 1)*0.999)``
    of the ``n`` kept peaks.  The output does not depend on which of
    numpy's vector-unit loops the CPU dispatches.  The customers are served
    in chunk order, not draw order: the warm-up draws form one chunk and
    the kept draws chunks of up to 16 x 8192, each read as a C-contiguous
    ``(16, width)`` array whose customer ``s*16 + i`` is element ``[i, s]``
    (a last row of 1 to 15 draws is served in order).  The service times
    are i.i.d., so any fixed order of them is a sample path of the same
    queue, and the estimate has the same distribution.  The samples live
    in a memory map of their own, released when the call returns.  Raises
    ValueError when ``nu``, ``b`` or ``nu*b`` is not finite and positive,
    or when the peak ages or their mean overflow the floats.
    """
    nu, b = _rate_and_delay(nu, b)
    return _simulate(_sample_array(_WARMUP + config.num_samples), nu, b, config, stream)


def simulate_plan(
    scenario: Scenario, plan: AllocationPlan, config: SimConfig
) -> list[TailEstimate]:
    """Simulate every sensor of a plan on independent substreams, concurrently.

    Sensors interact only through the static resource split, so each runs
    as its own queue with service rate ``mu_i * r_i`` and period ``b_i``, on
    one of ``min(n, os.cpu_count())`` worker threads, which overlap while
    numpy runs without the interpreter lock.  Each worker draws into one
    sample map, made when it starts its first sensor and reused for every
    later one, so a call holds one map per worker, not per sensor; the maps
    are released when the call returns.  Results are ordered by sensor
    index, deterministic per seed, and identical to ``simulate_sensor`` on
    each sensor in turn.  The plan is checked once, by
    ``plan.validate_for``, with no per-sensor check after it: raises
    ValueError as it does, for an unstable queue or a ``nu*b`` past the
    floats included.  An error in a sensor's simulation (peak ages past
    the floats) is raised unchanged, from the lowest failing sensor.
    """
    # Deferred: concurrent.futures imports logging, which nothing else in a
    # fresh `import paoiplan` needs.
    from concurrent.futures import ThreadPoolExecutor

    plan.validate_for(scenario)
    nu = scenario.mu * plan.r  # validate_for checked 1 < nu*b < inf, so nu is finite too
    count = _WARMUP + config.num_samples
    # Every sensor draws count samples, so one map per worker fits them all.
    maps = threading.local()

    def simulate(stream: int, nu_i: float, b_i: float) -> TailEstimate:
        if not hasattr(maps, "times"):
            maps.times = _sample_array(count)
        return _simulate(maps.times, nu_i, b_i, config, stream)

    with ThreadPoolExecutor(max_workers=min(scenario.n, os.cpu_count() or 1)) as pool:
        return list(pool.map(simulate, range(scenario.n), nu.tolist(), plan.b.tolist()))
