import json
import math
import mmap
import os
import subprocess
import sys
import threading
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import paoiplan
import paoiplan.sim as sim
from paoiplan import (
    AllocationPlan,
    PaoiSummary,
    Scenario,
    SimConfig,
    SolveMethod,
    TailEstimate,
    exponent_root,
    simulate_plan,
    simulate_sensor,
    solve_exact,
)
from paoiplan.sim import (
    _CHUNK_COLUMNS,
    _CHUNK_ROWS,
    _FIT_HI_QUANTILE,
    _FIT_LO_QUANTILE,
    _WARMUP,
    _fit_tail,
    _peak_ages,
)

from helpers import avx512_levels, customer_order, run_cli

_CHUNK = _CHUNK_ROWS * _CHUNK_COLUMNS


def reference_peak_ages(times: np.ndarray, b: float, wait: float = 0.0) -> tuple[np.ndarray, float]:
    # The scalar form of the delivery recursion, run over the customers in
    # the order _peak_ages serves them: the backlog v = u + T, the peak age
    # v + b and the next wait max(v - b, 0).  Returns the ages at their
    # samples' positions and the wait after the last customer.
    order = customer_order(times.size)
    ages = []
    u = wait
    for t in times[order].tolist():
        v = u + t
        ages.append(v + b)
        u = v - b if v > b else 0.0
    placed = np.empty(times.size)
    placed[order] = ages
    return placed, u


def extended_peak_ages(times: np.ndarray, b: float) -> np.ndarray:
    # The peak ages from a wait of 0 in np.longdouble, at their samples'
    # positions: Q - min(0, earlier Q) + 2b for Q the prefix sums of T - b,
    # taken over all the customers, in the order _peak_ages serves them, at
    # once.
    order = customer_order(times.size)
    sums = np.cumsum(times[order].astype(np.longdouble) - np.longdouble(b))
    low = np.minimum.accumulate(np.concatenate((np.zeros(1, np.longdouble), sums[:-1])))
    placed = np.empty(times.size, dtype=np.longdouble)
    placed[order] = sums - low + 2 * np.longdouble(b)
    return placed


def minimum_peak_ages(times: np.ndarray, b: float) -> np.ndarray:
    # _peak_ages with np.minimum and np.minimum.accumulate for the prefix
    # minimum, kept to pin np.fmin to the same bits.
    wait, start = 0.0, 0
    while start < times.size:
        height = _CHUNK_ROWS if times.size - start >= _CHUNK_ROWS else 1
        width = min(_CHUNK_COLUMNS, (times.size - start) // height)
        stop = start + height * width
        sums = times[start:stop].reshape(height, width)
        low = np.empty((height, width))
        np.subtract(sums, b, out=sums)
        for i in range(1, height):
            np.add(sums[i - 1], sums[i], out=sums[i])
        offsets = np.cumsum(np.concatenate(([wait], sums[-1])))
        sums += offsets[:-1]
        low[0] = np.inf
        for i in range(1, height):
            np.minimum(low[i - 1], sums[i - 1], out=low[i])
        floor = np.minimum.accumulate(np.concatenate(([0.0], np.minimum(low[-1], sums[-1]))))
        np.minimum(low, floor[:-1], out=low)
        wait = float(offsets[-1] - floor[-1])
        sums -= low
        sums += 2.0 * b
        start = stop
    return times


def reference_fit_tail(ages, lo_quantile, hi_quantile):
    # The fit over a full sort of the samples, between the order statistics
    # floor((n - 1)*q): np.quantile's "lower" method.
    sorted_ages = np.sort(ages)
    n = sorted_ages.size
    x_lo = float(np.quantile(sorted_ages, lo_quantile, method="lower"))
    x_hi = float(np.quantile(sorted_ages, hi_quantile, method="lower"))
    if x_hi > x_lo:
        grid = np.linspace(x_lo, x_hi, 50)
    else:
        grid = np.array([x_lo])
    ccdf = (n - np.searchsorted(sorted_ages, grid, side="left")) / n
    points = tuple((float(x), float(p)) for x, p in zip(grid, ccdf))

    tail_count = int(n - np.searchsorted(sorted_ages, x_hi, side="left"))
    usable = ccdf > 0.0
    xs = grid[usable]
    if tail_count < 10 or np.unique(xs).size < 10:
        return points, None, None, (
            f"degenerate fit window: {tail_count} samples at or above the upper "
            f"quantile and {np.unique(xs).size} usable grid points (need 10)"
        )

    ys = np.array([math.log(p) for p in ccdf[usable].tolist()])
    x_bar, y_bar = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - x_bar) ** 2))
    slope = float(np.sum((xs - x_bar) * (ys - y_bar)) / sxx)
    resid = ys - (y_bar + slope * (xs - x_bar))
    dof = xs.size - 2
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return points, -slope, stderr, None


def time_scaled(estimate: TailEstimate, k: int) -> TailEstimate:
    # The estimate with its peak ages scaled by 2**k and its exponent and
    # stderr by 2**-k.
    summary = estimate.paoi_samples_summary
    return TailEstimate(
        paoi_samples_summary=PaoiSummary(
            count=summary.count, mean=math.ldexp(summary.mean, k), max=math.ldexp(summary.max, k)
        ),
        ccdf_points=tuple((math.ldexp(x, k), p) for x, p in estimate.ccdf_points),
        fitted_exponent=math.ldexp(estimate.fitted_exponent, -k),
        stderr=math.ldexp(estimate.stderr, -k),
        fit_error=estimate.fit_error,
    )


def exponential_times(nu: float, count: int, seed: int) -> np.ndarray:
    return -np.log1p(-np.random.default_rng(seed).random(count)) / nu


class TestSimConfig:
    def test_defaults(self):
        config = SimConfig()
        assert (config.num_samples, config.seed) == (1_000_000, 0)
        assert _WARMUP == 10_000
        assert (_FIT_LO_QUANTILE, _FIT_HI_QUANTILE) == (0.90, 0.999)

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError, match="num_samples must be at least 1000, got 999"):
            SimConfig(num_samples=999)

    @pytest.mark.parametrize("field,value", [
        ("num_samples", 1000.5), ("num_samples", 2000.0), ("num_samples", "2000"), ("num_samples", None),
        ("seed", 1.5), ("seed", "3"), ("seed", None),
    ])
    def test_rejects_non_integer_values(self, field, value):
        # Refused here, not by a worker thread's TypeError mid-simulation.
        with pytest.raises(ValueError, match=f"{field} must be an int, got {value!r}"):
            SimConfig(**{field: value})

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SimConfig(seed=-1)

    def test_accepts_numpy_integers(self):
        config = SimConfig(num_samples=np.int64(1000), seed=np.uint32(7))
        assert simulate_sensor(1.0, 2.0, config) == simulate_sensor(1.0, 2.0, SimConfig(1000, 7))


class TestDeliveryRecursion:
    def test_no_queueing_case(self):
        times = np.array([0.5, 0.5])
        assert _peak_ages(times, 1.0) == 0.0
        assert times.tolist() == [1.5, 1.5]

    def test_queueing_case(self):
        times = np.array([1.5, 0.5])
        assert _peak_ages(times, 1.0) == 0.0
        assert times.tolist() == [2.5, 2.0]

    def test_longer_hand_computed_sequence(self):
        # D: 0.5, 1.5, 4.5, 5.0, 6.5, 6.75 against samples at 0, 1, 2, 3, 4,
        # 5; the first peak counts from a sample at -1, and the sample at 6
        # waits 0.75.  A wait of 2 carried in delays the first deliveries.
        times = np.array([0.5, 0.5, 2.5, 0.5, 1.5, 0.25])
        carried = times.copy()
        assert _peak_ages(times, 1.0) == 0.75
        assert times.tolist() == [1.5, 1.5, 3.5, 3.0, 3.5, 2.75]
        assert _peak_ages(carried, 1.0, 2.0) == 1.75
        assert carried.tolist() == [3.5, 3.0, 4.5, 4.0, 4.5, 3.75]

    def test_warmup_discards_initial_peaks(self):
        # The estimate is the fit of the peaks after the warm-up draws; the
        # queue's wait still carries over from the warm-up, which is served
        # as its own chunk.
        nu, b, seed, stream = 1.3, 1.1, 5, 2
        for num_samples in (1000, 4097):
            config = SimConfig(num_samples=num_samples, seed=seed)
            estimate = simulate_sensor(nu, b, config, stream=stream)
            rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
            times = rng.standard_exponential(_WARMUP + num_samples) / nu
            _, wait = reference_peak_ages(times[:_WARMUP], b)
            expected, _ = reference_peak_ages(times[_WARMUP:], b, wait)
            kept = times[_WARMUP:]
            _peak_ages(kept, b, _peak_ages(times[:_WARMUP], b))
            np.testing.assert_allclose(kept, expected, rtol=1e-10, atol=0.0)
            assert estimate.paoi_samples_summary.count == kept.size == num_samples
            # The summary before the fit, which reorders kept.
            summary = PaoiSummary(count=num_samples, mean=float(kept.mean()), max=float(kept.max()))
            points, exponent, stderr, fit_error = _fit_tail(kept, _FIT_LO_QUANTILE, _FIT_HI_QUANTILE)
            assert estimate == TailEstimate(
                paoi_samples_summary=summary,
                ccdf_points=points,
                fitted_exponent=exponent,
                stderr=stderr,
                fit_error=fit_error,
            )

    def test_writes_the_ages_over_the_draws(self):
        # One array of samples per sensor: each draw is overwritten by its
        # customer's peak age, and the wait after the last is returned.  A
        # full chunk, then a row of 7, from a wait carried in.
        times = exponential_times(1.0, _CHUNK + 7, seed=3)
        expected, expected_wait = reference_peak_ages(times, 2.0, 0.5)
        wait = _peak_ages(times, 2.0, 0.5)
        np.testing.assert_allclose(times, expected, rtol=1e-10, atol=0.0)
        assert wait == pytest.approx(expected_wait, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("nu,b", [
        (1.0, math.inf), (math.inf, 2.0), (math.nan, 2.0), (1.0, math.nan), (1e300, 1e300),
    ])
    def test_rejects_non_finite_rate_and_delay(self, nu, b):
        # The exponent routes' check: past it, an infinite delay would give a
        # NaN summary and an infinite rate a summary of b alone.
        with pytest.raises(ValueError, match="must be finite"):
            simulate_sensor(nu, b, SimConfig(num_samples=1000))


class TestBlockedRecursion:
    # The two-level scan adds the same increments in another order, so it
    # may differ from the scalar loop by rounding in the O(chunk) prefix
    # sums.  Over a million samples at 16 x 8192 chunks the largest relative
    # difference measured 5.6e-12 at nu*b = 1.05, 6.9e-12 at 1.3, 9.5e-12
    # at 2 and 1.7e-11 at 4, inside 1e-10.
    # Counts below one chunk: a chunk of 16 rows, then a row of the 1 to 15
    # samples left (15 at 4095 and 16383, 1 at 4097 and 16385, 7 at 12295
    # and 49159), or a row alone (1, 15).
    @pytest.mark.parametrize("nu_b", [1.01, 2.0, 10.0])
    @pytest.mark.parametrize("count", [1, 15, 16, 17, 4095, 4096, 4097, 12295, 16383, 16384, 16385, 49159])
    def test_matches_scalar_loop_across_block_edges(self, count, nu_b):
        times = exponential_times(1.0, count, seed=count)
        expected, expected_wait = reference_peak_ages(times, nu_b)
        wait = _peak_ages(times, nu_b)
        np.testing.assert_allclose(times, expected, rtol=1e-10, atol=0.0)
        assert wait == pytest.approx(expected_wait, rel=1e-10, abs=0.0)

    # The same code at 16 x 64 chunks, so the runs are short: one chunk less
    # a sample, one, one and 1, 15, 16 or 17 samples, and three and 7.  The
    # million samples below cross seven edges of the full-size chunk.
    @pytest.mark.parametrize("nu_b", [1.01, 2.0, 10.0])
    @pytest.mark.parametrize("chunks,extra", [(1, -1), (1, 0), (1, 1), (1, 15), (1, 16), (1, 17), (3, 7)])
    def test_matches_scalar_loop_across_chunk_edges(self, monkeypatch, chunks, extra, nu_b):
        monkeypatch.setattr(sim, "_CHUNK_COLUMNS", 64)
        count = chunks * _CHUNK_ROWS * 64 + extra
        times = exponential_times(1.0, count, seed=count)
        expected, expected_wait = reference_peak_ages(times, nu_b)
        wait = _peak_ages(times, nu_b)
        np.testing.assert_allclose(times, expected, rtol=1e-10, atol=0.0)
        assert wait == pytest.approx(expected_wait, rel=1e-10, abs=0.0)

    # 1 000 001 samples: seven full chunks, a (16, 5156) chunk and a row of 1.
    @pytest.mark.parametrize("nu_b", [1.05, 1.3, 2.0, 4.0])
    def test_matches_scalar_loop_over_a_million_samples(self, nu_b):
        times = exponential_times(1.0, 1_000_001, seed=11)
        expected, _ = reference_peak_ages(times, nu_b)
        _peak_ages(times, nu_b)
        np.testing.assert_allclose(times, expected, rtol=1e-10, atol=0.0)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 63, reason="np.longdouble is no wider than float64 here"
    )
    def test_matches_an_extended_precision_scan_in_heavy_traffic(self):
        # At nu*b = 1.01 the float64 scalar loop drifts (its backlog runs to
        # hundreds over busy periods of thousands of customers, and each
        # step rounds at that size): on these draws it is 3.2e-10 off, so
        # the reference is the same formula in 80-bit floats, run as one
        # whole-array prefix sum and prefix minimum.  It agrees with an
        # 80-bit scalar loop within 6.7e-14.  The scan is 1.6e-12 off it
        # here, and up to 3.6e-12 over the draws of seeds 1-8 at nu*b = 1.01
        # and 1.05; the bound is that, rounded up.
        times = exponential_times(1.0, 1_000_001, seed=1)
        expected = extended_peak_ages(times, 1.01)
        _peak_ages(times, 1.01)
        np.testing.assert_allclose(times, expected, rtol=5e-12, atol=0.0)

    @pytest.mark.parametrize("nan_at", [None, 2 * _CHUNK_COLUMNS + 100, _CHUNK + 100, 2 * _CHUNK - 1])
    @pytest.mark.parametrize("nu_b", [1.05, 1.3, 4.0])
    def test_fmin_prefix_minimum_gives_the_bits_of_minimum(self, nu_b, nan_at):
        # Three whole chunks, a short one and a row of 2.  A NaN inside a
        # chunk (row 2 of the first, row 0 of the second) is skipped by fmin
        # where minimum propagates it; one at the second chunk's last
        # customer is carried into the third as its wait.
        times = exponential_times(1.0, 3 * _CHUNK + 4322, seed=7)
        if nan_at is not None:
            times[nan_at] = math.nan
        expected = minimum_peak_ages(times.copy(), nu_b)
        ages = times.copy()
        _peak_ages(ages, nu_b)
        assert np.array_equal(ages.view(np.uint64), expected.view(np.uint64))


class TestFitTailIdentity:
    def test_tail_only_sort_matches_full_sort(self):
        rng = np.random.default_rng(2024)
        for case in range(300):
            size = int(rng.choice([5, 20, 2000, 20000]))
            kind = case % 4
            if kind == 0:
                ages = 1.0 + rng.exponential(1.0, size)
            elif kind == 1:
                ages = rng.integers(1, 30, size).astype(float)
            elif kind == 2:
                ages = rng.choice([1.0, 2.5, 4.0], size, p=[0.8, 0.15, 0.05])
            else:
                ages = np.full(size, 3.0)
            lo = float(rng.uniform(0.05, 0.95))
            hi = float(rng.uniform(lo, 1.0))
            expected = reference_fit_tail(ages, lo, hi)
            assert _fit_tail(ages, lo, hi) == expected, (case, size, lo, hi)

    @pytest.mark.parametrize("size", [1, 2, 3, 1000])
    @pytest.mark.parametrize("lo,hi", [
        (0.0, 0.0), (0.5, 0.5), (0.9, 0.999), (0.25, 0.75),
        (0.5, math.nextafter(1.0, 0.0)), (0.999, 1.0), (1.0, 1.0),
    ])
    def test_quantiles_match_numpy_bit_for_bit(self, size, lo, hi):
        # Fixed windows for the full-sort oracle, which its random ones never
        # reach: statistic 0, a virtual index (n - 1)*q on a statistic and
        # between two, and from index n - 1 on the maximum.  The window's
        # ends are np.quantile's "lower" order statistics bit for bit.
        ages = 1.0 + np.random.default_rng(size).exponential(1.0, size)
        window = tuple(np.quantile(ages, (lo, hi), method="lower").tolist())
        expected = reference_fit_tail(ages, lo, hi)
        fit = _fit_tail(ages, lo, hi)
        assert fit == expected
        assert (fit[0][0][0], fit[0][-1][0]) == window

    def test_fit_orders_the_samples_in_place(self):
        # No copy of the samples: the fit partitions the caller's array at
        # the lower quantile's statistic k and sorts the part from k on.  At
        # 1000 samples the partition alone left that part sorted.
        ages = 1.0 + np.random.default_rng(8).exponential(1.0, 100_000)
        ordered = np.sort(ages)
        _fit_tail(ages, 0.9, 0.999)
        k = math.floor(99_999 * 0.9)
        assert np.array_equal(ages[k:], ordered[k:])
        assert ages[:k].max() <= ages[k]

    @pytest.mark.parametrize("lo", [0.5, 5 / 12])
    def test_tail_counts_ties_on_both_sides_of_the_lower_statistic(self, lo):
        # Sorted: 1, 2, 2, 2, 2, 3, 4.  At lo = 0.5 the virtual index is 3,
        # and at 5/12 it is 2.5, so x_lo is statistic 3 or 2.  Either way
        # x_lo = 2, and the 2s below statistic k belong to the tail.
        ages = np.array([3.0, 2.0, 1.0, 2.0, 2.0, 4.0, 2.0])
        expected = reference_fit_tail(ages, lo, 0.9)
        fit = _fit_tail(ages, lo, 0.9)
        assert fit[0][0] == (2.0, 6 / 7)
        assert fit == expected


class TestTailEstimate:
    def test_determinism_per_seed(self):
        config = SimConfig(num_samples=5000, seed=9)
        first = simulate_sensor(1.0, 2.0, config)
        second = simulate_sensor(1.0, 2.0, config)
        assert first == second

    def test_private_map_and_its_fallback_give_the_same_estimate(self, monkeypatch):
        # 310 000 samples fill one 2 MiB page and part of a second: the map
        # is rounded up to two pages and both are advised.  A
        # private, advised map where the mmap module has MAP_PRIVATE and
        # MADV_HUGEPAGE; advice the kernel refuses is ignored; without
        # MADV_HUGEPAGE no advice; without MAP_PRIVATE, as on Windows where
        # mmap.mmap takes no flags, the default map.
        config = SimConfig(num_samples=300_000, seed=9)
        calls = []

        class RecordingMap(mmap.mmap):
            def madvise(self, *args):
                calls.append(("madvise", *args))
                return super().madvise(*args)

        def recording_mmap(fileno, length, **flags):
            calls.append(("mmap", fileno, length, flags))
            return RecordingMap(fileno, length, **flags)

        private = {"MAP_PRIVATE": mmap.MAP_PRIVATE, "MAP_ANONYMOUS": mmap.MAP_ANONYMOUS}
        estimates = []
        for names in ({**private, "MADV_HUGEPAGE": mmap.MADV_HUGEPAGE}, {**private, "MADV_HUGEPAGE": -1},
                      private, {}):
            monkeypatch.setattr(sim, "mmap", types.SimpleNamespace(mmap=recording_mmap, **names))
            estimates.append(simulate_sensor(1.0, 2.0, config))
        assert estimates[1:] == estimates[:1] * 3
        length = advised = 2 * sim._HUGE_PAGE
        private_map = ("mmap", -1, length, {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS})
        assert calls == [
            private_map, ("madvise", mmap.MADV_HUGEPAGE, 0, advised),
            private_map, ("madvise", -1, 0, advised),
            private_map,
            ("mmap", -1, length, {}),
        ]

    def test_streams_are_independent(self):
        config = SimConfig(num_samples=5000, seed=9)
        base = simulate_sensor(1.0, 2.0, config, stream=0)
        other = simulate_sensor(1.0, 2.0, config, stream=1)
        assert base.paoi_samples_summary != other.paoi_samples_summary

    def test_peaks_exceed_sampling_period(self):
        # Every peak is at least one period plus one service time.  This
        # queue (nu*b = 0.91) is unstable and waits at every sample after
        # the first.  Where a queue empties, the scan's Q_j - min + 2b is
        # T_j + b only up to the rounding of the chunk's sums, within the
        # scalar loop comparisons' 1e-10.
        rng = np.random.default_rng(4)
        times = -np.log1p(-rng.random(20_000)) / 1.3
        ages = times.copy()
        _peak_ages(ages, 0.7)
        assert all(age > 0.7 for age in ages)
        assert all(age >= t + 0.7 for age, t in zip(ages, times))

    def test_stable_queue_peaks_exceed_sampling_period_up_to_the_scan_rounding(self):
        # At nu*b = 2 the queue empties often.  Where it does, the scan's
        # Q_j - min + 2b is T_j + b only up to the rounding of the chunk's
        # sums, so a peak may land a few ulps of those sums below T_j + b:
        # the scan's documented tolerance, 1e-10 relative.  Three whole
        # chunks and a row of 7, so the bound holds across chunk edges.
        times = exponential_times(1.0, 3 * _CHUNK + 7, seed=5)
        ages = times.copy()
        _peak_ages(ages, 2.0)
        assert np.all(ages >= (times + 2.0) * (1.0 - 1e-10))

    def test_ccdf_matches_direct_counting(self):
        ages = [1.5, 1.5, 3.5, 3.0, 3.5, 2.75]
        times = np.array([0.5, 0.5, 2.5, 0.5, 1.5, 0.25])
        _peak_ages(times, 1.0)
        points = _fit_tail(times, 0.05, 0.95)[0]
        assert len(points) == 50
        for x, p in points:
            assert p == pytest.approx(np.mean(np.asarray(ages) >= x), abs=1e-15)
        probabilities = [p for _, p in points]
        assert all(a >= b for a, b in zip(probabilities, probabilities[1:]))

    def test_ccdf_is_one_at_or_below_minimum_sample(self):
        # Peaks 2, 2, 2, 4, 3.5: the 0.2-quantile grid start sits on the
        # repeated minimum, where the empirical CCDF must be exactly 1.
        times = np.array([1.0, 1.0, 1.0, 3.0, 0.5])
        _peak_ages(times, 1.0)
        assert times.tolist() == [2.0, 2.0, 2.0, 4.0, 3.5]
        points = _fit_tail(times, 0.2, 0.95)[0]
        x0, p0 = points[0]
        assert x0 == 2.0
        assert p0 == 1.0

    def test_degenerate_window_reports_fit_error(self):
        # The window's upper end is statistic j = floor((n - 1)*0.999), so
        # distinct peaks put n - j samples at or above it: 9 at n = 8 001,
        # and the 10 the fit needs from n = 8 002.
        degenerate, fitted = (simulate_sensor(1.0, 3.0, SimConfig(n, seed=3)) for n in (8001, 8002))
        assert degenerate.fitted_exponent is None
        assert degenerate.stderr is None
        assert degenerate.fit_error == (
            "degenerate fit window: 9 samples at or above the upper quantile"
            " and 50 usable grid points (need 10)"
        )
        assert fitted.fit_error is None and fitted.fitted_exponent > 0.0

    @pytest.mark.parametrize("k", [600, -600, 990, -990])
    def test_fit_at_any_float_scale_is_the_unit_fit_rescaled(self, k):
        # nu = 2**-k and b = 3*2**k scale every draw, peak age, quantile and
        # grid point of the nu = 1, b = 3 queue by exactly 2**k, so the
        # estimate is the unit one with its ages scaled by 2**k and its
        # exponent and stderr by 2**-k.  The raw fit window's squared spread
        # would overflow at k = 600 and underflow at k = -600.
        config = SimConfig(num_samples=20_000)
        unit = simulate_sensor(1.0, 3.0, config)
        assert unit.fit_error is None
        assert simulate_sensor(2.0**-k, 3.0 * 2.0**k, config) == time_scaled(unit, k)

    @pytest.mark.parametrize("k", [1, 3, -1])
    @pytest.mark.parametrize("nu,b", [(1.0, 3.0), (0.7, 2.3), (2.5, 0.9), (1.3, 1.1), (0.35, 12.0)])
    def test_time_scale_gives_the_scaled_estimate_bit_for_bit(self, nu, b, k):
        # The time-scale symmetry at factors 2, 8 and 1/2: nu/2**k and
        # b*2**k are exact, so are the draws divided by the rate, every sum
        # and minimum of the scan and the fit, and the estimate is the
        # queue's at (nu, b) with times scaled by 2**k.
        config = SimConfig(num_samples=20_000, seed=3)
        unit = simulate_sensor(nu, b, config)
        assert unit.fit_error is None
        assert simulate_sensor(nu * 2.0**-k, b * 2.0**k, config) == time_scaled(unit, k)

    def test_peak_ages_overflowing_the_floats_raise(self):
        # The prefix sums of a chunk of draws near 1e305 overflow.
        with pytest.raises(ValueError, match="overflow the floats"):
            simulate_sensor(1e-305, 3e305, SimConfig(num_samples=20_000))

    @pytest.mark.parametrize("nu,b", [(1.0, 2.0), (1.0, 3.0), (2.0, 1.5)])
    def test_fitted_exponent_tracks_theory(self, nu, b):
        config = SimConfig(num_samples=1_000_000, seed=42)
        estimate = simulate_sensor(nu, b, config)
        target = exponent_root(nu, b)
        assert estimate.fit_error is None
        assert abs(estimate.fitted_exponent - target) / target <= 0.10
        assert estimate.stderr < 0.05 * target


class TestDM1Oracle:
    # A sensor is a D/M/1 queue, so its stationary sojourn time is exactly
    # Exp(theta*) with theta* = exponent_root(nu, b) (GI/M/1, Kleinrock
    # Vol. 1, section 6.4), and the stationary peak age is b + Exp(theta*).
    # Batch means over 100 batches of 10^4 consecutive peaks, in the order
    # the customers are served, give the error bars; the peaks are
    # correlated, so i.i.d. error bars would be too tight.
    @pytest.mark.parametrize("nu,b", [(1.0, 2.0), (1.0, 1.25), (2.0, 1.5)])
    def test_peak_age_is_b_plus_exponential(self, nu, b):
        warmup, count, batches = 10_000, 1_000_000, 100
        times = exponential_times(nu, warmup + count, seed=77)
        _peak_ages(times[warmup:], b, _peak_ages(times[:warmup], b))
        ages = times[warmup:][customer_order(count)].reshape(batches, -1)
        theta = exponent_root(nu, b)

        def z_score(per_batch, expected):
            stderr = per_batch.std(ddof=1) / math.sqrt(batches)
            return abs(per_batch.mean() - expected) / stderr

        assert z_score(ages.mean(axis=1), b + 1.0 / theta) <= 4.0
        for k in (0.5, 2.0, 5.0):
            assert z_score((ages >= b + k / theta).mean(axis=1), math.exp(-k)) <= 4.0


class TestSimulatePlan:
    def test_length_mismatch_raises(self):
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))
        plan = AllocationPlan(r=(1.0,), b=(1.0,), method=SolveMethod.EXACT, total_cost=1.0)
        with pytest.raises(ValueError, match="sensors"):
            simulate_plan(scenario, plan, SimConfig())

    def test_inflated_delays_overshoot_the_required_exponent(self):
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))
        exact = solve_exact(scenario)
        doubled = tuple(2 * b for b in exact.b)
        plan = AllocationPlan(
            r=exact.r,
            b=doubled,
            method=SolveMethod.EXACT,
            total_cost=math.fsum(c * b for c, b in zip(scenario.cost, doubled)),
        )
        config = SimConfig(num_samples=300_000, seed=10)
        estimates = simulate_plan(scenario, plan, config)
        for estimate, r_i, b_i in zip(estimates, plan.r, plan.b):
            target = exponent_root(1.0 * r_i, b_i)
            assert target > 0.25
            assert abs(estimate.fitted_exponent - target) / target <= 0.10
            assert estimate.fitted_exponent > 0.25

    def test_unstable_queue_raises_naming_the_sensor(self):
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))
        plan = AllocationPlan(r=(0.5, 0.5), b=(4.0, 2.0), method=SolveMethod.EXACT, total_cost=6.0)
        with pytest.raises(ValueError, match="sensor 1: nu\\*b = 1 <= 1"):
            simulate_plan(scenario, plan, SimConfig(num_samples=1000))

    def test_degenerate_config_reports_fit_error_per_sensor(self):
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))
        plan = solve_exact(scenario)
        estimates = simulate_plan(scenario, plan, SimConfig(num_samples=1000, seed=2))
        assert all(e.fitted_exponent is None for e in estimates)
        assert all(e.fit_error for e in estimates)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_concurrent_estimates_equal_sensor_order(self, n):
        # Five sensors are more than the worker threads of a small machine.
        mu = (1.0, 2.0, 0.5, 4.0, 1.5)[:n]
        scenario = Scenario.from_arrays(mu=mu, cost=(1.0, 3.0, 2.0, 1.0, 5.0)[:n], theta=[0.08] * n)
        plan = solve_exact(scenario)
        config = SimConfig(num_samples=20_000, seed=6)
        nu = scenario.mu * plan.r
        expected = [
            simulate_sensor(nu_i, b_i, config, stream=i)
            for i, (nu_i, b_i) in enumerate(zip(nu.tolist(), plan.b.tolist()))
        ]
        assert simulate_plan(scenario, plan, config) == expected

    def test_sensors_overlap_on_one_worker_per_cpu(self, monkeypatch):
        # Each simulation waits for the other at a barrier, which only
        # concurrent workers pass; with 2 CPUs, 5 sensors use 2 threads.
        barrier, threads = threading.Barrier(2, timeout=10), set()

        def meet(times, nu, b, config, stream):
            threads.add(threading.get_ident())
            if stream < 4:
                barrier.wait()
            return stream

        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sim, "_simulate", meet)
        scenario = Scenario.from_arrays(mu=[1.0] * 5, cost=[1.0] * 5, theta=[0.1] * 5)
        assert simulate_plan(scenario, solve_exact(scenario), SimConfig()) == [0, 1, 2, 3, 4]
        assert len(threads) == 2 and threading.get_ident() not in threads

    def test_each_worker_draws_its_sensors_into_one_map(self, monkeypatch):
        # With 2 CPUs, 5 sensors run on 2 workers, and each worker makes one
        # map, for its first sensor: 2 maps, where one map per sensor would
        # make 5.  The first two makers wait for each other at a barrier,
        # so both workers run a sensor.  310 000 samples fill a 2 MiB page,
        # so each map is advised whole and reused at that size.  The
        # estimates are simulate_sensor's, and the maps are released by the
        # time simulate_plan returns.
        barrier, makers, maps = threading.Barrier(2, timeout=10), [], []
        sample_array = sim._sample_array

        def recording_sample_array(count):
            times = sample_array(count)
            makers.append(threading.get_ident())
            maps.append(weakref.ref(times.base.obj))
            if len(makers) <= 2:
                barrier.wait()
            return times

        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sim, "_sample_array", recording_sample_array)
        scenario = Scenario.from_arrays(
            mu=(1.0, 2.0, 0.5, 4.0, 1.5), cost=(1.0, 3.0, 2.0, 1.0, 5.0), theta=[0.08] * 5
        )
        plan = solve_exact(scenario)
        config = SimConfig(num_samples=300_000, seed=6)
        estimates = simulate_plan(scenario, plan, config)
        assert len(makers) == len(set(makers)) == 2
        assert [ref() for ref in maps] == [None, None]
        nu = scenario.mu * plan.r
        assert estimates == [
            simulate_sensor(nu_i, b_i, config, stream=i)
            for i, (nu_i, b_i) in enumerate(zip(nu.tolist(), plan.b.tolist()))
        ]

    def test_worker_error_reaches_the_caller_from_the_lowest_failing_sensor(self):
        # Sensors 1 and 2 pass validate_for (nu*b = 3 and 4.5), but their
        # peak ages, about b = 1e308 and up, pass the floats in the worker.
        # Their delays differ, so their messages name which one was raised.
        scenario = Scenario.from_arrays(
            mu=(1, 1e-307, 1e-307), cost=(1, 1e-10, 1e-10), theta=(0.25, 1e-308, 1e-308)
        )
        r, b = (0.4, 0.3, 0.3), (4.0, 1e308, 1.5e308)
        plan = AllocationPlan(r=r, b=b, method=SolveMethod.EXACT, total_cost=scenario.delay_cost(b))
        plan.validate_for(scenario)
        nu = (scenario.mu * plan.r).tolist()
        with pytest.raises(ValueError, match="peak ages overflow the floats") as direct:
            simulate_sensor(nu[1], b[1], SimConfig(num_samples=1000), stream=1)
        with pytest.raises(ValueError, match="b=1.5e\\+308"):
            simulate_sensor(nu[2], b[2], SimConfig(num_samples=1000), stream=2)
        with pytest.raises(ValueError) as raised:
            simulate_plan(scenario, plan, SimConfig(num_samples=1000))
        assert str(raised.value) == str(direct.value)
        assert str(raised.value) == "peak ages overflow the floats at nu=2.9999999999999997e-308, b=1e+308"

    def test_a_refused_sensor_makes_no_map(self, monkeypatch):
        # The sensor's nu*b overflows: validate_for refuses the plan before
        # any worker makes a map.
        made = []
        monkeypatch.setattr(sim, "_sample_array", lambda count: made.append(count))
        scenario = Scenario.from_arrays(mu=(1e300,), cost=(1,), theta=(0.25,))
        plan = AllocationPlan(r=(1.0,), b=(1e10,), method=SolveMethod.EXACT, total_cost=1e10)
        with pytest.raises(ValueError, match="^sensor 0: nu\\*b = 1e\\+300 \\* 1e\\+10 is past the floats$"):
            simulate_plan(scenario, plan, SimConfig(num_samples=1000))
        assert made == []


def test_import_does_not_load_concurrent_futures():
    # concurrent.futures imports logging; simulate_plan imports it on first use.
    env = dict(os.environ, PYTHONPATH=str(Path(paoiplan.__file__).resolve().parents[1]))
    code = "import sys, paoiplan; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_simulate_bytes_do_not_depend_on_the_vector_units(tmp_path):
    # `paoiplan simulate` writes the same JSON and CCDF bytes with numpy's
    # AVX-512 loops disabled: the draw, the scan and the fit use only
    # operations that round the same at every dispatch level, and scalar
    # math.log.  Sensor 0 (nu = 1, b = 1.1, 100 000 samples, seed 5) gave
    # other bytes when the draw took np.log1p of uniform variates, and
    # sensor 2 (nu = 1, b = 1.98) when the fit took np.log of its CCDF.
    levels = avx512_levels()
    if not levels:
        pytest.skip("numpy dispatches no AVX-512 level on this CPU")
    scenario, plan = tmp_path / "scenario.json", tmp_path / "plan.json"
    scenario.write_text(json.dumps({"sensors": [{"mu": mu, "cost": 1, "theta": 0.1} for mu in (4, 28, 4)]}))
    plan.write_text(json.dumps({"r": [0.25] * 3, "b": [1.1, 0.2, 1.98], "method": "exact", "total_cost": 3.28}))
    outputs = []
    for disabled in ("", " ".join(levels)):
        ccdf = tmp_path / f"ccdf{len(outputs)}.csv"
        argv = ["simulate", str(scenario), str(plan), "--samples", "100000", "--seed", "5", "--ccdf", str(ccdf)]
        result = run_cli(argv, disabled)
        assert result.returncode == 0, result.stderr
        outputs.append((result.stdout, ccdf.read_bytes()))
    assert outputs[1] == outputs[0]
