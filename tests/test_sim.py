import math
import mmap
import os
import subprocess
import sys
import threading
import types
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
    _FIT_HI_QUANTILE,
    _FIT_LO_QUANTILE,
    _LINDLEY_BLOCK,
    _WARMUP,
    _fit_tail,
    _peak_ages,
)


def reference_peak_ages(service_times: list[float], b: float) -> list[float]:
    # The scalar form of the delivery recursion: the backlog
    # v_j = max(v_{j-1} - b, 0) + T_j and the peak age v_j + b.
    ages = []
    v = service_times[0]
    for t in service_times[1:]:
        v = (v - b if v > b else 0.0) + t
        ages.append(v + b)
    return ages


def minimum_peak_ages(times: np.ndarray, b: float) -> np.ndarray:
    # _peak_ages as it was with np.minimum.accumulate for the prefix minimum,
    # kept to pin np.fmin.accumulate to the same bits.
    carry = times[0]
    for start in range(1, times.size, _LINDLEY_BLOCK):
        stop = min(start + _LINDLEY_BLOCK, times.size)
        steps = times[start - 1:stop - 1] - b
        steps[0] = carry - b
        waits = np.cumsum(steps)
        first = waits[0]
        waits[0] = min(first, 0.0)
        floor = np.minimum.accumulate(waits, out=steps)
        waits[0] = first
        waits -= floor
        backlog = np.add(waits, times[start:stop], out=waits)
        carry = backlog[-1]
        np.add(backlog, b, out=times[start - 1:stop - 1])
    return times[:-1]


def reference_fit_tail(ages, lo_quantile, hi_quantile):
    # The fit over a full sort of the samples.
    sorted_ages = np.sort(ages)
    n = sorted_ages.size
    x_lo = float(np.quantile(sorted_ages, lo_quantile))
    x_hi = float(np.quantile(sorted_ages, hi_quantile))
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

    ys = np.log(ccdf[usable])
    x_bar, y_bar = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - x_bar) ** 2))
    slope = float(np.sum((xs - x_bar) * (ys - y_bar)) / sxx)
    resid = ys - (y_bar + slope * (xs - x_bar))
    dof = xs.size - 2
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return points, -slope, stderr, None


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
        assert _peak_ages(np.array([0.5, 0.5]), 1.0).tolist() == [1.5]

    def test_queueing_case(self):
        assert _peak_ages(np.array([1.5, 0.5]), 1.0).tolist() == [2.0]

    def test_longer_hand_computed_sequence(self):
        # D: 0.5, 1.5, 4.5, 5.0, 6.5, 6.75 against samples at 0, 1, 2, 3, 4, 5.
        ages = _peak_ages(np.array([0.5, 0.5, 2.5, 0.5, 1.5, 0.25]), 1.0)
        assert ages.size == 5
        assert ages.mean() == pytest.approx(np.mean([1.5, 3.5, 3.0, 3.5, 2.75]), abs=1e-15)
        assert ages.max() == 3.5

    def test_warmup_discards_initial_peaks(self):
        # The estimate is the fit of the peaks after the warm-up draws; the
        # queue state still carries over from the warm-up.
        nu, b, seed, stream = 1.3, 1.1, 5, 2
        for num_samples in (1000, 4097):
            config = SimConfig(num_samples=num_samples, seed=seed)
            estimate = simulate_sensor(nu, b, config, stream=stream)
            rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
            times = -np.log1p(-rng.random(_WARMUP + num_samples)) / nu
            kept = _peak_ages(times, b)[_WARMUP - 1:]
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
        # One array of samples per sensor: the ages are the view times[:-1].
        times = exponential_times(1.0, 3 * _LINDLEY_BLOCK + 7, seed=3)
        expected = reference_peak_ages(times.tolist(), 2.0)
        ages = _peak_ages(times, 2.0)
        assert ages.size == times.size - 1 and np.shares_memory(ages, times)
        np.testing.assert_allclose(ages, expected, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("nu,b", [
        (1.0, math.inf), (math.inf, 2.0), (math.nan, 2.0), (1.0, math.nan), (1e300, 1e300),
    ])
    def test_rejects_non_finite_rate_and_delay(self, nu, b):
        # The exponent routes' check: past it, an infinite delay would give a
        # NaN summary and an infinite rate a summary of b alone.
        with pytest.raises(ValueError, match="must be finite"):
            simulate_sensor(nu, b, SimConfig(num_samples=1000))


class TestBlockedRecursion:
    # The blocked prefix-sum form adds the same increments in another order,
    # so it may differ from the scalar loop by rounding in the O(block)
    # prefix sums.  Over a million samples at 16384-sample blocks the
    # largest relative difference measured 3.1e-12 at nu*b = 1.3, 2.2e-12
    # at 2 and 1.6e-12 at 4 (1.2e-12, 6.3e-13 and 4.6e-13 at 4096), far
    # inside 1e-10.
    # The same offsets around a quarter block end the run inside its first
    # block; around the block they put it at and across the block edges.
    @pytest.mark.parametrize("nu_b", [1.01, 2.0, 10.0])
    @pytest.mark.parametrize("count", [
        _LINDLEY_BLOCK // 4 - 1, _LINDLEY_BLOCK // 4, _LINDLEY_BLOCK // 4 + 1, 3 * _LINDLEY_BLOCK // 4 + 7,
        _LINDLEY_BLOCK - 1, _LINDLEY_BLOCK, _LINDLEY_BLOCK + 1, 3 * _LINDLEY_BLOCK + 7,
    ])
    def test_matches_scalar_loop_across_block_edges(self, count, nu_b):
        times = exponential_times(1.0, count + 1, seed=count)
        ages = _peak_ages(times.copy(), nu_b)
        expected = np.array(reference_peak_ages(times.tolist(), nu_b))
        assert ages.shape == expected.shape == (count,)
        np.testing.assert_allclose(ages, expected, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("nu_b", [1.3, 2.0, 4.0])
    def test_matches_scalar_loop_over_a_million_samples(self, nu_b):
        times = exponential_times(1.0, 1_000_001, seed=11)
        ages = _peak_ages(times.copy(), nu_b)
        np.testing.assert_allclose(ages, reference_peak_ages(times.tolist(), nu_b), rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("nan_at", [None, _LINDLEY_BLOCK + 100])
    @pytest.mark.parametrize("nu_b", [1.05, 1.3, 4.0])
    def test_fmin_prefix_minimum_gives_the_bits_of_minimum(self, nu_b, nan_at):
        # Three whole blocks and a partial one; a NaN inside the second block
        # is skipped by fmin where minimum propagates it.
        times = exponential_times(1.0, 3 * _LINDLEY_BLOCK + 4322, seed=7)
        if nan_at is not None:
            times[nan_at] = math.nan
        expected = minimum_peak_ages(times.copy(), nu_b)
        ages = _peak_ages(times.copy(), nu_b)
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
        # reach: both interpolation branches, index 0, and from index n - 1
        # on the maximum.  The window's ends are np.quantile's bit for bit.
        ages = 1.0 + np.random.default_rng(size).exponential(1.0, size)
        window = tuple(np.quantile(ages, (lo, hi)).tolist())
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
        # Sorted: 1, 2, 2, 2, 2, 3, 4.  At lo = 0.5 the virtual index is 3
        # (t = 0); at 5/12 it is 2.5 between two equal statistics.  Either
        # way x_lo = 2, and the 2s below statistic k_lo belong to the tail.
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
        # is rounded up to two pages and only the first is advised.  A
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
        length, advised = 2 * sim._HUGE_PAGE, sim._HUGE_PAGE
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
        # Every peak is at least one period plus one service time.
        from paoiplan.sim import _peak_ages

        rng = np.random.default_rng(4)
        times = -np.log1p(-rng.random(20_000)) / 1.3
        ages = _peak_ages(times.copy(), 0.7)
        assert all(age > 0.7 for age in ages)
        assert all(age >= t + 0.7 for age, t in zip(ages, times[1:]))

    def test_ccdf_matches_direct_counting(self):
        ages = [1.5, 3.5, 3.0, 3.5, 2.75]
        points = _fit_tail(_peak_ages(np.array([0.5, 0.5, 2.5, 0.5, 1.5, 0.25]), 1.0), 0.05, 0.95)[0]
        assert len(points) == 50
        for x, p in points:
            assert p == pytest.approx(np.mean(np.asarray(ages) >= x), abs=1e-15)
        probabilities = [p for _, p in points]
        assert all(a >= b for a, b in zip(probabilities, probabilities[1:]))

    def test_ccdf_is_one_at_or_below_minimum_sample(self):
        # Peaks 2, 2, 4, 3.5: the 0.2-quantile grid start sits on the
        # duplicated minimum, where the empirical CCDF must be exactly 1.
        points = _fit_tail(_peak_ages(np.array([1.0, 1.0, 1.0, 3.0, 0.5]), 1.0), 0.2, 0.95)[0]
        x0, p0 = points[0]
        assert x0 == 2.0
        assert p0 == 1.0

    def test_degenerate_window_reports_fit_error(self):
        config = SimConfig(num_samples=1000, seed=3)
        estimate = simulate_sensor(1.0, 3.0, config)
        assert estimate.fitted_exponent is None
        assert estimate.stderr is None
        assert "degenerate fit window" in estimate.fit_error

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
        summary = unit.paoi_samples_summary
        assert simulate_sensor(2.0**-k, 3.0 * 2.0**k, config) == TailEstimate(
            paoi_samples_summary=PaoiSummary(
                count=summary.count, mean=math.ldexp(summary.mean, k), max=math.ldexp(summary.max, k)
            ),
            ccdf_points=tuple((math.ldexp(x, k), p) for x, p in unit.ccdf_points),
            fitted_exponent=math.ldexp(unit.fitted_exponent, -k),
            stderr=math.ldexp(unit.stderr, -k),
            fit_error=None,
        )

    def test_peak_ages_overflowing_the_floats_raise(self):
        # The prefix sums of a block of draws near 1e305 overflow.
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
    # Batch means over 100 batches of 10^4 consecutive peaks give the error
    # bars; the peaks are correlated, so i.i.d. error bars would be too tight.
    @pytest.mark.parametrize("nu,b", [(1.0, 2.0), (1.0, 1.25), (2.0, 1.5)])
    def test_peak_age_is_b_plus_exponential(self, nu, b):
        warmup, count, batches = 10_000, 1_000_000, 100
        times = exponential_times(nu, warmup + count, seed=77)
        ages = _peak_ages(times, b)[warmup - 1:].reshape(batches, -1)
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

        def meet(nu, b, config, *, stream):
            threads.add(threading.get_ident())
            if stream < 4:
                barrier.wait()
            return stream

        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sim, "simulate_sensor", meet)
        scenario = Scenario.from_arrays(mu=[1.0] * 5, cost=[1.0] * 5, theta=[0.1] * 5)
        assert simulate_plan(scenario, solve_exact(scenario), SimConfig()) == [0, 1, 2, 3, 4]
        assert len(threads) == 2 and threading.get_ident() not in threads

    def test_worker_error_reaches_the_caller_from_the_lowest_failing_sensor(self):
        # Sensors 1 and 2 pass validate_for and nu*b > 1, but nu*b overflows.
        scenario = Scenario.from_arrays(mu=(1, 1e300, 1e300), cost=(1, 1, 1), theta=(0.25, 0.25, 0.25))
        b = (4.0, 1e10, 1e20)
        plan = AllocationPlan(
            r=(0.4, 0.3, 0.3), b=b, method=SolveMethod.EXACT, total_cost=scenario.delay_cost(b)
        )
        with pytest.raises(ValueError, match="nu\\*b must be finite") as direct:
            simulate_sensor(1e300 * 0.3, 1e10, SimConfig(num_samples=1000), stream=1)
        with pytest.raises(ValueError) as raised:
            simulate_plan(scenario, plan, SimConfig(num_samples=1000))
        assert str(raised.value) == str(direct.value)


def test_import_does_not_load_concurrent_futures():
    # concurrent.futures imports logging; simulate_plan imports it on first use.
    env = dict(os.environ, PYTHONPATH=str(Path(paoiplan.__file__).resolve().parents[1]))
    code = "import sys, paoiplan; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
