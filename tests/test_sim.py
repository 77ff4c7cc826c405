import math

import numpy as np
import pytest

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
        with pytest.raises(ValueError, match="num_samples"):
            SimConfig(num_samples=999)


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
            points, exponent, stderr, fit_error = _fit_tail(kept, _FIT_LO_QUANTILE, _FIT_HI_QUANTILE)
            assert estimate == TailEstimate(
                paoi_samples_summary=PaoiSummary(
                    count=num_samples, mean=float(kept.mean()), max=float(kept.max())
                ),
                ccdf_points=points,
                fitted_exponent=exponent,
                stderr=stderr,
                fit_error=fit_error,
            )

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
    # so it may differ from the scalar loop by rounding: a few ulps of the
    # O(block) prefix sums, far inside 1e-10 relative.
    @pytest.mark.parametrize("nu_b", [1.01, 2.0, 10.0])
    @pytest.mark.parametrize(
        "count", [_LINDLEY_BLOCK - 1, _LINDLEY_BLOCK, _LINDLEY_BLOCK + 1, 3 * _LINDLEY_BLOCK + 7]
    )
    def test_matches_scalar_loop_across_block_edges(self, count, nu_b):
        times = exponential_times(1.0, count + 1, seed=count)
        ages = _peak_ages(times, nu_b)
        expected = np.array(reference_peak_ages(times.tolist(), nu_b))
        assert ages.shape == expected.shape == (count,)
        np.testing.assert_allclose(ages, expected, rtol=1e-10, atol=0.0)

    def test_matches_scalar_loop_over_a_million_samples(self):
        times = exponential_times(1.0, 1_000_001, seed=11)
        ages = _peak_ages(times, 2.0)
        np.testing.assert_allclose(ages, reference_peak_ages(times.tolist(), 2.0), rtol=1e-10, atol=0.0)


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
            assert _fit_tail(ages, lo, hi) == reference_fit_tail(ages, lo, hi), (case, size, lo, hi)


class TestTailEstimate:
    def test_determinism_per_seed(self):
        config = SimConfig(num_samples=5000, seed=9)
        first = simulate_sensor(1.0, 2.0, config)
        second = simulate_sensor(1.0, 2.0, config)
        assert first == second

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
        ages = _peak_ages(times, 0.7)
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
