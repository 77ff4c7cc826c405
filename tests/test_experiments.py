import math
from dataclasses import astuple, fields

import numpy as np
import pytest

from paoiplan import Scenario, solve_approx, solve_exact
from paoiplan.cli import _write_csv
from paoiplan.experiments import (
    FIG2_THETA1_GRID,
    CostGapRow,
    TradeoffRow,
    fig2_sweep,
    fig3_scenario,
    fig3_sweep,
)

# Deterministic n=2, c_max=1 sweep point (costs pinned at 1): the exact cost
# was cross-checked against the two-sensor r1-grid oracle during development.
N2_EXACT_COST = 5.5949878863720865
N2_APPROX_COST = 5.5954836389875044


class TestFig3Scenario:
    def test_n4_exponent_ramp(self):
        scenario = fig3_scenario(4, 10.0, seed=99)
        np.testing.assert_allclose(scenario.theta, [0.115, 0.125, 0.135, 0.145], atol=1e-15)
        assert float(np.sum(scenario.theta)) == pytest.approx(0.52, abs=1e-12)
        np.testing.assert_array_equal(scenario.mu, np.ones(4))
        assert np.all(scenario.cost >= 1.0) and np.all(scenario.cost <= 10.0)

    def test_n8_smallest_exponent(self):
        scenario = fig3_scenario(8, 10.0, seed=99)
        assert scenario.theta[0] == pytest.approx(0.0325, abs=1e-15)

    def test_n16_ramp_goes_negative_and_raises(self):
        with pytest.raises(ValueError, match=r"0.5/n > 0.01\*\(n/2 - 1\)"):
            fig3_scenario(16, 10.0, seed=99)

    @pytest.mark.parametrize("n", [0, -2, 3, 7])
    def test_rejects_non_even_sizes(self, n):
        with pytest.raises(ValueError, match="even"):
            fig3_scenario(n, 10.0, seed=99)

    def test_rejects_cost_ceiling_below_one(self):
        with pytest.raises(ValueError, match="c_max"):
            fig3_scenario(4, 0.5, seed=99)
        with pytest.raises(ValueError, match="c_max"):
            fig3_scenario(4, math.inf, seed=99)

    def test_deterministic_per_seed(self):
        assert fig3_scenario(4, 10.0, seed=5) == fig3_scenario(4, 10.0, seed=5)
        first = fig3_scenario(4, 10.0, seed=5)
        second = fig3_scenario(4, 10.0, seed=6)
        assert not np.array_equal(first.cost, second.cost)

    def test_unit_cost_ceiling_pins_costs(self):
        scenario = fig3_scenario(4, 1.0, seed=123)
        np.testing.assert_array_equal(scenario.cost, np.ones(4))


class TestFig3Sweep:
    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError, match="replications"):
            fig3_sweep([4], 10.0, 0, seed=1)

    def test_deterministic_per_seed(self):
        assert fig3_sweep([4], 10.0, 20, seed=3) == fig3_sweep([4], 10.0, 20, seed=3)

    def test_single_deterministic_replication(self):
        row = fig3_sweep([2], 1.0, 1, seed=7)[0]
        assert row.mean_exact_cost == pytest.approx(N2_EXACT_COST, rel=1e-12)
        assert row.mean_approx_cost == pytest.approx(N2_APPROX_COST, rel=1e-12)
        assert row.stderr_gap == 0.0
        # Unit cost ceiling makes the scenario seed-free; confirm against
        # a direct solve of the same system.
        scenario = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.26))
        assert row.mean_exact_cost == solve_exact(scenario).total_cost
        assert row.mean_approx_cost == solve_approx(scenario).total_cost

    def test_gap_rows_nonnegative(self):
        for row in fig3_sweep([4, 8], 10.0, 25, seed=13):
            assert row.mean_gap >= -1e-10
            assert np.isfinite(row.mean_gap)
            assert row.stderr_gap > 0.0

    def test_independent_of_n_values_order(self):
        forward = fig3_sweep([4, 8], 10.0, 10, seed=2)
        backward = fig3_sweep([8, 4], 10.0, 10, seed=2)
        assert forward[0] == backward[1]
        assert forward[1] == backward[0]


@pytest.fixture(scope="module")
def fig2_rows():
    rows = fig2_sweep()

    def _select(c1_values, theta1_values=FIG2_THETA1_GRID):
        return [row for row in rows if row.c1 in c1_values and row.theta1 in theta1_values]

    return _select


class TestFig2Sweep:
    def test_rows_sorted_by_theta_within_each_cost(self, fig2_rows):
        rows = fig2_rows((1.0, 5.0), (0.3, 0.1, 0.2))
        assert [(r.c1, r.theta1) for r in rows] == [
            (1.0, 0.1), (1.0, 0.2), (1.0, 0.3),
            (5.0, 0.1), (5.0, 0.2), (5.0, 0.3),
        ]

    def test_exact_delay_strictly_increases_with_exponent(self, fig2_rows):
        rows = fig2_rows((1.0,))
        delays = [row.exact_b1 for row in rows]
        assert len(delays) == len(FIG2_THETA1_GRID)
        assert all(a < b for a, b in zip(delays, delays[1:]))

    def test_approximation_merges_near_the_boundary(self, fig2_rows):
        # 0.5 is asymmetric and far from the feasibility edge, 0.695 hugs it.
        rows = fig2_rows((1.0,), (0.5, 0.695))
        interior, boundary = rows
        assert abs(boundary.approx_b1 / boundary.exact_b1 - 1.0) <= 0.02
        assert abs(interior.approx_b1 / interior.exact_b1 - 1.0) > abs(
            boundary.approx_b1 / boundary.exact_b1 - 1.0
        )


class TestCsvWriters:
    # The fig2/fig3 commands write their rows through the CLI's one CSV
    # writer, headed by the row dataclasses' field names.
    def test_fig2_csv_layout(self, tmp_path, fig2_rows):
        rows = fig2_rows((1.0,), (0.2, 0.3))
        path = tmp_path / "fig2.csv"
        _write_csv(path, [f.name for f in fields(TradeoffRow)], map(astuple, rows))
        lines = path.read_text().splitlines()
        assert lines[0] == "c1,theta1,exact_b1,approx_b1"
        assert len(lines) == 3
        c1, theta1, exact_b1, approx_b1 = lines[1].split(",")
        assert float(exact_b1) == rows[0].exact_b1  # repr round-trips exactly

    def test_fig3_csv_layout(self, tmp_path):
        rows = fig3_sweep([4], 10.0, 5, seed=1)
        path = tmp_path / "fig3.csv"
        _write_csv(path, [f.name for f in fields(CostGapRow)], map(astuple, rows))
        lines = path.read_text().splitlines()
        assert lines[0] == "n,c_max,mean_exact_cost,mean_approx_cost,mean_gap,stderr_gap"
        assert lines[1].startswith("4,10.0,")
