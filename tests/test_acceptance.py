"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The summary lines are echoed in the terminal summary via conftest.  All
tolerances are pinned here; regression constants were measured once on the
first oracle run with the seeds shown and are asserted as upper bounds.
"""
import json
import math
import time

import numpy as np
import pytest

import paoiplan.cli as cli
from helpers import ACCEPTANCE_LINES, grid_min_cost_two_sensor
from paoiplan import (
    Scenario,
    SimConfig,
    exponent_root,
    exponent_variational,
    simulate_plan,
    simulate_sensor,
    solve_approx,
    solve_exact,
)
from paoiplan.experiments import fig2_sweep, fig3_sweep

SCENARIO_SEED = 12345
SWEEP_SEED = 7
SIM_SEED = 42

SYMMETRIC = Scenario.from_arrays(mu=(1, 1), cost=(1, 1), theta=(0.25, 0.25))

# Mean relative cost gap measured on the first oracle run
# (fig3_sweep, 200 replications, seed 7), pinned as regression bounds.
# The n=16 legs have no pin: the exponent ramp is not generable there.
PINNED_MEAN_GAP = {
    (4, 10.0): 0.0112,
    (8, 10.0): 0.0452,
    (4, 100.0): 0.0145,
    (8, 100.0): 0.0494,
}

# Tail exponent for service rate 1 and period 3, frozen from the dev-time
# bisection oracle and confirmed by grid minimization.
EXPONENT_RATE1_DELAY3 = 0.9404797907073597


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}" + (
        f" -- {detail}" if detail else ""
    )
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _random_scenarios(count: int, n_choices, rng: np.random.Generator) -> list[Scenario]:
    scenarios = []
    for _ in range(count):
        n = int(rng.choice(n_choices))
        mu = rng.uniform(0.5, 4.0, n)
        cost = rng.uniform(1.0, 10.0, n)
        raw = rng.uniform(0.1, 1.0, n)
        load = float(rng.uniform(0.2, 0.9))
        theta = raw * (load / float(np.sum(raw / mu)))
        scenarios.append(Scenario.from_arrays(mu=mu, cost=cost, theta=theta))
    return scenarios


def _criterion2_scenarios() -> list[Scenario]:
    return _random_scenarios(100, range(2, 11), np.random.default_rng(SCENARIO_SEED))


def test_criterion_1_lemma1_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for nu in (0.5, 1.0, 2.0, 4.0):
        for multiple in (1.1, 1.5, 2.0, 3.0, 5.0):
            b = multiple / nu
            gap = abs(exponent_variational(nu, b).psi - exponent_root(nu, b))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(
        1, "lemma-1 equivalence",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst |variational - root| = {worst:.3g} over 20 points in {elapsed:.2f}s",
    )


def test_criterion_2_kkt_exactness():
    start = time.perf_counter()
    worst_budget, worst_stationarity = 0.0, 0.0
    for scenario in _criterion2_scenarios():
        plan = solve_exact(scenario)
        worst_budget = max(worst_budget, abs(math.fsum(plan.r) - scenario.budget))
        for mu, cost, theta, r_i in zip(scenario.mu, scenario.cost, scenario.theta, plan.r):
            implied = cost / (r_i * (mu * r_i - theta))
            worst_stationarity = max(worst_stationarity, abs(implied - plan.lam) / plan.lam)
    elapsed = time.perf_counter() - start
    _report(
        2, "KKT exactness",
        worst_budget <= 1e-9 and worst_stationarity <= 1e-8 and elapsed < 2.0,
        f"worst |sum r - budget| = {worst_budget:.3g}, worst stationarity = "
        f"{worst_stationarity:.3g} over 100 scenarios in {elapsed:.2f}s",
    )


def test_criterion_3_grid_oracle_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(SCENARIO_SEED + 1)
    worst_excess = -math.inf
    for scenario in _random_scenarios(20, [2], rng):
        excess = solve_exact(scenario).total_cost - grid_min_cost_two_sensor(scenario)
        worst_excess = max(worst_excess, excess)
    elapsed = time.perf_counter() - start
    _report(
        3, "grid-oracle optimality",
        worst_excess <= 1e-6 and elapsed < 30.0,
        f"worst cost excess over the r1 grid = {worst_excess:.3g} "
        f"across 20 two-sensor scenarios in {elapsed:.2f}s",
    )


def test_criterion_4_approximation_soundness():
    worst_deficit = math.inf
    for scenario in _criterion2_scenarios():
        deficit = solve_approx(scenario).total_cost - solve_exact(scenario).total_cost
        worst_deficit = min(worst_deficit, deficit)
    symmetric_gap = abs(
        solve_approx(SYMMETRIC).total_cost - solve_exact(SYMMETRIC).total_cost
    ) / solve_exact(SYMMETRIC).total_cost
    _report(
        4, "approximation soundness",
        worst_deficit >= -1e-10 and symmetric_gap <= 1e-10,
        f"worst approx-minus-exact = {worst_deficit:.3g}, symmetric gap = {symmetric_gap:.3g}",
    )


def test_criterion_5_cost_gap_reproduction():
    start = time.perf_counter()
    details, failures = [], []
    for c_max in (10.0, 100.0):
        for n in (4, 8, 16):
            try:
                row = fig3_sweep([n], c_max, 200, seed=SWEEP_SEED)[0]
            except ValueError as exc:
                failures.append(f"n={n} c_max={c_max:g}: {exc}")
                continue
            pinned = PINNED_MEAN_GAP[(n, c_max)]
            ok = math.isfinite(row.mean_gap) and 0.0 <= row.mean_gap <= pinned
            details.append(f"n={n} c_max={c_max:g}: mean_gap={row.mean_gap:.5f} (pin {pinned})")
            if not ok:
                failures.append(details[-1])
    elapsed = time.perf_counter() - start
    _report(
        5, "cost-gap sweep reproduction",
        not failures and elapsed < 60.0,
        "; ".join(details + failures) + f" in {elapsed:.2f}s",
    )


def test_criterion_6_tradeoff_reproduction():
    start = time.perf_counter()
    ok = True
    details = []
    sweep = fig2_sweep()
    for c1 in (1.0, 5.0, 10.0):
        rows = [row for row in sweep if row.c1 == c1]
        delays = [row.exact_b1 for row in rows]
        monotone = all(a < b for a, b in zip(delays, delays[1:]))
        boundary = next(row for row in rows if row.theta1 == 0.695)
        ratio = boundary.approx_b1 / boundary.exact_b1
        ok = ok and monotone and abs(ratio - 1.0) <= 0.02
        details.append(f"c1={c1:g}: monotone={monotone}, boundary ratio={ratio:.4f}")
    elapsed = time.perf_counter() - start
    _report(6, "trade-off sweep reproduction", ok and elapsed < 10.0,
            "; ".join(details) + f" in {elapsed:.2f}s")


def test_criterion_7_simulator_vs_theory():
    start = time.perf_counter()
    config = SimConfig(num_samples=1_000_000, seed=SIM_SEED)

    single = simulate_sensor(1.0, 3.0, config)
    single_err = abs(single.fitted_exponent - EXPONENT_RATE1_DELAY3) / EXPONENT_RATE1_DELAY3

    plan = solve_exact(SYMMETRIC)
    estimates = simulate_plan(SYMMETRIC, plan, config)
    plan_errs = [abs(e.fitted_exponent - 0.25) / 0.25 for e in estimates]

    elapsed = time.perf_counter() - start
    _report(
        7, "simulator versus theory",
        single_err <= 0.10 and max(plan_errs) <= 0.10 and elapsed < 90.0,
        f"single-sensor fit {single.fitted_exponent:.4f} (err {single_err:.2%}), "
        f"plan fits {[round(e.fitted_exponent, 4) for e in estimates]} "
        f"(errs {[f'{e:.2%}' for e in plan_errs]}) in {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path, capsys):
    # Re-run the criterion-5 sweep (its generable sizes) and the criterion-7
    # simulation through the CLI twice; outputs must be byte-identical.
    scenario_path = tmp_path / "two_sym.json"
    scenario_path.write_text(json.dumps(
        {"sensors": [{"mu": 1, "cost": 1, "theta": 0.25}, {"mu": 1, "cost": 1, "theta": 0.25}]}
    ))
    plan_path = tmp_path / "plan.json"
    assert cli.main(["solve", str(scenario_path), "--out", str(plan_path)]) == 0

    outputs = []
    for run in (1, 2):
        fig3_path = tmp_path / f"fig3_{run}.csv"
        rc = cli.main([
            "fig3", "--n", "4,8", "--cmax", "10", "--reps", "200",
            "--seed", str(SWEEP_SEED), "--out", str(fig3_path),
        ])
        assert rc == 0
        capsys.readouterr()

        ccdf_path = tmp_path / f"ccdf_{run}.csv"
        rc = cli.main([
            "simulate", str(scenario_path), str(plan_path),
            "--samples", "1000000", "--seed", str(SIM_SEED), "--ccdf", str(ccdf_path),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        outputs.append((fig3_path.read_bytes(), ccdf_path.read_bytes(), stdout))

    identical = outputs[0] == outputs[1]
    _report(
        8, "determinism of sweep and simulation outputs",
        identical,
        f"fig3 CSV {len(outputs[0][0])} bytes, ccdf CSV {len(outputs[0][1])} bytes, "
        f"simulate JSON {len(outputs[0][2])} bytes, re-runs byte-identical: {identical}",
    )
