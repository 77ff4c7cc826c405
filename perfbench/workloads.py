"""The benchmark's workloads: closed loops of checked plans.

One caller and no threads: every call starts after the previous one returns.
A pass takes the workload's scenarios once through planning and checking.
Each checked plan adds one timing record to the run: the wall time of its
exact solve, its closed-form plan, its verification, and the whole plan.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from paoiplan import cli, experiments, feasibility, ldp, model, sim, solver_approx, solver_exact

import checks

LAYERS = ("cli", "model", "feasibility", "solver_exact", "solver_approx", "ldp", "sim", "experiments")

# Layer entry points wrapped during traced passes, so that the calls one
# layer makes into another show up as spans too.
INSTRUMENTED = (
    (cli, "load_scenario", "cli.load_scenario"),
    (cli, "load_plan", "cli.load_plan"),
    (cli, "_emit", "cli.emit"),
    (model.Scenario, "from_arrays", "model.from_arrays"),
    (feasibility, "check_feasibility", "feasibility.check"),
    (solver_exact, "solve_exact", "solver_exact.solve"),
    (solver_approx, "solve_approx", "solver_approx.solve"),
    (ldp, "exponent_root", "ldp.exponent_root"),
    (ldp, "exponent_variational", "ldp.exponent_variational"),
    (sim, "simulate_sensor", "sim.simulate_sensor"),
    (experiments, "fig3_scenario", "experiments.fig3_scenario"),
    (experiments, "fig2_sweep", "experiments.fig2_sweep"),
)
# Spans the benchmark opens around its own calls.  The residual, allocation
# and delay-recovery spans time one evaluation at the solved multiplier, so
# they give the cost of one solver iteration without tracing inside it.
BENCHMARK_SPANS = (
    "cli.main",
    "model.validate_for",
    "model.delay_recovery",
    "solver_exact.residual",
    "solver_exact.allocation",
)
SPAN_NAMES = tuple(name for _, _, name in INSTRUMENTED) + BENCHMARK_SPANS


@dataclass(frozen=True)
class Arrays:
    """A scenario's parameters as the checks read them."""

    mu: np.ndarray
    cost: np.ndarray
    theta: np.ndarray
    budget: float

    @classmethod
    def of(cls, scenario) -> "Arrays":
        return cls(scenario.mu, scenario.cost, scenario.theta, scenario.budget)


class _Laps:
    def __init__(self) -> None:
        self.start = self.last = time.perf_counter()
        self.times: dict[str, float] = {}

    def __call__(self, key: str) -> None:
        now = time.perf_counter()
        self.times[key] = now - self.last
        self.last = now


def _checked(checker, body, timings=None) -> None:
    """Run one operation, record its problems, and append its timing record."""
    laps = _Laps()
    try:
        problems = body(laps)
    except Exception as exc:  # noqa: BLE001 -- a failed operation is counted, not fatal
        problems = [f"raised {exc!r}"]
    total = time.perf_counter() - laps.start
    checker.record(problems)
    if timings is not None:
        record = dict.fromkeys(("solve_s", "approx_s", "verify_s"), math.nan)
        record.update(laps.times, total_s=total)
        timings.append(record)


def _validation_problems(label: str, plan, scenario) -> list[str]:
    try:
        plan.validate_for(scenario)
    except ValueError as exc:
        return [f"{label}: validate_for: {exc}"]
    return []


def _verify_plans(tracer, scenario, arrays: Arrays, exact, approx) -> list[str]:
    """Checks every workload applies to its exact and closed-form plans."""
    problems = checks.plan_problems("exact plan", arrays.mu, arrays.theta, arrays.budget, exact)
    problems += checks.plan_problems("approx plan", arrays.mu, arrays.theta, arrays.budget, approx)
    problems += checks.cost_order_problems(exact, approx)
    with tracer.span("model.validate_for"):
        problems += _validation_problems("exact plan", exact, scenario)
        problems += _validation_problems("approx plan", approx, scenario)
    with tracer.span("solver_exact.residual"):
        budget_residual = solver_exact.residual(scenario, exact.lam)
    with tracer.span("solver_exact.allocation"):
        shares = solver_exact.allocation_at_lambda(scenario, exact.lam)
    rates = (arrays.mu * np.asarray(exact.r)).tolist()
    thetas = arrays.theta.tolist()
    with tracer.span("model.delay_recovery"):
        delays = [model.optimal_sampling_delay(nu, theta) for nu, theta in zip(rates, thetas)]
    problems += checks.recovery_problems(exact, budget_residual, shares, delays)
    return problems


def _exponent_problems(arrays: Arrays, exact) -> list[str]:
    problems = []
    rates = (arrays.mu * np.asarray(exact.r)).tolist()
    for nu, b, theta in zip(rates, exact.b, arrays.theta.tolist()):
        psi_root = ldp.exponent_root(nu, b)
        psi_variational = ldp.exponent_variational(nu, b).psi
        problems += checks.exponent_problems(theta, psi_root, psi_variational)
    return problems


class PlanLarge:
    """One large deployment planned through the CLI, exact then closed form."""

    name = "plan_large"
    N = 100_000
    LOAD = 0.99

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.scenario_path = str(workdir / "big.json")
        self.plan_path = str(workdir / "plan.json")
        self.approx_path = str(workdir / "approx.json")
        self.sizes = {"n": self.N, "load": self.LOAD, "plans_per_pass": 1}
        self.samples_per_pass = 0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        mu = rng.uniform(0.5, 4.0, self.N)
        cost = rng.uniform(1.0, 10.0, self.N)
        raw = rng.uniform(0.1, 1.0, self.N)
        theta = raw * (self.LOAD / float(np.sum(raw / mu)))
        sensors = [
            {"mu": m, "cost": c, "theta": t}
            for m, c, t in zip(mu.tolist(), cost.tolist(), theta.tolist())
        ]
        with open(self.scenario_path, "w") as handle:
            handle.write(json.dumps({"budget": 1.0, "sensors": sensors}))
        self.arrays = Arrays(mu, cost, theta, 1.0)

    def run_pass(self, tracer, checker, timings) -> None:
        def body(lap):
            with tracer.span("cli.main"):
                solve_rc = cli.main(["solve", self.scenario_path, "--out", self.plan_path])
            lap("solve_s")
            with tracer.span("cli.main"):
                approx_rc = cli.main(["approx", self.scenario_path, "--out", self.approx_path])
            lap("approx_s")
            if solve_rc != 0 or approx_rc != 0:
                return [f"paoiplan solve exited {solve_rc}, paoiplan approx exited {approx_rc}"]
            exact = cli.load_plan(self.plan_path)
            approx = cli.load_plan(self.approx_path)
            a = self.arrays
            scenario = model.Scenario.from_arrays(a.mu, a.cost, a.theta, a.budget)
            problems = _verify_plans(tracer, scenario, a, exact, approx)
            lap("verify_s")
            return problems

        _checked(checker, body, timings)


class SweepSmall:
    """The cost-gap study's small plans with a theory check, plus the trade-off sweep."""

    name = "sweep_small"
    # The fig3 exponent ramp goes nonpositive for even n > 10, so n = 16
    # cannot be generated; the sizes stop at 8.
    N_VALUES = (4, 8)
    C_MAX_VALUES = (10.0, 100.0)
    REPS = 200

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        plans = len(self.N_VALUES) * len(self.C_MAX_VALUES) * self.REPS
        self.sizes = {
            "n": list(self.N_VALUES), "c_max": list(self.C_MAX_VALUES), "reps": self.REPS,
            "plans_per_pass": plans,
            "exponent_pairs_per_pass": len(self.C_MAX_VALUES) * self.REPS * sum(self.N_VALUES),
            "fig2_sweeps_per_pass": 1,
        }
        self.samples_per_pass = 0

    def setup(self) -> None:
        # The same per-(size, replication) substreams fig3_sweep derives from its seed.
        self.jobs = [
            (n, c_max, int(np.random.SeedSequence((self.seed, n, rep)).generate_state(1, np.uint64)[0]))
            for n in self.N_VALUES for c_max in self.C_MAX_VALUES for rep in range(self.REPS)
        ]

    def run_pass(self, tracer, checker, timings) -> None:
        for n, c_max, seed in self.jobs:
            def body(lap, n=n, c_max=c_max, seed=seed):
                scenario = experiments.fig3_scenario(n, c_max, seed)
                lap("generate_s")
                exact = solver_exact.solve_exact(scenario)
                lap("solve_s")
                approx = solver_approx.solve_approx(scenario)
                lap("approx_s")
                arrays = Arrays.of(scenario)
                problems = _verify_plans(tracer, scenario, arrays, exact, approx)
                problems += checks.kkt_problems(arrays.mu, arrays.cost, arrays.theta, exact)
                problems += _exponent_problems(arrays, exact)
                lap("verify_s")
                return problems

            _checked(checker, body, timings)
        _checked(checker, lambda lap: checks.fig2_problems(experiments.fig2_sweep()))


class VerifyMc:
    """Monte Carlo verification of one heterogeneous plan against its exponents."""

    name = "verify_mc"
    # Per-sensor loads theta/mu of 0.1, 0.15, 0.25 and 0.3: total load 0.8.
    MU = (0.5, 1.0, 2.0, 4.0)
    COST = (4.0, 1.0, 8.0, 2.0)
    THETA = (0.05, 0.15, 0.5, 1.2)
    SAMPLES = 1_000_000

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.sizes = {"n": len(self.MU), "load": 0.8, "samples_per_sensor": self.SAMPLES, "plans_per_pass": 1}
        self.samples_per_pass = 0

    def setup(self) -> None:
        self.scenario = model.Scenario.from_arrays(self.MU, self.COST, self.THETA)
        self.arrays = Arrays.of(self.scenario)
        sim_seed = int(np.random.SeedSequence(self.seed).generate_state(1)[0])
        self.config = sim.SimConfig(num_samples=self.SAMPLES, seed=sim_seed)

    def run_pass(self, tracer, checker, timings) -> None:
        def body(lap):
            exact = solver_exact.solve_exact(self.scenario)
            lap("solve_s")
            approx = solver_approx.solve_approx(self.scenario)
            lap("approx_s")
            problems = _verify_plans(tracer, self.scenario, self.arrays, exact, approx)
            problems += _exponent_problems(self.arrays, exact)
            estimates = sim.simulate_plan(self.scenario, exact, self.config)
            self.samples_per_pass = sum(e.paoi_samples_summary.count for e in estimates)
            problems += checks.fit_problems(estimates, self.THETA, self.SAMPLES)
            lap("verify_s")
            return problems

        _checked(checker, body, timings)


WORKLOADS = {w.name: w for w in (PlanLarge, SweepSmall, VerifyMc)}
