"""The per-scenario planning kernel.

Both planners and the feasibility test read their per-sensor constants from
the scenario, computed once when it is built.  The plans must be the ones
the planners made when every constant was recomputed at each use (the
frozen copy in ``helpers``), bit for bit.
"""
import json
import math
import re
import warnings

import numpy as np
import pytest

import helpers
from helpers import (
    frozen_headroom,
    frozen_solve_approx,
    frozen_solve_exact,
    scenario_at_load,
)
from paoiplan import ConvergenceError, Scenario, check_feasibility, model, solve_approx, solve_exact
from paoiplan.cli import _plan_json, main
from paoiplan.experiments import fig3_scenario
from paoiplan.feasibility import feasible_slack
from paoiplan.solver_exact import _find_multiplier, allocation_at_lambda, residual

LOADS = (0.2, 0.5, 0.9, 0.99, 1.0 - 1e-6)


def _assert_same_bits(plan, frozen) -> None:
    assert plan.method == frozen.method
    assert plan.r.tobytes() == frozen.r.tobytes()
    assert plan.b.tobytes() == frozen.b.tobytes()
    assert plan.total_cost.hex() == frozen.total_cost.hex()
    assert (plan.lam is None) == (frozen.lam is None)
    if plan.lam is not None:
        assert plan.lam.hex() == frozen.lam.hex()


def _assert_plans_match_frozen(scenario: Scenario, calls=(solve_exact, solve_approx)) -> None:
    frozen = {solve_exact: frozen_solve_exact(scenario), solve_approx: frozen_solve_approx(scenario)}
    # Twice each: the second round reads the constants the first one kept.
    for _ in range(2):
        for call in calls:
            result = call(scenario)
            if call in frozen:
                _assert_same_bits(result, frozen[call])


@pytest.mark.parametrize("c_max", [10.0, 100.0])
@pytest.mark.parametrize("n", [4, 8])
def test_fig3_plans_match_the_frozen_planners(n, c_max):
    for rep in range(25):
        seed = int(np.random.SeedSequence((2024, n, rep)).generate_state(1, np.uint64)[0])
        _assert_plans_match_frozen(fig3_scenario(n, c_max, seed))


@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("n", [2, 10, 1000, 20_000])
def test_random_plans_match_the_frozen_planners(n, load):
    rng = np.random.default_rng([n, int(load * 1e6)])
    scenario = scenario_at_load(n, load, rng)
    _assert_plans_match_frozen(scenario)
    # The solved multiplier's shares and budget residual, as the frozen
    # headroom gives them.
    lam = solve_exact(scenario).lam
    shares = scenario.theta / scenario.mu + frozen_headroom(scenario, 1.0 / lam)[0]
    assert allocation_at_lambda(scenario, lam).tobytes() == shares.tobytes()
    frozen_residual = float(math.fsum(shares.tolist()) - scenario.budget)
    assert residual(scenario, lam).hex() == frozen_residual.hex()


@pytest.mark.parametrize("calls", [(solve_approx, solve_exact), (check_feasibility, solve_exact, solve_approx)],
                         ids=["approx_first", "feasibility_first"])
@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("n", [2, 10, 1000, 20_000])
def test_random_plans_match_the_frozen_planners_in_any_call_order(n, load, calls):
    # The exact planner first is the test above; here the closed form or the
    # feasibility test computes the load, the slack and the weight total.
    rng = np.random.default_rng([n, int(load * 1e6)])
    _assert_plans_match_frozen(scenario_at_load(n, load, rng), calls)


def test_plan_file_bytes_match_the_frozen_planners():
    scenario = scenario_at_load(20_000, 0.9, np.random.default_rng(17))
    assert _plan_json(solve_exact(scenario)) == _plan_json(frozen_solve_exact(scenario))
    assert _plan_json(solve_approx(scenario)) == _plan_json(frozen_solve_approx(scenario))


def _tiny_exponents() -> Scenario:
    # theta**2 would be 1e-320, a subnormal; q = 4*(cost/theta)/(theta/mu)
    # is 4e320, past the floats.
    return Scenario.from_arrays(mu=(1.0, 1.0), cost=(1.0, 1.0), theta=(1e-160, 1e-160))


def test_closed_form_and_feasibility_raise_no_warning_where_theta_squared_underflows():
    scenario = _tiny_exponents()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_feasibility(scenario)
        plan = solve_approx(scenario)
    assert report.feasible and report.load == 2e-160 and report.slack == 1.0
    assert plan.r.tolist() == [0.5, 0.5] and plan.b.tolist() == [2.0, 2.0]
    with pytest.raises(ValueError, match="sensor 0: nu\\*b = 1 <= 1, so its queue is unstable"):
        plan.validate_for(scenario)


def test_exact_planner_still_fails_where_q_overflows():
    # q overflows to inf.  Newton's first step, from s = 0, lands on the
    # closed form's s = slack/sum(cost/theta), where every headroom is
    # inf/inf, not a number, and its slope 0, and stops there; the closed
    # form plans this scenario, and a scale-symmetric kernel would let the
    # exact planner plan it too.
    with pytest.raises(ConvergenceError, match="stopped at s=5e-161 "):
        solve_exact(_tiny_exponents())


EVERY_WEIGHT_UNDERFLOWS_LINE = (
    "the closed form's 1/lambda = slack/sum(cost/theta) = 1/0 is not a finite positive float"
)


def test_exact_planner_fails_cleanly_where_every_weight_underflows():
    # cost/theta is 1e-400, 0 in floats: the gate's s = slack/0 is inf, and
    # Newton has no start inside the floats, so the gate refuses the scenario.
    scenario = Scenario.from_arrays(mu=(1e300, 1e300), cost=(1e-200, 1e-200), theta=(1e200, 1e200))
    with pytest.raises(ValueError, match=re.escape(EVERY_WEIGHT_UNDERFLOWS_LINE)):
        solve_exact(scenario)


def test_closed_form_fails_cleanly_where_every_weight_underflows(tmp_path, capsys):
    # The scenario is feasible (load 2e-100), but the closed form's weights
    # sum to 0, so it has no split of the slack to give: its s = slack/0 is inf.
    sensor = {"mu": 1e300, "cost": 1e-200, "theta": 1e200}
    with pytest.raises(ValueError, match=re.escape(EVERY_WEIGHT_UNDERFLOWS_LINE)):
        solve_approx(Scenario.from_arrays(mu=(1e300, 1e300), cost=(1e-200, 1e-200), theta=(1e200, 1e200)))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"sensors": [sensor] * 2}))
    assert main(["approx", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {EVERY_WEIGHT_UNDERFLOWS_LINE}\n"


KERNEL = ("_min_share", "_weight", "_weight_total", "_load_and_slack", "_root_constants")


def test_kernel_is_built_with_the_scenario_and_never_recomputed():
    scenario = scenario_at_load(8, 0.9, np.random.default_rng(3))
    assert set(KERNEL) <= vars(scenario).keys()
    built = {name: getattr(scenario, name) for name in KERNEL}
    check_feasibility(scenario)
    solve_approx(scenario)
    solve_exact(scenario)
    solve_approx(scenario)
    assert all(getattr(scenario, name) is value for name, value in built.items())


def test_feasibility_raises_no_warning_where_the_minimum_shares_underflow():
    # theta/mu is about 1e-400 for sensor 0; the closed form then refuses
    # the plan naming the sensor, without a warning.
    scenario = Scenario.from_arrays(mu=(1e200, 1.0), cost=(1.0, 1.0), theta=(1e-200, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_feasibility(scenario)
        with pytest.raises(ValueError, match="sensor 0: its sampling delay underflows to 0"):
            solve_approx(scenario)
    assert report.feasible and report.load == 0.25


def _fig3_seed(n: int, rep: int) -> int:
    return int(np.random.SeedSequence((2024, n, rep)).generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("rep, reused", [(0, True), (7, False)])
def test_exact_plan_reuses_newtons_last_headroom_where_1_over_lam_is_s(monkeypatch, rep, reused):
    # Newton returns lam = 1/s.  Where 1/lam rounds back to s, the plan is
    # built from the headroom Newton's last step evaluated at s; elsewhere it
    # is evaluated again at 1/lam.  The frozen solver also evaluates the
    # headroom at s = 0, where the package starts from the closed form.
    scenario = fig3_scenario(4, 10.0, _fig3_seed(4, rep))
    lam, s, _ = _find_multiplier(scenario, feasible_slack(scenario))
    assert (1.0 / lam == s) is reused
    counts = {"package": 0, "frozen": 0}
    package_headroom, frozen = Scenario._headroom, helpers.frozen_headroom

    def package_counted(self, s, with_slope=False):
        counts["package"] += 1
        return package_headroom(self, s, with_slope)

    def frozen_counted(scenario, s):
        counts["frozen"] += 1
        return frozen(scenario, s)

    monkeypatch.setattr(Scenario, "_headroom", package_counted)
    monkeypatch.setattr(helpers, "frozen_headroom", frozen_counted)
    _assert_same_bits(solve_exact(scenario), frozen_solve_exact(scenario))
    assert counts["package"] == counts["frozen"] - (2 if reused else 1)


@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("n", [2, 10, 1000])
def test_both_planners_start_from_the_gates_one_multiplier(monkeypatch, n, load):
    # The gate forms the closed form's s = slack/sum(cost/theta) once: the
    # closed form plans at it, and Newton evaluates its first headroom there.
    scenario = scenario_at_load(n, load, np.random.default_rng([n, int(load * 1e6), 1]))
    slack, s = feasible_slack(scenario)
    assert slack == check_feasibility(scenario).slack
    assert s == slack / math.fsum((scenario.cost / scenario.theta).tolist())
    approx = solve_approx(scenario)
    assert approx.r.tobytes() == (scenario._min_share + scenario._weight * s).tobytes()
    evaluated = []
    package_headroom = Scenario._headroom

    def recorded(self, at, with_slope=False):
        evaluated.append(at)
        return package_headroom(self, at, with_slope)

    monkeypatch.setattr(Scenario, "_headroom", recorded)
    solve_exact(scenario)
    assert evaluated[0] == s and all(a < b for a, b in zip(evaluated, evaluated[1:-1]))


def _fsum_inputs(n: int, rng: np.random.Generator) -> dict:
    plan = solve_approx(scenario_at_load(3 * n, 0.9, rng))
    return {
        "random": rng.uniform(0.1, 1.0, n),
        "subnormal": rng.integers(1, 2**52, n).astype(float) * 5e-324,
        "mixed exponents": 10.0 ** rng.uniform(-300.0, 300.0, n),
        "frozen plan row": plan.r[:n],
        "strided view": plan.b[::3],
    }


@pytest.mark.parametrize("n", [1, 2, 8, 1000])
def test_fsum_reads_the_buffer_to_the_bits_of_the_list_in_any_order(n):
    # _fsum reads the array's buffer: it is the correctly rounded sum of the
    # values as a list, in any order, strided views included.
    rng = np.random.default_rng([11, n])
    for name, values in _fsum_inputs(n, rng).items():
        assert values.size == n, name
        expected = math.fsum(values.tolist())
        assert model._fsum(values) == expected, name
        assert model._fsum(values[rng.permutation(n)]) == expected, name


@pytest.mark.parametrize("n", [2, 8, 1000])
def test_fsum_is_inf_past_the_floats_and_nan_with_a_nan(n):
    assert model._fsum(np.full(n, 1e308)) == math.inf
    assert model._fsum(np.array([math.inf] + [1.0] * (n - 1))) == math.inf
    assert math.isnan(model._fsum(np.array([math.nan] + [1.0] * (n - 1))))
    assert math.isnan(model._fsum(np.array([math.inf] * (n - 1) + [math.nan])))
