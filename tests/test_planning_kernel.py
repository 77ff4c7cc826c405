"""The per-scenario planning kernel.

Both planners and the feasibility test read their per-sensor constants from
the scenario, computed once.  The plans must be the ones the planners made
when every constant was recomputed at each use (the frozen copy in
``helpers``), bit for bit, and a path must evaluate no constant it does not
use: the closed form and the feasibility test never form ``theta**2``.
"""
import json
import math
import warnings

import numpy as np
import pytest

from helpers import (
    frozen_headroom,
    frozen_solve_approx,
    frozen_solve_exact,
    scenario_at_load,
)
from paoiplan import ConvergenceError, Scenario, check_feasibility, solve_approx, solve_exact
from paoiplan.cli import _plan_json, main
from paoiplan.experiments import fig3_scenario
from paoiplan.solver_exact import allocation_at_lambda, residual

LOADS = (0.2, 0.5, 0.9, 0.99, 1.0 - 1e-6)


def _assert_same_bits(plan, frozen) -> None:
    assert plan.method == frozen.method
    assert plan.r.tobytes() == frozen.r.tobytes()
    assert plan.b.tobytes() == frozen.b.tobytes()
    assert plan.total_cost.hex() == frozen.total_cost.hex()
    assert (plan.lam is None) == (frozen.lam is None)
    if plan.lam is not None:
        assert plan.lam.hex() == frozen.lam.hex()


def _assert_plans_match_frozen(scenario: Scenario) -> None:
    frozen_exact, frozen_approx = frozen_solve_exact(scenario), frozen_solve_approx(scenario)
    # Twice each: the second solve reads the constants the first one kept.
    for _ in range(2):
        _assert_same_bits(solve_exact(scenario), frozen_exact)
        _assert_same_bits(solve_approx(scenario), frozen_approx)


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


def test_plan_file_bytes_match_the_frozen_planners():
    scenario = scenario_at_load(20_000, 0.9, np.random.default_rng(17))
    assert _plan_json(solve_exact(scenario)) == _plan_json(frozen_solve_exact(scenario))
    assert _plan_json(solve_approx(scenario)) == _plan_json(frozen_solve_approx(scenario))


def _tiny_exponents() -> Scenario:
    # theta**2 is 1e-320, a subnormal: q = 4*cost*mu/theta**2 overflows.
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


def test_exact_planner_still_fails_where_theta_squared_underflows():
    # q overflows to inf.  Newton's first step, from s = 0, lands on the
    # closed form's s = slack/sum(cost/theta), where every headroom is
    # infinite and its slope 0, and stops there; the closed form plans
    # this scenario, and a scale-symmetric kernel would let the exact
    # planner plan it too.
    with pytest.warns(RuntimeWarning), pytest.raises(ConvergenceError, match="stopped at s=5e-161 "):
        solve_exact(_tiny_exponents())


def test_exact_planner_fails_cleanly_where_every_weight_underflows():
    # cost/theta is 1e-400, 0 in floats: the first step has no slope to
    # divide by, and Newton stops at s = 0 rather than dividing by zero.
    scenario = Scenario.from_arrays(mu=(1e300, 1e300), cost=(1e-200, 1e-200), theta=(1e200, 1e200))
    with pytest.raises(ConvergenceError, match="stopped at s=0.0 "):
        solve_exact(scenario)


def test_closed_form_fails_cleanly_where_every_weight_underflows(tmp_path, capsys):
    # The scenario is feasible (load 2e-100), but the closed form's weights
    # sum to 0, so it has no split of the slack to give.
    sensor = {"mu": 1e300, "cost": 1e-200, "theta": 1e200}
    message = "every cost/theta underflows to 0"
    with pytest.raises(ValueError, match=message):
        solve_approx(Scenario.from_arrays(mu=(1e300, 1e300), cost=(1e-200, 1e-200), theta=(1e200, 1e200)))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"sensors": [sensor] * 2}))
    assert main(["approx", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1


def test_constants_are_kept_only_on_the_paths_that_use_them():
    scenario = scenario_at_load(4, 0.9, np.random.default_rng(5))
    solve_approx(scenario)
    assert "_root_constants" not in vars(scenario)
    assert {"_min_share", "_weight"} <= vars(scenario).keys()
    assert scenario._weight is scenario._weight
    solve_exact(scenario)
    kept = scenario._root_constants
    assert scenario._root_constants is kept and vars(scenario)["_root_constants"] is kept


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
