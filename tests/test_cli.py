import contextlib
import io
import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import paoiplan.cli as cli
from helpers import (
    avx512_levels,
    plan_to_dict,
    reference_closed_form,
    reference_exact,
    run_cli,
    scenario_at_load,
    ulps,
)
from paoiplan import AllocationPlan, SolveMethod, exponent_variational, solve_approx, solve_exact
from paoiplan.experiments import fig2_sweep, fig3_sweep
from paoiplan.solver_exact import ConvergenceError


@pytest.fixture
def scenario_file(tmp_path):
    def _write(payload, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text):
    """``json.loads`` that rejects the NaN and Infinity literals, which JSON lacks."""
    return json.loads(text, parse_constant=_reject_constant)


TWO_SYM = {"sensors": [{"mu": 1, "cost": 1, "theta": 0.25}, {"mu": 1, "cost": 1, "theta": 0.25}]}
BOUNDARY = {"sensors": [{"mu": 1, "cost": 1, "theta": 0.5}, {"mu": 1, "cost": 1, "theta": 0.5}]}


class TestSolveCommand:
    def test_symmetric_plan_output(self, scenario_file, capsys):
        rc = cli.main(["solve", scenario_file(TWO_SYM)])
        assert rc == 0
        plan = strict_loads(capsys.readouterr().out)
        assert plan["r"] == [0.5, 0.5]
        assert plan["lambda"] == pytest.approx(8.0, rel=1e-9)
        assert plan["total_cost"] == pytest.approx(8 * math.log(2), rel=1e-10)
        assert plan["method"] == "exact"

    def test_infeasible_scenario_exits_2(self, scenario_file, capsys):
        rc = cli.main(["solve", scenario_file(BOUNDARY)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_out_flag_writes_file(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = cli.main(["solve", scenario_file(TWO_SYM), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert strict_loads(out.read_text())["method"] == "exact"

    @pytest.mark.parametrize("command", ["solve", "approx"])
    def test_unrepresentable_headroom_exits_1_naming_the_sensor(self, scenario_file, capsys, command):
        # The cheap sensor's headroom above theta/mu is about 1e-400: below the floats.
        scenario = scenario_file({"sensors": [
            {"mu": 1, "cost": 1e200, "theta": 0.25}, {"mu": 1, "cost": 1e-200, "theta": 0.25},
        ]})
        assert cli.main([command, scenario]) == 1
        _one_error_line(capsys.readouterr(), "sensor 1: its headroom above theta/mu cannot be represented")

    def test_delay_underflowing_to_zero_exits_1_naming_the_sensor(self, scenario_file, capsys):
        # Sensor 0's theta/(mu*h) is about 1e-400, so its delay log1p(.)/theta
        # comes out as 0; before the refusal the plan's own check blamed b[0].
        scenario = scenario_file({"sensors": [
            {"mu": 1e200, "cost": 1, "theta": 1e-200}, {"mu": 1, "cost": 1, "theta": 0.25},
        ]})
        assert cli.main(["approx", scenario]) == 1
        _one_error_line(capsys.readouterr(), "sensor 0: its sampling delay underflows to 0 in floats")

    def test_nan_headroom_exits_1_naming_its_sensor(self, scenario_file, capsys):
        # Newton meets the slack at s = 996.0321200293114, where sensor 1's
        # q*s is just below the largest float; the plan is at 1/lam, one ulp
        # above s, where q*s is inf and the headroom inf/inf, not a number.
        # The closed form's headroom is a finite weight times the gate's
        # finite s, never NaN: it gives sensor 1 nearly all the slack, and
        # sensor 0's share rounds to theta/mu, which the plan check refuses.
        scenario = scenario_file(NAN_HEADROOM_AT_1_OVER_LAM)
        assert cli.main(["solve", scenario]) == 1
        _one_error_line(capsys.readouterr(), "sensor 1: its headroom above theta/mu is not a number")
        assert cli.main(["approx", scenario]) == 1
        _one_error_line(capsys.readouterr(), "sensor 0: service rate 0.5 does not exceed outage exponent")

    def test_unstable_plan_exits_1_and_writes_no_file(self, scenario_file, tmp_path, capsys):
        # theta**2 underflows; the closed form's r = 0.5 and b = 2 give nu*b = 1 exactly.
        scenario = scenario_file({"sensors": [{"mu": 1, "cost": 1, "theta": 1e-160}] * 2})
        out = tmp_path / "plan.json"
        assert cli.main(["approx", scenario, "--out", str(out)]) == 1
        _one_error_line(capsys.readouterr(), "sensor 0: nu*b = 1 <= 1, so its queue is unstable")
        assert not out.exists()

    @pytest.mark.parametrize("command,theta,budget", [("solve", 1e16, 1), ("approx", 3e16, 3)])
    def test_infeasible_error_names_the_budget(self, scenario_file, capsys, command, theta, budget):
        # budget - load rounds to -1e16 and to 4 - 3e16, so load + slack would read 0 and 4.
        scenario = scenario_file({"budget": budget, "sensors": [{"mu": 1, "cost": 1, "theta": theta}]})
        assert cli.main([command, scenario]) == 2
        _one_error_line(
            capsys.readouterr(), f"required load {theta:.6g} is not strictly below budget {budget}"
        )

    def test_convergence_error_exits_3(self, scenario_file, monkeypatch, capsys):
        def boom(scenario):
            raise ConvergenceError("stalled")

        monkeypatch.setattr(cli, "solve_exact", boom)
        rc = cli.main(["solve", scenario_file(TWO_SYM)])
        assert rc == 3


class TestFeasibleCommand:
    def test_feasible_exits_0(self, scenario_file, capsys):
        rc = cli.main(["feasible", scenario_file(TWO_SYM)])
        assert rc == 0
        report = strict_loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert report["load"] == 0.5

    def test_boundary_exits_2_with_report(self, scenario_file, capsys):
        rc = cli.main(["feasible", scenario_file(BOUNDARY)])
        assert rc == 2
        report = strict_loads(capsys.readouterr().out)
        assert report["feasible"] is False


# Loads past the floats: two theta/mu of 1e308 whose sum overflows fsum, and
# one theta/mu of 1e600 that overflows the division itself.
LOAD_PAST_THE_FLOATS = [
    {"sensors": [{"mu": 1, "cost": 1, "theta": 1e308}] * 2},
    {"sensors": [{"mu": 1e-300, "cost": 1, "theta": 1e300}, {"mu": 1, "cost": 1, "theta": 0.25}]},
]


@pytest.mark.parametrize("payload", LOAD_PAST_THE_FLOATS)
class TestLoadPastTheFloats:
    def test_feasible_exits_2_with_null_load_and_slack(self, scenario_file, capsys, payload):
        assert cli.main(["feasible", scenario_file(payload)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        report = strict_loads(captured.out)
        assert report == {"feasible": False, "load": None, "slack": None, "binding_sensors": [0, 1]}

    @pytest.mark.parametrize("command", ["solve", "approx"])
    def test_planners_exit_2_with_one_error_line(self, scenario_file, capsys, payload, command):
        assert cli.main([command, scenario_file(payload)]) == 2
        _one_error_line(capsys.readouterr(), "required load inf is not strictly below budget 1")


# Feasible, but the closed form's s = slack/sum(cost/theta), both planners'
# start, leaves the floats; each is refused at the gate with the same line.
# s overflows to inf: slack 8e299 over weights summing to 2e-299.
MULTIPLIER_START_OVERFLOWS = {"budget": 1e300, "sensors": [{"mu": 1, "cost": 1, "theta": 1e299}] * 2}
# Every cost/theta is inf, so their total is too, and s is 0.
EVERY_WEIGHT_PAST_THE_FLOATS = {"budget": 1.0, "sensors": [{"mu": 1, "cost": 1, "theta": 5e-324}] * 2}
# s underflows to 0: slack 8e-301 over weights summing to 2e301.
MULTIPLIER_START_UNDERFLOWS = {"budget": 1e-300, "sensors": [{"mu": 1, "cost": 1, "theta": 1e-301}] * 2}
# Every cost/theta underflows to 0, so s = slack/0 is inf.
EVERY_WEIGHT_UNDERFLOWS = {"budget": 1.0, "sensors": [{"mu": 1e300, "cost": 1e-200, "theta": 1e200}] * 2}
# Sensor 0's cost/theta overflows, so the weight total is inf and s is 0.
ONE_WEIGHT_PAST_THE_FLOATS = {"budget": 1.0, "sensors": [
    {"mu": 1e300, "cost": 1e200, "theta": 1e-200}, {"mu": 1, "cost": 1, "theta": 0.25},
]}
# Newton meets the slack at s, but sensor 1's q times 1/lam, an ulp above s, is inf.
NAN_HEADROOM_AT_1_OVER_LAM = {"budget": 10.0, "sensors": [
    {"mu": 1, "cost": 0.09537845024235195, "theta": 0.5},
    {"mu": 1e250, "cost": 4.5121364530127126e54, "theta": 1},
]}
# q*s overflows at Newton's first step, so every headroom there is inf/inf,
# and sensor 1's theta/(2*mu) underflows to 0 besides.
Q_TIMES_S_PAST_THE_FLOATS = {"budget": 1.7e308, "sensors": [
    {"mu": 1e200, "cost": 0.3, "theta": 0.3}, {"mu": 1e300, "cost": 1.0, "theta": 1e-200},
]}
# sum(cost/theta) overflows, so the closed form's s is 0.
WEIGHT_TOTAL_PAST_THE_FLOATS = {"budget": 3.0, "sensors": [{"mu": 1, "cost": 1.7e308, "theta": 1}] * 2}
# slack/sum(cost/theta) overflows, and sensor 1's cost/theta underflows to 0.
SLACK_SHARE_PAST_THE_FLOATS = {"budget": 1e300, "sensors": [
    {"mu": 1, "cost": 5e-324, "theta": 1}, {"mu": 1, "cost": 5e-324, "theta": 1e10},
]}
# mu*r overflows, so validate_for refuses a plan; neither planner makes one,
# as slack/sum(cost/theta) = 1e10/1e-299 overflows.
RATE_PAST_THE_FLOATS = {"budget": 1e10, "sensors": [{"mu": 1e300, "cost": 1, "theta": 1e299}]}
# The closed form's share is the budget, 1.5e308, and its delay about 4.6e-309,
# both finite, but mu*r is inf, so mu*r*b is too: validate_for refuses the plan.
LOAD_PAST_THE_FLOATS_PLAN = {"budget": 1.5e308, "sensors": [{"mu": 2, "cost": 1.5e308, "theta": 1.5e308}]}
# The closed form's delay costs are about 1.3e308 each: their sum passes the floats.
DELAY_COST_PAST_THE_FLOATS = {"budget": 2.5, "sensors": [{"mu": 1, "cost": 8e307, "theta": 1}] * 2}
# At the largest budget the closed form's headroom (weight*slack/total) and
# the exact plan's share (theta/mu + headroom) round past the floats, and
# the closed form's shares sum past them.
HEADROOM_PAST_THE_FLOATS = {"budget": 1.7976931348623157e308, "sensors": [
    {"mu": 1.0, "cost": 1.7976931348623157e308, "theta": 1e119},
]}
# Newton meets the slack, but the exact plan's share theta/mu + headroom rounds
# past the floats; the closed form's share does not.
SHARE_PAST_THE_FLOATS = {"budget": 1.7976931348623157e308, "sensors": [
    {"mu": 3.922160935068007e-170, "cost": 1.6355027925688198e177, "theta": 5.126667106072003e138},
]}
# At the largest budget both planners' share is the budget, and the plans
# pass the plan check.
SHARE_AT_THE_LARGEST_BUDGET = {"budget": 1.7976931348623157e308, "sensors": [
    {"mu": 1.8731774735900533e-298, "cost": 8.379351312905775e235, "theta": 1.0},
]}
# Newton meets the slack at s = 3.3203125e-309, where 1/s is inf.
MULTIPLIER_PAST_THE_FLOATS = {"budget": 8.5, "sensors": [{"mu": 1, "cost": 2e307, "theta": 1}] * 8}
# Feasible, but sensor 0's margin nu*b - 1, about theta/(2*nu) = 1.5e-100,
# is below an ulp, so the exact plan's queue reads as unstable.
MARGIN_BELOW_AN_ULP = {"budget": 1.0, "sensors": [
    {"mu": 1e300, "cost": 1e300, "theta": 1e200}, {"mu": 1, "cost": 1, "theta": 0.5},
]}
SHARE_SUM_PAST_THE_FLOATS = {"budget": 1.7976931348623157e308, "sensors": [
    {"mu": 5e-324, "cost": 5e-324, "theta": 5e-324},
    {"mu": 2.2250738585072014e-308, "cost": 1.0, "theta": 1.0},
]}

MULTIPLIER_START_PAST_THE_FLOATS = [  # each with the quotient slack/sum(cost/theta) it prints
    (MULTIPLIER_START_OVERFLOWS, "8e+299/2e-299"),
    (EVERY_WEIGHT_PAST_THE_FLOATS, "1/inf"),
    (MULTIPLIER_START_UNDERFLOWS, "8e-301/2e+301"),
    (EVERY_WEIGHT_UNDERFLOWS, "1/0"),
    (WEIGHT_TOTAL_PAST_THE_FLOATS, "1/inf"),
    (SLACK_SHARE_PAST_THE_FLOATS, "1e+300/4.94066e-324"),
    (ONE_WEIGHT_PAST_THE_FLOATS, "0.75/inf"),
    (RATE_PAST_THE_FLOATS, "1e+10/1e-299"),
]
GATE_LINE = "the closed form's 1/lambda = slack/sum(cost/theta) = {} is not a finite positive float"


@pytest.mark.parametrize("payload,quotient", MULTIPLIER_START_PAST_THE_FLOATS)
def test_both_planners_exit_1_with_the_gates_line_where_the_closed_forms_multiplier_leaves_the_floats(
    scenario_file, tmp_path, capsys, payload, quotient
):
    path = scenario_file(payload)
    assert cli.main(["feasible", path]) == 0
    capsys.readouterr()
    for command in ("solve", "approx"):
        out = tmp_path / "plan.json"
        assert cli.main([command, path, "--out", str(out)]) == 1
        _one_error_line(capsys.readouterr(), GATE_LINE.format(quotient))
        assert not out.exists()


NEWTON_PAST_THE_FLOATS = [  # feasible, and Newton starts inside the floats, but q or q*s leaves them
    ({"budget": 1.0, "sensors": [{"mu": 1, "cost": 1, "theta": 1e-160}] * 2}, "s=5e-161 "),
    (Q_TIMES_S_PAST_THE_FLOATS, "s=1.7e+108 "),
]


@pytest.mark.parametrize("payload,where", NEWTON_PAST_THE_FLOATS)
def test_solve_exits_3_with_one_error_line_where_newton_leaves_the_floats(
    scenario_file, capsys, payload, where
):
    # Warnings are errors under pytest, so a numpy warning fails this test.
    assert cli.main(["solve", scenario_file(payload)]) == 3
    _one_error_line(capsys.readouterr(), f"Newton on 1/lambda stopped at {where}")


@pytest.mark.parametrize("command,payload,message", [
    ("approx", DELAY_COST_PAST_THE_FLOATS,
     "sensor 0: the cost-weighted delay sum passes the floats, and its cost*b is the largest"),
    ("approx", LOAD_PAST_THE_FLOATS_PLAN, "sensor 0: nu*b = inf * 4.62098e-309 is past the floats"),
    # The budget bound is a difference, so it holds at the largest budget.
    ("approx", SHARE_SUM_PAST_THE_FLOATS, "shares sum to inf, above budget 1.79769313486e+308"),
    ("solve", SHARE_PAST_THE_FLOATS, "sensor 0: its share theta/mu + headroom passes the floats"),
    ("solve", MULTIPLIER_PAST_THE_FLOATS, "the budget multiplier lambda = 1/s passes the floats at s=3.3203125e-309"),
    ("solve", MARGIN_BELOW_AN_ULP, "sensor 0: nu*b = 1 <= 1, so its queue is unstable"),
])
def test_planner_exits_1_with_one_error_line_where_its_plan_leaves_the_floats(
    scenario_file, tmp_path, capsys, command, payload, message
):
    out = tmp_path / "plan.json"
    assert cli.main([command, scenario_file(payload), "--out", str(out)]) == 1
    _one_error_line(capsys.readouterr(), message)
    assert not out.exists()


@pytest.mark.parametrize("payload,exact_r,bound", [
    ({"budget": 1.0, "sensors": [{"mu": 1e300, "cost": 1, "theta": 1e299}] * 2}, 0.5000000000000001, 3.0),
    (SHARE_AT_THE_LARGEST_BUDGET, 1.7976931348623157e308, 1.0),
])
def test_both_planners_plan_within_the_references_at_the_edges_of_the_floats(
    scenario_file, tmp_path, payload, exact_r, bound
):
    # Each written plan passes the plan check, and its delays, cost and
    # multiplier are within bound ulps of the Decimal references fed the
    # exact inputs' slack (measured: 2.7 and 0.7 at most).
    path = scenario_file(payload)
    scenario = cli.load_scenario(path)
    for command, reference in (("solve", reference_exact), ("approx", reference_closed_form)):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, path, "--out", str(out)]) == 0
        plan = cli.load_plan(str(out))
        plan.validate_for(scenario)
        shares, delays, total_cost, *lam = reference(scenario)
        assert max(map(ulps, plan.r.tolist(), shares)) <= bound
        assert max(map(ulps, plan.b.tolist(), delays)) <= bound
        assert ulps(plan.total_cost, total_cost) <= bound
        if command == "solve":
            assert plan.r.tolist() == [exact_r] * scenario.n
            assert ulps(plan.lam, lam[0]) <= bound


def test_solve_share_bytes_do_not_depend_on_the_vector_units(tmp_path):
    # `paoiplan solve` writes the same shares with numpy's AVX-512 loops
    # disabled: the headroom is one sqrt per Newton step and IEEE
    # arithmetic, which round the same at every dispatch level.  The
    # expm1/log1p headroom gave other bits for 26 of these 1000 shares.  The
    # delays b are not compared: they take np.log1p, whose AVX-512 loop
    # rounds some inputs differently (41 of these 1000 delays, and 49 of
    # the closed form's).
    levels = avx512_levels()
    if not levels:
        pytest.skip("numpy dispatches no AVX-512 level on this CPU")
    scenario = scenario_at_load(1000, 0.9, np.random.default_rng(9))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"sensors": [
        {"mu": mu, "cost": cost, "theta": theta}
        for mu, cost, theta in zip(scenario.mu.tolist(), scenario.cost.tolist(), scenario.theta.tolist())
    ]}))
    shares = []
    for disabled in ("", " ".join(levels)):
        result = run_cli(["solve", str(path)], disabled)
        assert result.returncode == 0, result.stderr
        shares.append(np.array(json.loads(result.stdout)["r"]).tobytes())
    assert shares[1] == shares[0]


# Every field and the budget: log-uniform over the positive floats, or at an edge of them.
POSITIVE_FLOATS = st.one_of(
    st.sampled_from((5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308)),
    st.floats(math.log10(5e-324), math.log10(1.7e308)).map(lambda e: min(max(10.0**e, 5e-324), 1.7e308)),
)
SENSOR = st.fixed_dictionaries({"mu": POSITIVE_FLOATS, "cost": POSITIVE_FLOATS, "theta": POSITIVE_FLOATS})


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exits_cleanly(code, out, err):
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2, 3) and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@settings(max_examples=60, deadline=None)
@given(sensors=st.lists(SENSOR, min_size=1, max_size=4), budget=POSITIVE_FLOATS)
@example(**Q_TIMES_S_PAST_THE_FLOATS)
@example(**MULTIPLIER_START_OVERFLOWS)
@example(**EVERY_WEIGHT_PAST_THE_FLOATS)
@example(**MULTIPLIER_START_UNDERFLOWS)
@example(**EVERY_WEIGHT_UNDERFLOWS)
@example(**WEIGHT_TOTAL_PAST_THE_FLOATS)
@example(**SLACK_SHARE_PAST_THE_FLOATS)
@example(**ONE_WEIGHT_PAST_THE_FLOATS)
@example(**NAN_HEADROOM_AT_1_OVER_LAM)
@example(**RATE_PAST_THE_FLOATS)
@example(**DELAY_COST_PAST_THE_FLOATS)
@example(**HEADROOM_PAST_THE_FLOATS)
@example(**SHARE_PAST_THE_FLOATS)
@example(**SHARE_AT_THE_LARGEST_BUDGET)
@example(**MULTIPLIER_PAST_THE_FLOATS)
@example(**MARGIN_BELOW_AN_ULP)
@example(**SHARE_SUM_PAST_THE_FLOATS)
@example(**LOAD_PAST_THE_FLOATS_PLAN)
def test_every_command_exits_with_its_code_and_at_most_one_error_line(workdir, sensors, budget):
    # Warnings are errors under pytest, so a numpy warning fails this test.
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps({"budget": budget, "sensors": sensors}))
    code, out, err = _run(["feasible", str(scenario)])
    assert err == "" and (code == 0) == strict_loads(out)["feasible"] and code in (0, 2)
    refusals = {}
    for command in ("solve", "approx"):
        plan = workdir / "plan.json"
        code, out, err = _run([command, str(scenario), "--out", str(plan)])
        _exits_cleanly(code, out, err)
        refusals[command] = code, err
        if code == 0 and len(sensors) <= 2:
            # A written plan has passed validate_for, which simulate runs
            # again: only the peak ages may refuse it, never the plan check.
            code, out, err = _run(["simulate", str(scenario), str(plan), "--samples", "1000"])
            _exits_cleanly(code, out, err)
            assert code == 0 or err.startswith("error: peak ages overflow the floats at "), err
    # Both planners pass the same gate: where either prints its line, the other prints it too.
    if any(err.startswith("error: the closed form's 1/lambda") for _, err in refusals.values()):
        assert refusals["solve"] == refusals["approx"] and refusals["solve"][0] == 1, refusals


class TestSchemaValidation:
    def test_unknown_top_level_key(self, scenario_file, capsys):
        rc = cli.main(["solve", scenario_file({**TWO_SYM, "extra": 1})])
        assert rc == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_sensor_key(self, scenario_file, capsys):
        payload = {"sensors": [{"mu": 1, "cost": 1, "theta": 0.25, "label": "a"}]}
        assert cli.main(["solve", scenario_file(payload)]) == 1

    def test_missing_sensor_key(self, scenario_file, capsys):
        payload = {"sensors": [{"mu": 1, "cost": 1}]}
        assert cli.main(["solve", scenario_file(payload)]) == 1
        assert "missing keys" in capsys.readouterr().err

    def test_nonfinite_number_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"sensors": [{"mu": NaN, "cost": 1, "theta": 0.25}]}')
        assert cli.main(["solve", str(path)]) == 1
        assert "finite" in capsys.readouterr().err

    def test_nonpositive_value_rejected(self, scenario_file, capsys):
        payload = {"sensors": [{"mu": -1, "cost": 1, "theta": 0.25}]}
        assert cli.main(["solve", scenario_file(payload)]) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path / "absent.json")]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["solve", str(path)]) == 1

    def test_missing_argument_exits_1(self, capsys):
        assert cli.main(["solve"]) == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1


HUGE = 10**399  # a 400-digit JSON integer, beyond float range
PLAN = {"r": [0.5, 0.5], "b": [3.0, 3.0], "method": "exact", "total_cost": 6.0, "lambda": 8.0}


def _sensors(index, **entry):
    """TWO_SYM with sensor ``index`` updated by ``entry``."""
    sensors = [dict(sensor) for sensor in TWO_SYM["sensors"]]
    sensors[index].update(entry)
    return {"sensors": sensors}


def _one_error_line(captured, name):
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert name in lines[0], lines[0]


def test_written_plans_pass_the_plan_check_next_to_the_boundary(tmp_path, capsys):
    # At load 1 - 1e-15, theta/mu + h can round to theta/mu: such a plan
    # is refused naming its sensor, and every plan written passes the check.
    rng = np.random.default_rng(0)
    scenario_path = tmp_path / "scenario.json"
    outcomes = []
    for draw in range(40):
        scenario = scenario_at_load(10, 1.0 - 1e-15, rng)
        scenario_path.write_text(json.dumps({"sensors": [
            {"mu": m, "cost": c, "theta": t}
            for m, c, t in zip(scenario.mu.tolist(), scenario.cost.tolist(), scenario.theta.tolist())
        ]}))
        for command in ("solve", "approx"):
            out = tmp_path / f"{command}-{draw}.json"
            rc = cli.main([command, str(scenario_path), "--out", str(out)])
            captured = capsys.readouterr()
            if rc == 0:
                cli.load_plan(out).validate_for(scenario)
            else:
                assert rc == 1 and not out.exists()
                _one_error_line(captured, "error: sensor ")
            outcomes.append(rc)
    assert set(outcomes) == {0, 1}


@pytest.mark.parametrize("payload,name", [
    ([TWO_SYM], "scenario file"),
    ({**TWO_SYM, "extra": 1}, "extra"),
    ({"budget": 1.0}, "sensors"),
    ({"sensors": TWO_SYM["sensors"][0]}, "sensors"),
    ({"sensors": []}, "sensors"),
    ({"sensors": [TWO_SYM["sensors"][0], 1.0]}, "sensors[1]"),
    (_sensors(1, label="a"), "label"),
    ({"sensors": [{"mu": 1, "cost": 1}]}, "theta"),
    (_sensors(1, mu=True), "sensors[1].mu"),
    (_sensors(1, cost="1.0"), "sensors[1].cost"),
    (_sensors(0, theta=None), "sensors[0].theta"),
    ({**TWO_SYM, "budget": False}, "budget"),
    (_sensors(1, mu=math.nan), "Scenario.mu[1]"),
    (_sensors(1, cost=-1), "Scenario.cost[1]"),
    (_sensors(1, theta=HUGE), "Scenario.theta[1]"),
    ({**TWO_SYM, "budget": HUGE}, "Scenario.budget"),
    # Three keys, one of them unknown: the first such entry is named, also
    # ahead of a later entry that is not an object.
    ({"sensors": [TWO_SYM["sensors"][0], {"mu": 1, "cost": 1, "label": "a"}]},
     "sensors[1] has unknown keys: ['label']"),
    ({"sensors": [{"mu": 1, "cost": 1, "label": "a"}, 1.0]}, "sensors[0] has unknown keys: ['label']"),
])
def test_scenario_schema_errors_name_the_field(scenario_file, capsys, payload, name):
    assert cli.main(["solve", scenario_file(payload)]) == 1
    _one_error_line(capsys.readouterr(), name)


@pytest.mark.parametrize("change,name", [
    ({"r": 0.5}, "'r'"),
    ({"b": []}, "'b'"),
    ({"r": [0.5, "0.5"]}, "r[1]"),
    ({"b": [math.nan, 3.0]}, "AllocationPlan.b[0]"),
    ({"r": [HUGE, 0.5]}, "AllocationPlan.r[0]"),
    ({"b": [3.0]}, "r, b"),
    ({"method": "greedy"}, "method"),
    ({"total_cost": True}, "total_cost"),
    ({"total_cost": HUGE}, "total_cost"),
    ({"lambda": HUGE}, "AllocationPlan.lam"),
])
def test_plan_schema_errors_name_the_field(scenario_file, tmp_path, capsys, change, name):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({**PLAN, **change}))
    assert cli.main(["simulate", scenario_file(TWO_SYM), str(plan_path), "--samples", "1000"]) == 1
    _one_error_line(capsys.readouterr(), name)


class TestExponentCommand:
    def test_cross_checked_exponents(self, capsys):
        rc = cli.main(["exponent", "--nu", "1", "--b", "2"])
        assert rc == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["psi_root"] == pytest.approx(0.7968121300200199, abs=1e-9)
        assert abs(payload["psi_variational"] - payload["psi_root"]) <= 1e-6
        assert payload["argmin_t"] > 0

    def test_no_decay_regime_serializes_null_minimizer(self, capsys):
        rc = cli.main(["exponent", "--nu", "1", "--b", "1"])
        assert rc == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["psi_variational"] == 0.0
        assert payload["argmin_t"] is None

    @pytest.mark.parametrize("nu,b,printed", [
        ("1", "20", True), ("0.5", "40", True), ("1", "20.000001", False), ("1", "30", False), ("1", "700", False),
    ])
    def test_argmin_t_is_null_past_its_error_bound(self, capsys, nu, b, printed):
        # Printed up to c = nu*b = 20, where it measured within 4.3e-4 of the
        # true minimizer; at c = 700 it would read 9.2e18 against about e^700.
        assert cli.main(["exponent", "--nu", nu, "--b", b]) == 0
        payload = strict_loads(capsys.readouterr().out)
        expected = exponent_variational(float(nu), float(b))
        assert payload["psi_variational"] == expected.psi
        assert payload["argmin_t"] == (expected.argmin_t if printed else None)

    def test_nonpositive_rate_exits_1(self, capsys):
        assert cli.main(["exponent", "--nu", "0", "--b", "2"]) == 1

    @pytest.mark.parametrize("nu,b", [("1", "inf"), ("inf", "2"), ("nan", "2"), ("1e300", "1e300")])
    def test_nonfinite_input_exits_1(self, capsys, nu, b):
        # Exit 0 here would print NaN, which is not JSON.
        assert cli.main(["exponent", "--nu", nu, "--b", b]) == 1
        _one_error_line(capsys.readouterr(), "must be finite")


class TestSimulateRoundTrip:
    def test_plan_file_round_trips_at_full_precision(self, scenario_file, tmp_path, capsys):
        scenario = scenario_file(TWO_SYM)
        plan_path = tmp_path / "plan.json"
        assert cli.main(["solve", scenario, "--out", str(plan_path)]) == 0
        written = strict_loads(plan_path.read_text())

        loaded = cli.load_plan(plan_path)
        assert list(loaded.r) == written["r"]
        assert list(loaded.b) == written["b"]
        assert loaded.lam == written["lambda"]

        ccdf_path = tmp_path / "ccdf.csv"
        rc = cli.main([
            "simulate", scenario, str(plan_path),
            "--samples", "2000", "--seed", "5", "--ccdf", str(ccdf_path),
        ])
        assert rc == 0
        estimates = strict_loads(capsys.readouterr().out)
        assert len(estimates) == 2
        assert estimates[0]["paoi_samples_summary"]["count"] == 2000
        header, *rows = ccdf_path.read_text().splitlines()
        assert header == "sensor_index,x,ccdf,ln_ccdf"
        assert {row.split(",")[0] for row in rows} == {"0", "1"}
        for row in rows:
            _, x, ccdf, ln_ccdf = map(float, row.split(","))
            assert ln_ccdf == math.log(ccdf)  # repr round-trips exactly

    @pytest.mark.parametrize("args,name", [
        (["--seed", "-1"], "seed"),
        (["--samples", "999"], "num_samples"),
        # Refused when the config is built, before any sample map is made.
        (["--samples", "100000000000000000000000"], "num_samples must be at most"),
    ])
    def test_bad_sim_config_exits_1_naming_the_value(self, scenario_file, tmp_path, capsys, args, name):
        scenario = scenario_file(TWO_SYM)
        plan_path = tmp_path / "plan.json"
        assert cli.main(["solve", scenario, "--out", str(plan_path)]) == 0
        assert cli.main(["simulate", scenario, str(plan_path), *args]) == 1
        _one_error_line(capsys.readouterr(), name)

    def test_plan_scenario_mismatch_exits_1(self, scenario_file, tmp_path, capsys):
        single = {"sensors": [{"mu": 1, "cost": 1, "theta": 0.25}]}
        scenario = scenario_file(TWO_SYM)
        plan_path = tmp_path / "plan.json"
        assert cli.main(["solve", scenario_file(single, "single.json"), "--out", str(plan_path)]) == 0
        assert cli.main(["simulate", scenario, str(plan_path), "--samples", "1000"]) == 1

    def test_approx_plan_round_trips_through_simulate(self, scenario_file, tmp_path, capsys):
        scenario = scenario_file(TWO_SYM)
        plan_path = tmp_path / "plan.json"
        assert cli.main(["approx", scenario, "--out", str(plan_path)]) == 0
        assert cli.main(["simulate", scenario, str(plan_path), "--samples", "1000"]) == 0

    def test_over_budget_plan_exits_1(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "r": [0.9, 0.9], "b": [0.5, 0.5], "method": "exact", "total_cost": 1.0,
        }))
        assert cli.main(["simulate", scenario_file(TWO_SYM), str(plan_path), "--samples", "1000"]) == 1
        assert "above budget" in capsys.readouterr().err

    def test_plan_over_a_tiny_budget_exits_1(self, scenario_file, tmp_path, capsys):
        # The exact plan's shares times 500 sum to 5e-10, 500 budgets over.
        tiny = {"budget": 1e-12, "sensors": [{"mu": 1, "cost": 1, "theta": 0.25e-12}] * 2}
        scenario = scenario_file(tiny)
        plan_path = tmp_path / "plan.json"
        assert cli.main(["solve", scenario, "--out", str(plan_path)]) == 0
        plan = strict_loads(plan_path.read_text())
        plan_path.write_text(json.dumps({**plan, "r": [500 * r for r in plan["r"]]}))
        assert cli.main(["simulate", scenario, str(plan_path), "--samples", "1000"]) == 1
        _one_error_line(capsys.readouterr(), "above budget")

    def test_unstable_queue_exits_1(self, scenario_file, tmp_path, capsys):
        # Shares within the budget and above theta, but nu*b = 0.5 <= 1.
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "r": [0.5, 0.5], "b": [1.0, 1.0], "method": "exact", "total_cost": 2.0,
        }))
        assert cli.main(["simulate", scenario_file(TWO_SYM), str(plan_path), "--samples", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sensor 0" in captured.err and "unstable" in captured.err

    def test_rate_past_the_floats_exits_1_with_one_error_line(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"r": [1e10], "b": [1.0], "method": "approx", "total_cost": 1.0}))
        assert cli.main(["simulate", scenario_file(RATE_PAST_THE_FLOATS), str(plan_path)]) == 1
        _one_error_line(capsys.readouterr(), "sensor 0: nu*b = inf * 1 is past the floats")

    def test_plan_whose_load_passes_the_floats_exits_1(self, scenario_file, tmp_path, capsys):
        # The plan approx refuses to write, written by hand: simulate's plan check refuses it.
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"r": [1.5e308], "b": [4.62098e-309], "method": "approx", "total_cost": 1.5e308 * 4.62098e-309}
        ))
        assert cli.main(["simulate", scenario_file(LOAD_PAST_THE_FLOATS_PLAN), str(plan_path)]) == 1
        _one_error_line(capsys.readouterr(), "sensor 0: nu*b = inf * 4.62098e-309 is past the floats")

    def test_delay_cost_past_the_floats_matches_no_total_cost(self, scenario_file, tmp_path, capsys):
        # cost*b = 1e310 is inf, and |1e308 - inf| <= 1e-9 * inf held.
        scenario = scenario_file({"sensors": [{"mu": 1, "cost": 1e300, "theta": 0.25}]})
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"r": [1.0], "b": [1e10], "method": "approx", "total_cost": 1e308}))
        assert cli.main(["simulate", scenario, str(plan_path), "--samples", "1000"]) == 1
        _one_error_line(capsys.readouterr(), "total_cost 1e+308 does not match recomputed value inf")

    def test_plan_schema_rejects_unknown_keys(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "r": [1.0], "b": [1.0], "method": "exact", "total_cost": 1.0, "note": "x",
        }))
        assert cli.main(["simulate", scenario_file(TWO_SYM), str(plan_path)]) == 1

    def test_approx_plan_omits_lambda(self, scenario_file, capsys):
        rc = cli.main(["approx", scenario_file(TWO_SYM)])
        assert rc == 0
        plan = strict_loads(capsys.readouterr().out)
        assert "lambda" not in plan
        assert plan["method"] == "approx"


# Floats whose shortest repr takes each of its forms: subnormal, smallest
# normal, exponent notation on both sides, a trailing ".0", the largest float.
AWKWARD = (5e-324, 2.2250738585072014e-308, 1e-7, 0.1, 1e16, 123456789.0, 1.7976931348623157e308)


def _awkward_plans():
    # Every rotation of AWKWARD puts each float in r, b, total_cost and lambda.
    for n in (1, 3):
        for shift in range(len(AWKWARD)):
            values = AWKWARD[shift:] + AWKWARD[:shift]
            r, b, total_cost, lam = values[:n], values[n:2 * n], values[2 * n], values[(2 * n + 1) % 7]
            yield AllocationPlan(r, b, SolveMethod.APPROX, total_cost)
            yield AllocationPlan(r, b, SolveMethod.EXACT, total_cost, lam)


THREE = {"budget": 2.5, "sensors": [
    {"mu": 1, "cost": 3, "theta": 0.25},
    {"mu": 2.5, "cost": 0.7, "theta": 0.4},
    {"mu": 0.3, "cost": 1, "theta": 0.1},
]}


class TestPlanWriter:
    @pytest.mark.parametrize("plan", list(_awkward_plans()))
    def test_written_plan_is_json_dumps_indent_2(self, plan, tmp_path, capsys):
        expected = json.dumps(plan_to_dict(plan), indent=2) + "\n"
        out = tmp_path / "plan.json"
        cli._emit(plan, str(out))
        assert out.read_text() == expected
        cli._emit(plan)
        assert capsys.readouterr().out == expected
        assert cli.load_plan(out) == plan

    @pytest.mark.parametrize("command,planner", [("solve", solve_exact), ("approx", solve_approx)])
    @pytest.mark.parametrize("payload", [TWO_SYM, THREE])
    def test_stdout_equals_out_file_and_reads_back(
        self, scenario_file, tmp_path, capsys, command, planner, payload
    ):
        scenario = scenario_file(payload)
        assert cli.main([command, scenario]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "plan.json"
        assert cli.main([command, scenario, "--out", str(out)]) == 0
        assert out.read_text() == stdout
        plan = planner(cli.load_scenario(scenario))
        assert stdout == json.dumps(plan_to_dict(plan), indent=2) + "\n"
        assert cli.load_plan(out) == plan


class TestSweepCommands:
    def test_fig3_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        rc = cli.main(["fig3", "--n", "4", "--reps", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,c_max,mean_exact_cost,mean_approx_cost,mean_gap,stderr_gap"
        assert len(lines) == 2
        assert lines[1].startswith("4,10.0,")
        (row,) = fig3_sweep([4], 10.0, 3, seed=1)
        assert [float(cell) for cell in lines[1].split(",")] == list(astuple(row))

    def test_fig3_rejects_bad_n_list(self, tmp_path, capsys):
        assert cli.main(["fig3", "--n", "4,x", "--out", str(tmp_path / "f.csv")]) == 1

    def test_fig3_rejects_an_n_list_without_sizes(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert cli.main(["fig3", "--n", ",", "--out", str(out)]) == 1
        _one_error_line(capsys.readouterr(), "--n must name at least one system size")
        assert not out.exists()

    def test_fig3_rejects_infinite_cost_ceiling(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert cli.main(["fig3", "--n", "4", "--cmax", "inf", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "c_max" in captured.err
        assert not out.exists()

    def test_fig3_negative_seed_exits_1_naming_the_seed(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert cli.main(["fig3", "--n", "4", "--seed", "-1", "--out", str(out)]) == 1
        _one_error_line(capsys.readouterr(), "seed must be non-negative, got -1")
        assert not out.exists()

    def test_fig3_default_sizes_hit_the_generation_limit(self, tmp_path, capsys):
        # The default size list ends at 16, which the exponent ramp cannot
        # produce; the command must fail loudly rather than emit a partial CSV.
        out = tmp_path / "fig3.csv"
        rc = cli.main(["fig3", "--reps", "2", "--out", str(out)])
        assert rc == 1
        assert "0.5/n" in capsys.readouterr().err
        assert not out.exists()

    def test_fig2_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        rc = cli.main(["fig2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "c1,theta1,exact_b1,approx_b1"
        assert len(lines) == 1 + 3 * 16  # three cost levels, sixteen feasible grid points
        written = [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]
        assert written == [astuple(row) for row in fig2_sweep()]  # repr round-trips exactly
