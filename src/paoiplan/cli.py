"""Command-line front end: scenario I/O, planning, analysis, and sweeps.

Every command's JSON result goes out through ``_emit`` as 2-space indented
JSON.  A plan (``solve``, ``approx``) is written by ``_plan_json`` in the
bytes ``json.dumps(..., indent=2)`` gives its keys ``r``, ``b``, ``method``,
``total_cost`` and, for exact plans only, ``lambda``: its ``r`` and ``b``
columns go through ``_floatrepr.join_reprs``, a numpy kernel that writes
each float as its ``repr``, and every other result through ``json.dumps``.

Exit codes: 0 success, 1 schema or argument error (for ``simulate``,
``solve`` and ``approx`` also a plan that ``AllocationPlan.validate_for``
refuses, and for ``solve`` and ``approx`` a plan that floats cannot
represent), 2 infeasibility (a load past the floats included, which
``feasible`` writes as a ``null`` load and slack), 3 numerical
non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, astuple, fields

from ._floatrepr import join_reprs
from .experiments import FIG3_DEFAULT_N_VALUES, CostGapRow, TradeoffRow, fig2_sweep, fig3_sweep
from .feasibility import InfeasibleScenarioError, check_feasibility
from .ldp import exponent_root, exponent_variational
from .model import AllocationPlan, Scenario, SolveMethod
from .sim import SimConfig, simulate_plan
from .solver_approx import solve_approx
from .solver_exact import ConvergenceError, solve_exact

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NONCONVERGED = 3

_SCENARIO_KEYS = {"budget", "sensors"}
_SENSOR_COLUMNS = ("mu", "cost", "theta")
_SENSOR_KEYS = set(_SENSOR_COLUMNS)
_PLAN_KEYS = {"r", "b", "method", "total_cost", "lambda"}
# ``exponent`` prints the variational minimizer up to this load c = nu*b and
# null past it.  Against an 80-digit minimizer its relative error measured at
# most 4.3e-4 over 401 loads from 1 + 1e-6 to 20; past 20 it grows to 3% at 30
# and loses all meaning past about 37 (``ldp.ExponentResult``).
_ARGMIN_T_MAX_LOAD = 20.0


class CliError(Exception):
    """Schema or argument problem that maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; route through CliError
    # so the exit-code contract (1 for argument errors) holds.
    def error(self, message):
        raise CliError(message)


def _check_object(value, where: str, keys: set, required: set) -> None:
    if not isinstance(value, dict):
        raise CliError(f"{where} must be a JSON object")
    unknown = value.keys() - keys
    if unknown:
        raise CliError(f"{where} has unknown keys: {sorted(unknown)}")
    missing = required - value.keys()
    if missing:
        raise CliError(f"{where} is missing keys: {sorted(missing)}")


def _read_object(path, kind: str, keys: set, required: set) -> dict:
    # Integers decode as floats, so one beyond float range reads as inf and
    # fails the model's finite check like any other non-finite number.
    try:
        with open(path) as handle:
            data = json.load(handle, parse_int=float)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}") from exc
    _check_object(data, f"{kind} file {path}", keys, required)
    return data


def _number(value, name: str) -> float:
    if type(value) is not float:
        raise CliError(f"{name} must be a number, got {value!r}")
    return value


def _numbers(values: list, name: str) -> list:
    # Types only: the model checks the values.  ``name.format(i)`` labels entry i.
    if not {float}.issuperset(map(type, values)):
        for i, value in enumerate(values):
            _number(value, name.format(i))
    return values


def _build(where: str, factory, *args):
    try:
        return factory(*args)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc


def _sensor_columns(sensors: list) -> list:
    """The sensor entries' mu, cost and theta columns; CliError names the first bad entry."""
    # A dict of three keys that include mu, cost and theta has exactly those
    # keys, so a valid file costs a type pass, a length pass and the reads.
    if {dict}.issuperset(map(type, sensors)) and {3}.issuperset(map(len, sensors)):
        try:
            return [[entry[k] for entry in sensors] for k in _SENSOR_COLUMNS]
        except KeyError:
            pass
    for index, entry in enumerate(sensors):
        _check_object(entry, f"sensors[{index}]", _SENSOR_KEYS, _SENSOR_KEYS)
    raise AssertionError("sensor entries valid one by one were refused as columns")


def load_scenario(path) -> Scenario:
    """Read a scenario file; CliError names a bad key, ``sensors[i].k`` or ``Scenario.mu[i]``."""
    data = _read_object(path, "scenario", _SCENARIO_KEYS, {"sensors"})
    sensors = data["sensors"]
    if not isinstance(sensors, list) or not sensors:
        raise CliError(f"scenario file {path} needs a nonempty 'sensors' array")
    columns = zip(_SENSOR_COLUMNS, _sensor_columns(sensors))
    mu, cost, theta = (_numbers(column, "sensors[{}]." + key) for key, column in columns)
    budget = _number(data.get("budget", 1.0), "budget")
    return _build(f"scenario file {path}", Scenario.from_arrays, mu, cost, theta, budget)


def load_plan(path) -> AllocationPlan:
    """Read a plan file; CliError names a bad key, ``r[i]`` or ``AllocationPlan.r[i]``."""
    data = _read_object(path, "plan", _PLAN_KEYS, _PLAN_KEYS - {"lambda"})
    for key in ("r", "b"):
        if not isinstance(data[key], list) or not data[key]:
            raise CliError(f"plan file {path}: '{key}' must be a nonempty array")
    try:
        method = SolveMethod(data["method"])
    except ValueError as exc:
        raise CliError(f"plan file {path}: unknown method {data['method']!r}") from exc
    lam = data.get("lambda")
    return _build(
        f"plan file {path}", AllocationPlan,
        _numbers(data["r"], "r[{}]"),
        _numbers(data["b"], "b[{}]"),
        method,
        _number(data["total_cost"], "total_cost"),
        None if lam is None else _number(lam, "lambda"),
    )


def _plan_json(plan: AllocationPlan) -> str:
    """The plan's JSON text, as ``json.dumps(..., indent=2)`` writes its fields.

    JSON writes a finite float as its ``repr``.  A plan's ``r`` and ``b`` are
    nonempty columns of finite positive floats, so ``join_reprs`` writes
    them, byte for byte the joined reprs, in a few numpy passes per column
    rather than one ``float.__repr__`` call per value; ``total_cost`` and
    ``lambda`` are single reprs.
    """
    text = [
        '{\n  "r": [\n    ', join_reprs(plan.r),
        '\n  ],\n  "b": [\n    ', join_reprs(plan.b),
        f'\n  ],\n  "method": "{plan.method.value}",\n  "total_cost": {plan.total_cost!r}',
    ]
    if plan.lam is not None:
        text.append(f',\n  "lambda": {plan.lam!r}')
    text.append("\n}")
    return "".join(text)


def _emit(result, out_path=None) -> None:
    """Write one command's result as JSON to ``out_path``, or to stdout when it is None."""
    text = _plan_json(result) if isinstance(result, AllocationPlan) else json.dumps(result, indent=2)
    if out_path:
        with open(out_path, "w") as handle:
            print(text, file=handle)
    else:
        print(text)


def _write_csv(path, header, rows) -> None:
    """Write one header line, then each row with every cell as its ``repr``.

    Every CSV the CLI writes goes through here; the fig2/fig3 column names
    are the row dataclasses' field names.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([repr(cell) for cell in row] for row in rows)


def _cmd_feasible(args) -> int:
    report = check_feasibility(load_scenario(args.scenario))
    result = asdict(report)
    for key in ("load", "slack"):  # a load past the floats: JSON has no infinity
        if not math.isfinite(result[key]):
            result[key] = None
    _emit(result)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    plan = args.planner(scenario)
    plan.validate_for(scenario)  # the check simulate makes: no plan is written that it refuses
    _emit(plan, args.out)
    return EXIT_OK


def _cmd_exponent(args) -> int:
    variational = exponent_variational(args.nu, args.b)
    root = exponent_root(args.nu, args.b)
    # argmin_t is +inf at c <= 1, where the infimum is only approached.
    trusted = math.isfinite(variational.argmin_t) and args.nu * args.b <= _ARGMIN_T_MAX_LOAD
    _emit({
        "psi_variational": variational.psi,
        "psi_root": root,
        "argmin_t": variational.argmin_t if trusted else None,
    })
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    plan = load_plan(args.plan)
    config = SimConfig(num_samples=args.samples, seed=args.seed)
    estimates = simulate_plan(scenario, plan, config)
    _emit([asdict(e) for e in estimates])
    if args.ccdf:
        _write_csv(args.ccdf, ("sensor_index", "x", "ccdf", "ln_ccdf"), (
            (index, x, p, math.log(p))
            for index, estimate in enumerate(estimates)
            for x, p in estimate.ccdf_points
        ))
    return EXIT_OK


def _cmd_fig2(args) -> int:
    rows = fig2_sweep()
    _write_csv(args.out, [f.name for f in fields(TradeoffRow)], map(astuple, rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_fig3(args) -> int:
    try:
        n_values = [int(part) for part in args.n.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"--n must be a comma-separated integer list, got {args.n!r}") from exc
    if not n_values:
        raise CliError("--n must name at least one system size")
    rows = fig3_sweep(n_values, args.cmax, args.reps, args.seed)
    _write_csv(args.out, [f.name for f in fields(CostGapRow)], map(astuple, rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="paoiplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feasible", help="check a scenario against its budget")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("solve", help="exact joint plan")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="write the plan JSON here instead of stdout")
    p.set_defaults(func=_cmd_plan, planner=solve_exact)

    p = sub.add_parser("approx", help="closed-form approximate plan")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="write the plan JSON here instead of stdout")
    p.set_defaults(func=_cmd_plan, planner=solve_approx)

    p = sub.add_parser("exponent", help="tail exponent for one (rate, delay) pair")
    p.add_argument("--nu", type=float, required=True, help="service rate")
    p.add_argument("--b", type=float, required=True, help="sampling delay")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("simulate", help="Monte Carlo tail check of a plan")
    p.add_argument("scenario")
    p.add_argument("plan")
    p.add_argument("--samples", type=int, default=SimConfig.num_samples)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ccdf", default=None, help="write per-sensor CCDF points to this CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fig2", help="delay-versus-exponent trade-off sweep CSV")
    p.add_argument("--out", default="fig2.csv")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", help="cost-gap sweep CSV over system sizes")
    p.add_argument("--n", default=",".join(str(n) for n in FIG3_DEFAULT_N_VALUES))
    p.add_argument("--cmax", type=float, default=10.0)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="fig3.csv")
    p.set_defaults(func=_cmd_fig3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasibleScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
