"""The plan writer's float kernel against ``repr``, byte for byte."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import plan_to_dict, scenario_at_load
import paoiplan
from paoiplan import cli, solve_approx, solve_exact
from paoiplan._floatrepr import join_reprs

SEPARATOR = ",\n    "  # a plan column's, as json.dumps(indent=2) writes it


def reference(values: np.ndarray) -> str:
    return SEPARATOR.join(map(repr, values.tolist()))


def assert_matches_repr(values: np.ndarray) -> None:
    text = join_reprs(values)
    expected = reference(values)
    if text != expected:
        got, want = text.split(SEPARATOR), expected.split(SEPARATOR)
        bad = [(w, g) for w, g in zip(want, got) if w != g][:5]
        pytest.fail(f"{len(got)} texts for {len(want)} values; first mismatches (repr, kernel): {bad}")


def test_random_bit_patterns():
    bits = np.random.default_rng(20251020).integers(1, 0x7FF0_0000_0000_0000, 1_000_000, dtype=np.uint64)
    assert_matches_repr(bits.view(np.float64))


def test_every_power_of_two_and_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    neighbours = [np.nextafter(powers, np.inf), np.nextafter(powers[1:], 0.0)]
    assert_matches_repr(np.concatenate([powers, *neighbours]))


def test_smallest_subnormals():
    assert_matches_repr(np.arange(1, 2**16 + 1, dtype=np.uint64).view(np.float64))


def test_powers_of_ten():
    assert_matches_repr(np.array([float(f"1e{e}") for e in range(-323, 309)]))


def test_layout_boundaries():
    values = np.array([
        1e-4, 1e-5, 1e16, 9999999999999998.0, 1.2345678901234568e+17,
        0.5, 1.0, 100.0, 123456.0, 0.001234, 5e-324, 8e-323, 1e-100, 1e100, 1.7976931348623157e308,
    ])
    assert_matches_repr(values)
    assert join_reprs(values[:1]) == "0.0001"


@given(
    st.lists(
        st.floats(min_value=5e-324, max_value=1.7976931348623157e308, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
)
def test_any_positive_finite_floats(values):
    assert_matches_repr(np.array(values))


def test_large_plan_files_are_json_dumps_indent_2(capsys):
    # The benchmark's large case: n = 1e5 at load 0.99, both planners.
    scenario = scenario_at_load(100_000, 0.99, np.random.default_rng(1))
    for plan in (solve_exact(scenario), solve_approx(scenario)):
        cli._emit(plan)
        assert capsys.readouterr().out == json.dumps(plan_to_dict(plan), indent=2) + "\n"


def test_package_import_leaves_the_kernel_unloaded():
    src = str(Path(paoiplan.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import paoiplan; print('paoiplan._floatrepr' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
