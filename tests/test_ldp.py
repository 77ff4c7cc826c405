import math

import numpy as np
import pytest

from paoiplan import (
    exponent_root,
    exponent_variational,
    lmgf_exponential,
    optimal_sampling_delay,
)

# Frozen from an independent dev-time bisection of ln(nu/(nu-theta)) = theta*b,
# cross-checked against a two-million-point grid minimization of the
# variational objective (agreement to 2e-11).
THETA_STAR_1_2 = 0.7968121300200199
THETA_STAR_1_3 = 0.9404797907073597


class TestExponentRoot:
    def test_reference_values(self):
        assert exponent_root(1.0, 2.0) == pytest.approx(THETA_STAR_1_2, abs=1e-9)
        assert exponent_root(1.0, 3.0) == pytest.approx(THETA_STAR_1_3, abs=1e-9)

    def test_bracket_sanity_around_reference_root(self):
        # Just below the root the tail condition still holds, just above it fails.
        assert lmgf_exponential(1.0, 0.79) == pytest.approx(1.5606, abs=1e-4)
        assert lmgf_exponential(1.0, 0.79) < 0.79 * 2.0
        assert lmgf_exponential(1.0, 0.80) == pytest.approx(math.log(5), abs=1e-12)
        assert lmgf_exponential(1.0, 0.80) > 0.80 * 2.0

    def test_scaling_property(self):
        assert exponent_root(2.0, 1.0) == pytest.approx(2 * THETA_STAR_1_2, abs=1e-9)
        for c in (0.25, 0.5, 4.0):
            assert exponent_root(c * 1.0, 2.0 / c) == pytest.approx(
                c * THETA_STAR_1_2, rel=1e-9
            )

    @pytest.mark.parametrize("nu,b", [(1.0, 1.0), (2.0, 0.5), (1.0, 0.3)])
    def test_no_decay_regime_returns_zero(self, nu, b):
        assert exponent_root(nu, b) == 0.0

    def test_round_trip_with_optimal_delay(self):
        for nu in (0.5, 1.0, 2.0):
            for theta in np.linspace(0.05, 0.95, 19) * nu:
                b = optimal_sampling_delay(nu, theta)
                assert exponent_root(nu, b) == pytest.approx(theta, abs=1e-9)


class TestExponentVariational:
    def test_agrees_with_root_at_references(self):
        for nu, b, expected in [(1.0, 2.0, THETA_STAR_1_2), (1.0, 3.0, THETA_STAR_1_3)]:
            result = exponent_variational(nu, b)
            assert abs(result.psi - exponent_root(nu, b)) <= 1e-6
            assert result.psi == pytest.approx(expected, abs=1e-6)

    def test_minimizer_diagnostic(self):
        result = exponent_variational(1.0, 2.0)
        assert result.argmin_t == pytest.approx(2.9216, abs=1e-2)

    def test_boundary_gives_zero_and_infinite_minimizer(self):
        result = exponent_variational(1.0, 1.0)
        assert result.psi == 0.0
        assert result.argmin_t == math.inf

    def test_monotone_in_delay_and_rate(self):
        psis_b = [exponent_variational(1.0, b).psi for b in np.linspace(1.2, 8.0, 15)]
        assert all(a <= b + 1e-12 for a, b in zip(psis_b, psis_b[1:]))
        psis_nu = [exponent_variational(nu, 2.0).psi for nu in np.linspace(0.6, 5.0, 15)]
        assert all(a <= b + 1e-12 for a, b in zip(psis_nu, psis_nu[1:]))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_arguments(self, bad):
        with pytest.raises(ValueError):
            exponent_variational(bad, 2.0)
        with pytest.raises(ValueError):
            exponent_variational(1.0, bad)


@pytest.mark.parametrize("nu,b", [
    (1.0, math.inf), (math.inf, 2.0), (math.nan, 2.0), (1.0, math.nan), (1e300, 1e300),
])
def test_both_routes_reject_nonfinite_inputs(nu, b):
    # A non-finite rate, delay or product would make the variational route return NaN.
    with pytest.raises(ValueError, match="must be finite"):
        exponent_variational(nu, b)
    with pytest.raises(ValueError, match="must be finite"):
        exponent_root(nu, b)


@pytest.mark.parametrize("nu,b", [(1.0, 2.0), (2.0, 1.5), (1.0, 0.5)])
def test_numpy_scalar_inputs_give_the_python_float_result(nu, b):
    # A plan's delays are numpy scalars; both routes must return what they
    # return for Python floats, as Python floats.
    root = exponent_root(np.float64(nu), np.float64(b))
    assert type(root) is float and root == exponent_root(nu, b)
    result = exponent_variational(np.float64(nu), np.float64(b))
    assert type(result.psi) is float and type(result.argmin_t) is float
    assert result == exponent_variational(nu, b)


def _lemma1_sides(nu: float, b: float, theta: float) -> tuple[bool, bool]:
    """Both sides of the tail-constraint equivalence at one point.

    ``(LMGF(theta)/theta <= b, variational exponent reaches theta up to
    1e-6)``; the equivalence says the two booleans agree on every input.
    """
    condition_holds = lmgf_exponential(nu, theta) / theta <= b
    exponent_satisfied = exponent_variational(nu, b).psi >= theta - 1e-6
    return condition_holds, exponent_satisfied


class TestLemma1Equivalence:
    def test_satisfied_point(self):
        assert _lemma1_sides(1.0, 2.0, 0.5) == (True, True)

    def test_violated_point(self):
        assert _lemma1_sides(1.0, 2.0, 0.9) == (False, False)

    def test_knife_edge_agreement(self):
        condition, satisfied = _lemma1_sides(1.0, 2.0, THETA_STAR_1_2)
        assert condition == satisfied

    def test_booleans_agree_across_a_grid(self):
        for nu in (0.5, 1.0, 2.0):
            for b in (1.5 / nu, 3.0 / nu):
                for theta in np.linspace(0.05, 0.95, 10) * nu:
                    condition, satisfied = _lemma1_sides(nu, b, theta)
                    assert condition == satisfied, (nu, b, theta)
