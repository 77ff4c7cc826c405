import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from paoiplan import exponent_root, exponent_variational
from paoiplan.model import optimal_sampling_delay

# Frozen from an independent dev-time bisection of ln(nu/(nu-theta)) = theta*b,
# cross-checked against a two-million-point grid minimization of the
# variational objective (agreement to 2e-11).
THETA_STAR_1_2 = 0.7968121300200199
THETA_STAR_1_3 = 0.9404797907073597


def reference_exponent_root(nu: float, b: float) -> float:
    # Bisection of x = theta/nu on LMGF(x) < c*x inside (0, 1 - e^-c] at
    # unit rate, LMGF(x) = -log1p(-x), until the midpoint stops moving.
    c = nu * b
    if c <= 1.0:
        return 0.0
    lo, hi = 0.0, -math.expm1(-c)
    mid = 0.5 * hi
    while lo < mid < hi:
        if -math.log1p(-mid) < c * mid:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return nu * mid


def root_allowance(nu: float, b: float, psi: float) -> float:
    # max(4 ulp(psi), 2 s), where s = nu*x/F'(x)*ulp(c) is how far the root
    # x = psi/nu of F(x) = -log1p(-x) - c*x moves when c = nu*b moves by one
    # ulp.  Past c = 2^53, F' at the largest float below 1 is negative and
    # s is dropped.
    c, x = nu * b, psi / nu
    slope = 1.0 / (1.0 - x) - c
    s = nu * x / slope * math.ulp(c) if slope > 0.0 else 0.0
    return max(4.0 * math.ulp(psi), 2.0 * s)


class TestExponentRoot:
    def test_reference_values(self):
        assert exponent_root(1.0, 2.0) == pytest.approx(THETA_STAR_1_2, abs=1e-9)
        assert exponent_root(1.0, 3.0) == pytest.approx(THETA_STAR_1_3, abs=1e-9)

    def test_bracket_sanity_around_reference_root(self):
        # Just below the root the tail condition LMGF(theta) <= theta*b still
        # holds, just above it fails; LMGF(theta) = ln(1/(1 - theta)) at unit rate.
        assert math.log(1 / (1 - 0.79)) == pytest.approx(1.5606, abs=1e-4)
        assert math.log(1 / (1 - 0.79)) < 0.79 * 2.0
        assert math.log(1 / (1 - 0.80)) == pytest.approx(math.log(5), abs=1e-12)
        assert math.log(1 / (1 - 0.80)) > 0.80 * 2.0
        assert 0.79 < exponent_root(1.0, 2.0) < 0.80

    def test_scaling_property(self):
        assert exponent_root(2.0, 1.0) == pytest.approx(2 * THETA_STAR_1_2, abs=1e-9)
        for c in (0.25, 0.5, 4.0):
            assert exponent_root(c * 1.0, 2.0 / c) == pytest.approx(
                c * THETA_STAR_1_2, rel=1e-9
            )

    @pytest.mark.parametrize("nu,b", [(1.0, 1.0), (2.0, 0.5), (1.0, 0.3)])
    def test_no_decay_regime_returns_zero(self, nu, b):
        assert exponent_root(nu, b) == 0.0

    def test_no_floor_near_the_boundary(self):
        # At c = 1 + 2^-52 the root is about 2(c - 1) = 4.4e-16.
        assert 0.0 < exponent_root(1.0, 1.0 + 2.0**-52) < 1e-15

    @settings(max_examples=400)
    @given(c=st.floats(1.0 + 2.0**-52, 800.0), nu=st.floats(1e-3, 1e3))
    def test_matches_the_bisection_within_the_load_sensitivity(self, c, nu):
        b = c / nu
        root = exponent_root(nu, b)
        assert abs(root - reference_exponent_root(nu, b)) <= root_allowance(nu, b, root)

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

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    def test_matches_brute_force_legendre_transform(self, nu):
        # Independent oracle for the objective: at the returned minimizer t,
        # psi is the service time's rate function at t + b over t, and the
        # rate function is the Legendre transform sup_g {g*y - LMGF(g)},
        # taken here on a dense grid of g.
        gammas = np.arange(-10.0 * nu, nu * (1 - 1e-9), 1e-4 * nu)
        lmgf_values = -np.log1p(-gammas / nu)
        for c in np.linspace(1.2, 5.0, 20):
            b = c / nu
            result = exponent_variational(nu, b)
            sup = float(np.max(gammas * (result.argmin_t + b) - lmgf_values))
            assert result.psi == pytest.approx(sup / result.argmin_t, abs=1e-5)

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


@pytest.mark.parametrize("k", range(-300, 301, 25))
def test_both_routes_scale_with_the_rate(k):
    # psi(nu, b) = nu * psi(1, nu*b) and argmin_t = argmin_t(1, nu*b) / nu,
    # over the whole float range of nu at nu*b = 2.
    nu = 10.0**k
    result = exponent_variational(nu, 2.0 / nu)
    assert result.psi / nu == pytest.approx(THETA_STAR_1_2, rel=1e-12)
    assert exponent_root(nu, 2.0 / nu) / nu == pytest.approx(THETA_STAR_1_2, rel=1e-12)
    assert result.argmin_t * nu == pytest.approx(2.9215536, rel=1e-7)


@pytest.mark.parametrize("c", [40.0, 1e3, 1e300, 1e308])
def test_both_routes_saturate_at_the_rate_for_large_loads(c):
    # psi/nu = 1 - 1/(x* + c) with x* near e^c, so beyond c of about 37 the
    # exponent is nu to double precision, up to the largest finite c.
    assert exponent_variational(2.0, c / 2.0).psi == pytest.approx(2.0, rel=1e-15)
    assert exponent_root(2.0, c / 2.0) == pytest.approx(2.0, rel=1e-15)


def test_both_routes_stay_within_zero_and_the_rate():
    # Past c of about 37.5 the variational objective rounds above 1 on its
    # flat far side; the true psi/nu is below 1.
    outside = [
        (c, psi)
        for c in [*np.linspace(1.001, 800.0, 4000).tolist(), 1e3, 1e300, 1e308]
        for psi in (exponent_variational(1.0, c).psi, exponent_root(1.0, c))
        if not 0.0 <= psi <= 1.0
    ]
    assert outside == []


@given(
    nu=st.floats(1e-300, 1e300),
    c=st.floats(1.0 + 2.0**-52, 1e308),
)
def test_both_routes_hold_over_the_float_range(nu, c):
    b = c / nu
    assume(math.isfinite(b))
    root = exponent_root(nu, b)
    psi = exponent_variational(nu, b).psi
    assert 0.0 <= root <= nu
    assert 0.0 <= psi <= nu
    assert abs(psi - root) <= 1e-6 * nu
    unit = exponent_root(1.0, nu * b)
    assert abs(root / nu - unit) <= root_allowance(1.0, nu * b, unit)


@pytest.mark.parametrize("nu,b", [
    (1.0, 1.1), (0.5, 3.0), (2.0, 1.0), (4.0, 0.75), (0.25, 16.0), (10.0, 0.5),
])
def test_minimizer_matches_the_root_identity(nu, b):
    # The variational minimizer solves ln y = c(1 - 1/y) at y = nu*(t + b),
    # the root equation again, so t* = 1/(nu - theta*) - b exactly.  A
    # golden-section search resolves it only until rounding noise in the
    # objective hides its curvature: up to 2.5e-7 relative on 2000 random
    # points with nu*b in [1.1, 5].
    theta = exponent_root(nu, b)
    expected = 1.0 / (nu - theta) - b
    assert exponent_variational(nu, b).argmin_t == pytest.approx(expected, rel=3e-7)


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
    condition_holds = -math.log1p(-theta / nu) / theta <= b
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
