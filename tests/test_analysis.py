import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullin_dyn import (
    ConvexityError,
    ModelParams,
    SupercriticalError,
    classify_regime,
    convexity_bound,
    cubic_factorization,
    cubic_min_point,
    cubic_pullin,
    cubic_stagnation,
    g_of_x,
    linear_factorization,
    pullin_linear,
    pullin_sensitivity,
    stagnation_linear,
    stagnation_sensitivities,
)

# independently computed reference values (40-digit bisection / evaluation)
X0_XI0_K1 = 0.55962197234052913962
X0_XI1_K01 = 1.0496184848527441266
VDPI_XI0_K1 = 0.53388732635526171286
X1S_XI0_V04_K1 = 0.19506212128417039464
X1S_XI0_V053_K1 = 0.49725997963321521615


def test_linear_factorization_worked_point():
    f = linear_factorization(0.0, 0.4)
    assert f.x1 == pytest.approx(0.2, abs=1e-15)
    assert f.x2 == pytest.approx(0.8, abs=1e-15)
    assert f.q_coeffs == (1.0,)
    assert f.case_tag == "linear"


def test_linear_factorization_with_dielectric():
    f = linear_factorization(1.0, 0.4)
    assert f.x1 == pytest.approx(1.0 - 0.5 * math.sqrt(3.68), rel=1e-14)


def test_linear_factorization_low_voltage_limit():
    f = linear_factorization(0.0, 1e-8)
    assert f.x1 == pytest.approx(0.0, abs=1e-15)
    assert f.x2 == pytest.approx(1.0, abs=1e-15)


def test_linear_factorization_supercritical_raises():
    with pytest.raises(SupercriticalError):
        linear_factorization(0.0, 0.5)
    with pytest.raises(SupercriticalError):
        linear_factorization(0.0, 0.6)


@given(st.floats(0.0, 3.0), st.floats(0.01, 0.999))
@settings(max_examples=100, deadline=None)
def test_linear_roots_order_and_vieta(xi, vfrac):
    v = vfrac * 0.5 * (xi + 1.0) ** 1.5
    f = linear_factorization(xi, v)
    assert 0.0 < f.x1 < f.x2 < xi + 1.0
    assert f.x1 * f.x2 == pytest.approx(v * v / (xi + 1.0), rel=1e-12, abs=1e-12)
    assert f.x1 + f.x2 == pytest.approx(xi + 1.0, rel=1e-12)


def test_stagnation_linear_values():
    assert stagnation_linear(0.0, 0.4) == pytest.approx(0.2, abs=1e-15)
    assert stagnation_linear(0.0, 0.0) == 0.0
    # approaches the pull-in position from below as v -> v_dpi
    assert stagnation_linear(0.0, 0.5 - 1e-9) == pytest.approx(0.5, abs=1e-4)
    assert stagnation_linear(0.0, 0.5 - 1e-9) < 0.5


def test_stagnation_equals_factorization_root():
    assert stagnation_linear(0.7, 0.3) == linear_factorization(0.7, 0.3).x1


@pytest.mark.parametrize(
    "xi, v_dpi, x_dpi",
    [
        (0.0, 0.5, 0.5),
        (0.5, 0.91855865354369178682, 0.75),
        (1.0, math.sqrt(2.0), 1.0),
        (3.0, 4.0, 2.0),
    ],
)
def test_pullin_linear_closed_form(xi, v_dpi, x_dpi):
    res = pullin_linear(xi)
    assert res.v_dpi == pytest.approx(v_dpi, rel=1e-14)
    assert res.x_dpi == pytest.approx(x_dpi, rel=1e-14)


def test_cubic_min_point_reference_values():
    assert cubic_min_point(0.0, 1.0) == pytest.approx(X0_XI0_K1, abs=1e-12)
    assert cubic_min_point(1.0, 0.1) == pytest.approx(X0_XI1_K01, abs=1e-12)
    assert cubic_min_point(0.0, 0.0) == 0.5
    assert cubic_min_point(0.0, 1e-10) == pytest.approx(0.5, abs=1e-9)


def test_cubic_min_point_convexity_violation():
    with pytest.raises(ConvexityError):
        cubic_min_point(0.0, 16.0 / 3.0)
    with pytest.raises(ConvexityError):
        cubic_min_point(0.0, 5.4)


def test_cubic_pullin_reference_values():
    res = cubic_pullin(0.0, 1.0)
    assert res.v_dpi == pytest.approx(VDPI_XI0_K1, abs=1e-12)
    assert res.x_dpi == pytest.approx(X0_XI0_K1, abs=1e-12)
    lin = cubic_pullin(0.0, 0.0)
    assert (lin.v_dpi, lin.x_dpi) == (0.5, 0.5)
    assert cubic_pullin(0.0, 0.5).v_dpi < cubic_pullin(0.0, 1.0).v_dpi


def test_cubic_stagnation_values():
    assert cubic_stagnation(0.0, 0.4, 0.0) == pytest.approx(0.2, abs=1e-15)
    x1s = cubic_stagnation(0.0, 0.4, 1.0)
    assert x1s == pytest.approx(X1S_XI0_V04_K1, abs=1e-12)
    assert x1s < 0.2  # shorter stagnation distance than the linear case
    assert cubic_stagnation(0.0, 0.53, 1.0) == pytest.approx(X1S_XI0_V053_K1, abs=1e-12)
    with pytest.raises(SupercriticalError):
        cubic_stagnation(0.0, 0.54, 1.0)


@given(st.floats(0.0, 1.5), st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_cubic_stagnation_kappa_zero_matches_linear(xi, vfrac):
    v = vfrac * 0.5 * (xi + 1.0) ** 1.5
    assert cubic_stagnation(xi, v, 0.0) == pytest.approx(
        stagnation_linear(xi, v), abs=1e-12
    )


def test_cubic_factorization_structure():
    xi, v, kappa = 0.0, 0.4, 1.0
    fact = cubic_factorization(xi, v, kappa)
    x0 = cubic_min_point(xi, kappa)
    assert 0.0 < fact.x1 < x0 < fact.x2 < xi + 1.0
    assert len(fact.q_coeffs) == 3 and fact.case_tag == "cubic"
    grid = np.linspace(0.0, xi + 1.0, 501)
    assert np.all(fact.q(grid) > 0.0)
    # reconstruction: (x1 - x)(x2 - x) q(x) == g(x)
    recon = (fact.x1 - grid) * (fact.x2 - grid) * fact.q(grid)
    assert np.allclose(recon, g_of_x(grid, xi, v, kappa), atol=1e-12)


def test_residual_root_and_interior_sign():
    xi, v, kappa = 0.3, 0.35, 0.8
    x1s = cubic_stagnation(xi, v, kappa)
    assert abs(g_of_x(x1s, xi, v, kappa)) < 1e-10
    fact = cubic_factorization(xi, v, kappa)
    interior = np.linspace(fact.x1 + 1e-6, fact.x2 - 1e-6, 101)
    assert np.all(g_of_x(interior, xi, v, kappa) < 0.0)


def test_classify_regime_three_cases():
    per = classify_regime(ModelParams(xi=0.0, v=0.4))
    assert per.regime == "periodic"
    assert per.x_s == pytest.approx(0.2, abs=1e-14)

    crit = classify_regime(ModelParams(xi=0.0, v=0.5))
    assert crit.regime == "critical"
    assert crit.x_limit == 0.5

    td = classify_regime(ModelParams(xi=0.0, v=0.6))
    assert td.regime == "touchdown"
    assert td.a_sq == pytest.approx(0.11, rel=1e-12)
    assert td.tc_bound == pytest.approx(2.0 / math.sqrt(0.11), rel=1e-12)


@pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6])
def test_touchdown_a_sq_free_of_cancellation(delta):
    # xi = 0, kappa = 0: v_dpi = 1/2 is exact, so a^2 = v^2 - 1/4 exactly;
    # g evaluated at x0 rounds v^2 and is off by about delta/2 relative
    v = 0.5 * (1.0 + delta)
    td = classify_regime(ModelParams(xi=0.0, v=v), eps_v=1e-15)
    exact = Fraction(v) ** 2 - Fraction(1, 4)
    assert td.a_sq == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_classify_regime_band_is_inclusive():
    for v in (0.5 - 1e-12, 0.5, 0.5 + 1e-12):
        assert classify_regime(ModelParams(xi=0.0, v=v)).regime == "critical"
    assert classify_regime(ModelParams(xi=0.0, v=0.5 - 1e-11)).regime == "periodic"
    assert classify_regime(ModelParams(xi=0.0, v=0.5 + 1e-11)).regime == "touchdown"
    # widened band
    assert classify_regime(ModelParams(xi=0.0, v=0.49), eps_v=0.05).regime == "critical"


def test_classify_regime_checks_convexity():
    with pytest.raises(ConvexityError):
        classify_regime(ModelParams(xi=0.0, v=0.4, kappa=6.0))


@pytest.mark.parametrize("xi", [1e16, 1e22, 1e50, 1e100])
@pytest.mark.parametrize("kappa_frac", [0.0, 0.5])
def test_stagnation_at_huge_xi_matches_mpmath(xi, kappa_frac):
    # x_s ~ v^2/(xi+1)^2 lies far below what the factored g resolves beside
    # a_sq ~ -(xi+1)^2/4, so it must come from the plain coefficients
    kappa = kappa_frac * convexity_bound(xi)
    cls = classify_regime(ModelParams(xi=xi, v=1.0, kappa=kappa))
    with mpmath.workdps(40):
        xs, kap, x = mpmath.mpf(xi) + 1, mpmath.mpf(kappa), mpmath.mpf(0)
        for _ in range(20):  # g(x) = 0 as x = (v^2/(xi+1)) / ((xi+1-x)(1 + kappa x^2/2)), a contraction
            x = 1 / xs / ((xs - x) * (1 + kap * x**2 / 2))
        assert abs(mpmath.mpf(1) / xs - (xs - x) * x * (1 + kap * x**2 / 2)) < mpmath.mpf(10) ** -38 / xs
        ref = float(x)
    assert cls.regime == "periodic"
    assert cls.x_s > 0.0
    assert cls.x_s == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_pullin_enhancement_inequalities():
    # x_dpi and v_dpi grow with cubic stiffness, including the explicit gap bound
    for xi in (0.0, 0.5, 1.0):
        xs = xi + 1.0
        lin = pullin_linear(xi)
        for frac in (0.1, 0.5, 0.9):
            kappa = frac * convexity_bound(xi)
            res = cubic_pullin(xi, kappa)
            assert res.x_dpi > 0.5 * xs
            assert res.v_dpi > lin.v_dpi
            assert res.v_dpi**2 / xs > lin.v_dpi**2 / xs + kappa / 32.0 * xs**4


def test_monotonicity_in_kappa_and_voltage():
    kappas = np.linspace(0.01, 1.0, 12)
    x0s = [cubic_min_point(0.0, float(k)) for k in kappas]
    vds = [cubic_pullin(0.0, float(k)).v_dpi for k in kappas]
    x1s = [cubic_stagnation(0.0, 0.4, float(k)) for k in kappas]
    assert np.all(np.diff(x0s) > 0.0)
    assert np.all(np.diff(vds) > 0.0)
    assert np.all(np.diff(x1s) < 0.0)

    vs = np.linspace(0.05, 0.5, 12)  # v_dpi(0, 0.5) ~ 0.517, all subcritical
    x1v = [cubic_stagnation(0.0, float(v), 0.5) for v in vs]
    assert np.all(np.diff(x1v) > 0.0)


def test_stagnation_sensitivities_linear_anchor():
    d_kappa, d_v = stagnation_sensitivities(0.0, 0.4, 0.0)
    # closed form of the linear stagnation position: d x_s / d v = 2v/sqrt(1-4v^2)
    assert d_v == pytest.approx(2.0 * 0.4 / math.sqrt(1.0 - 0.64), rel=1e-10)
    assert d_kappa < 0.0


def test_stagnation_sensitivities_signs_and_fd():
    d_kappa, d_v = stagnation_sensitivities(0.0, 0.4, 0.5)
    assert d_kappa < 0.0 and d_v > 0.0
    step = 1e-6
    fd_kappa = (
        cubic_stagnation(0.0, 0.4, 0.5 + step) - cubic_stagnation(0.0, 0.4, 0.5 - step)
    ) / (2.0 * step)
    fd_v = (
        cubic_stagnation(0.0, 0.4 + step, 0.5) - cubic_stagnation(0.0, 0.4 - step, 0.5)
    ) / (2.0 * step)
    assert d_kappa == pytest.approx(fd_kappa, rel=1e-5)
    assert d_v == pytest.approx(fd_v, rel=1e-5)


def test_pullin_sensitivity_positive_and_fd():
    d_x0, d_v = pullin_sensitivity(0.0, 1.0)
    assert d_x0 > 0.0 and d_v > 0.0
    step = 1e-6
    fd_x0 = (cubic_min_point(0.0, 1.0 + step) - cubic_min_point(0.0, 1.0 - step)) / (2.0 * step)
    fd_v = (
        cubic_pullin(0.0, 1.0 + step).v_dpi - cubic_pullin(0.0, 1.0 - step).v_dpi
    ) / (2.0 * step)
    assert d_x0 == pytest.approx(fd_x0, rel=1e-5)
    assert d_v == pytest.approx(fd_v, rel=1e-5)


def test_pullin_sensitivity_kappa_zero_limit():
    d_x0, d_v = pullin_sensitivity(0.0, 0.0)
    assert d_x0 > 0.0 and d_v > 0.0
    # the limits from the analytic side at small kappa agree
    an_x0, an_v = pullin_sensitivity(0.0, 1e-4)
    assert d_x0 == pytest.approx(an_x0, rel=1e-3)
    assert d_v == pytest.approx(an_v, rel=1e-3)


@pytest.mark.parametrize("xi", [0.0, 0.5, 2.0])
def test_pullin_sensitivity_kappa_zero_closed_forms(xi):
    # the kappa = 0 pull-in point (xi+1)/2 with v_dpi = (xi+1)^1.5/2 moves at these exact rates
    d_x0, d_v = pullin_sensitivity(xi, 0.0)
    assert d_x0 == pytest.approx((xi + 1.0) ** 3 / 16.0, rel=1e-14)
    assert d_v == pytest.approx((xi + 1.0) ** 3.5 / 32.0, rel=1e-14)


def test_pullin_converges_to_linear_as_kappa_vanishes():
    prev_x0, prev_v = np.inf, np.inf
    for kappa in (0.1, 0.01, 0.001):
        res = cubic_pullin(0.0, kappa)
        assert res.x_dpi < prev_x0 and res.v_dpi < prev_v
        prev_x0, prev_v = res.x_dpi, res.v_dpi
    assert prev_x0 == pytest.approx(0.5, abs=1e-3)
    assert prev_v == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("xi", [0.0, 0.5])
def test_stagnation_converges_to_linear_as_kappa_vanishes(xi):
    # the cubic stagnation level rises monotonically to the linear closed form as kappa -> 0
    v = 0.8 * pullin_linear(xi).v_dpi
    linear = stagnation_linear(xi, v)
    levels = [cubic_stagnation(xi, v, kappa) for kappa in (0.1, 0.01, 1e-3, 1e-4, 1e-6)]
    assert all(a < b < linear for a, b in zip(levels, levels[1:]))
    assert linear - levels[-1] < 1e-7
