import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullin_dyn import (
    ConvexityError,
    IntegratorConfig,
    InvalidParameterError,
    ModelParams,
    PhysicalParams,
    SingularityError,
    convexity_bound,
    energy_series,
    first_integral_rhs,
    g_of_x,
    integrate,
    normalize_physical,
    pullin,
)
from pullin_dyn.model import energy, make_force


def test_normalize_physical_worked_example():
    p = PhysicalParams(
        m=1e-9, k=1.0, area=1e-8, gap=1e-6, voltage=2.0,
        k3=1e11, d0=1e-7, eps_r=2.0, eps0=8.854e-12,
    )
    m = normalize_physical(p)
    assert m.xi == pytest.approx(0.05, abs=1e-15)
    assert m.v == pytest.approx(0.59511343456520959, rel=1e-12)
    assert m.kappa == pytest.approx(0.1, rel=1e-12)
    assert m.mu == 0.0


def test_normalize_zero_voltage_and_uncoated():
    p = PhysicalParams(m=1.0, k=2.0, area=1e-6, gap=1e-5, voltage=0.0)
    m = normalize_physical(p)
    assert m.v == 0.0
    assert m.xi == 0.0  # d0 = 0


def test_normalize_rejects_nonpositive_core_parameters():
    with pytest.raises(InvalidParameterError):
        PhysicalParams(m=0.0, k=1.0, area=1.0, gap=1.0, voltage=1.0)
    with pytest.raises(InvalidParameterError):
        PhysicalParams(m=1.0, k=-1.0, area=1.0, gap=1.0, voltage=1.0)
    with pytest.raises(InvalidParameterError):
        PhysicalParams(m=1.0, k=1.0, area=1.0, gap=1.0, voltage=1.0, eps_r=0.5)


@pytest.mark.parametrize(
    "kw",
    [
        {"gap": 1e-200},  # gap^3 underflows to 0
        {"gap": 1e200, "d0": 1.0},  # gap^3 overflows
        {"gap": 1e-100, "voltage": 1e200},  # voltage^2 overflows
        {"eps_r": 1e200, "d0": 1e-200},  # xi underflows to 0
        {"area": 1e-320},  # v underflows to 0
        {"k": 1e-300, "k3": 1e300},  # kappa overflows to inf
    ],
)
def test_normalize_rejects_under_and_overflow(kw):
    kw = {"m": 1.0, "k": 1.0, "area": 1.0, "gap": 1.0, "voltage": 1.0, **kw}
    with pytest.raises(InvalidParameterError, match="overflow"):
        normalize_physical(PhysicalParams(**kw))


@given(st.floats(1e-3, 1e3), st.floats(1e-6, 100.0))
@settings(max_examples=50, deadline=None)
def test_normalize_voltage_scaling(c, voltage):
    base = PhysicalParams(m=1.0, k=1.0, area=1e-6, gap=1e-4, voltage=voltage)
    scaled = PhysicalParams(m=1.0, k=1.0, area=1e-6, gap=1e-4, voltage=c * voltage)
    assert normalize_physical(scaled).v == pytest.approx(
        c * normalize_physical(base).v, rel=1e-12
    )
    zero = PhysicalParams(m=1.0, k=1.0, area=1e-6, gap=1e-4, voltage=0.0)
    assert normalize_physical(zero).v == 0.0


def test_hamiltonian_rest_values():
    assert energy(0.0, 0.0, ModelParams(xi=0.0, v=0.5)) == pytest.approx(-0.125, abs=1e-16)
    assert energy(0.0, 0.0, ModelParams(xi=2.0, v=0.0)) == 0.0
    assert energy(0.0, 0.0, ModelParams(xi=1.0, v=1.0)) == pytest.approx(-0.25, abs=1e-16)


def test_force_values():
    assert make_force(ModelParams(xi=0.0, v=0.5))(0.0) == pytest.approx(0.125, abs=1e-16)
    assert make_force(ModelParams(xi=3.0, v=0.0))(0.0) == 0.0
    assert make_force(ModelParams(xi=0.0, v=0.4))(0.2) == pytest.approx(-0.075, abs=1e-15)


def test_force_and_hamiltonian_reject_singular_displacement():
    m = ModelParams(xi=0.5, v=0.3)
    with pytest.raises(SingularityError):
        make_force(m)(1.5)
    with pytest.raises(SingularityError):
        first_integral_rhs(1.5, m)


def test_make_force_matches_force():
    m = ModelParams(xi=0.3, v=0.45, kappa=0.7)
    f = make_force(m)
    for x in np.linspace(0.0, 1.0, 17):
        x = float(x)
        assert f(x) == -x - m.kappa * x**3 + 0.5 * m.v * m.v / (m.xi + 1.0 - x) ** 2
        rhs = x * g_of_x(x, m.xi, m.v, m.kappa) / (m.xi + 1.0 - x)
        assert first_integral_rhs(x, m) == pytest.approx(rhs, rel=1e-15, abs=1e-15)
    traj = integrate(m, IntegratorConfig(dt=1e-3, t_max=2.0))
    h = [energy(float(x), float(v), m) for x, v in zip(traj.x, traj.v)]
    np.testing.assert_allclose(energy_series(traj, m), h, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("kappa", [0.0, 0.7])
def test_energy_series_is_model_energy_bit_for_bit(kappa):
    # the in-place series repeats model.energy's operations in its order; an undamped run keeps it
    m = ModelParams(xi=0.3, v=0.45, kappa=kappa)
    traj = integrate(m, IntegratorConfig(dt=1e-3, t_max=3.0), x0=0.2, v0=-0.3)
    expected = energy(traj.x, traj.v, m).tobytes()
    assert energy_series(traj, m).tobytes() == traj.energy.tobytes() == expected
    assert integrate(ModelParams(xi=0.3, v=0.45, mu=0.1), IntegratorConfig(dt=1e-3, t_max=1.0)).energy is None


def test_first_integral_rhs_values():
    m = ModelParams(xi=0.0, v=0.4)
    assert first_integral_rhs(0.0, m) == 0.0
    # the stagnation position is a root
    assert first_integral_rhs(0.2, m) == pytest.approx(0.0, abs=1e-16)
    assert first_integral_rhs(0.1, m) == pytest.approx((0.1 / 0.9) * (0.16 - 0.09), rel=1e-14)


@given(
    st.floats(0.0, 3.0),
    st.floats(0.01, 0.99),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.95),
)
@settings(max_examples=100, deadline=None)
def test_first_integral_is_energy_identity(xi, xfrac, kappa, vfrac):
    # v^2(x) == -2 (H(x, 0) - H(0, 0)) pointwise, for any parameters
    v = vfrac * (xi + 1.0)
    m = ModelParams(xi=xi, v=v, kappa=kappa)
    x = xfrac * min(1.0, xi + 1.0 - 1e-9)
    lhs = first_integral_rhs(x, m)
    rhs = -2.0 * (energy(x, 0.0, m) - energy(0.0, 0.0, m))
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


@given(st.floats(0.0, 2.0), st.floats(0.01, 0.99), st.floats(0.01, 0.9))
@settings(max_examples=60, deadline=None)
def test_first_integral_kappa_zero_matches_linear_form(xi, xfrac, v):
    m = ModelParams(xi=xi, v=v, kappa=0.0)
    xs = xi + 1.0
    x = xfrac * min(1.0, xs - 1e-9)
    linear = v * v / xs * x / (xs - x) - x * x
    assert first_integral_rhs(x, m) == pytest.approx(linear, rel=1e-12, abs=1e-15)


def test_phase_state_bounds():
    # integrate rejects a start beyond the contact surface, below the clamp band or not finite before a step,
    # and snaps one inside the band to the origin
    m = ModelParams(xi=0.0, v=0.4)
    for x0, v0 in [(1.0 + 1e-9, 0.0), (-1e-11, 0.0), (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                   (0.1, math.nan), (0.1, math.inf), (0.1, -math.inf)]:
        with pytest.raises(InvalidParameterError):
            integrate(m, IntegratorConfig(dt=1e-3, t_max=10.0), x0=x0, v0=v0)
    assert integrate(m, IntegratorConfig(dt=1e-3, t_max=1.0), x0=-1e-13).x[0] == 0.0


def test_model_params_validation():
    with pytest.raises(InvalidParameterError):
        ModelParams(xi=-0.1)
    with pytest.raises(InvalidParameterError):
        ModelParams(v=-1.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(mu=float("nan"))
    # the statics form (xi + 1)^3 and v^2, so xi and v stop at 1e100
    assert ModelParams(xi=1e100, v=1e100).xi == 1e100
    for kw in ({"xi": 1e101}, {"v": 1e160}):
        with pytest.raises(InvalidParameterError, match="statics overflow"):
            ModelParams(**kw)
    with pytest.raises(InvalidParameterError):
        pullin(1e210)


def test_check_convexity_closed_form():
    assert convexity_bound(0.0) == pytest.approx(16.0 / 3.0, rel=1e-15)
    ModelParams(xi=0.0, kappa=5.3).require_convex()
    with pytest.raises(ConvexityError):
        ModelParams(xi=0.0, kappa=5.4).require_convex()
