import math
import time

import numpy as np
import pytest

from pullin_dyn import (
    EVENT_RETURN,
    EVENT_STAGNATION,
    EVENT_TOUCHDOWN,
    GenericForcedModel,
    IntegratorConfig,
    IntegratorFailureError,
    InvalidParameterError,
    ModelParams,
    NotApplicableError,
    RegimeMismatchError,
    classify_regime,
    cubic_min_point,
    cubic_pullin,
    energy_series,
    first_integral_rhs,
    generic_tc_bound,
    integrate,
    integrate_critical,
    integrate_generic,
    pullin,
    verify_periodicity,
)
from pullin_dyn.model import deflate, g_coeffs
from pullin_dyn.quadrature import contact_time_by_quadrature, period_by_quadrature

GENERIC_TC_BOUND_MU1 = 1.8414056604369606378  # root of t + exp(-t) = 2


def make_generic(lam: float, mu: float = 1.0) -> GenericForcedModel:
    return GenericForcedModel(
        mu=mu,
        lam=lam,
        f_fn=lambda x, t: x,
        forcing_g=lambda x, t: 1.0 / (2.0 * (1.0 - x) ** 2),
        a=1.0,
        c1=1.0,
        c2=0.5,
    )


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        IntegratorConfig(scheme="rk4")
    with pytest.raises(InvalidParameterError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(InvalidParameterError):
        IntegratorConfig(contact_epsilon=1e-2)
    # an infinite horizon would never end the fixed-step loop
    for name in ("t_max", "rel_tol", "abs_tol", "event_refine_tol", "dt_min"):
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                IntegratorConfig(**{name: bad})


def test_unforced_rest_is_equilibrium():
    traj = integrate(ModelParams(xi=0.0, v=0.0), IntegratorConfig(t_max=5.0))
    assert len(traj) == 2
    assert traj.t[-1] == 5.0
    assert np.all(traj.x == 0.0) and np.all(traj.v == 0.0)
    assert traj.events == []
    assert traj.energy_drift == 0.0


@pytest.fixture(scope="module")
def periodic_run():
    m = ModelParams(xi=0.0, v=0.4)
    cfg = IntegratorConfig(scheme="symplectic", dt=1e-4, t_max=15.0)
    return m, cfg, integrate(m, cfg)


def test_periodic_events_and_positions(periodic_run):
    m, cfg, traj = periodic_run
    stags = traj.events_of(EVENT_STAGNATION)
    rets = traj.events_of(EVENT_RETURN)
    assert len(stags) == 2 and len(rets) == 2
    for ev in stags:
        assert ev.x == pytest.approx(0.2, abs=1e-8)
    scales = period_by_quadrature(m)
    assert stags[0].t == pytest.approx(scales.t_s, rel=1e-7)
    assert rets[0].t == pytest.approx(2.0 * stags[0].t, abs=1e-6)


def test_periodic_event_ordering_uniform_spacing(periodic_run):
    _, _, traj = periodic_run
    kinds = [e.kind for e in traj.events]
    assert kinds == [EVENT_STAGNATION, EVENT_RETURN, EVENT_STAGNATION, EVENT_RETURN]
    times = np.array([e.t for e in traj.events])
    spacings = np.diff(times)
    assert np.all(np.abs(spacings - spacings[0]) < 1e-6)


def test_periodic_energy_and_first_integral(periodic_run):
    m, _, traj = periodic_run
    assert traj.energy_drift is not None and traj.energy_drift <= 1e-8
    residual = np.max(np.abs(traj.v**2 - first_integral_rhs(traj.x, m)))
    assert residual <= 1e-8


def test_periodic_stays_in_range(periodic_run):
    m, _, traj = periodic_run
    assert np.min(traj.x) >= -1e-12
    x_s = 0.2
    assert np.max(traj.x) <= x_s + 1e-8


def test_periodic_symmetry(periodic_run):
    _, _, traj = periodic_run
    rep = verify_periodicity(traj)
    assert rep.max_defect <= 1e-7
    assert rep.t_p == pytest.approx(2.0 * rep.t_s, abs=1e-6)
    assert rep.period_defect is not None and rep.period_defect < 1e-6


def test_adaptive_scheme_matches_quadrature_times():
    m = ModelParams(xi=0.0, v=0.4)
    traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=8.0))
    scales = period_by_quadrature(m)
    stag = traj.first_event(EVENT_STAGNATION)
    ret = traj.first_event(EVENT_RETURN)
    assert stag.t == pytest.approx(scales.t_s, rel=1e-9)
    assert stag.x == pytest.approx(0.2, abs=1e-9)
    assert ret.t == pytest.approx(scales.t_p, rel=1e-9)


def test_cubic_periodic_run():
    m = ModelParams(xi=0.0, v=0.3, kappa=0.5)
    traj = integrate(m, IntegratorConfig(scheme="symplectic", dt=1e-4, t_max=8.0))
    rep = verify_periodicity(traj)
    assert rep.max_defect <= 1e-7
    stag = traj.first_event(EVENT_STAGNATION)
    assert stag.t == pytest.approx(period_by_quadrature(m).t_s, rel=1e-7)


def test_touchdown_run_symplectic():
    m = ModelParams(xi=0.0, v=0.6)
    traj = integrate(m, IntegratorConfig(scheme="symplectic", dt=1e-4, t_max=10.0))
    assert traj.terminated_by == "touchdown"
    touch = traj.first_event(EVENT_TOUCHDOWN)
    assert touch is not None and touch.x == 1.0
    assert touch.t <= 2.0 / math.sqrt(0.11)
    assert touch.t == pytest.approx(contact_time_by_quadrature(m), rel=1e-5)
    assert np.all(traj.v[1:] > 0.0)  # monotone climb
    assert np.all(traj.x <= 1.0)


def test_touchdown_run_adaptive_cross_validates():
    for m in (ModelParams(xi=0.0, v=0.6), ModelParams(xi=0.5, v=2.0), ModelParams(xi=0.0, v=0.7, kappa=1.0)):
        traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=15.0))
        touch = traj.first_event(EVENT_TOUCHDOWN)
        assert touch.t == pytest.approx(contact_time_by_quadrature(m), rel=1e-6)


def test_damped_run_records_turning_points():
    m = ModelParams(xi=0.0, v=0.4, mu=0.5)
    traj = integrate(m, IntegratorConfig(scheme="symplectic", dt=1e-4, t_max=20.0))
    assert traj.energy_drift is None
    stags = traj.events_of(EVENT_STAGNATION)
    assert len(stags) >= 2
    assert np.min(traj.x) >= -1e-12
    # dissipation: successive maxima decrease
    assert stags[1].x < stags[0].x or stags[1].x == pytest.approx(stags[0].x, abs=1e-12)
    energies = energy_series(traj, m)
    assert energies[-1] < energies[0]


def test_first_crossing_time_measures_half_level(periodic_run):
    m, _, traj = periodic_run
    t1 = traj.first_crossing_time(0.1)
    assert t1 is not None
    # the crossing really happens there
    assert float(traj.interpolate_x(t1)[0]) == pytest.approx(0.1, abs=1e-8)
    assert traj.first_crossing_time(0.9) is None


def test_verify_periodicity_requires_stagnation():
    traj = integrate(ModelParams(xi=0.0, v=0.0), IntegratorConfig(t_max=2.0))
    with pytest.raises(NotApplicableError):
        verify_periodicity(traj)


def test_verify_periodicity_requires_full_period():
    m = ModelParams(xi=0.0, v=0.4)
    traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=4.0))  # t_s ~ 3.57
    with pytest.raises(NotApplicableError):
        verify_periodicity(traj)


def test_integrate_critical_linear():
    m = ModelParams(xi=0.0, v=0.5)
    traj, rep = integrate_critical(m, IntegratorConfig(dt=1e-3, t_max=50.0))
    assert rep.x_limit == 0.5
    assert rep.gap_strictly_decreasing
    assert rep.always_below_limit
    assert rep.final_gap < 1e-2
    assert np.all(traj.v[1:-1] > 0.0)
    assert traj.t[-1] == pytest.approx(50.0, abs=1e-9)


def test_integrate_critical_cubic():
    thr = cubic_pullin(0.0, 1.0)
    m = ModelParams(xi=0.0, v=thr.v_dpi, kappa=1.0)
    traj, rep = integrate_critical(m, IntegratorConfig(dt=1e-3, t_max=40.0))
    assert rep.x_limit == pytest.approx(cubic_min_point(0.0, 1.0), abs=1e-12)
    assert rep.gap_strictly_decreasing and rep.always_below_limit
    assert rep.final_gap < 1e-2


def _reference_critical(m: ModelParams, dt: float, t_max: float):
    # classical RK4 on du/dt = -u rate(u), five rate evaluations per step
    xs = m.x_singular
    x0 = classify_regime(m).threshold.x0
    q1, _ = deflate(g_coeffs(m.xi, m.v, m.kappa), x0)
    qt, _ = deflate(q1, x0)

    def rate(u):
        x = x0 - u
        q = qt[0]
        for c in qt[1:]:
            q = q * x + c
        val = x * q / (xs - x)
        return math.sqrt(val) if val > 0.0 else 0.0

    def du(u):
        return -u * rate(u)

    a0 = 0.5 * m.v * m.v / (xs * xs)
    x_start = 0.5 * a0 * dt * dt
    ts, us, vs = [0.0, dt], [x0, x0 - x_start], [0.0, a0 * dt]
    u, t = x0 - x_start, dt
    while t < t_max - 1e-12:
        h = min(dt, t_max - t)
        k1 = du(u)
        k2 = du(u + 0.5 * h * k1)
        k3 = du(u + 0.5 * h * k2)
        k4 = du(u + h * k3)
        u_new = u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not 0.0 < u_new < u:
            u_new = min(max(u_new, 1e-300), u)
        t += h
        u = u_new
        ts.append(t)
        us.append(u)
        vs.append(u * rate(u))
    gap = np.asarray(us)
    return np.asarray(ts), x0 - gap, np.asarray(vs), gap


@pytest.mark.parametrize("xi,kappa", [(0.5, 0.0), (0.2, 1.0)])
def test_integrate_critical_matches_reference_loop_bitwise(xi, kappa):
    m = ModelParams(xi=xi, v=pullin(xi, kappa).v_dpi, kappa=kappa)
    traj, rep = integrate_critical(m, IntegratorConfig(dt=1e-3, t_max=2.0))
    t, x, v, gap = _reference_critical(m, 1e-3, 2.0)
    assert len(t) == 2001
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.x, x)
    assert np.array_equal(traj.v, v)
    assert np.array_equal(rep.gap, gap)


def test_integrate_critical_rejects_other_regimes():
    with pytest.raises(RegimeMismatchError):
        integrate_critical(ModelParams(xi=0.0, v=0.4))
    with pytest.raises(RegimeMismatchError):
        integrate_critical(ModelParams(xi=0.0, v=0.6))


def test_generic_worked_example_guaranteed():
    traj, check = integrate_generic(make_generic(lam=4.0), IntegratorConfig(dt=1e-4, t_max=5.0))
    assert check.guaranteed and check.margin == pytest.approx(1.0)
    assert check.monotone and check.lower_bound_ok
    assert traj.terminated_by == "touchdown"
    assert check.t_c is not None and check.t_c <= 1.842
    assert check.tc_bound == pytest.approx(GENERIC_TC_BOUND_MU1, rel=1e-10)
    assert check.t_c <= check.tc_bound


def test_generic_no_guarantee_classification():
    _, check = integrate_generic(make_generic(lam=1.0), IntegratorConfig(dt=1e-3, t_max=5.0))
    assert not check.guaranteed
    assert check.margin == pytest.approx(-0.5)
    assert check.t_c is None and check.tc_bound is None


def test_generic_undamped_bound():
    gm = make_generic(lam=4.0, mu=0.0)
    traj, check = integrate_generic(gm, IntegratorConfig(dt=1e-4, t_max=5.0))
    assert check.tc_bound == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert check.t_c <= math.sqrt(2.0)
    assert check.monotone and check.lower_bound_ok


def test_generic_bound_claims_are_validated():
    bad = GenericForcedModel(
        mu=1.0,
        lam=4.0,
        f_fn=lambda x, t: x,
        forcing_g=lambda x, t: 1.0 / (2.0 * (1.0 - x) ** 2),
        a=1.0,
        c1=0.5,  # sup|f| on [0, 1) is 1, so this claim is false
        c2=0.5,
    )
    with pytest.raises(InvalidParameterError):
        integrate_generic(bad, IntegratorConfig(dt=1e-3, t_max=2.0))


def test_generic_tc_bound_mu_zero_formula():
    assert generic_tc_bound(0.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    with pytest.raises(InvalidParameterError):
        generic_tc_bound(1.0, -0.5, 1.0)


def test_damped_generic_oscillation_agrees_across_schemes():
    # lam below 8/27 leaves an interior equilibrium: decaying oscillation
    gm = GenericForcedModel(
        mu=0.4,
        lam=0.2,
        f_fn=lambda x, t: x,
        forcing_g=lambda x, t: 1.0 / (2.0 * (1.0 - x) ** 2),
        a=1.0,
        c1=1.0,
        c2=0.5,
    )
    results = {}
    for scheme in ("symplectic", "adaptive"):
        traj, check = integrate_generic(gm, IntegratorConfig(scheme=scheme, dt=1e-3, t_max=30.0))
        assert traj.terminated_by == "horizon"
        assert not check.guaranteed
        results[scheme] = (len(traj.events_of(EVENT_STAGNATION)), float(traj.x[-1]))
    assert results["symplectic"][0] == results["adaptive"][0]
    assert results["symplectic"][1] == pytest.approx(results["adaptive"][1], abs=1e-5)


def test_undamped_generic_oscillator_passes_origin_corner():
    # without origin projection the corner turning is recorded as a stagnation
    gm = GenericForcedModel(
        mu=0.0,
        lam=0.2,
        f_fn=lambda x, t: x,
        forcing_g=lambda x, t: 1.0 / (2.0 * (1.0 - x) ** 2),
        a=1.0,
        c1=1.0,
        c2=0.5,
    )
    tops = {}
    for scheme in ("symplectic", "adaptive"):
        traj, _ = integrate_generic(gm, IntegratorConfig(scheme=scheme, dt=1e-3, t_max=30.0))
        assert traj.terminated_by == "horizon"
        assert float(np.min(traj.x)) >= -1e-12
        stags = traj.events_of(EVENT_STAGNATION)
        assert len(stags) >= 6
        tops[scheme] = max(e.x for e in stags)
    assert tops["symplectic"] == pytest.approx(tops["adaptive"], abs=1e-7)


def test_tiny_horizon_runs():
    m = ModelParams(xi=0.0, v=0.4)
    for scheme in ("symplectic", "adaptive"):
        traj = integrate(m, IntegratorConfig(scheme=scheme, dt=1e-4, t_max=1e-3))
        assert traj.t[-1] <= 1e-3 + 1e-12
        assert traj.terminated_by == "horizon"


@pytest.mark.parametrize("run", [integrate, integrate_critical], ids=["symplectic", "critical"])
def test_fixed_step_budget_is_checked_before_any_step(run):
    # 1e18 steps: without the budget the run never ends and its samples fill memory
    m = ModelParams(xi=0.0, v=0.4 if run is integrate else pullin(0.0).v_dpi)
    started = time.perf_counter()
    with pytest.raises(IntegratorFailureError, match=r"t_max=1000000\.0 at dt=1e-12 .*budget of 10000000"):
        run(m, IntegratorConfig(dt=1e-12, t_max=1e6))
    assert time.perf_counter() - started < 0.1


def test_initial_state_at_contact_trigger_rejected():
    with pytest.raises(InvalidParameterError):
        integrate(ModelParams(xi=0.0, v=0.4), x0=1.0)


def test_nonrest_initial_condition_runs():
    m = ModelParams(xi=0.0, v=0.3)
    traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=3.0), x0=0.05, v0=0.0)
    assert np.all(np.diff(traj.t) > 0.0)
    assert traj.x[0] == 0.05


def test_trajectory_states_are_valid_phase_states():
    m = ModelParams(xi=0.0, v=0.4)
    traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=4.0))
    states = list(traj.states())
    assert len(states) == len(traj)
    assert states[0].x == 0.0 and states[0].v == 0.0
