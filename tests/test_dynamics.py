import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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
    convexity_bound,
    cubic_min_point,
    cubic_pullin,
    dynamics,
    energy_series,
    first_integral_rhs,
    g_of_x,
    generic_tc_bound,
    integrate,
    integrate_critical,
    integrate_generic,
    pullin,
    verify_periodicity,
)
from pullin_dyn.model import g_second_of_x, make_force
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
    for name in ("t_max", "rel_tol", "abs_tol", "event_refine_tol"):
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


@pytest.mark.parametrize(
    "xi, v_frac, kappa",
    [(0.5, None, 0.3), (2.0, 1.05, 0.0), (2.0, 0.99, 0.0)],  # the last in the contact regime
)
def test_adaptive_touchdown_time_includes_the_drift_beyond_the_trigger(xi, v_frac, kappa):
    # the residual travel from the trigger is 4e-10 to 1e-9 of t_c here, so
    # a touch-down time without it misses the bound
    v = 1.2 if v_frac is None else v_frac * pullin(xi, kappa).v_dpi
    m = ModelParams(xi=xi, v=v, kappa=kappa)
    traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=15.0))
    touch = traj.first_event(EVENT_TOUCHDOWN)
    assert touch.t == pytest.approx(contact_time_by_quadrature(m), rel=1e-10)


def _solve_ivp_events(rhs, t_max: float, surface: float, corner: bool) -> list[tuple[str, float]]:
    # one plain solve_ivp segment from rest with the adaptive scheme's tolerances:
    # v falling through 0 is a stagnation, v rising through 0 a return (rest
    # starts that reach the origin corner) or a stagnation, and x rising
    # through the trigger a touch-down, dated by the drift to the surface
    from scipy.integrate import solve_ivp

    cfg = IntegratorConfig(scheme="adaptive", t_max=t_max)
    trigger = surface - cfg.contact_epsilon

    def v_down(t, y):
        return y[1]

    def v_up(t, y):
        return y[1]

    def contact(t, y):
        return y[0] - trigger

    v_down.direction, v_up.direction, contact.direction, contact.terminal = -1.0, 1.0, 1.0, True
    sol = solve_ivp(rhs, (0.0, t_max), (0.0, 0.0), rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=0.25,
                    events=[v_down, v_up, contact])
    kinds = (EVENT_STAGNATION, EVENT_RETURN if corner else EVENT_STAGNATION, EVENT_TOUCHDOWN)
    events = [(kind, t + (surface - y[0]) / y[1] if kind == EVENT_TOUCHDOWN else t)
              for kind, ts, ys in zip(kinds, sol.t_events, sol.y_events)
              for t, y in zip(ts, ys) if t > 0.0]  # a start at v = 0 is a root at t = 0
    return sorted(events, key=lambda e: e[1])


def _actuator_events(params: dict, t_max: float):
    m = ModelParams(**params)
    force = make_force(m)
    traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=t_max))
    ref = _solve_ivp_events(lambda t, y: (y[1], force(y[0]) - m.mu * y[1]), t_max, 1.0, m.mu == 0.0)
    return traj, ref


def _generic_oscillator_events(t_max: float):
    gm = make_generic(0.2, mu=0.0)
    traj, _ = integrate_generic(gm, IntegratorConfig(scheme="adaptive", t_max=t_max))
    ref = _solve_ivp_events(
        lambda t, y: (y[1], gm.lam * gm.forcing_g(y[0], t) - gm.f_fn(y[0], t) - gm.mu * y[1]), t_max, gm.a, False
    )
    return traj, ref


@pytest.mark.parametrize(
    "run",
    [
        lambda: _actuator_events(dict(xi=0.0, v=0.4, mu=0.5), 20.0),
        lambda: _actuator_events(dict(xi=0.0, v=0.4), 7.5),  # the first period, t_p ~ 7.14
        lambda: _generic_oscillator_events(30.0),
        lambda: _actuator_events(dict(xi=0.5, v=1.2, kappa=0.3), 15.0),
    ],
    ids=["damped", "first-period", "generic-oscillator", "touchdown"],
)
def test_adaptive_events_match_a_solve_ivp_oracle(run):
    # the step loop finds each event on the step's dense output, as solve_ivp does
    traj, ref = run()
    assert [e.kind for e in traj.events] == [kind for kind, _ in ref]
    for e, (_, t_ref) in zip(traj.events, ref):
        assert e.t == pytest.approx(t_ref, rel=1e-12)


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


def _linear_critical_time(u, x0):
    # kappa = 0, xs = 2 x0: t(x) = 2 phi + ln((sqrt(x0) + sqrt(x0) tan phi) /
    # (sqrt(x0) - sqrt(x0) tan phi)), sin phi = sqrt(x/xs); the denominator is
    # rewritten as 2 sqrt(x0) u / (sqrt(xs-x) (sqrt(xs-x) + sqrt(x))), which
    # stays well-conditioned as the gap u = x0 - x goes to 0
    xs, x = 2.0 * x0, x0 - u
    return 2.0 * np.arcsin(np.sqrt(x / xs)) + np.log((np.sqrt(xs - x) + np.sqrt(x)) ** 2 / (2.0 * u))


def _quad_critical_time(m, x0, u):
    # QUADPACK t(x) for the gap u = x0 - x, with g(x0 - e) = e^2 q(e) written
    # by its Taylor expansion at the double root x0: sqrt(x) weight on
    # [0, x0/2], then ln(gap) as the variable, where the integrand is smooth
    xs, kappa = m.x_singular, m.kappa
    g2, g3 = g_second_of_x(x0, m.xi, kappa), 12.0 * kappa * x0 - 3.0 * kappa * xs

    def q(e):
        return 0.5 * g2 - g3 * e / 6.0 + 0.5 * kappa * e * e

    def head(x):  # the integrand times sqrt(x)
        return math.sqrt((xs - x) / q(x0 - x)) / (x0 - x)

    def tail(lam):  # dt/d(-ln gap)
        e = math.exp(lam)
        x = x0 - e
        return math.sqrt((xs - x) / (x * q(e)))

    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    x = x0 - u
    if x <= 0.5 * x0:
        return quad(head, 0.0, x, weight="alg", wvar=(-0.5, 0.0), **kw)[0]
    return (quad(head, 0.0, 0.5 * x0, weight="alg", wvar=(-0.5, 0.0), **kw)[0]
            + quad(tail, math.log(u), math.log(0.5 * x0), **kw)[0])


@pytest.mark.parametrize("xi,dt,t_max", [(0.0, 1e-4, 2.0), (0.5, 1e-4, 2.0), (0.0, 1e-3, 50.0)])
def test_integrate_critical_linear_matches_closed_form(xi, dt, t_max):
    m = ModelParams(xi=xi, v=pullin(xi).v_dpi)
    traj, rep = integrate_critical(m, IntegratorConfig(dt=dt, t_max=t_max))
    assert rep.gap_strictly_decreasing and rep.always_below_limit
    err = np.abs(_linear_critical_time(rep.gap[1:], rep.x_limit) - traj.t[1:])
    assert err.max() <= 1e-8


@pytest.mark.parametrize("xi,kappa", [(0.2, 1.0), (0.5, 0.8)])
def test_integrate_critical_cubic_matches_quadpack(xi, kappa):
    m = ModelParams(xi=xi, v=pullin(xi, kappa).v_dpi, kappa=kappa)
    traj, rep = integrate_critical(m, IntegratorConfig(dt=1e-3, t_max=20.0))
    assert rep.gap_strictly_decreasing and rep.always_below_limit
    ks = np.nonzero(rep.gap >= 1e-6)[0][1:]
    assert rep.gap[ks[-1]] < 1e-5  # the samples reach deep into the approach
    for k in ks[np.linspace(0, len(ks) - 1, 40).astype(int)]:
        assert abs(_quad_critical_time(m, rep.x_limit, rep.gap[k]) - traj.t[k]) <= 1e-8


@given(st.floats(0.0, 0.999), st.floats(0.0, 0.95), st.sampled_from((1e-3, 1e-4)))
@settings(max_examples=25, deadline=None)
def test_integrate_critical_gap_positive_decreasing_on_grid(xi, frac, dt):
    kappa = frac * convexity_bound(xi)
    m = ModelParams(xi=xi, v=pullin(xi, kappa).v_dpi, kappa=kappa)
    traj, rep = integrate_critical(m, IntegratorConfig(dt=dt, t_max=3.0))
    assert np.all(rep.gap > 0.0) and np.all(np.diff(rep.gap) < 0.0)
    assert rep.gap_strictly_decreasing and rep.always_below_limit
    assert np.array_equal(traj.t[:-1], np.arange(len(traj) - 1) * dt)
    if traj.events:  # a hardening spring can put x0 beyond the surface even at xi < 1
        assert rep.x_limit > 1.0 and traj.terminated_by == "touchdown" and traj.x[-1] == 1.0
    else:
        assert traj.t[-1] == 3.0 and traj.x[-1] < 1.0


@pytest.mark.parametrize("xi", [1.7, 3.5])  # the surface lies before x0/2 at xi = 3.5
def test_integrate_critical_touches_down_when_pullin_lies_beyond_contact(xi):
    m = ModelParams(xi=xi, v=pullin(xi).v_dpi)
    traj, rep = integrate_critical(m, IntegratorConfig(dt=1e-3, t_max=20.0))
    x0 = rep.x_limit
    assert x0 == pytest.approx(0.5 * (1.0 + xi), abs=1e-12)
    assert traj.x.max() <= 1.0 and traj.x[-1] == 1.0
    assert traj.terminated_by == "touchdown"
    (event,) = traj.events
    assert event.kind == EVENT_TOUCHDOWN and event.x == 1.0 and event.t == traj.t[-1]
    assert abs(event.t - _linear_critical_time(x0 - 1.0, x0)) <= 1e-8
    assert rep.final_gap == x0 - 1.0 and rep.gap_strictly_decreasing and rep.always_below_limit
    assert np.all(traj.v[1:] > 0.0)


def test_integrate_critical_cubic_touchdown_matches_quadpack():
    xi, kappa = 1.8, 0.4
    m = ModelParams(xi=xi, v=pullin(xi, kappa).v_dpi, kappa=kappa)
    traj, rep = integrate_critical(m, IntegratorConfig(dt=1e-4, t_max=10.0))
    assert rep.x_limit > 1.2
    xs = m.x_singular
    t_c = quad(
        lambda x: math.sqrt((xs - x) / g_of_x(x, xi, m.v, kappa)), 0.0, 1.0,
        weight="alg", wvar=(-0.5, 0.0), epsabs=1e-14, epsrel=1e-13,
    )[0]
    touch = traj.first_event(EVENT_TOUCHDOWN)
    assert abs(touch.t - t_c) <= 1e-8
    assert traj.terminated_by == "touchdown" and traj.x.max() == 1.0


def test_integrate_critical_touchdown_after_horizon_and_at_limit():
    # the surface is reached after t_max: the samples end at the horizon
    m = ModelParams(xi=1.7, v=pullin(1.7).v_dpi)
    traj, rep = integrate_critical(m, IntegratorConfig(dt=1e-3, t_max=2.0))
    assert traj.terminated_by == "horizon" and not traj.events and traj.x.max() < 1.0
    # x0 == 1 exactly: an asymptotic approach of the surface, never contact
    traj, rep = integrate_critical(ModelParams(xi=1.0, v=pullin(1.0).v_dpi), IntegratorConfig(dt=1e-3, t_max=30.0))
    assert rep.x_limit == 1.0 and not traj.events and traj.terminated_by == "horizon"
    assert rep.gap_strictly_decreasing and rep.always_below_limit


@pytest.mark.parametrize("xi,kappa", [(0.0, 0.0), (0.2, 1.0)])
def test_integrate_critical_steps_do_not_depend_on_sample_spacing(xi, kappa):
    m = ModelParams(xi=xi, v=pullin(xi, kappa).v_dpi, kappa=kappa)
    coarse = integrate_critical(m, IntegratorConfig(dt=1e-3, t_max=5.0))
    fine = integrate_critical(m, IntegratorConfig(dt=1e-4, t_max=5.0))
    assert coarse[1].steps == fine[1].steps <= math.ceil(5.0 / dynamics._CRITICAL_STEP) + 1
    assert len(fine[0]) == 50001 and len(coarse[0]) == 5001


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


def test_generic_model_that_does_not_broadcast_is_rejected_at_once():
    scalar_only = GenericForcedModel(
        mu=1.0, lam=4.0, f_fn=lambda x, t: math.sin(x), forcing_g=lambda x, t: 1.0, a=1.0, c1=1.0, c2=1.0
    )
    start = time.perf_counter()
    with pytest.raises(InvalidParameterError, match="must accept arrays"):
        integrate_generic(scalar_only, IntegratorConfig(dt=1e-3, t_max=2.0))
    assert time.perf_counter() - start < 0.1


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
    # an adaptive run reaches a horizon of 1e-6 in one step
    traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=1e-6))
    assert len(traj) >= 2 and traj.t[-1] == 1e-6
    assert traj.terminated_by == "horizon" and np.isfinite(traj.interpolate_x(0.0)).all()


@pytest.mark.parametrize("run", [integrate, integrate_critical], ids=["symplectic", "critical"])
def test_fixed_step_budget_is_checked_before_any_step(run):
    # 1e18 steps: without the budget the run never ends and its samples fill memory
    m = ModelParams(xi=0.0, v=0.4 if run is integrate else pullin(0.0).v_dpi)
    started = time.perf_counter()
    with pytest.raises(IntegratorFailureError, match=r"t_max=1000000\.0 at dt=1e-12 .*budget of 10000000"):
        run(m, IntegratorConfig(dt=1e-12, t_max=1e6))
    assert time.perf_counter() - started < 0.1


def test_critical_budget_bounds_the_rk4_steps_at_coarse_sample_spacing():
    # 1e8 samples at dt = 1 fit the budget, but 1e10 RK4 steps at h = 1e-2 do not
    m = ModelParams(xi=0.0, v=pullin(0.0).v_dpi)
    started = time.perf_counter()
    with pytest.raises(IntegratorFailureError, match=r"t_max=100000000\.0 at dt=0\.01 .*budget of 10000000"):
        integrate_critical(m, IntegratorConfig(dt=1.0, t_max=1e8))
    assert time.perf_counter() - started < 0.1


@pytest.mark.parametrize("xi,kappa", [(0.0, 0.0), (0.2, 1.0)])
def test_integrate_critical_long_horizon_keeps_its_report_true(xi, kappa):
    # the gap underflows to 0 past w = -ln(gap) ~ 745, but x never reaches x0;
    # once x rounds to x0 the steps stop and w grows linearly to the horizon
    m = ModelParams(xi=xi, v=pullin(xi, kappa).v_dpi, kappa=kappa)
    short = integrate_critical(m, IntegratorConfig(dt=1e-2, t_max=100.0))[1]
    started = time.perf_counter()
    traj, rep = integrate_critical(m, IntegratorConfig(dt=1.0, t_max=1e5))
    assert time.perf_counter() - started < 1.0
    assert rep.final_gap == 0.0 and rep.gap_strictly_decreasing and rep.always_below_limit
    assert rep.steps == short.steps < 100.0 / dynamics._CRITICAL_STEP
    assert len(traj) == 100001 and np.all(traj.x <= rep.x_limit) and np.all(np.diff(traj.x) >= 0.0)


@pytest.mark.parametrize(
    "params,x0",
    [(dict(xi=0.0, v=0.4), 0.0), (dict(xi=0.0, v=0.4, mu=0.1), 0.0), (dict(xi=0.0, v=0.4), 0.3)],
    ids=["periodic", "damped", "away-from-rest"],
)
def test_adaptive_sample_budget_is_checked_at_every_step(monkeypatch, params, x0):
    # periodic rest-start runs restart once per period; damped runs and runs
    # away from rest are one solver segment, which the budget must cut short
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 500)
    started = time.perf_counter()
    with pytest.raises(IntegratorFailureError, match=r"t_max=1000000\.0 exceeds the adaptive budget of 500 samples"):
        integrate(ModelParams(**params), IntegratorConfig(scheme="adaptive", t_max=1e6), x0=x0)
    assert time.perf_counter() - started < 2.0
    # a run inside the budget is unaffected
    traj = integrate(ModelParams(**params), IntegratorConfig(scheme="adaptive", t_max=10.0), x0=x0)
    assert len(traj) <= 500 and traj.t[-1] == 10.0


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
