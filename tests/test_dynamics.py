import math
import signal
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    Trajectory,
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
from pullin_dyn.model import energy, force_constants, g_second_of_x, make_force
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
    for name in ("t_max", "rel_tol", "abs_tol"):
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                IntegratorConfig(**{name: bad})


def test_unforced_rest_is_equilibrium():
    m = ModelParams(xi=0.0, v=0.0)
    traj = integrate(m, IntegratorConfig(t_max=5.0))
    assert len(traj) == 2
    assert traj.t[-1] == 5.0
    assert np.all(traj.x == 0.0) and np.all(traj.v == 0.0)
    assert traj.events == []
    # the equilibrium keeps H like every undamped run: H(x0, 0) at both samples, no drift
    assert traj.energy is not None and traj.energy.tolist() == [energy(0.0, 0.0, m)] * 2
    assert traj.energy_drift == 0.0
    damped = integrate(ModelParams(xi=0.0, v=0.0, mu=0.5), IntegratorConfig(t_max=5.0))
    assert damped.energy is None and damped.energy_drift is None


@pytest.fixture(scope="module")
def periodic_run():
    m = ModelParams(xi=0.0, v=0.4)
    cfg = IntegratorConfig(scheme="symplectic", dt=1e-4, t_max=15.0)
    return m, cfg, integrate(m, cfg)


def test_periodic_events_and_positions(periodic_run):
    m, cfg, traj = periodic_run
    stags = [e for e in traj.events if e.kind == EVENT_STAGNATION]
    rets = [e for e in traj.events if e.kind == EVENT_RETURN]
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


def _rk45_by_hand(m: ModelParams, t_max: float):
    # scipy's RK45 stepped as the adaptive loop steps it: a restart at each
    # origin corner of an undamped rest start, a stop at the contact trigger;
    # the accepted steps and the final state
    from scipy.integrate import RK45
    from scipy.optimize import brentq

    cfg = IntegratorConfig(scheme="adaptive", t_max=t_max)
    force, trigger, tol = make_force(m), 1.0 - cfg.contact_epsilon, 4.0 * np.finfo(float).eps

    def start(t, x, v):
        return RK45(lambda t, y: (y[1], force(y[0]) - m.mu * y[1]), t, (x, v), t_max,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=0.25)

    solver, steps = start(0.0, 0.0, 0.0), 0
    while solver.t < t_max:
        v = solver.y[1]
        solver.step()
        steps += 1
        dense = solver.dense_output()
        if solver.y[0] >= trigger:
            t_c = brentq(lambda s: dense(s)[0] - trigger, solver.t_old, solver.t, xtol=tol, rtol=tol)
            return steps, t_c, dense(t_c)
        if m.mu == 0.0 and v < 0.0 <= solver.y[1]:
            t_e = brentq(lambda s: dense(s)[1], solver.t_old, solver.t, xtol=tol, rtol=tol)
            solver = start(t_e, 0.0, 0.0)
    return steps, solver.t, solver.y


@pytest.mark.parametrize(
    "params,t_max",
    [(dict(xi=0.0, v=0.4), 50.0), (dict(xi=0.0, v=0.4, mu=0.5), 20.0), (dict(xi=0.5, v=1.2, kappa=0.3), 15.0)],
    ids=["periodic", "damped", "touchdown"],
)
def test_adaptive_steps_match_rk45(params, t_max):
    m = ModelParams(**params)
    traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=t_max))
    steps, t_end, (x_end, v_end) = _rk45_by_hand(m, t_max)
    assert len(traj) - 1 == steps  # each accepted step keeps one sample
    assert traj.t[-1] == pytest.approx(t_end, rel=1e-12)
    assert traj.x[-1] == pytest.approx(x_end, rel=1e-12) and traj.v[-1] == pytest.approx(v_end, rel=1e-12)


def test_dp5_step_and_quartic_match_rk45():
    # on five RK45 steps, the hand-written step reproduces the state and the
    # stages, and its quartic the step's dense output at three interior points
    from scipy.integrate import RK45

    force = make_force(ModelParams(xi=0.0, v=0.4))

    def rhs(t, x, v):
        return v, force(x)

    solver = RK45(lambda t, y: rhs(t, *y), 0.0, (0.0, 0.0), 50.0, rtol=1e-10, atol=1e-12, max_step=0.25)
    for _ in range(5):
        solver.step()
        t0, (x0, v0), h = solver.t_old, solver.y_old, solver.t - solver.t_old
        x1, v1, kx, kv, _, _ = dynamics._dp5_step(rhs, t0, x0, v0, *solver.K[0], h)
        assert (x1, v1) == pytest.approx(tuple(solver.y), rel=1e-13)
        np.testing.assert_allclose(np.array([kx, kv]).T, solver.K, rtol=1e-13, atol=0.0)
        dense = solver.dense_output()
        x_at, v_at = dynamics._dp5_dense(t0, h, x0, kx), dynamics._dp5_dense(t0, h, v0, kv)
        for tq in t0 + h * np.array([0.25, 0.5, 0.75]):
            assert (x_at(tq), v_at(tq)) == pytest.approx(tuple(dense(tq)), rel=1e-13)


def test_damped_run_records_turning_points():
    m = ModelParams(xi=0.0, v=0.4, mu=0.5)
    traj = integrate(m, IntegratorConfig(scheme="symplectic", dt=1e-4, t_max=20.0))
    assert traj.energy_drift is None
    stags = [e for e in traj.events if e.kind == EVENT_STAGNATION]
    assert len(stags) >= 2
    assert np.min(traj.x) >= -1e-12
    # dissipation: successive maxima decrease
    assert stags[1].x < stags[0].x or stags[1].x == pytest.approx(stags[0].x, abs=1e-12)
    energies = energy_series(traj, m)
    assert energies[-1] < energies[0]


@pytest.mark.parametrize(
    "params, t_max, x0",
    [
        (dict(xi=0.0, v=0.4, mu=0.5), 20.0, 0.0),  # damped: turns above the origin
        (dict(xi=0.0, v=0.4), 7.5, 0.0),  # first period: a stagnation and a return
        (dict(xi=0.5, v=1.2, kappa=0.3), 15.0, 0.0),  # touch-down
        (dict(xi=0.0, v=0.4), 10.0, 0.3),  # away from rest: a turn below 0 is a stagnation
    ],
    ids=["damped", "first-period", "touchdown", "away-from-rest"],
)
def test_schemes_record_the_same_events(params, t_max, x0):
    m = ModelParams(**params)
    runs = [integrate(m, IntegratorConfig(scheme=scheme, dt=1e-4, t_max=t_max), x0=x0)
            for scheme in ("symplectic", "adaptive")]
    sym, ada = ([(e.kind, e.t) for e in traj.events] for traj in runs)
    assert sym and [k for k, _ in sym] == [k for k, _ in ada]
    for (_, t_sym), (_, t_ada) in zip(sym, ada):
        assert t_sym == pytest.approx(t_ada, rel=1e-8)


@pytest.mark.parametrize("scheme", ["symplectic", "adaptive"])
def test_projected_turn_below_the_floor_fails(scheme):
    # x'' = -x - 1/2 from rest turns at t = pi, x = -1: below the floor of a projected run, else a stagnation
    cfg = IntegratorConfig(scheme=scheme, dt=1e-3, t_max=4.0)

    def force(x, t):
        return -x - 0.5

    def run(project_origin):
        if scheme == "adaptive":
            return dynamics._run_adaptive(force, 0.0, 0.0, 0.0, cfg, 1.0, 2.0, project_origin)
        return dynamics._run_symplectic(force, 0.0, 0.0, 0.0, cfg, 1.0, project_origin)

    with pytest.raises(IntegratorFailureError, match=r"interior displacement went negative: x=-0\.99"):
        run(True)
    (event,) = run(False).events
    assert event.kind == EVENT_STAGNATION
    assert event.t == pytest.approx(math.pi, rel=1e-6) and event.x == pytest.approx(-1.0, abs=1e-6)


def test_first_crossing_time_measures_half_level(periodic_run):
    m, _, traj = periodic_run
    t1 = traj.first_crossing_time(0.1)
    assert t1 is not None
    # the crossing really happens there
    assert float(traj.interpolate_x(t1)[0]) == pytest.approx(0.1, abs=1e-8)
    assert traj.first_crossing_time(0.9) is None


@pytest.mark.parametrize("tq", [np.nan, [1.0, np.nan], [np.nan, 0.5], [[0.5], [np.nan]]])
def test_interpolate_x_rejects_nan(periodic_run, tq):
    with pytest.raises(InvalidParameterError, match="NaN or outside"):
        periodic_run[2].interpolate_x(tq)


def test_first_crossing_time_rejects_nan(periodic_run):
    with pytest.raises(InvalidParameterError, match="NaN"):
        periodic_run[2].first_crossing_time(np.nan)


def _knots(seed: int, tiny_last_step: bool):
    # random increasing knots; optionally a last step of 1e-12 on the last
    # knot's tangent, like the horizon knot integrate_critical may append
    rng = np.random.default_rng(seed)
    t = np.cumsum(np.concatenate(([rng.uniform(-1.0, 1.0)], rng.uniform(1e-3, 0.5, 40))))
    y, d = rng.normal(0.0, 10.0, t.size), rng.normal(0.0, 30.0, t.size)
    if tiny_last_step:
        t, y, d = np.append(t, t[-1] + 1e-12), np.append(y, y[-1] + d[-1] * 1e-12), np.append(d, d[-1])
    return t, y, d


def _hermite_per_query(t, y, d, tq):
    # each query on its own, on the step searchsorted(t, tq, side="right") - 1, clipped
    i = np.clip(np.searchsorted(t, tq, side="right") - 1, 0, len(t) - 2)
    return np.array([dynamics._hermite(t[k], y[k], d[k], t[k + 1], y[k + 1], d[k + 1], q)
                     for k, q in zip(np.ravel(i), np.ravel(tq))]).reshape(np.shape(tq))


@pytest.mark.parametrize("seed,tiny_last_step", [(1, False), (2, False), (3, True), (4, True)])
def test_knot_hermite_matches_the_basis_form_per_query(seed, tiny_last_step):
    t, y, d = _knots(seed, tiny_last_step)
    bound = 1e-14 * (np.max(np.abs(y)) + np.max(np.abs(np.diff(t) * d[:-1])))
    rng = np.random.default_rng(seed)
    ends = [t[0], t[0], t[-1], t[-1] - 5e-13, t[-1]]
    sorted_q = np.sort(np.concatenate((rng.uniform(t[0], t[-1], 500), t, ends)))
    shuffled = rng.permutation(sorted_q)
    traj = Trajectory(t=t, x=y, v=d)
    assert np.max(np.abs(dynamics._knot_hermite(t, y, d, sorted_q) - _hermite_per_query(t, y, d, sorted_q))) <= bound
    for tq in (sorted_q, sorted_q[::-1], shuffled, shuffled[:500].reshape(-1, 4), t[3], t[-1]):
        got = traj.interpolate_x(tq)
        assert got.shape == np.atleast_1d(tq).shape
        assert np.max(np.abs(got - _hermite_per_query(t, y, d, np.atleast_1d(tq)))) <= bound
    order = np.argsort(shuffled)
    assert np.array_equal(traj.interpolate_x(shuffled)[order], traj.interpolate_x(sorted_q))
    assert np.array_equal(traj.interpolate_x(sorted_q[::-1]), traj.interpolate_x(sorted_q)[::-1])


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
    # the samples' velocity is the first integral's, so H stays at its start value
    assert np.max(np.abs(traj.v**2 - first_integral_rhs(traj.x, m))) < 1e-15
    assert traj.energy_drift < 1e-15


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


@pytest.mark.parametrize("name", ["mu", "lam", "a", "c1", "c2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_generic_model_rejects_non_finite_parameters(name, value):
    # NaN passed every < and <= check: --a nan printed a NaN margin, --lam inf failed in the sampling
    with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
        GenericForcedModel(**{**vars(make_generic(lam=4.0)), name: value})


def test_generic_model_that_does_not_broadcast_is_rejected_at_once():
    scalar_only = GenericForcedModel(
        mu=1.0, lam=4.0, f_fn=lambda x, t: math.sin(x), forcing_g=lambda x, t: 1.0, a=1.0, c1=1.0, c2=1.0
    )
    start = time.perf_counter()
    with pytest.raises(InvalidParameterError, match="must accept arrays"):
        integrate_generic(scalar_only, IntegratorConfig(dt=1e-3, t_max=2.0))
    assert time.perf_counter() - start < 0.1
    # an array result that does not span the sampling grid is rejected the same way
    wrong_shape = GenericForcedModel(
        mu=1.0, lam=4.0, f_fn=lambda x, t: np.ones(3), forcing_g=lambda x, t: 1.0, a=1.0, c1=1.0, c2=1.0
    )
    with pytest.raises(InvalidParameterError, match="must accept arrays"):
        integrate_generic(wrong_shape, IntegratorConfig(dt=1e-3, t_max=2.0))


def test_generic_bound_violated_at_one_grid_point_is_rejected():
    # f depends on t and exceeds c1 = 1 only at the grid's corner (x, t) = (x_max, t_max)
    def f_fn(x, t):
        return np.where((x == x.max()) & (t == t.max()), 1.5, 0.5 * x * np.cos(t))

    gm = GenericForcedModel(mu=1.0, lam=4.0, f_fn=f_fn, forcing_g=lambda x, t: 1.0 + 0.0 * t, a=1.0, c1=1.0, c2=1.0)
    with pytest.raises(InvalidParameterError, match=r"^claimed sup\|f\| <= c1=1\.0 violated: sampled sup 1\.5$"):
        integrate_generic(gm, IntegratorConfig(dt=1e-3, t_max=2.0))
    below = GenericForcedModel(mu=1.0, lam=4.0, f_fn=lambda x, t: 0.5 * x * np.cos(t),
                               forcing_g=lambda x, t: np.where(t == t.max(), 0.5, 1.0 + 0.0 * x), a=1.0, c1=1.0, c2=1.0)
    with pytest.raises(InvalidParameterError, match=r"^claimed inf g >= c2=1\.0 violated: sampled inf 0\.5$"):
        integrate_generic(below, IntegratorConfig(dt=1e-3, t_max=2.0))


def test_generic_nan_f_or_g_fails_the_bound_check():
    # np.max and np.min return NaN for a grid with a NaN, and a NaN passed "sup_f > c1 + slack" as in bounds
    nan_f = GenericForcedModel(mu=1.0, lam=4.0, f_fn=lambda x, t: np.where(x > 0.5, np.nan, x),
                               forcing_g=lambda x, t: 1.0 / (2.0 * (1.0 - x) ** 2), a=1.0, c1=1.0, c2=0.5)
    with pytest.raises(InvalidParameterError, match=r"^claimed sup\|f\| <= c1=1\.0 violated: sampled sup nan$"):
        integrate_generic(nan_f, IntegratorConfig(dt=1e-3, t_max=2.0))
    nan_g = GenericForcedModel(mu=1.0, lam=4.0, f_fn=lambda x, t: x,
                               forcing_g=lambda x, t: np.where(t > 1.0, np.nan, 1.0 + 0.0 * x), a=1.0, c1=1.0, c2=0.5)
    with pytest.raises(InvalidParameterError, match=r"^claimed inf g >= c2=0\.5 violated: sampled inf nan$"):
        integrate_generic(nan_g, IntegratorConfig(dt=1e-3, t_max=2.0))


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
        results[scheme] = (len([e for e in traj.events if e.kind == EVENT_STAGNATION]), float(traj.x[-1]))
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
        stags = [e for e in traj.events if e.kind == EVENT_STAGNATION]
        assert len(stags) >= 6
        tops[scheme] = max(e.x for e in stags)
    assert tops["symplectic"] == pytest.approx(tops["adaptive"], abs=1e-7)


def test_tiny_horizon_runs():
    m = ModelParams(xi=0.0, v=0.4)
    for scheme in ("symplectic", "adaptive"):
        traj = integrate(m, IntegratorConfig(scheme=scheme, dt=1e-4, t_max=1e-3))
        assert traj.t[-1] <= 1e-3 + 1e-12
        assert traj.terminated_by == "horizon"
    # an adaptive run reaches a horizon of 1e-6 in one step, a fixed-step run one of 1e-16
    for scheme, t_max in (("adaptive", 1e-6), ("symplectic", 1e-16)):
        traj = integrate(m, IntegratorConfig(scheme=scheme, t_max=t_max))
        assert len(traj) >= 2 and traj.t[-1] == t_max
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


@pytest.mark.parametrize(
    "cfg",
    [IntegratorConfig(dt=1e-4, t_max=4.0),
     IntegratorConfig(scheme="adaptive", rel_tol=1e-13, abs_tol=1e-15, t_max=200.0)],
    ids=["symplectic", "adaptive"],
)
def test_integrate_keeps_samples_packed(cfg):
    # 24 B of packed doubles per sample, viewed by numpy without a copy, peak at
    # about 50 B with the energy temporaries; boxed floats in lists take about 147 B
    m = ModelParams(xi=0.3, v=0.4)
    integrate(m, IntegratorConfig(scheme=cfg.scheme, t_max=0.5))  # warm the code paths
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = integrate(m, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(traj) >= (40000 if cfg.scheme == "symplectic" else 20000)
    assert peak <= 80 * len(traj)
    for arr in (traj.t, traj.x, traj.v):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous and not arr.flags.writeable


def test_initial_state_at_contact_trigger_rejected():
    with pytest.raises(InvalidParameterError):
        integrate(ModelParams(xi=0.0, v=0.4), x0=1.0)


def test_nonrest_initial_condition_runs():
    m = ModelParams(xi=0.0, v=0.3)
    traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=3.0), x0=0.05, v0=0.0)
    assert np.all(np.diff(traj.t) > 0.0)
    assert traj.x[0] == 0.05


def test_energy_series_rejects_non_finite_energy():
    t = np.array([0.0, 1.0, 2.0])
    traj = Trajectory(t=t, x=np.array([0.0, 0.5, 0.9]), v=np.array([0.0, 1e160, 1e200]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegratorFailureError, match=r"energy inf is not finite at t=1\.0$"):
            energy_series(traj, ModelParams(xi=0.0, v=0.4))


@pytest.mark.parametrize("scheme", ["adaptive", "symplectic"])
def test_generic_trigger_at_or_below_start_rejected(scheme):
    # contact_epsilon >= a puts the trigger a - contact_epsilon at or below the start x = 0
    gm = GenericForcedModel(mu=0.0, lam=1.0, f_fn=lambda x, t: x, forcing_g=lambda x, t: 1.0 / (2.0 * (1e-7 - x) ** 2),
                            a=1e-7, c1=1e-7, c2=0.5e14)
    with pytest.raises(InvalidParameterError, match=r"contact_epsilon=1e-06 .*a=1e-07"):
        integrate_generic(gm, IntegratorConfig(scheme=scheme, contact_epsilon=1e-6, t_max=1.0))


def _reference_run_symplectic(force, mu, x0, v0, cfg, surface, project_origin, consts):
    # the fixed-step loop as one plain body, every test on every step, calling force for every step
    dynamics._check_step_budget(cfg.t_max, cfg.dt)
    col = dynamics._Collector()
    dt_base = cfg.dt
    zone = dynamics._CONTACT_ZONE * surface
    trigger = surface - cfg.contact_epsilon
    t_max = cfg.t_max
    t, x, v = 0.0, x0, v0
    a = force(x, t)
    col.add(t, x, v)
    half_mu = 0.5 * mu

    while t < t_max:
        dt_eff = dt_base if t + dt_base <= t_max else t_max - t
        if surface - x < zone:
            gap = surface - x
            while dt_eff > dynamics._DT_MIN:
                vh_est = v + 0.5 * dt_eff * (a - mu * v)
                if abs(vh_est) * dt_eff <= 0.25 * gap:
                    break
                dt_eff *= 0.5
            dt_eff = max(dt_eff, dynamics._DT_MIN)

        vh = v + 0.5 * dt_eff * (a - mu * v)
        x_new = x + dt_eff * vh
        t_new = t + dt_eff

        if x_new >= trigger:
            if vh <= 0.0:
                raise IntegratorFailureError(f"contact trigger reached with nonpositive drift velocity at t={t}")
            t_cross = t + (trigger - x) / vh
            col.add(t_cross, trigger, vh)
            col.touch_down(t_cross, trigger, vh, surface)
            break

        a_new = force(x_new, t_new)
        if mu:
            v_new = (vh + 0.5 * dt_eff * a_new) / (1.0 + half_mu * dt_eff)
        else:
            v_new = vh + 0.5 * dt_eff * a_new

        if v > 0.0 >= v_new or v < 0.0 <= v_new:
            acc0 = a - mu * v
            acc1 = a_new - mu * v_new
            t_corner = dynamics._turn(
                col, t, t_new, v,
                lambda tq: dynamics._hermite(t, v, acc0, t_new, v_new, acc1, tq),
                lambda tq: dynamics._hermite(t, x, v, t_new, x_new, v_new, tq),
                dynamics._REFINE_TOL, project_origin,
            )
            if t_corner is not None:
                t, x, v = t_corner, 0.0, 0.0
                a = force(x, t)
                continue

        if t_new <= t:
            raise IntegratorFailureError(f"samples not strictly increasing in t at t={t_new}")
        t, x, v, a = t_new, x_new, v_new, a_new
        col.add(t, x, v)

    return col


def _actuator(xi, v, mu=0.0, kappa=0.0):
    # the force callable and, for the side under test, the constants that integrate passes with it
    m = ModelParams(xi=xi, v=v, kappa=kappa, mu=mu)
    fast = make_force(m)
    return lambda x, t: fast(x), force_constants(m)


def _below_origin(x, t):
    # the force expression, in the operator form, on constants no ModelParams gives: v^2/2 = -2.5e-7 pulls the
    # origin down, so each restart at the corner (0, 0) descends to x ~ -5e-7, inside the origin band
    return -x - 0.3 * x**3 + -2.5e-7 / (1.0 - x) ** 2


# (force, consts, mu, x0, v0, dt, t_max, contact_epsilon, surface, project_origin)
_LOOP_CASES = {
    "corners-and-turns": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 1e-3, 12.0, 1e-9, 1.0, True),
    # x reaches 0.32, where x**3 and x * x * x give forces that differ in the last bit (at v = 0.3 they do not)
    "cubic-spring": (*_actuator(0.4, 0.7, kappa=0.2), 0.0, 0.0, 0.0, 1e-3, 12.0, 1e-9, 1.0, True),
    "zone-and-trigger": (*_actuator(0.0, 0.6), 0.0, 0.0, 0.0, 1e-3, 5.0, 1e-9, 1.0, True),
    "wide-trigger": (*_actuator(0.3, 1.0), 0.0, 0.0, 0.0, 1e-3, 5.0, 9.99e-4, 1.0, True),
    # 1 - contact_epsilon rounds onto the zone edge 0.999, so x_lim is the float below it
    "trigger-on-zone-edge": (*_actuator(0.3, 1.0), 0.0, 0.0, 0.0, 1e-3, 5.0, math.nextafter(1e-3, 0.0), 1.0, True),
    # the same trigger, and a first step that lands on it exactly: the general body takes that step
    "step-onto-zone-edge-trigger": (*_actuator(0.3, 1.0), 0.0, 0.9899978935774839, 9.0, 1e-3, 1.0,
                                    math.nextafter(1e-3, 0.0), 1.0, False),
    "partial-last-step": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 1e-3, 2.00037, 1e-9, 1.0, True),
    "t_max-multiple-of-dt": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 3e-4, 1000 * 3e-4, 1e-9, 1.0, True),
    "t_max-equals-dt": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 1e-3, 1e-3, 1e-9, 1.0, True),
    "t_max-below-dt": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 1e-3, 0.3e-3, 1e-9, 1.0, True),
    "damped-turns": (*_actuator(0.0, 0.4, mu=0.5), 0.5, 0.0, 0.0, 1e-3, 8.0, 1e-9, 1.0, False),
    "damped-touchdown": (*_actuator(0.0, 0.6, mu=0.5), 0.5, 0.0, 0.0, 1e-3, 5.0, 1e-9, 1.0, False),
    "away-from-rest": (*_actuator(0.0, 0.3), 0.0, 0.2, -0.6, 1e-3, 6.0, 1e-9, 1.0, False),
    "negative-turn-fails": (lambda x, t: -x - 0.1, None, 0.0, 0.0, 0.0, 1e-3, 5.0, 1e-9, 1.0, True),
    # the trigger 1e-8 lies far below the zone edge 0.999e-7
    "tiny-generic-surface": (lambda x, t: 1e-6, None, 0.0, 0.0, 0.0, 1e-3, 1.0, 9e-8, 1e-7, False),
    # the block size of the next four is set from the reference run (_LOOP_EDGES)
    "turn-first-step-of-block": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 1e-3, 4.0, 1e-9, 1.0, True),
    "turn-last-step-of-block": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 1e-3, 4.0, 1e-9, 1.0, True),
    "corner-mid-block": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 1e-3, 8.0, 1e-9, 1.0, True),
    "x_lim-exit-first-step-of-block": (*_actuator(0.0, 0.6), 0.0, 0.0, 0.0, 1e-3, 5.0, 1e-9, 1.0, True),
    "horizon-in-first-block": (*_actuator(0.3, 0.4), 0.0, 0.0, 0.0, 1e-3, 0.50037, 1e-9, 1.0, True),
    # the summed t of step 2100 is the largest t with t + dt <= t_max, so the step from it is the last full one
    "t_lim-on-the-grid": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 1e-3, 2.1009999999998796, 1e-9, 1.0, True),
    "dt-1e-4-over-blocks": (*_actuator(0.0, 0.4), 0.0, 0.0, 0.0, 1e-4, 8.0, 1e-9, 1.0, True),
    # no constants: every step takes the general body, which passes each step's t to the force
    "generic-undamped-turns": (lambda x, t: 0.1 * (1.0 + 0.5 * math.sin(t)) - x, None, 0.0, 0.0, 0.0, 1e-3, 20.0,
                               1e-9, 1.0, False),
    # released at rest above the origin: the first block is entered at v = 0, where v * v_new = 0 sends the
    # step to the general body; the run then swings below 0 and turns there
    "block-entered-at-rest": (*_actuator(0.0, 0.4), 0.0, 0.3, 0.0, 1e-3, 5.0, 1e-9, 1.0, False),
    # |v| ~ 1e-170 at zero voltage: v * v_new underflows to 0 on every step (below |v| ~ 1.5e-162 it does), so
    # every step leaves its block for the general body, and the run still ends at the horizon
    "underflowing-turn-product": (*_actuator(0.0, 0.0), 0.0, 0.0, 1e-170, 1e-3, 3.0, 1e-9, 1.0, False),
    # block steps at negative x after each corner restart: math.pow of a negative base against x**3
    "negative-x-after-corner": (_below_origin, (1.0, 0.3, -2.5e-7), 0.0, 0.0, 0.0, 1e-3, 8.0, 1e-9, 1.0, True),
}

# case: (the step, its place in its block). The step is the nth turn, the last step of a
# sample pair whose v changes sign, or the step that leaves x_lim; blocks start at the run's
# start and after each turn, so these sizes put the step where the case name says.
_LOOP_EDGES = {
    "turn-first-step-of-block": ("turn", 1, "first"),
    "turn-last-step-of-block": ("turn", 1, "last"),
    "corner-mid-block": ("turn", 2, "mid"),
    "x_lim-exit-first-step-of-block": ("x_lim", 1, "first"),
}


def _edge_block(samples, kind, n, where):
    _, x, v = (np.frombuffer(b) for b in samples)
    if kind == "x_lim":
        steps = np.flatnonzero(1.0 - x[1:] < dynamics._CONTACT_ZONE)[:n]
    else:
        steps = np.flatnonzero(((v[:-1] > 0.0) & (v[1:] <= 0.0)) | ((v[:-1] < 0.0) & (v[1:] >= 0.0)))[:n]
    assert len(steps) == n
    d = int(steps[-1]) - (int(steps[-2]) + 1 if n > 1 else 0)  # steps from its block run's start
    block = {"first": d, "last": d + 1, "mid": (2 * d + 2) // 3}[where]
    place = {0: "first", block - 1: "last"}.get(d % block, "mid")
    assert block >= 3 and d >= block - 1 and place == where
    return block


def _loop_outcome(run, force, consts, mu, x0, v0, dt, t_max, eps, surface, project):
    def expire(signum, frame):
        raise TimeoutError("fixed-step loop did not finish within 30 s")

    cfg = IntegratorConfig(dt=dt, t_max=t_max, contact_epsilon=eps)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        col = run(force, mu, x0, v0, cfg, surface, project, consts)
    except IntegratorFailureError as exc:
        return type(exc).__name__, str(exc)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return ([arr.tobytes() for arr in col.arrays()], [(e.kind, e.t, e.x) for e in col.events], col.terminated_by)


class _BlockCounter:
    """numpy as dynamics sees it, counting np.add.accumulate calls: one per block the fixed-step loop enters."""

    def __init__(self):
        self.add, self.blocks = self, 0

    def accumulate(self, *args, **kwargs):
        self.blocks += 1
        return np.add.accumulate(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("case", list(_LOOP_CASES))
def test_fixed_step_inner_loop_matches_plain_loop(case, monkeypatch):
    # bit for bit: samples, events, termination and error text
    force, consts, *rest = _LOOP_CASES[case]
    expected = _loop_outcome(_reference_run_symplectic, force, consts, *rest)
    if case in _LOOP_EDGES:
        monkeypatch.setattr(dynamics, "_BLOCK", _edge_block(expected[0], *_LOOP_EDGES[case]))
    calls, counter = [], _BlockCounter()

    def counted(x, t):
        calls.append(x)
        return force(x, t)

    monkeypatch.setattr(dynamics, "np", counter)
    assert _loop_outcome(dynamics._run_symplectic, counted, consts, *rest) == expected
    # given the constants, the regular steps of an undamped run evaluate the force inline, unless each
    # step's v * v_new underflows
    samples = len(expected[0][0]) // 8 if isinstance(expected[1], list) else 0
    if consts is not None and not rest[0] and samples > 100 and case != "underflowing-turn-product":
        assert len(calls) < samples // 10
    # each case reaches the exit it is named for
    kinds = {e[0] for e in expected[1]} if isinstance(expected[1], list) else set()
    returns = ("corners-and-turns", "cubic-spring", "corner-mid-block", "dt-1e-4-over-blocks")
    if case in returns + ("damped-turns", "away-from-rest", "turn-first-step-of-block", "turn-last-step-of-block"):
        assert EVENT_STAGNATION in kinds and (EVENT_RETURN in kinds) == (case in returns)
    if case in ("zone-and-trigger", "wide-trigger", "trigger-on-zone-edge", "step-onto-zone-edge-trigger",
                "damped-touchdown", "tiny-generic-surface", "x_lim-exit-first-step-of-block"):
        assert expected[2] == dynamics.TERMINATED_TOUCHDOWN
    if case == "horizon-in-first-block":
        assert 100 < samples < dynamics._BLOCK and expected[2] == dynamics.TERMINATED_HORIZON
        assert np.frombuffer(expected[0][0])[-1] == _LOOP_CASES[case][6]
    if case == "t_lim-on-the-grid":
        t, t_max = np.frombuffer(expected[0][0]), _LOOP_CASES[case][6]
        assert len(t) == 2102 and t[-2] + 1e-3 <= t_max < math.nextafter(t[-2], math.inf) + 1e-3
    if case == "step-onto-zone-edge-trigger":
        assert np.frombuffer(expected[0][1]).tolist() == [_LOOP_CASES[case][3], 0.999]
    if case == "dt-1e-4-over-blocks":
        assert samples > 3 * dynamics._BLOCK
    if case == "generic-undamped-turns":
        assert sum(kind == EVENT_STAGNATION for kind, *_ in expected[1]) >= 5
    if case in ("t_max-equals-dt", "t_max-below-dt"):
        assert np.frombuffer(expected[0][0]).tolist() == [0.0, _LOOP_CASES[case][6]]
    if case == "negative-turn-fails":
        assert "interior displacement went negative" in expected[1]
    if case in ("block-entered-at-rest", "underflowing-turn-product", "negative-x-after-corner"):
        t, x, _ = (np.frombuffer(b) for b in expected[0])
        assert expected[2] == dynamics.TERMINATED_HORIZON and t[-1] == _LOOP_CASES[case][6]
    if case == "block-entered-at-rest":
        # the start's force, then the general body's on the first step, which the block left at v = 0
        assert calls[:2] == [0.3, x[1]] and kinds == {EVENT_STAGNATION} and x.min() < 0.0
    if case == "underflowing-turn-product":
        # every step goes to the general body; a block starts only where v * v > 0, which never holds here
        assert len(calls) == samples and kinds == {EVENT_STAGNATION} and counter.blocks <= 3
    if case == "negative-x-after-corner":
        first_return = min(e[1] for e in expected[1] if e[0] == EVENT_RETURN)
        assert kinds == {EVENT_RETURN} and np.any((t > first_return) & (x < 0.0)) and x.min() > -1e-6


@pytest.mark.parametrize(
    "params, x0, v0, t_max, ends",
    [
        (dict(xi=0.0, v=0.4), 0.0, 0.0, 12.0, "horizon"),  # stagnation, return and a restart at the origin corner
        (dict(xi=0.4, v=0.7, kappa=0.2), 0.0, 0.0, 12.0, "horizon"),  # x reaches 0.32: x**3 != x * x * x there
        (dict(xi=0.0, v=0.6), 0.0, 0.0, 5.0, "touchdown"),  # stages past the surface take the clamped x
        (dict(xi=0.3, v=1.0, kappa=0.3), 0.0, 0.0, 5.0, "touchdown"),
        (dict(xi=0.0, v=0.4, mu=0.5), 0.0, 0.0, 8.0, "horizon"),
        (dict(xi=0.0, v=0.3), 0.2, -0.6, 6.0, "touchdown"),
        (dict(xi=0.0, v=0.3), 0.9, 100.0, 5.0, "touchdown"),  # some stages reach the clamp
    ],
    ids=["corners", "cubic", "touchdown", "cubic-touchdown", "damped", "away-from-rest", "fast-approach"],
)
def test_adaptive_inline_force_matches_callable(params, x0, v0, t_max, ends):
    # bit for bit: samples, events and termination; given the constants, no stage calls the force
    m = ModelParams(**params)
    force, consts = _actuator(**params)
    calls = []

    def counted(x, t):
        calls.append(x)
        return force(x, t)

    cfg = IntegratorConfig(scheme="adaptive", t_max=t_max)
    project = x0 == 0.0 and v0 == 0.0 and m.mu == 0.0
    outcomes, made = [], []
    for c in (None, consts):
        col = dynamics._run_adaptive(counted, m.mu, x0, v0, cfg, 1.0, m.x_singular, project, c)
        outcomes.append(([a.tobytes() for a in col.arrays()], [(e.kind, e.t, e.x) for e in col.events],
                         col.terminated_by))
        made.append(len(calls))
        calls.clear()
    assert outcomes[0] == outcomes[1]
    assert made[0] > 500 and made[1] == 0
    assert outcomes[0][2] == ends and len(outcomes[0][1]) >= 1


def _bits(y: float) -> bytes:
    return struct.pack("<d", y)


@given(st.floats(-2.0, 4.0, exclude_min=True, exclude_max=True), st.floats(0.0, 3.0), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0), st.floats(-2.0, 2.0))
@example(-0.0, 0.0, 0.5, 0.4, 0.1)
@example(5e-324, 0.3, 1.0, 0.4, -0.1)
@example(-5e-324, 0.3, 1.0, 0.4, 0.0)
@example(-2.0e-310, 0.0, 2.0, 1.0, 1.0)
@example(-1.9999999999999998, 2.0, 2.0, 2.0, 2.0)
@settings(max_examples=200, deadline=None)
def test_force_copies_agree_bit_for_bit(x, xi, kappa, v, v0):
    # math.pow is the libm pow that ** calls, bit for bit, over finite x in (-2, xi + 1); so make_force, the
    # fixed-step block body and the Dormand-Prince stage force, each of which evaluates the expression with
    # math.pow, agree with its operator form and with each other
    assume(x < xi + 1.0)
    m = ModelParams(xi=xi, v=v, kappa=kappa)
    consts = xs, k, v2h = force_constants(m)
    d = xs - x
    assert _bits(math.pow(x, 3.0)) == _bits(x**3) and _bits(math.pow(d, 2.0)) == _bits(d**2)
    assert _bits(make_force(m)(x)) == _bits(-x - k * x**3 + v2h / d**2)
    if x >= 0.99:  # from the contact zone on, neither loop evaluates the expression inline
        return
    force, _ = _actuator(xi, v, kappa=kappa)  # make_force, called by the general fixed-step body and stages
    expected = _loop_outcome(_reference_run_symplectic, force, consts, 0.0, x, v0, 1e-3, 5e-2, 1e-9, 1.0, False)
    assert _loop_outcome(dynamics._run_symplectic, force, consts, 0.0, x, v0, 1e-3, 5e-2, 1e-9, 1.0, False) == expected
    cfg = IntegratorConfig(scheme="adaptive", t_max=1e-2)
    runs = [dynamics._run_adaptive(force, 0.0, x, v0, cfg, 1.0, xs, False, c) for c in (None, consts)]
    assert [a.tobytes() for a in runs[0].arrays()] == [a.tobytes() for a in runs[1].arrays()]
