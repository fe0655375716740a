import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pullin_dyn import (
    REGIME_CONTACT,
    REGIME_TOUCHDOWN,
    IntegratorConfig,
    ModelParams,
    QuadratureFailureError,
    RegimeMismatchError,
    SubcriticalError,
    SupercriticalError,
    analytic_bounds,
    classify_regime,
    contact_time_by_quadrature,
    convexity_bound,
    cubic_pullin,
    g_of_x,
    integrate,
    period_by_quadrature,
)
from pullin_dyn import quadrature
from pullin_dyn.quadrature import (
    _MAX_NODES,
    _gauss_doubling,
    _one_row,
    _row_dot,
    contact_times,
    gauss_nodes,
)

# adaptive 40-digit quadrature references
TS_XI0_V04 = 3.5660991044596260069
TP_XI0_V001 = 6.2834995371504211313
TS_XI1_V04 = 3.1745059814341486882
TS_CUBIC = 3.3128230906601809944  # (xi=0, v=0.3, kappa=0.5)
TC_XI0_V06 = 3.4454248857477840633
TC_XI05_V2 = 1.3874516522854664918
TC_MARGINAL = 10.595675184564989469  # (xi=0, v=0.5001)
TC_CUBIC = 2.7326205520348170172  # (xi=0, v=0.7, kappa=1)
T1B_XI0_V04 = 2.3904572186687872799
TSB_XI0_V04 = 4.8399469614519653781
TCB_XI0_V06 = 6.0302268915552724529


def test_period_harmonic_limit():
    ts = period_by_quadrature(ModelParams(xi=0.0, v=0.01))
    assert ts.t_p == pytest.approx(2.0 * math.pi, rel=1e-3)
    assert ts.t_p == pytest.approx(TP_XI0_V001, rel=1e-10)


def test_period_reference_values():
    ts = period_by_quadrature(ModelParams(xi=0.0, v=0.4))
    assert ts.t_s == pytest.approx(TS_XI0_V04, rel=1e-10)
    assert ts.t_p == 2.0 * ts.t_s
    assert period_by_quadrature(ModelParams(xi=1.0, v=0.4)).t_s == pytest.approx(
        TS_XI1_V04, rel=1e-10
    )
    assert period_by_quadrature(ModelParams(xi=0.0, v=0.3, kappa=0.5)).t_s == pytest.approx(
        TS_CUBIC, rel=1e-10
    )


def test_period_supercritical_and_critical_raise():
    with pytest.raises(SupercriticalError):
        period_by_quadrature(ModelParams(xi=0.0, v=0.6))
    with pytest.raises(SupercriticalError):
        period_by_quadrature(ModelParams(xi=0.0, v=0.5))


def test_period_diverges_toward_pullin():
    tp_49 = period_by_quadrature(ModelParams(xi=0.0, v=0.49)).t_p
    tp_499 = period_by_quadrature(ModelParams(xi=0.0, v=0.499)).t_p
    assert tp_49 < tp_499


def test_period_strictly_increasing_in_voltage():
    tps = [
        period_by_quadrature(ModelParams(xi=0.0, v=float(v), kappa=0.2)).t_p
        for v in np.linspace(0.05, 0.5, 10)
    ]
    assert np.all(np.diff(tps) > 0.0)


def test_contact_time_reference_values():
    assert contact_time_by_quadrature(ModelParams(xi=0.0, v=0.6)) == pytest.approx(
        TC_XI0_V06, rel=1e-9
    )
    assert contact_time_by_quadrature(ModelParams(xi=0.5, v=2.0)) == pytest.approx(
        TC_XI05_V2, rel=1e-9
    )
    assert contact_time_by_quadrature(ModelParams(xi=0.0, v=0.7, kappa=1.0)) == pytest.approx(
        TC_CUBIC, rel=1e-9
    )


def test_contact_time_marginally_supercritical():
    tc = contact_time_by_quadrature(ModelParams(xi=0.0, v=0.5001))
    assert tc == pytest.approx(TC_MARGINAL, rel=1e-9)
    _, _, tcb = analytic_bounds(ModelParams(xi=0.0, v=0.5001))
    assert tc <= tcb


def test_contact_time_subcritical_raises():
    with pytest.raises(SubcriticalError):
        contact_time_by_quadrature(ModelParams(xi=0.0, v=0.4))


def test_analytic_bounds_worked_points():
    t1b, tsb, tcb = analytic_bounds(ModelParams(xi=0.0, v=0.4))
    assert t1b == pytest.approx(T1B_XI0_V04, rel=1e-12)
    assert tsb == pytest.approx(TSB_XI0_V04, rel=1e-12)
    assert tcb is None
    assert t1b == pytest.approx(2.3905, abs=5e-5)
    assert tsb == pytest.approx(4.8399, abs=5e-5)

    none1, none2, tcb = analytic_bounds(ModelParams(xi=0.0, v=0.6))
    assert none1 is None and none2 is None
    assert tcb == pytest.approx(TCB_XI0_V06, rel=1e-12)
    assert tcb == pytest.approx(6.0303, abs=1e-4)

    with pytest.raises(RegimeMismatchError):
        analytic_bounds(ModelParams(xi=0.0, v=0.5))


def test_stagnation_time_within_bound_random_grid():
    rng = np.random.default_rng(7)
    for _ in range(100):
        xi = float(rng.uniform(0.0, 2.0))
        kappa = float(rng.uniform(0.0, 0.9) * convexity_bound(xi))
        v = float(rng.uniform(0.05, 0.95)) * cubic_pullin(xi, kappa).v_dpi
        ts = period_by_quadrature(ModelParams(xi=xi, v=v, kappa=kappa))
        assert ts.t_s <= ts.ts_bound


def test_period_reports_nodes_and_error_estimate():
    for m in (ModelParams(xi=0.0, v=0.4), ModelParams(xi=0.5, v=0.5, kappa=0.3)):
        ts = period_by_quadrature(m)
        assert ts.err_est <= 1e-10 * ts.t_s
        assert ts.nodes >= 64 and ts.nodes & (ts.nodes - 1) == 0


def test_node_doubling_error_estimates_decrease():
    # the kernel reports the last change; the history is rebuilt from the
    # value of each order it evaluated
    values = []

    def integrand(theta, scale):
        f = scale / (1.0 + theta**2)
        values.append(float(_row_dot(f, gauss_nodes(len(theta))[1])[0]))
        return f

    value, nodes, err_est = _gauss_doubling(integrand, np.ones(1))
    history = [abs(b - a) for a, b in zip(values, values[1:])]
    assert len(history) >= 1
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert value[0] == pytest.approx(math.atan(0.5 * math.pi), rel=1e-12)
    assert err_est[0] == history[-1] and nodes[0] == 32 << len(history)


@pytest.fixture(scope="module")
def node_cache():
    # Node builds are cached per process; fill the cache up to the cap so
    # that timed calls measure the quadrature, not a one-off leggauss build.
    n = 32
    while n <= _MAX_NODES:
        gauss_nodes(n)
        n *= 2


def test_gauss_doubling_stops_at_cap_and_names_point(node_cache):
    m = ModelParams(xi=0.25, v=0.7, kappa=0.5)
    started = time.perf_counter()
    with pytest.raises(QuadratureFailureError) as info:
        _one_row(
            lambda scale: _gauss_doubling(lambda theta, s: s / np.sqrt(np.abs(theta - 0.3)), scale),
            m,
            1.0,
        )
    assert time.perf_counter() - started < 0.1
    msg = str(info.value)
    assert "1024" in msg
    assert "(0.25, 0.5, 0.7)" in msg
    assert "last change" in msg


@pytest.mark.parametrize("frac", [0.97, 0.99, 0.999])
def test_contact_regime_time_matches_quadpack(frac):
    # xi = 2: x_s > 1, so the electrode touches down before it stagnates;
    # the reference is QUADPACK with the x^-1/2 endpoint weight
    xi = 2.0
    m = ModelParams(xi=xi, v=frac * cubic_pullin(xi, 0.0).v_dpi)
    cls = classify_regime(m)
    assert cls.regime == REGIME_CONTACT and cls.x_s > 1.0 and cls.a_sq < 0.0
    ref, _ = quad(
        lambda x: math.sqrt((xi + 1.0 - x) / g_of_x(x, xi, m.v)), 0.0, 1.0,
        weight="alg", wvar=(-0.5, 0.0), epsabs=0.0, epsrel=1e-13, limit=500,
    )
    t_c = contact_time_by_quadrature(m, cls=cls)
    assert t_c == pytest.approx(ref, rel=1e-12)
    # the unobstructed orbit would stagnate later, beyond the surface
    assert t_c < period_by_quadrature(m, cls=cls).t_s
    if frac == 0.99:
        traj = integrate(m, IntegratorConfig(scheme="adaptive", t_max=1.2 * t_c))
        assert traj.terminated_by == "touchdown"
        assert traj.first_event("touchdown").t == pytest.approx(t_c, rel=1e-6)


def test_contact_time_zero_width_peak_is_stagnation_time():
    # xi = 2, v^2 = 6: g = (x - 1)(x - 2), so x_s = 1 exactly and a^2 = -1/4
    # gives the endpoint peak zero width; contact and stagnation coincide
    t_c, _, _ = contact_times(np.array([2.0]), np.zeros(1), np.array([1.5]), np.array([-0.25]))
    t_s = period_by_quadrature(ModelParams(xi=2.0, v=math.sqrt(6.0))).t_s
    assert t_c[0] == pytest.approx(t_s, rel=1e-12)


def _mp_contact_time(xi: float, kappa: float, delta: float) -> tuple[float, mpmath.mpf]:
    """The double voltage v = v_dpi (1 + delta) and its contact time at mp.dps = 40.

    Independent of the package: x0 solves g'(x0) = 0, v_dpi^2 = -(xi+1) g(x0)
    at v = 0, and the integral of sqrt((xi+1-x)/(x g(x))) over [0, 1] is split
    at breakpoints clustered geometrically around x0. A negative delta with
    x0 > 1 is a point of the contact regime (x_s > 1).
    """
    with mpmath.workdps(40):
        xs, kap = mpmath.mpf(xi) + 1, mpmath.mpf(kappa)

        def g0(x):
            return -(xs - x) * x - kap / 2 * (xs - x) * x**3

        if kappa == 0.0:
            x0 = xs / 2
        else:
            x0 = mpmath.findroot(lambda x: 2 * kap * x**3 - 1.5 * kap * xs * x**2 + 2 * x - xs, xs / 2)
        v = float(mpmath.sqrt(-xs * g0(x0)) * (1 + mpmath.mpf(delta)))
        vv = mpmath.mpf(v) ** 2 / xs

        def f(x):
            return mpmath.sqrt((xs - x) / (x * (vv + g0(x))))

        width = mpmath.sqrt(abs(vv + g0(x0)))
        offsets = [width * mpmath.mpf(10) ** k for k in range(13)]
        pts = sorted({mpmath.mpf(0), mpmath.mpf(1), x0}
                     | {x0 + s * d for d in offsets for s in (-1, 1)})
        pts = [x for x in pts if 0 <= x <= 1]
        return v, mpmath.quad(f, pts)


_ORACLE_CASES = (
    [(0.0, 0.0, d, 1e-10) for d in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0)]
    + [(xi, k, d, 1e-10) for xi, k in ((0.5, 0.0), (0.3, 0.5), (0.0, 1.5))
       for d in (1e-6, 1e-3, 1e-1, 1.0)]
    # pull-in position at and just beyond the contact surface: an endpoint peak
    + [(xi, 0.0, d, 1e-10) for xi in (1.0, 1.0001) for d in (1e-6, 1e-3)]
    # thin coatings: x = (xi+1) sin^2(theta) turns the sqrt(xi+1-x) factor,
    # near-singular at the contact end, into the smooth sqrt(xi+1) cos(theta)
    + [(xi, k, d, 1e-10) for xi, k in ((1e-5, 0.0), (1e-3, 0.0), (1e-5, 0.5 * convexity_bound(1e-5)))
       for d in (1e-6, 1e-3, 1e-1, 1.0)]
    # below delta ~ 1e-9 the double rounding of v_dpi moves t_c by ~1e-16/delta
    + [(xi, k, 1e-9, 1e-7) for xi, k in ((0.5, 0.0), (0.3, 0.5), (0.0, 1.5))]
    # wide peaks, which take the plain rule: far above v_dpi, and the contact regime at xi = 2
    + [(xi, f * convexity_bound(xi), d, 1e-12) for xi in (0.0, 1e-5, 0.5) for f in (0.0, 0.5) for d in (0.1, 1.0, 10.0)]
    + [(2.0, f * convexity_bound(2.0), d, 1e-12) for f in (0.0, 0.5) for d in (-1e-2, -1e-3, 1e-2)]
)


@pytest.mark.parametrize("xi, kappa, delta, rel", _ORACLE_CASES)
def test_contact_time_matches_mpmath_oracle(xi, kappa, delta, rel):
    v, ref = _mp_contact_time(xi, kappa, delta)
    m = ModelParams(xi=xi, v=v, kappa=kappa)
    # delta = 1e-12 lies inside the default critical band; narrow it
    cls = classify_regime(m, eps_v=1e-15)
    assert cls.regime == (REGIME_TOUCHDOWN if delta > 0.0 else REGIME_CONTACT)
    assert contact_time_by_quadrature(m, cls=cls) == pytest.approx(float(ref), rel=rel)


def _contact_columns(points):
    # contact_times's arrays (xi, kappa, x0, a_sq) of (xi, kappa, delta) points, v = v_dpi (1 + delta)
    cols = []
    for xi, kappa, delta in points:
        m = ModelParams(xi=xi, v=cubic_pullin(xi, kappa).v_dpi * (1.0 + delta), kappa=kappa)
        cls = classify_regime(m, eps_v=1e-15)
        assert cls.regime in (REGIME_TOUCHDOWN, REGIME_CONTACT)
        cols.append((xi, kappa, cls.threshold.x0, cls.a_sq))
    return [np.array(c) for c in zip(*cols)]


# eps / theta_end of each point: the switch lies at quadrature._WIDE_PEAK = 0.1
_NEAR_SWITCH = [(0.0, 0.0, 1e-2), (0.0, 0.0, 3e-2), (0.5, 0.0, 1e-2), (0.0, 0.5, 3e-2),  # 0.045-0.079: mapped
                (0.0, 0.0, 1e-1), (0.5, 0.0, 3e-2), (0.0, 0.5, 1e-1), (0.5, 0.3, 3e-2)]  # 0.12-0.15: plain


def test_contact_rules_agree_on_both_sides_of_the_switch(monkeypatch):
    cols = _contact_columns([(xi, f * convexity_bound(xi), d) for xi, f, d in _NEAR_SWITCH])
    chosen = contact_times(*cols)
    by_rule = {}
    for rule, switch in (("plain", 0.0), ("mapped", math.inf)):
        monkeypatch.setattr(quadrature, "_WIDE_PEAK", switch)
        by_rule[rule] = contact_times(*cols)
    np.testing.assert_allclose(by_rule["plain"][0], by_rule["mapped"][0], rtol=1e-13, atol=0.0)
    # below the switch each column keeps the mapped rule, above it takes the plain one within 128 nodes
    for k, rule in enumerate(["mapped"] * 4 + ["plain"] * 4):
        assert [part[k] for part in chosen] == [part[k] for part in by_rule[rule]], k
    assert chosen[1][4:].max() <= 128


@given(st.lists(st.tuples(st.sampled_from([0.0, 1e-5, 0.3, 0.5, 1.2, 2.0]), st.floats(0.0, 0.9),
                          st.sampled_from([-1e-2, -1e-3, 1e-6, 1e-3, 1e-2, 3e-2, 0.1, 1.0])), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_contact_time_of_a_column_is_the_same_alone_and_in_a_mixed_batch(draws):
    # several tops (xi + 1, and 1 in the contact regime), narrow and wide peaks: each column's value, node
    # count and error estimate are those of the column alone, bit for bit
    points = [(0.0, 0.0, 1e-6), (0.5, 0.0, 1.0)]  # a narrow and a wide peak in every batch
    for xi, f, delta in draws:
        kappa = f * convexity_bound(xi)
        m = ModelParams(xi=xi, v=cubic_pullin(xi, kappa).v_dpi * (1.0 + delta), kappa=kappa)
        if classify_regime(m, eps_v=1e-15).regime in (REGIME_TOUCHDOWN, REGIME_CONTACT):
            points.append((xi, kappa, delta))
    cols = _contact_columns(points)
    batch = contact_times(*cols)
    for j in range(len(points)):
        alone = contact_times(*(c[j:j + 1] for c in cols))
        assert [part[j].tobytes() for part in batch] == [part[0].tobytes() for part in alone], points[j]


@pytest.mark.parametrize("xi, delta", [(1e-5, 1e-11), (5e-6, 1e-10), (1e-6, 1e-3)])
def test_thin_coating_contact_time_matches_mpmath_on_the_same_residual(xi, delta):
    # The oracle integrates the code's own g = a_sq + (x - x0)^2 (q = 1 at
    # kappa = 0) at 40 digits, so the rounding of v_dpi, which moves t_c by
    # ~1e-16/delta, does not enter; sqrt(xi+1-x) varies on a width xi at x = 1.
    m = ModelParams(xi=xi, v=cubic_pullin(xi, 0.0).v_dpi * (1.0 + delta))
    cls = classify_regime(m, eps_v=1e-15)
    assert cls.regime == REGIME_TOUCHDOWN
    with mpmath.workdps(40):
        xs, x0, a_sq = mpmath.mpf(xi) + 1, mpmath.mpf(cls.threshold.x0), mpmath.mpf(cls.a_sq)

        def f(x):
            return mpmath.sqrt((xs - x) / (x * (a_sq + (x - x0) ** 2)))

        pts = {mpmath.mpf(0), mpmath.mpf(1), x0}
        pts |= {x0 + s * mpmath.sqrt(a_sq) * mpmath.mpf(10) ** k for k in range(13) for s in (-1, 1)}
        pts |= {1 - xi * mpmath.mpf(10) ** k for k in range(-3, 8)}
        ref = mpmath.quad(f, sorted(x for x in pts if 0 <= x <= 1))
    assert contact_time_by_quadrature(m, cls=cls) == pytest.approx(float(ref), rel=1e-12)


@given(st.floats(0.0, 1.0), st.floats(0.0, 0.9), st.floats(-12.0, 0.0))
@settings(max_examples=100, deadline=250)
def test_contact_time_bounded_near_threshold(node_cache, xi, kappa_frac, log_delta):
    kappa = kappa_frac * convexity_bound(xi)
    m = ModelParams(xi=xi, v=cubic_pullin(xi, kappa).v_dpi * (1.0 + 10.0**log_delta), kappa=kappa)
    if classify_regime(m).regime != REGIME_TOUCHDOWN:
        # inside the critical band: reported as such, no contact time
        with pytest.raises(SubcriticalError):
            contact_time_by_quadrature(m)
        return
    t_c = contact_time_by_quadrature(m)
    _, _, tc_bound = analytic_bounds(m)
    assert 0.0 < t_c <= tc_bound
