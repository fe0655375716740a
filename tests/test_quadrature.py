import math

import numpy as np
import pytest

from pullin_dyn import (
    ModelParams,
    RegimeMismatchError,
    SubcriticalError,
    SupercriticalError,
    analytic_bounds,
    contact_time_by_quadrature,
    convexity_bound,
    cubic_pullin,
    period_by_quadrature,
)
from pullin_dyn.quadrature import _gauss_doubling

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
    def integrand(theta):
        return 1.0 / (1.0 + theta**2)

    value, history = _gauss_doubling(integrand)
    assert len(history) >= 1
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert value == pytest.approx(math.atan(0.5 * math.pi), rel=1e-12)
