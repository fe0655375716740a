"""Semi-analytic time scales of the motion by endpoint-regularized quadrature.

The stagnation time is the integral of 1/sqrt(v^2(x)) from 0 to the
stagnation position; the contact time integrates the same quantity to the
contact surface x = 1. Both integrands carry inverse-square-root endpoint
factors, removed exactly by the substitution x = x_top sin^2(theta): each
simple root of the squared-velocity factorization contributes a smooth
trigonometric factor. The touch-down time takes x_top = xi + 1 and stops
at x = 1, so its sqrt(xi + 1 - x) factor, which varies on a width xi at the
contact surface, becomes sqrt(xi + 1) cos(theta), smooth for every xi >= 0.

Just above the pull-in voltage the contact-time integrand has a peak of
half-width ~ sqrt(v - v_dpi) at the pull-in position: a narrow one takes a sinh
map centred on it (Johnston & Elliott, IJNME 62 (2005) 564), a wide one the
plain rule (see contact_times). Every rule doubles its Gauss-Legendre order
until two orders agree to 1e-10 relative, up to a fixed cap, and fails past it.
The kernels integrate arrays of points as one points-by-nodes matrix, by rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    REGIME_CONTACT,
    REGIME_PERIODIC,
    REGIME_TOUCHDOWN,
    RegimeClassification,
    _column,
    classify_regime,
    cubic_factorization,
)
from .errors import (
    QuadratureFailureError,
    RegimeMismatchError,
    SubcriticalError,
    SupercriticalError,
)
from .model import ModelParams, deflate, g_coeffs

_BASE_NODES = 32
_MAX_NODES = 1024
_RTOL = 1e-10
_WIDE_PEAK = 0.1  # eps / theta_end from which contact_times takes the plain rule
_HALF_PI = 0.5 * math.pi  # theta range of the sin^2 substitution
_row_dot = getattr(np, "vecdot", None) or functools.partial(np.einsum, "ij,j->i")  # einsum before numpy 2


@dataclass(frozen=True)
class TimeScales:
    """Computed time scales with their analytic upper bounds.

    t_p = 2 t_s by construction of the symmetric periodic extension. nodes is
    the Gauss-Legendre order that produced t_s, and err_est the change from
    the previous order, the quadrature's error estimate.
    """

    t_s: float | None = None
    t_p: float | None = None
    t1_bound: float | None = None
    ts_bound: float | None = None
    nodes: int | None = None
    err_est: float | None = None


@functools.lru_cache(maxsize=32)
def gauss_nodes(n: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n mapped to [0, length]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * length
    return half * (x + 1.0), half * w


def _gauss_doubling(integrand, *cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate over [0, pi/2] by node doubling, column-wise.

    integrand(theta, *cols) maps the nodes theta, an (n,) array, and the open
    columns' parameters, (columns, 1) arrays, to the (columns, n) matrix of its
    values, each row summed on its own. A column leaves once two orders agree
    to _RTOL. Returns per column the value, the node count and err_est, the
    last change; a column open at _MAX_NODES has value nan (see _cap_error).
    """
    size = len(cols[0])
    value, err_est, nodes = np.full(size, np.nan), np.full(size, np.nan), np.full(size, _MAX_NODES)
    idx, cols = np.arange(size), [c[:, None] for c in cols]
    n = _BASE_NODES
    theta, w = gauss_nodes(n, _HALF_PI)
    prev = _row_dot(integrand(theta, *cols), w) if size else None
    while idx.size and n < _MAX_NODES:
        n *= 2
        theta, w = gauss_nodes(n, _HALF_PI)
        cur = _row_dot(integrand(theta, *cols), w)
        change = np.abs(cur - prev)
        err_est[idx] = change
        done = change <= _RTOL * np.maximum(np.abs(cur), 1e-300)
        if done.any():
            value[idx[done]], nodes[idx[done]] = cur[done], n
            if done.all():  # no open column left to slice
                break
            idx, cur, cols = idx[~done], cur[~done], [c[~done] for c in cols]
        prev = cur
    return value, nodes, err_est


def _cap_error(xi: float, kappa: float, v: float, last: float) -> QuadratureFailureError:
    return QuadratureFailureError(
        f"no convergence to rtol={_RTOL} within {_MAX_NODES} nodes at (xi, kappa, v) = "
        f"({xi!r}, {kappa!r}, {v!r}); last change {float(last)!r}"
    )


def _one_row(times, m: ModelParams, *args) -> tuple[float, int, float]:
    # a row kernel on the single point m; raises at the node cap
    value, nodes, err_est = times(*_column(*args))
    if np.isnan(value[0]):
        raise _cap_error(m.xi, m.kappa, m.v, err_est[0])
    return float(value[0]), int(nodes[0]), float(err_est[0])


def _bounds_subcritical(xi: float, x1: float, x2: float) -> tuple[float, float]:
    xs = xi + 1.0
    t1 = 2.0 * math.sqrt(2.0) * math.sqrt(xs / (2.0 * x2 - x1))
    return t1, 2.0 * math.sqrt((xs - 0.5 * x1) / (x2 - x1)) + t1


def stagnation_times(xi, x1, x2, q0, q1, q2):
    """Stagnation time of arrays of subcritical points, column-wise.

    The substitution x = x1 sin^2(theta) turns the half-orbit time integral
    into the smooth integral of 2 sqrt((xi+1-x)/((x2-x) q(x))) over
    [0, pi/2], with q(x) = (q0 x + q1) x + q2 the quotient of factor_rows.
    Returns _gauss_doubling's value, nodes and err_est per point.
    """

    def integrand(theta, x1, x2, xs, q0, q1, q2):
        x = x1 * np.sin(theta) ** 2
        return 2.0 * np.sqrt((xs - x) / ((x2 - x) * ((q0 * x + q1) * x + q2)))

    return _gauss_doubling(integrand, x1, x2, xi + 1.0, q0, q1, q2)


def contact_times(xi, kappa, x0, a_sq):
    """Contact time of arrays of points, column-wise: the touch-down regime
    (a_sq > 0) and the contact regime (a_sq < 0, x0 > 1).

    With x = top sin^2(theta) over sin^2(theta) <= 1/top the integrand is
    2 sqrt(top) cos(theta) sqrt((xi+1-x)/g(x)) with g strictly positive on
    [0, 1). The touch-down regime takes top = xi+1, where xi+1-x = top
    cos^2(theta) exactly; the contact regime keeps top = 1 (g(1) -> 0 as x_s -> 1).

    g = a^2 + (x - x0)^2 q(x), with x0 the pull-in position, q the residual
    at v = 0 deflated twice at x0 and a^2 = a_sq, so 1/sqrt(g) peaks at x0
    with half-width sqrt(a^2/q(x0)), free of the cancellation in g near
    v_dpi; a peak at or beyond x = 1 is an endpoint peak at x = 1. Its
    half-width eps in theta picks the rule: from _WIDE_PEAK of theta_end
    (x = 1) on, the plain rule in theta, within 128 nodes, its node
    trigonometry once per top; below it theta = theta0 + eps sinh(u) about
    the peak theta0 bounds the cost as v -> v_dpi. The rules agree to 1e-13
    relative. Returns _gauss_doubling's value, nodes and err_est per point.
    """
    q, _ = deflate(deflate(g_coeffs(xi, 0.0, kappa), x0)[0], x0)
    x_peak = np.minimum(x0, 1.0)
    q_peak = deflate(q, x_peak)[1]  # the remainder is q(x_peak)
    half_width = np.sqrt(np.maximum(a_sq / q_peak + (x0 - x_peak) ** 2, 0.0))
    top = np.where(a_sq > 0.0, xi + 1.0, 1.0)
    xs_top = np.where(a_sq > 0.0, 0.0, xi)  # xi+1-top, exactly
    theta0 = np.arcsin(np.sqrt(x_peak / top))
    eps = theta0 - np.arcsin(np.sqrt(np.maximum(x_peak - half_width, 0.0) / top))
    # a zero-width endpoint peak (x_s = 1 in the contact regime, g(1) = 0)
    # leaves a smooth integrand, which any positive eps maps
    eps = np.where(eps > 0.0, eps, 1.0)

    theta_end = np.arcsin(np.sqrt(1.0 / top))  # x = 1
    wide = eps >= _WIDE_PEAK * theta_end
    tops = np.array(sorted(set(top[wide].tolist())))[:, None]
    rate = np.arcsin(np.sqrt(1.0 / tops)) / _HALF_PI  # theta = rate t, up to x = 1

    def plain(t, at_top, x0, a_sq, xs_top, q0, q1, q2):
        sin, cos, at_top = np.sin(rate * t), np.cos(rate * t), at_top[:, 0]  # once per distinct top
        x, h = (tops * sin * sin)[at_top], (tops * cos * cos)[at_top]
        g = a_sq + (x - x0) ** 2 * ((q0 * x + q1) * x + q2)
        return (2.0 * rate * np.sqrt(tops) * cos)[at_top] * np.sqrt((xs_top + h) / g)

    # theta = theta0 + eps sinh(u) over [u_lo, u_hi], u = u_lo + scale t, up to x = 1
    u_lo = -np.arcsinh(theta0 / eps)
    scale = (np.arcsinh((theta_end - theta0) / eps) - u_lo) / _HALF_PI

    def mapped(t, u_lo, scale, eps, amp, theta0, x_peak, shift, a_sq, top, xs_top, q0, q1, q2):
        u = u_lo + scale * t
        d = eps * np.sinh(u)  # theta - theta0, without cancellation
        theta = theta0 + d
        rise = top * np.sin(theta + theta0) * np.sin(d)  # x - x_peak
        x = x_peak + rise
        g = a_sq + (rise + shift) ** 2 * ((q0 * x + q1) * x + q2)
        cos = np.cos(theta)
        return amp * np.cosh(u) * cos * np.sqrt((xs_top + top * cos * cos) / g)

    amp, shift = 2.0 * eps * scale * np.sqrt(top), x_peak - x0
    value, nodes, err_est = np.empty(len(top)), np.empty(len(top), int), np.empty(len(top))
    for side, rule, cols in ((wide, plain, (tops[:, 0].searchsorted(top), x0, a_sq, xs_top, *q)),
                             (~wide, mapped, (u_lo, scale, eps, amp, theta0, x_peak, shift, a_sq, top, xs_top, *q))):
        n_side = np.count_nonzero(side)
        if n_side == len(top):  # one rule for the whole batch
            return _gauss_doubling(rule, *cols)
        if n_side:  # a mixed batch: each rule on its own columns
            value[side], nodes[side], err_est[side] = _gauss_doubling(rule, *(c[side] for c in cols))
    return value, nodes, err_est


def period_by_quadrature(
    m: ModelParams, *, cls: RegimeClassification | None = None
) -> TimeScales:
    """Stagnation time and period of the subcritical motion (see stagnation_times).

    In the contact regime these are the times of the unobstructed orbit,
    which the electrode does not complete. A caller that has already
    classified m passes that classification as cls.
    """
    if cls is None:
        cls = classify_regime(m)
    if cls.regime not in (REGIME_PERIODIC, REGIME_CONTACT):
        raise SupercriticalError(
            f"period undefined in regime '{cls.regime}' (v={m.v}, v_dpi={cls.threshold.v_dpi})"
        )
    fact = cubic_factorization(m.xi, m.v, m.kappa)
    q = (0.0,) * (3 - len(fact.q_coeffs)) + fact.q_coeffs
    t_s, nodes, err_est = _one_row(stagnation_times, m, m.xi, fact.x1, fact.x2, *q)
    t1_bound, ts_bound = _bounds_subcritical(m.xi, fact.x1, fact.x2)
    return TimeScales(
        t_s=t_s, t_p=2.0 * t_s, t1_bound=t1_bound, ts_bound=ts_bound, nodes=nodes, err_est=err_est
    )


def contact_time_by_quadrature(m: ModelParams, *, cls: RegimeClassification | None = None) -> float:
    """Contact time of the supercritical motion, or of a subcritical one in
    the contact regime (see contact_times).

    A caller that has already classified m passes that classification as cls.
    """
    if cls is None:
        cls = classify_regime(m)
    if cls.regime not in (REGIME_TOUCHDOWN, REGIME_CONTACT):
        raise SubcriticalError(
            f"contact time undefined in regime '{cls.regime}' (v={m.v}, v_dpi={cls.threshold.v_dpi})"
        )
    return _one_row(contact_times, m, m.xi, m.kappa, cls.threshold.x0, cls.a_sq)[0]


def analytic_bounds(m: ModelParams) -> tuple[float | None, float | None, float | None]:
    """Analytic upper bounds (t1_bound, ts_bound, tc_bound) for the current regime.

    Subcritical (periodic or contact): t1_bound = 2 sqrt(2)
    sqrt((xi+1)/(2 x2 - x1)) for the time to cross the half-stagnation
    level, and ts_bound adds the bound for the remaining climb; tc_bound is
    None. Supercritical: tc_bound = 2 sqrt(xi+1) / a with a^2 the positive
    minimum of the residual; the subcritical bounds are None. The critical
    regime has no finite bound.
    """
    cls = classify_regime(m)
    if cls.regime in (REGIME_PERIODIC, REGIME_CONTACT):
        fact = cubic_factorization(m.xi, m.v, m.kappa)
        t1_bound, ts_bound = _bounds_subcritical(m.xi, fact.x1, fact.x2)
        return t1_bound, ts_bound, None
    if cls.regime == REGIME_TOUCHDOWN:
        return None, None, cls.tc_bound
    raise RegimeMismatchError("no finite time bounds at the critical voltage")
