"""Semi-analytic time scales of the motion by endpoint-regularized quadrature.

The stagnation time is the integral of 1/sqrt(v^2(x)) from 0 to the
stagnation position; the contact time integrates the same quantity to the
contact surface x = 1. Both integrands carry inverse-square-root endpoint
factors, removed exactly by the substitution x = x_top sin^2(theta): each
simple root of the squared-velocity factorization contributes a smooth
trigonometric factor. In particular the uncoated case xi = 0, where the
integrand behaves like sqrt(1 - x) at the contact surface, becomes a smooth
cos^2 factor and needs no special treatment.

Just above the pull-in voltage the contact-time integrand has a peak of
half-width ~ sqrt(v - v_dpi) at the pull-in position; a sinh map centred on
the peak (Johnston & Elliott, IJNME 62 (2005) 564) makes it smooth. Every
rule doubles its Gauss-Legendre order up to a fixed cap and fails past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import (
    REGIME_PERIODIC,
    REGIME_TOUCHDOWN,
    RegimeClassification,
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
_HALF_PI = 0.5 * math.pi  # theta range of the sin^2 substitution


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


@lru_cache(maxsize=32)
def gauss_nodes(n: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n mapped to [0, length]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * length
    return half * (x + 1.0), half * w


def _gauss_doubling(integrand, m: ModelParams | None = None) -> tuple[float, list[float]]:
    """Integrate over [0, pi/2] with node-doubling until successive values agree.

    Returns the converged value and the history of |change| between successive
    refinements (the reported error estimates). Past _MAX_NODES nodes it
    raises QuadratureFailureError naming the parameter point m.
    """
    n = _BASE_NODES
    theta, w = gauss_nodes(n, _HALF_PI)
    prev = float(np.dot(w, integrand(theta)))
    history: list[float] = []
    while n < _MAX_NODES:
        n *= 2
        theta, w = gauss_nodes(n, _HALF_PI)
        cur = float(np.dot(w, integrand(theta)))
        err = abs(cur - prev)
        history.append(err)
        if err <= _RTOL * max(abs(cur), 1e-300):
            return cur, history
        prev = cur
    point = "" if m is None else f" at (xi, kappa, v) = ({m.xi!r}, {m.kappa!r}, {m.v!r})"
    raise QuadratureFailureError(
        f"no convergence to rtol={_RTOL} within {_MAX_NODES} nodes{point}; "
        f"last change {history[-1]!r}"
    )


def _bounds_subcritical(xi: float, x1: float, x2: float) -> tuple[float, float]:
    xs = xi + 1.0
    t1 = 2.0 * math.sqrt(2.0) * math.sqrt(xs / (2.0 * x2 - x1))
    return t1, 2.0 * math.sqrt((xs - 0.5 * x1) / (x2 - x1)) + t1


def period_by_quadrature(
    m: ModelParams, *, cls: RegimeClassification | None = None
) -> TimeScales:
    """Stagnation time and period of the subcritical motion.

    The substitution x = x1 sin^2(theta) turns the half-orbit time integral
    into the smooth integral of 2 sqrt((xi+1-x)/((x2-x) q(x))) over
    [0, pi/2], evaluated by node-doubling Gauss-Legendre. A caller that has
    already classified m passes that classification as cls, so the
    stagnation root is not solved again.
    """
    if cls is None:
        cls = classify_regime(m)
    if cls.regime != REGIME_PERIODIC:
        raise SupercriticalError(
            f"period undefined in regime '{cls.regime}' (v={m.v}, v_dpi={cls.threshold.v_dpi})"
        )
    fact = cubic_factorization(m.xi, m.v, m.kappa, x1=cls.x_s)
    xs = m.xi + 1.0
    x1, x2 = fact.x1, fact.x2

    def integrand(theta: np.ndarray) -> np.ndarray:
        x = x1 * np.sin(theta) ** 2
        return 2.0 * np.sqrt((xs - x) / ((x2 - x) * fact.q(x)))

    t_s, history = _gauss_doubling(integrand, m)
    t1_bound, ts_bound = _bounds_subcritical(m.xi, x1, x2)
    return TimeScales(
        t_s=t_s, t_p=2.0 * t_s, t1_bound=t1_bound, ts_bound=ts_bound,
        nodes=_BASE_NODES << len(history), err_est=history[-1],
    )


def contact_time_by_quadrature(m: ModelParams, *, cls: RegimeClassification | None = None) -> float:
    """Contact time of the supercritical motion.

    With x = sin^2(theta) the integrand is 2 cos(theta)
    sqrt((xi+1-x)/g(x)) with g strictly positive on [0, 1]; for xi = 0 the
    remaining sqrt(1-x) factor reduces to cos(theta) exactly, so a single
    smooth quadrature covers every xi >= 0. A caller that has already
    classified m passes that classification as cls.

    g = a^2 + (x - x0)^2 q(x), with x0 the pull-in position, q the residual
    at v = 0 deflated twice at x0 and a^2 = cls.a_sq, so 1/sqrt(g) peaks at
    x0 with half-width sqrt(a^2/q(x0)), free of the cancellation in g near
    v_dpi. A peak at or beyond x = 1 is an endpoint peak at x = 1. The
    substitution theta = theta0 + eps sinh(u), with theta0 the peak and eps
    its half-width carried into theta, spreads the peak over a unit width in
    u, so the cost stays bounded as v approaches v_dpi.
    """
    if cls is None:
        cls = classify_regime(m)
    if cls.regime != REGIME_TOUCHDOWN:
        raise SubcriticalError(
            f"contact time undefined in regime '{cls.regime}' (v={m.v}, v_dpi={cls.threshold.v_dpi})"
        )
    xs = m.xi + 1.0
    thr = cls.threshold
    q, _ = deflate(deflate(g_coeffs(m.xi, 0.0, m.kappa), thr.x0)[0], thr.x0)
    a_sq = cls.a_sq
    x_peak = min(thr.x0, 1.0)
    q_peak = deflate(q, x_peak)[1]  # the remainder is q(x_peak)
    half_width = math.sqrt(a_sq / q_peak + (thr.x0 - x_peak) ** 2)
    theta0 = math.asin(math.sqrt(x_peak))
    eps = theta0 - math.asin(math.sqrt(max(x_peak - half_width, 0.0)))

    # theta = theta0 + eps sinh(u) over [u_lo, u_hi], u = u_lo + scale t
    u_lo = -math.asinh(theta0 / eps)
    scale = (math.asinh((_HALF_PI - theta0) / eps) - u_lo) / _HALF_PI
    jac = 2.0 * eps * scale
    shift = x_peak - thr.x0

    def mapped(t: np.ndarray) -> np.ndarray:
        u = u_lo + scale * t
        d = eps * np.sinh(u)  # theta - theta0, without cancellation
        theta = theta0 + d
        x = np.sin(theta) ** 2
        # x - x0 = sin(theta + theta0) sin(theta - theta0) + (x_peak - x0)
        gap = np.sin(theta + theta0) * np.sin(d) + shift
        q_x = q[0]
        for c in q[1:]:
            q_x = q_x * x + c
        g = a_sq + gap * gap * q_x
        return jac * np.cosh(u) * np.cos(theta) * np.sqrt((xs - x) / g)

    t_c, _ = _gauss_doubling(mapped, m)
    return t_c


def analytic_bounds(m: ModelParams) -> tuple[float | None, float | None, float | None]:
    """Analytic upper bounds (t1_bound, ts_bound, tc_bound) for the current regime.

    Subcritical: t1_bound = 2 sqrt(2) sqrt((xi+1)/(2 x2 - x1)) for the time to
    cross the half-stagnation level, and ts_bound adds the bound for the
    remaining climb; tc_bound is None. Supercritical: tc_bound =
    2 sqrt(xi+1) / a with a^2 the positive minimum of the residual; the
    subcritical bounds are None. The critical regime has no finite bound.
    """
    cls = classify_regime(m)
    if cls.regime == REGIME_PERIODIC:
        fact = cubic_factorization(m.xi, m.v, m.kappa, x1=cls.x_s)
        t1_bound, ts_bound = _bounds_subcritical(m.xi, fact.x1, fact.x2)
        return t1_bound, ts_bound, None
    if cls.regime == REGIME_TOUCHDOWN:
        return None, None, cls.tc_bound
    raise RegimeMismatchError("no finite time bounds at the critical voltage")
