"""Semi-analytic time scales of the motion by endpoint-regularized quadrature.

The stagnation time is the integral of 1/sqrt(v^2(x)) from 0 to the
stagnation position; the contact time integrates the same quantity to the
contact surface x = 1. Both integrands carry inverse-square-root endpoint
factors, removed exactly by the substitution x = x_top sin^2(theta): each
simple root of the squared-velocity factorization contributes a smooth
trigonometric factor. In particular the uncoated case xi = 0, where the
integrand behaves like sqrt(1 - x) at the contact surface, becomes a smooth
cos^2 factor and needs no special treatment.
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
    g_of_x,
)
from .errors import (
    QuadratureFailureError,
    RegimeMismatchError,
    SubcriticalError,
    SupercriticalError,
)
from .model import ModelParams

_BASE_NODES = 32
_MAX_DOUBLINGS = 20
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


def _gauss_doubling(integrand) -> tuple[float, list[float]]:
    """Integrate over [0, pi/2] with node-doubling until successive values agree.

    Returns the converged value and the history of |change| between successive
    refinements (the reported error estimates).
    """
    n = _BASE_NODES
    theta, w = gauss_nodes(n, _HALF_PI)
    prev = float(np.dot(w, integrand(theta)))
    history: list[float] = []
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        theta, w = gauss_nodes(n, _HALF_PI)
        cur = float(np.dot(w, integrand(theta)))
        err = abs(cur - prev)
        history.append(err)
        if err <= _RTOL * max(abs(cur), 1e-300):
            return cur, history
        prev = cur
    raise QuadratureFailureError(
        f"no convergence to rtol={_RTOL} after {_MAX_DOUBLINGS} doublings (last change {history[-1]})"
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

    t_s, history = _gauss_doubling(integrand)
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
    """
    if cls is None:
        cls = classify_regime(m)
    if cls.regime != REGIME_TOUCHDOWN:
        raise SubcriticalError(
            f"contact time undefined in regime '{cls.regime}' (v={m.v}, v_dpi={cls.threshold.v_dpi})"
        )
    xs = m.xi + 1.0

    def integrand(theta: np.ndarray) -> np.ndarray:
        x = np.sin(theta) ** 2
        g = g_of_x(x, m.xi, m.v, m.kappa)
        return 2.0 * np.cos(theta) * np.sqrt((xs - x) / g)

    t_c, _ = _gauss_doubling(integrand)
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
