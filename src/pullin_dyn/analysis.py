"""Static analysis of the actuator: first-integral factorization, stagnation
positions, pull-in thresholds, regime classification and parameter
sensitivities.

All quantities are dimensionless (see :mod:`pullin_dyn.model`). The
classification treats the electrode as unobstructed below the singularity
x = xi + 1; for xi > 1 a nominally subcritical orbit whose stagnation level
exceeds 1 still makes physical contact, which the time integrator reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._roots import bracketed_root
from .errors import (
    InvalidParameterError,
    SubcriticalError,
    SupercriticalError,
)
from .model import (
    ModelParams,
    deflate,
    g_coeffs,
    g_of_x,
    g_prime_of_x,
    g_second_of_x,
)

_XTOL = 1e-12

REGIME_PERIODIC = "periodic"
REGIME_CRITICAL = "critical"
REGIME_TOUCHDOWN = "touchdown"


@dataclass(frozen=True)
class FirstIntegralFactorization:
    """Roots and residual polynomial of the squared-velocity factorization.

    v^2 = x/(xi+1-x) * (x1 - x) * (x2 - x) * q(x) with q strictly positive on
    [0, xi+1]. In the linear case q is the constant 1; in the cubic case it is
    a positive quadratic. q_coeffs are highest degree first.
    """

    x1: float
    x2: float
    q_coeffs: tuple[float, ...]
    case_tag: str  # "linear" | "cubic"

    def q(self, x):
        return np.polyval(self.q_coeffs, x)


@dataclass(frozen=True)
class PullInResult:
    """Pull-in voltage and asymptotic pull-in position for given (xi, kappa)."""

    v_dpi: float
    x_dpi: float
    x0: float
    kappa: float
    xi: float


@dataclass(frozen=True)
class RegimeClassification:
    """Trichotomy of the step response at a given voltage.

    regime is one of "periodic" (carries the stagnation position x_s),
    "critical" (carries the asymptotic position x_limit) or "touchdown"
    (carries a_sq, the positive minimum of the first-integral residual, and
    the contact-time upper bound 2 sqrt(xi+1)/a).
    """

    regime: str
    v_applied: float
    threshold: PullInResult
    x_s: float | None = None
    x_limit: float | None = None
    a_sq: float | None = None
    tc_bound: float | None = None


def _g_root(xi: float, v: float, kappa: float, lo: float, hi: float) -> float:
    # root of g on a sign-changing bracket
    return bracketed_root(
        lambda x: g_of_x(x, xi, v, kappa),
        lo,
        hi,
        fprime=lambda x: g_prime_of_x(x, xi, kappa),
        xtol=_XTOL,
    )


def _linear_roots(xi: float, v: float) -> tuple[float, float]:
    # the two real roots 0 <= x1 < x2 < xi+1 of the linear-elasticity g,
    # which exist under the subcritical condition v^2 < (xi+1)^3 / 4
    xs = xi + 1.0
    disc = xs * xs - 4.0 * v * v / xs
    if disc <= 0.0:
        raise SupercriticalError(
            f"v={v} at or above pull-in {0.5 * xs ** 1.5}; use classify_regime"
        )
    root = math.sqrt(disc)
    return 0.5 * (xs - root), 0.5 * (xs + root)


def cubic_min_point(xi: float, kappa: float) -> float:
    """Global minimizer x0 of the first-integral residual for cubic elasticity.

    Unique root of 2 kappa x^3 - (3/2) kappa (xi+1) x^2 + 2x - (xi+1) in
    (0, xi+1) under the convexity condition. Continuous at kappa = 0 where it
    equals (xi+1)/2.
    """
    if kappa == 0.0:
        return 0.5 * (xi + 1.0)
    ModelParams(xi=xi, kappa=kappa).require_convex()
    xs = xi + 1.0
    return bracketed_root(
        lambda x: g_prime_of_x(x, xi, kappa),
        1e-15,
        xs - 1e-15,
        fprime=lambda x: g_second_of_x(x, xi, kappa),
        xtol=_XTOL,
    )


@lru_cache(maxsize=256, typed=True)
def pullin(xi: float, kappa: float = 0.0) -> PullInResult:
    """Pull-in threshold; kappa = 0 is the closed-form linear-elasticity case.

    Depends on (xi, kappa) only, so each pair is solved once and cached.
    """
    if kappa == 0.0:
        if xi < 0.0:
            raise InvalidParameterError("xi must be nonnegative")
        xs = xi + 1.0
        return PullInResult(
            v_dpi=0.5 * xs**1.5, x_dpi=0.5 * xs, x0=0.5 * xs, kappa=0.0, xi=xi
        )
    x0 = cubic_min_point(xi, kappa)
    xs = xi + 1.0
    v_dpi = math.sqrt(xs * -g_of_x(x0, xi, 0.0, kappa))
    return PullInResult(v_dpi=v_dpi, x_dpi=x0, x0=x0, kappa=kappa, xi=xi)


def stagnation(xi: float, v: float, kappa: float = 0.0) -> float:
    """Stagnation position of the subcritical motion: smaller root of g in (0, x0).

    Requires v below the pull-in voltage. The kappa = 0 value is closed-form,
    and for kappa > 0 the position is smaller than it.
    """
    if kappa == 0.0:
        return _linear_roots(xi, v)[0]
    thr = pullin(xi, kappa)
    if v >= thr.v_dpi:
        raise SupercriticalError(f"v={v} at or above pull-in {thr.v_dpi}; use classify_regime")
    if v == 0.0:
        return 0.0
    return _g_root(xi, v, kappa, 0.0, thr.x0)


def cubic_factorization(
    xi: float, v: float, kappa: float = 0.0, x1: float | None = None
) -> FirstIntegralFactorization:
    """Factor the first integral as v^2 = x/(xi+1-x) (x1-x)(x2-x) q(x).

    x1 and x2 are the two roots of g bracketing its minimizer x0, and q is the
    positive quadratic quotient of g by the monic (x - x1)(x - x2); at
    kappa = 0 both roots are closed-form and q is the constant 1. A caller
    that already holds the stagnation position passes it as x1.
    """
    if kappa == 0.0:
        x1, x2 = _linear_roots(xi, v)
        return FirstIntegralFactorization(x1=x1, x2=x2, q_coeffs=(1.0,), case_tag="linear")
    xs = xi + 1.0
    x0 = pullin(xi, kappa).x0
    if x1 is None:
        x1 = stagnation(xi, v, kappa)
    # x2 is the root of g above x0; q is g deflated at x1, then at x2
    x2 = _g_root(xi, v, kappa, x0, xs - 1e-15)
    q1, rem1 = deflate(g_coeffs(xi, v, kappa), x1)
    quot, rem2 = deflate(q1, x2)
    residual = max(abs(rem1), abs(rem2))
    if residual > 1e-9 * max(abs(v * v / xs), 1.0):
        raise InvalidParameterError(f"factorization residual {residual} too large; roots inaccurate")
    return FirstIntegralFactorization(
        x1=x1, x2=x2, q_coeffs=tuple(float(c) for c in quot), case_tag="cubic"
    )


# The linear-elasticity quantities are the kappa = 0 cases of the same functions.
pullin_linear = cubic_pullin = pullin
stagnation_linear = cubic_stagnation = stagnation
linear_factorization = cubic_factorization


def classify_regime(m: ModelParams, eps_v: float = 1e-12) -> RegimeClassification:
    """Classify the step response by comparing the voltage with the pull-in threshold.

    The critical band is |v - v_dpi| <= eps_v * max(1, v_dpi): exact
    criticality has measure zero in floating point, and the absolute floor
    keeps the band meaningful for sub-unity thresholds. Callers may widen
    eps_v.
    """
    m.require_convex()
    thr = pullin(m.xi, m.kappa)
    band = eps_v * max(1.0, thr.v_dpi)
    delta = m.v - thr.v_dpi
    if abs(delta) <= band:
        return RegimeClassification(
            regime=REGIME_CRITICAL, v_applied=m.v, threshold=thr, x_limit=thr.x_dpi
        )
    if delta < 0.0:
        return RegimeClassification(
            regime=REGIME_PERIODIC,
            v_applied=m.v,
            threshold=thr,
            x_s=stagnation(m.xi, m.v, m.kappa),
        )
    # g(x0) = (v^2 - v_dpi^2)/(xi+1), with v - v_dpi exact: no cancellation
    a_sq = delta * (m.v + thr.v_dpi) / (m.xi + 1.0)
    tc_bound = 2.0 * math.sqrt(m.xi + 1.0) / math.sqrt(a_sq)
    return RegimeClassification(
        regime=REGIME_TOUCHDOWN,
        v_applied=m.v,
        threshold=thr,
        a_sq=a_sq,
        tc_bound=tc_bound,
    )


def stagnation_sensitivities(xi: float, v: float, kappa: float) -> tuple[float, float]:
    """Partial derivatives (d x_s / d kappa, d x_s / d v) of the stagnation position.

    Computed by implicit differentiation of g(x_s) = 0:
    d x_s/d kappa = (xi+1-x_s) x_s^3 / (2 g'(x_s)) < 0 and
    d x_s/d v = -(2v/(xi+1)) / g'(x_s) > 0, using g'(x_s) < 0.
    """
    x1 = stagnation(xi, v, kappa)
    gp = g_prime_of_x(x1, xi, kappa)
    if gp >= 0.0:
        raise InvalidParameterError("stagnation point is not on the descending branch")
    d_kappa = 0.5 * (xi + 1.0 - x1) * x1**3 / gp
    d_v = -(2.0 * v / (xi + 1.0)) / gp
    return d_kappa, d_v


def pullin_sensitivity(xi: float, kappa: float) -> tuple[float, float]:
    """Derivatives (d x0 / d kappa, d v_dpi / d kappa) of the pull-in point.

    Both are strictly positive: stiffening the cubic spring raises the pull-in
    position and voltage. At kappa = 0 the analytic forms are 0/0 limits, so
    one-sided finite differences of the closed-form maps are returned instead.
    """
    if kappa == 0.0:
        step = 1e-6
        p0, p1, p2 = (pullin(xi, k) for k in (0.0, step, 2.0 * step))
        # second-order one-sided difference toward kappa -> 0+
        return (
            (4.0 * p1.x0 - 3.0 * p0.x0 - p2.x0) / (2.0 * step),
            (4.0 * p1.v_dpi - 3.0 * p0.v_dpi - p2.v_dpi) / (2.0 * step),
        )
    x0 = pullin(xi, kappa).x0
    xs = xi + 1.0
    d_x0 = (2.0 / kappa) * (x0 - 0.5 * xs) / g_second_of_x(x0, xi, kappa)
    h0 = -g_of_x(x0, xi, 0.0, kappa)
    d_v = 0.5 * math.sqrt(xs / h0) * (0.5 * (xs - x0) * x0**3)
    return d_x0, d_v


# re-exported for callers needing the supercritical counterpart explicitly
__all__ = [
    "FirstIntegralFactorization",
    "PullInResult",
    "RegimeClassification",
    "REGIME_PERIODIC",
    "REGIME_CRITICAL",
    "REGIME_TOUCHDOWN",
    "g_of_x",
    "g_prime_of_x",
    "linear_factorization",
    "stagnation_linear",
    "pullin_linear",
    "cubic_min_point",
    "cubic_pullin",
    "pullin",
    "cubic_stagnation",
    "stagnation",
    "cubic_factorization",
    "classify_regime",
    "stagnation_sensitivities",
    "pullin_sensitivity",
    "SubcriticalError",
    "SupercriticalError",
]
