"""Static analysis of the actuator: first-integral factorization, stagnation
positions, pull-in thresholds, regime classification and parameter
sensitivities.

All quantities are dimensionless (see :mod:`pullin_dyn.model`). For xi > 1
a subcritical orbit whose stagnation level reaches 1 makes physical contact
first; the classification reports it as the contact regime. The row
functions (classify_rows, factor_rows) take arrays of points, and the scalar
functions run them on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._roots import convex_roots
from .errors import InvalidParameterError, SupercriticalError
from .model import (
    ModelParams,
    deflate,
    g_coeffs,
    g_of_x,
    g_prime_of_x,
    g_second_of_x,
)

REGIME_PERIODIC = "periodic"
REGIME_CRITICAL = "critical"
REGIME_TOUCHDOWN = "touchdown"
REGIME_CONTACT = "contact"


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
    "critical" (carries the asymptotic position x_limit), "touchdown"
    (carries a_sq, the positive minimum of the first-integral residual, and
    the contact-time upper bound 2 sqrt(xi+1)/a) or "contact", a subcritical
    voltage whose stagnation position x_s >= 1 lies beyond the contact
    surface (carries x_s and the negative a_sq = g(x0)).
    """

    regime: str
    v_applied: float
    threshold: PullInResult
    x_s: float | None = None
    x_limit: float | None = None
    a_sq: float | None = None
    tc_bound: float | None = None


def _column(*values) -> list[np.ndarray]:
    # one-row arrays: the scalar API runs the array code on one row
    return [np.array([val], dtype=float) for val in values]


def _g_roots(xi, v, kappa, x0, a_sq) -> tuple[np.ndarray, np.ndarray]:
    """The roots x_s < x0 < x2 of g for arrays of subcritical points, g(x0) = a_sq < 0.

    At v = 0 they are 0 and xi+1. Otherwise one convex_roots pass solves
    both on g = a_sq + (x - x0)^2 q(x), free of the cancellation near
    pull-in, from the roots of its cubic model about x0 (exact at
    kappa = 0), which lie a few Newton steps away even close to pull-in.
    """
    x_s, x2 = np.zeros_like(v), xi + 1.0
    at = (v != 0.0).nonzero()[0]
    if at.size:
        # the first half of each array solves for x_s, the second for x2
        both = np.concatenate((at, at))
        xi, v, kappa, x0, a_sq = xi[both], v[both], kappa[both], x0[both], a_sq[both]
        rising = np.arange(both.size) >= at.size
        q = deflate(deflate(g_coeffs(xi, 0.0, kappa), x0)[0], x0)[0]
        dq, q0 = deflate(q, x0)
        d = np.sqrt(-a_sq / q0)
        # x0 -+ d solve the quadratic model; the cubic term q'(x0) (x - x0)^3
        # moves both roots by the same shift
        start = np.where(rising, x0 + d, x0 - d) - 0.5 * deflate(dq, x0)[1] * d * d / q0
        lo, hi = np.where(rising, x0, 0.0), np.where(rising, xi + 1.0 - 1e-15, x0)

        def g_dg(x):
            # dividing q by (X - x) leaves the remainder q(x) and a quotient worth q'(x) at x
            h, (quot, q_x) = x - x0, deflate(q, x)
            return a_sq + h * h * q_x, h * (2.0 * q_x + h * deflate(quot, x)[1])

        roots = convex_roots(g_dg, np.clip(start, lo, hi), lo, hi, rising)
        # near 0, where g ~ v^2/(xi+1) is tiny beside a_sq, the plain coefficients of g round less: one
        # more Newton step on them. The zeros of the convex g's tangent at 0 and chord to x0 bracket x_s;
        # a root outside them (at huge xi the factored g is noise there) steps from the tangent's zero.
        near0 = ((xi + 1.0) * roots < -a_sq).nonzero()[0]
        if near0.size:
            coeffs = g_coeffs(xi[near0], v[near0], kappa[near0])
            low, high = coeffs[4] / -coeffs[3], coeffs[4] * x0[near0] / (coeffs[4] - a_sq[near0])
            r = np.where((low <= roots[near0]) & (roots[near0] <= high), roots[near0], low)
            quot, g = deflate(coeffs, r)
            roots[near0] = r - g / deflate(quot, r)[1]
        x_s[at], x2[at] = roots[: at.size], roots[at.size :]
    return x_s, x2


def cubic_min_point(xi: float, kappa: float) -> float:
    """Global minimizer x0 of the first-integral residual for cubic elasticity.

    Unique root of 2 kappa x^3 - (3/2) kappa (xi+1) x^2 + 2x - (xi+1) in
    (0, xi+1) under the convexity condition. Continuous at kappa = 0 where it
    equals (xi+1)/2.
    """
    ModelParams(xi=xi, kappa=kappa).require_convex()
    xs = xi + 1.0
    x0 = convex_roots(
        lambda x: (g_prime_of_x(x, xi, kappa), g_second_of_x(x, xi, kappa)),
        *_column(0.5 * xs, 1e-15, xs - 1e-15), True,
    )
    return float(x0[0])


@lru_cache(maxsize=256, typed=True)
def pullin(xi: float, kappa: float = 0.0) -> PullInResult:
    """Pull-in threshold; kappa = 0 is the closed-form linear-elasticity case.

    Depends on (xi, kappa) only, so each pair is solved once and cached.
    """
    if kappa == 0.0:
        ModelParams(xi=xi)  # rejects a negative, non-finite or overflowing xi
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

    Requires v below the pull-in voltage. For kappa > 0 the position is
    smaller than at kappa = 0.
    """
    return cubic_factorization(xi, v, kappa).x1


def factor_rows(xi, v, kappa, x1, x2):
    """Quotient q of g by (x - x1)(x - x2) for arrays of points whose g has
    the roots x1 and x2.

    Returns q as three coefficient arrays, highest degree first (leading
    zeros at kappa = 0), and an InvalidParameterError for each row, by
    index, whose deflation residual shows inaccurate roots.
    """
    q1, rem1 = deflate(g_coeffs(xi, v, kappa), x1)
    q, rem2 = deflate(q1, x2)
    residual = np.maximum(np.abs(rem1), np.abs(rem2))
    bad = (residual > 1e-9 * np.maximum(v * v / (xi + 1.0), 1.0)).nonzero()[0]
    return q, {
        i: InvalidParameterError(f"factorization residual {residual[i]} too large; roots inaccurate")
        for i in bad.tolist()
    }


def cubic_factorization(xi: float, v: float, kappa: float = 0.0) -> FirstIntegralFactorization:
    """Factor the first integral as v^2 = x/(xi+1-x) (x1-x)(x2-x) q(x).

    x1 and x2 are the two roots of g bracketing its minimizer x0, solved in
    one pass, and q is the positive quadratic quotient of g by the monic
    (x - x1)(x - x2); at kappa = 0, q is the constant 1.
    """
    thr = pullin(xi, kappa)
    if v >= thr.v_dpi:
        raise SupercriticalError(f"v={v} at or above pull-in {thr.v_dpi}; use classify_regime")
    col = _column(xi, kappa, v, thr.x0, thr.v_dpi)
    _, x1, x2, _ = classify_rows(*col, eps_v=0.0)  # every v < v_dpi is subcritical
    q, failures = factor_rows(col[0], col[2], col[1], x1, x2)
    if failures:
        raise failures[0]
    return FirstIntegralFactorization(
        x1=float(x1[0]),
        x2=float(x2[0]),
        q_coeffs=(1.0,) if kappa == 0.0 else tuple(float(c[0]) for c in q),
        case_tag="linear" if kappa == 0.0 else "cubic",
    )


# The linear-elasticity quantities are the kappa = 0 cases of the same functions.
pullin_linear = cubic_pullin = pullin
stagnation_linear = cubic_stagnation = stagnation
linear_factorization = cubic_factorization


def classify_rows(xi, kappa, v, x0, v_dpi, eps_v: float = 1e-12):
    """Array form of classify_regime for rows of convex (xi, kappa) pairs.

    x0 and v_dpi are each row's pull-in position and voltage. Returns the
    regime of each row, the roots x_s < x0 < x2 of g (nan outside the
    periodic and contact regimes) and a_sq = g(x0).
    """
    delta = v - v_dpi
    regime = np.where(delta < 0.0, REGIME_PERIODIC, REGIME_TOUCHDOWN)
    regime[np.abs(delta) <= eps_v * np.maximum(1.0, v_dpi)] = REGIME_CRITICAL
    # g(x0) = (v^2 - v_dpi^2)/(xi+1), with v - v_dpi exact: no cancellation
    a_sq = delta * (v + v_dpi) / (xi + 1.0)
    sub = (regime == REGIME_PERIODIC).nonzero()[0]
    x_s, x2 = np.full((2, v.size), np.nan)
    if sub.size:
        x_s[sub], x2[sub] = _g_roots(xi[sub], v[sub], kappa[sub], x0[sub], a_sq[sub])
        # the electrode reaches the contact surface x = 1 before it stagnates
        regime[sub[x_s[sub] >= 1.0]] = REGIME_CONTACT
    return regime, x_s, x2, a_sq


def classify_regime(m: ModelParams, eps_v: float = 1e-12) -> RegimeClassification:
    """Classify the step response by comparing the voltage with the pull-in threshold.

    The critical band is |v - v_dpi| <= eps_v * max(1, v_dpi): exact
    criticality has measure zero in floating point, and the absolute floor
    keeps the band meaningful for sub-unity thresholds. Callers may widen
    eps_v. A subcritical voltage whose stagnation position x_s lies at or
    beyond the contact surface (possible for xi > 1) is the contact regime.
    """
    if not (math.isfinite(eps_v) and eps_v >= 0.0):
        raise InvalidParameterError(f"eps_v must be finite and >= 0, got {eps_v!r}")
    m.require_convex()
    thr = pullin(m.xi, m.kappa)
    rows = classify_rows(*_column(m.xi, m.kappa, m.v, thr.x0, thr.v_dpi), eps_v)
    regime, x_s, _, a_sq = (r[0].item() for r in rows)
    if regime == REGIME_CRITICAL:
        return RegimeClassification(regime, m.v, thr, x_limit=thr.x_dpi)
    if regime == REGIME_TOUCHDOWN:
        tc_bound = 2.0 * math.sqrt(m.xi + 1.0) / math.sqrt(a_sq)
        return RegimeClassification(regime, m.v, thr, a_sq=a_sq, tc_bound=tc_bound)
    return RegimeClassification(regime, m.v, thr, x_s=x_s, a_sq=None if regime == REGIME_PERIODIC else a_sq)


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
    position and voltage. Implicit differentiation of g'(x0) = 0 gives
    d x0/d kappa = x0^2 (1.5(xi+1) - 2 x0) / g''(x0), and by the envelope
    theorem d v_dpi/d kappa needs only the kappa-derivative of g at x0. Both
    hold at kappa = 0, where they are (xi+1)^3/16 and (xi+1)^3.5/32.
    """
    x0 = pullin(xi, kappa).x0
    xs = xi + 1.0
    d_x0 = x0 * x0 * (1.5 * xs - 2.0 * x0) / g_second_of_x(x0, xi, kappa)
    h0 = -g_of_x(x0, xi, 0.0, kappa)
    d_v = 0.5 * math.sqrt(xs / h0) * (0.5 * (xs - x0) * x0**3)
    return d_x0, d_v
