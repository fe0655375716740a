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


def linear_factorization(xi: float, v: float) -> FirstIntegralFactorization:
    """Factor the linear-elasticity first integral over its two real roots.

    Requires the subcritical condition v^2 < (xi+1)^3 / 4; then
    0 <= x1 < x2 < xi+1 and v^2 = x/(xi+1-x) (x1-x)(x2-x).
    """
    xs = xi + 1.0
    disc = xs * xs - 4.0 * v * v / xs
    if disc <= 0.0:
        raise SupercriticalError(
            f"v={v} at or above pull-in {0.5 * xs ** 1.5}; use classify_regime"
        )
    root = math.sqrt(disc)
    x1 = 0.5 * (xs - root)
    x2 = 0.5 * (xs + root)
    return FirstIntegralFactorization(x1=x1, x2=x2, q_coeffs=(1.0,), case_tag="linear")


def stagnation_linear(xi: float, v: float) -> float:
    """Stagnation position of the subcritical linear-elasticity motion."""
    return linear_factorization(xi, v).x1


def pullin_linear(xi: float) -> PullInResult:
    """Closed-form pull-in threshold for linear elasticity."""
    if xi < 0.0:
        raise InvalidParameterError("xi must be nonnegative")
    xs = xi + 1.0
    return PullInResult(
        v_dpi=0.5 * xs**1.5, x_dpi=0.5 * xs, x0=0.5 * xs, kappa=0.0, xi=xi
    )


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
def cubic_pullin(xi: float, kappa: float) -> PullInResult:
    """Pull-in threshold for cubic elasticity; reduces to the linear formulas at kappa = 0.

    Depends on (xi, kappa) only, so each pair is solved once and cached.
    """
    if kappa == 0.0:
        return pullin_linear(xi)
    x0 = cubic_min_point(xi, kappa)
    xs = xi + 1.0
    v_dpi = math.sqrt(xs * -g_of_x(x0, xi, 0.0, kappa))
    return PullInResult(v_dpi=v_dpi, x_dpi=x0, x0=x0, kappa=kappa, xi=xi)


def pullin(xi: float, kappa: float = 0.0) -> PullInResult:
    """Pull-in threshold for either elasticity variant."""
    return cubic_pullin(xi, kappa)


def cubic_stagnation(xi: float, v: float, kappa: float) -> float:
    """Stagnation position for cubic elasticity: smaller root of g in (0, x0).

    Requires v below the cubic pull-in voltage. Equals the linear stagnation
    position at kappa = 0 and is smaller than it for kappa > 0.
    """
    if kappa == 0.0:
        return stagnation_linear(xi, v)
    thr = cubic_pullin(xi, kappa)
    if v >= thr.v_dpi:
        raise SupercriticalError(f"v={v} at or above pull-in {thr.v_dpi}; use classify_regime")
    if v == 0.0:
        return 0.0
    return _g_root(xi, v, kappa, 0.0, thr.x0)


def stagnation(xi: float, v: float, kappa: float = 0.0) -> float:
    """Stagnation position for either elasticity variant."""
    return cubic_stagnation(xi, v, kappa)


def cubic_factorization(xi: float, v: float, kappa: float) -> FirstIntegralFactorization:
    """Factor the cubic-elasticity first integral as (x1-x)(x2-x) q(x).

    x1 and x2 are the two roots of g bracketing its minimizer x0, and q is the
    positive quadratic quotient of g by the monic (x - x1)(x - x2).
    """
    if kappa == 0.0:
        return linear_factorization(xi, v)
    x0 = cubic_pullin(xi, kappa).x0
    return _cubic_factors(xi, v, kappa, x0, cubic_stagnation(xi, v, kappa))


def periodic_factorization(cls: RegimeClassification) -> FirstIntegralFactorization:
    """Factorization of a periodic classification, reusing its x0 and x_s."""
    thr = cls.threshold
    if thr.kappa == 0.0:
        return linear_factorization(thr.xi, cls.v_applied)
    return _cubic_factors(thr.xi, cls.v_applied, thr.kappa, thr.x0, cls.x_s)


def _cubic_factors(
    xi: float, v: float, kappa: float, x0: float, x1: float
) -> FirstIntegralFactorization:
    # x2 is the root of g above x0; q is g deflated at x1, then at x2
    xs = xi + 1.0
    x2 = _g_root(xi, v, kappa, x0, xs - 1e-15)
    q1, rem1 = deflate(g_coeffs(xi, v, kappa), x1)
    quot, rem2 = deflate(q1, x2)
    residual = max(abs(rem1), abs(rem2))
    if residual > 1e-9 * max(abs(v * v / xs), 1.0):
        raise InvalidParameterError(f"factorization residual {residual} too large; roots inaccurate")
    return FirstIntegralFactorization(
        x1=x1, x2=x2, q_coeffs=tuple(float(c) for c in quot), case_tag="cubic"
    )


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
    a_sq = float(g_of_x(thr.x0, m.xi, m.v, m.kappa))
    tc_bound = 2.0 * math.sqrt(m.xi + 1.0) / math.sqrt(a_sq)
    return RegimeClassification(
        regime=REGIME_TOUCHDOWN,
        v_applied=m.v,
        threshold=thr,
        a_sq=a_sq,
        tc_bound=tc_bound,
    )


def stagnation_sensitivities(
    xi: float, v: float, kappa: float, verify: bool = False
) -> tuple[float, float]:
    """Partial derivatives (d x_s / d kappa, d x_s / d v) of the stagnation position.

    Computed by implicit differentiation of g(x_s) = 0:
    d x_s/d kappa = (xi+1-x_s) x_s^3 / (2 g'(x_s)) < 0 and
    d x_s/d v = -(2v/(xi+1)) / g'(x_s) > 0, using g'(x_s) < 0.
    With verify=True a central finite difference cross-check (step 1e-6) must
    agree to 1e-4 relative, otherwise an ArithmeticError is raised.
    """
    x1 = cubic_stagnation(xi, v, kappa)
    gp = g_prime_of_x(x1, xi, kappa)
    if gp >= 0.0:
        raise InvalidParameterError("stagnation point is not on the descending branch")
    d_kappa = 0.5 * (xi + 1.0 - x1) * x1**3 / gp
    d_v = -(2.0 * v / (xi + 1.0)) / gp
    if verify:
        step = 1e-6
        fd_kappa = (
            cubic_stagnation(xi, v, kappa + step) - cubic_stagnation(xi, v, max(kappa - step, 0.0))
        ) / (step + min(kappa, step))
        fd_v = (cubic_stagnation(xi, v + step, kappa) - cubic_stagnation(xi, v - step, kappa)) / (
            2.0 * step
        )
        _check_fd("d x_s/d {}", (("kappa", d_kappa, fd_kappa), ("v", d_v, fd_v)))
    return d_kappa, d_v


def pullin_sensitivity(
    xi: float, kappa: float, verify: bool = False
) -> tuple[float, float]:
    """Derivatives (d x0 / d kappa, d v_dpi / d kappa) of the pull-in point.

    Both are strictly positive: stiffening the cubic spring raises the pull-in
    position and voltage. At kappa = 0 the analytic forms are 0/0 limits, so
    one-sided finite differences of the closed-form maps are returned instead.
    """
    if kappa == 0.0:
        step = 1e-6
        p0, p1, p2 = (cubic_pullin(xi, k) for k in (0.0, step, 2.0 * step))
        # second-order one-sided difference toward kappa -> 0+
        return (
            (4.0 * p1.x0 - 3.0 * p0.x0 - p2.x0) / (2.0 * step),
            (4.0 * p1.v_dpi - 3.0 * p0.v_dpi - p2.v_dpi) / (2.0 * step),
        )
    x0 = cubic_pullin(xi, kappa).x0
    xs = xi + 1.0
    d_x0 = (2.0 / kappa) * (x0 - 0.5 * xs) / g_second_of_x(x0, xi, kappa)
    h0 = -g_of_x(x0, xi, 0.0, kappa)
    d_v = 0.5 * math.sqrt(xs / h0) * (0.5 * (xs - x0) * x0**3)
    if verify:
        step = 1e-6
        up, down = cubic_pullin(xi, kappa + step), cubic_pullin(xi, kappa - step)
        fd_x0 = (up.x0 - down.x0) / (2.0 * step)
        fd_v = (up.v_dpi - down.v_dpi) / (2.0 * step)
        _check_fd("d {}/d kappa", (("x0", d_x0, fd_x0), ("v_dpi", d_v, fd_v)))
    return d_x0, d_v


def _check_fd(label: str, checks) -> None:
    # analytic derivative against its finite difference, to 1e-4 relative
    for name, an, fd in checks:
        if abs(an - fd) > 1e-4 * max(abs(an), 1e-12):
            raise ArithmeticError(f"{label.format(name)}: analytic {an} vs finite difference {fd}")


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
