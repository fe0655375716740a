"""Normalized actuator model: parameters, energies, forces, first integral.

A movable electrode of unit normalized travel faces a fixed electrode whose
dielectric coating shifts the electrostatic singularity to x = xi + 1.
Physical contact occurs at x = 1; all model functions are defined on
[0, xi + 1) and callers enforce the contact boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvexityError, InvalidParameterError, SingularityError

VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m

# The statics form (xi+1)^3 (v_dpi^2 = (xi+1)^3/4 at kappa = 0) and v^2, which
# overflow a little above 1e102 and 1e154.
STATICS_MAX = 1e100


def in_statics_range(val: float) -> bool:
    """Whether xi or v lies in [0, STATICS_MAX], where the statics stay finite (NaN does not)."""
    return 0.0 <= val <= STATICS_MAX


def convexity_bound(xi: float) -> float:
    """Supremum of cubic stiffness values keeping the first-integral residual strictly convex."""
    return 16.0 / (3.0 * (xi + 1.0) ** 2)


@dataclass(frozen=True)
class PhysicalParams:
    """Device parameters in SI units.

    Attributes
    ----------
    m : electrode mass (kg)
    k : linear spring constant (N/m)
    area : electrode area (m^2)
    gap : initial gap between electrode and dielectric surface (m)
    voltage : applied step voltage (V)
    k3 : cubic spring constant (N/m^3)
    d0 : dielectric coating thickness (m)
    eps_r : relative permittivity of the coating
    eps0 : vacuum permittivity (F/m)
    """

    m: float
    k: float
    area: float
    gap: float
    voltage: float = 0.0
    k3: float = 0.0
    d0: float = 0.0
    eps_r: float = 1.0
    eps0: float = VACUUM_PERMITTIVITY

    def __post_init__(self) -> None:
        for name in ("m", "k", "area", "gap", "eps0"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(f"{name} must be strictly positive")
        for name in ("voltage", "k3", "d0"):
            if getattr(self, name) < 0.0:
                raise InvalidParameterError(f"{name} must be nonnegative")
        if self.eps_r < 1.0:
            raise InvalidParameterError("eps_r must be >= 1")


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless actuator parameters.

    xi is the effective insulator thickness d0/(gap*eps_r), v the normalized
    voltage, kappa the normalized cubic stiffness and mu an optional linear
    damping coefficient (0 for the conservative model).
    """

    xi: float = 0.0
    v: float = 0.0
    kappa: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        for name in ("xi", "v", "kappa", "mu"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0.0):
                raise InvalidParameterError(f"{name} must be finite and nonnegative")
            if name in ("xi", "v") and not in_statics_range(val):
                raise InvalidParameterError(f"{name}={val!r} is above {STATICS_MAX:g}, where the statics overflow")

    @property
    def x_singular(self) -> float:
        """Location of the electrostatic singularity."""
        return self.xi + 1.0

    def require_convex(self) -> None:
        """Raise unless kappa satisfies the strict convexity condition."""
        bound = convexity_bound(self.xi)
        if self.kappa >= bound:
            raise ConvexityError(
                f"kappa={self.kappa} violates kappa < 16/(3(xi+1)^2) = {bound}"
            )


def normalize_physical(p: PhysicalParams) -> ModelParams:
    """Convert SI device parameters to the dimensionless parameter set.

    Displacement is scaled by the gap, time by sqrt(k/m), and the voltage
    enters through v^2 = eps0*area*voltage^2 / (k*gap^3).
    """
    try:
        xi = p.d0 / (p.gap * p.eps_r)
        v = math.sqrt(p.eps0 * p.area * p.voltage**2 / (p.k * p.gap**3))
        kappa = p.k3 * p.gap**2 / p.k
    except (OverflowError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"the normalized parameters under- or overflow ({exc})") from None
    for name, val, given in (("xi", xi, p.d0), ("v", v, p.voltage), ("kappa", kappa, p.k3)):
        if not math.isfinite(val) or val == 0.0 < given:
            raise InvalidParameterError(f"normalized {name}={val!r} under- or overflows")
    return ModelParams(xi=xi, v=v, kappa=kappa, mu=0.0)


def energy(x, v, m: ModelParams):
    """Total normalized energy at displacement x and velocity v (scalars or arrays)."""
    return 0.5 * v * v + 0.5 * x * x + 0.25 * m.kappa * x**4 - 0.5 * m.v * m.v / (m.x_singular - x)


def force_constants(m: ModelParams) -> tuple[float, float, float]:
    """(xi+1, kappa, v^2/2): the constants of the normalized force, as make_force and the fixed-step loop use them."""
    return m.x_singular, m.kappa, 0.5 * m.v * m.v


def make_force(m: ModelParams) -> Callable[[float], float]:
    """Return the scalar normalized acceleration x -> -x - kappa x^3 + v^2 / (2 (xi+1-x)^2).

    The singularity guard is kept, the dataclass attribute lookups and the ** operator's dispatch are not:
    math.pow is the libm pow that ** calls, bit for bit (a multiply would round differently).
    """
    (xs, kappa, v2h), pow_ = force_constants(m), math.pow

    def f(x: float) -> float:
        if x >= xs:
            raise SingularityError(f"x={x} at or beyond singularity x=xi+1={xs}")
        return -x - kappa * pow_(x, 3.0) + v2h / pow_(xs - x, 2.0)

    return f


def g_of_x(x, xi: float, v: float, kappa: float = 0.0):
    """First-integral residual g(x) = v^2/(xi+1) - (xi+1-x)x - (kappa/2)(xi+1-x)x^3.

    The squared velocity of rest-start motion is x g(x)/(xi+1-x); the motion
    stagnates where g vanishes. Accepts scalars or arrays.
    """
    xs = xi + 1.0
    rem = xs - x
    return v * v / xs - rem * x - 0.5 * kappa * rem * x**3


def g_prime_of_x(x, xi: float, kappa: float = 0.0):
    """Derivative of the first-integral residual (independent of v)."""
    xs = xi + 1.0
    return 2.0 * kappa * x**3 - 1.5 * kappa * xs * x**2 + 2.0 * x - xs


def g_second_of_x(x, xi: float, kappa: float = 0.0):
    """Second derivative of the first-integral residual."""
    return 6.0 * kappa * x * x - 3.0 * kappa * (xi + 1.0) * x + 2.0


def g_coeffs(xi, v, kappa=0.0) -> tuple:
    """Coefficients of the quartic g, highest degree first; the two leading
    ones vanish at kappa = 0. Accepts scalars or arrays."""
    xs = xi + 1.0
    return (0.5 * kappa, -0.5 * kappa * xs, 1.0, -xs, v * v / xs)


def deflate(coeffs, root):
    """Synthetic division by (x - root): quotient coefficients and remainder.

    Elementwise when the coefficients and the root are arrays."""
    quot = []
    acc = coeffs[0]
    for c in coeffs[1:]:
        quot.append(acc)
        acc = c + acc * root
    return tuple(quot), acc


def first_integral_rhs(x, m: ModelParams):
    """Squared velocity as a function of displacement for rest-start motion.

    Energy conservation from the rest initial state gives
    v^2 = x g(x)/(xi+1-x) with g the residual of :func:`g_of_x`.
    Accepts a scalar or an ndarray of displacements in [0, xi+1).
    """
    xs = m.x_singular
    if np.any(np.asarray(x) >= xs):
        raise SingularityError(f"x at or beyond singularity x=xi+1={xs}")
    return x / (xs - x) * g_of_x(x, m.xi, m.v, m.kappa)

