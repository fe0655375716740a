"""Pull-in analysis and dynamics of an undamped electrostatic actuator.

The package characterizes the step response of a one-degree-of-freedom
parallel-plate actuator with linear or cubic elastic restoring forces:
pull-in thresholds, regime classification, trajectory integration with
event detection, and time scales with their analytic bounds.
"""

from .analysis import (
    REGIME_CONTACT,
    REGIME_CRITICAL,
    REGIME_PERIODIC,
    REGIME_TOUCHDOWN,
    FirstIntegralFactorization,
    PullInResult,
    RegimeClassification,
    classify_regime,
    cubic_factorization,
    cubic_min_point,
    cubic_pullin,
    cubic_stagnation,
    g_of_x,
    g_prime_of_x,
    linear_factorization,
    pullin,
    pullin_linear,
    pullin_sensitivity,
    stagnation,
    stagnation_linear,
    stagnation_sensitivities,
)
from .dynamics import (
    EVENT_RETURN,
    EVENT_STAGNATION,
    EVENT_TOUCHDOWN,
    SCHEME_ADAPTIVE,
    SCHEME_SYMPLECTIC,
    CriticalReport,
    Event,
    GenericForcedModel,
    IntegratorConfig,
    SymmetryReport,
    TouchDownCheck,
    Trajectory,
    energy_series,
    generic_tc_bound,
    integrate,
    integrate_critical,
    integrate_generic,
    verify_periodicity,
)
from .errors import (
    ConvexityError,
    IntegratorFailureError,
    InvalidParameterError,
    NotApplicableError,
    PullInDynError,
    QuadratureFailureError,
    RegimeMismatchError,
    SingularityError,
    SubcriticalError,
    SupercriticalError,
)
from .model import (
    ModelParams,
    PhysicalParams,
    convexity_bound,
    first_integral_rhs,
    normalize_physical,
)
from .quadrature import (
    TimeScales,
    analytic_bounds,
    contact_time_by_quadrature,
    period_by_quadrature,
)

__version__ = "0.1.0"
