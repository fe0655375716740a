"""Time integration of the actuator motion with event detection.

Two schemes share one trajectory/event contract: a fixed-step staggered
(velocity Verlet) scheme, which is the deterministic default and conserves
energy to O(dt^2) for undamped runs, and an adaptive explicit Runge-Kutta
scheme for tolerance-driven runs: a plain loop over scipy's RK45 stepper that
finds each event on the dense output of the step where it occurs. Detected
events are stagnation (interior zero crossing of the velocity at positive
displacement), return to the origin, and touch-down at the contact surface.
Touch-down triggers contact_epsilon below the surface; its time adds the
residual travel at the trigger velocity, a drift whose error lies far below
either scheme's own error against the quadrature contact time.

Origin passes of undamped rest-start motion deserve care: the exact orbit
passes through the phase-space corner (x, v) = (0, 0), so a discretized orbit
crosses v = 0 within an energy-error neighborhood of the corner, possibly at
a slightly negative displacement. Such crossings inside the band
x <= _ORIGIN_EPSILON are recorded as return events and the state is projected
onto the exact corner, which keeps multi-period event spacing uniform;
negative excursions beyond the band abort with an integrator failure since
the motion provably never goes negative.

At the exact critical voltage the second-order dynamics cannot hug the saddle
in floating point for long horizons, so :func:`integrate_critical` integrates
the equivalent reduced first-order equation with coarse RK4 steps on smooth
variables and fills the dt-spaced samples by cubic Hermite interpolation. The
logarithm of the gap x0 - x stays finite and strictly decreasing; the report
carries the gap alongside the materialized trajectory. When the pull-in
position lies beyond the contact surface, the critical run ends at touch-down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ._roots import bracketed_root
from .analysis import (
    REGIME_CRITICAL,
    classify_regime,
)
from .errors import (
    IntegratorFailureError,
    InvalidParameterError,
    NotApplicableError,
    RegimeMismatchError,
    SingularityError,
)
from .model import (
    ModelParams,
    PhaseState,
    deflate,
    energy,
    g_coeffs,
    make_force,
)

SCHEME_SYMPLECTIC = "symplectic"
SCHEME_ADAPTIVE = "adaptive"

EVENT_STAGNATION = "stagnation"
EVENT_TOUCHDOWN = "touchdown"
EVENT_RETURN = "return"

TERMINATED_HORIZON = "horizon"
TERMINATED_TOUCHDOWN = "touchdown"

# Width of the contact layer (relative to the contact surface) inside which
# fixed steps are halved and energy diagnostics are not meaningful.
_CONTACT_ZONE = 1e-3
_MAX_STEPS = 10**7  # fixed steps a run may take; each stored step holds three floats
_MAX_SAMPLES = 10**6  # samples an adaptive run may keep, checked at every solver step
_CRITICAL_STEP = 1e-2  # RK4 step of integrate_critical, independent of the sample spacing
_DT_MIN = 1e-12  # floor of the fixed step halved near contact
_ORIGIN_EPSILON = 1e-6  # displacement band of undamped rest-start runs treated as an origin pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration controls.

    scheme selects "symplectic" (fixed step dt) or "adaptive"
    (rel_tol/abs_tol driven), both up to the horizon t_max. contact_epsilon
    is the trigger distance below the contact surface, from which the
    touch-down time is extrapolated at the trigger velocity; other fixed-step
    event times are refined to event_refine_tol, adaptive ones to 4 machine
    epsilons.
    """

    scheme: str = SCHEME_SYMPLECTIC
    dt: float = 1e-4
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_max: float = 50.0
    contact_epsilon: float = 1e-9
    event_refine_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.scheme not in (SCHEME_SYMPLECTIC, SCHEME_ADAPTIVE):
            raise InvalidParameterError(f"unknown scheme '{self.scheme}'")
        for name in ("dt", "rel_tol", "abs_tol", "t_max", "event_refine_tol"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise InvalidParameterError(f"{name} must be finite and positive")
        if not 0.0 < self.contact_epsilon < 1e-3:
            raise InvalidParameterError("contact_epsilon must lie in (0, 1e-3)")


@dataclass(frozen=True)
class Event:
    kind: str
    t: float
    x: float


@dataclass
class Trajectory:
    """Time-ordered samples of the motion with detected events.

    t, x, v are aligned arrays with strictly increasing t. energy_drift is the
    maximum |H(t) - H(0)| over samples for undamped runs (excluding samples
    inside the contact layer, where a fixed-step scheme has no meaningful
    energy resolution); None for damped runs.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    events: list[Event] = field(default_factory=list)
    energy_drift: float | None = None
    terminated_by: str = TERMINATED_HORIZON

    def __post_init__(self) -> None:
        # samples are immutable after construction and safe to share
        for arr in (self.t, self.x, self.v):
            arr.setflags(write=False)
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0.0):
            raise IntegratorFailureError("samples not strictly increasing in t")

    def __len__(self) -> int:
        return len(self.t)

    def states(self) -> Iterator[PhaseState]:
        for t, x, v in zip(self.t, self.x, self.v):
            yield PhaseState(t=float(t), x=float(x), v=float(v))

    def events_of(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def first_event(self, kind: str) -> Event | None:
        return next((e for e in self.events if e.kind == kind), None)

    def interpolate_x(self, tq) -> np.ndarray:
        """Cubic Hermite interpolation of the displacement at query times."""
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        if np.any(tq < self.t[0]) or np.any(tq > self.t[-1]):
            raise InvalidParameterError("query time outside the sampled range")
        return _knot_hermite(self.t, self.x, self.v, tq)

    def first_crossing_time(self, level: float, refine_tol: float = 1e-10) -> float | None:
        """Time of the first upward crossing of a displacement level, or None."""
        above = np.nonzero(self.x >= level)[0]
        if len(above) == 0:
            return None
        i = int(above[0])
        if i == 0:
            return float(self.t[0])
        return bracketed_root(
            lambda tq: float(self.interpolate_x(tq)[0]) - level,
            float(self.t[i - 1]),
            float(self.t[i]),
            xtol=refine_tol,
        )


@dataclass(frozen=True)
class SymmetryReport:
    """Mirror symmetry of a periodic response about its stagnation time."""

    t_s: float
    t_p: float
    max_defect: float
    period_defect: float | None
    n_points: int


@dataclass(frozen=True)
class CriticalReport:
    """Monotone approach of the critical response toward the pull-in position;
    steps counts the RK4 steps taken, which t_max sets and dt does not."""

    x_limit: float
    final_gap: float
    gap_strictly_decreasing: bool
    always_below_limit: bool
    gap: np.ndarray
    steps: int


@dataclass(frozen=True)
class GenericForcedModel:
    """Damped, driven motion x'' + mu x' + f(x,t) = lam * g(x,t) on [0, a].

    forcing_g may be singular at the touch-down position a. c1 bounds sup|f|
    and c2 lower-bounds g on the travel range; both claims are validated by
    grid sampling before integration, so f_fn and forcing_g must accept
    numpy arrays of x and t (use np.sin, not math.sin).
    """

    mu: float
    lam: float
    f_fn: Callable
    forcing_g: Callable
    a: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        if self.mu < 0.0:
            raise InvalidParameterError("mu must be nonnegative")
        if self.lam <= 0.0 or self.a <= 0.0:
            raise InvalidParameterError("lam and a must be positive")
        if self.c1 < 0.0 or self.c2 <= 0.0:
            raise InvalidParameterError("c1 must be >= 0 and c2 > 0")


@dataclass(frozen=True)
class TouchDownCheck:
    """Outcome of the sufficient-condition touch-down test.

    guaranteed is True when lam*c2 > c1. When guaranteed, monotone reports
    v(t) > 0 on the interior, lower_bound_ok the pointwise displacement lower
    bound, and tc_bound the analytic contact-time bound obtained by inverting
    that lower bound at x = a.
    """

    guaranteed: bool
    margin: float
    t_c: float | None
    tc_bound: float | None
    monotone: bool | None
    lower_bound_ok: bool | None


def energy_series(traj: Trajectory, m: ModelParams) -> np.ndarray:
    """Total energy at each sample of an actuator trajectory."""
    return energy(traj.x, traj.v, m)


def _hermite(t0, y0, d0, t1, y1, d1, tq):
    # cubic Hermite with endpoint values y and derivatives d
    h = t1 - t0
    s = (tq - t0) / h
    return (
        (1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0
        + s * (1.0 - s) ** 2 * h * d0
        + s * s * (3.0 - 2.0 * s) * y1
        + s * s * (s - 1.0) * h * d1
    )


def _knot_hermite(t, y, d, tq):
    # piecewise cubic Hermite through the knots (t, y, dy/dt), t increasing
    i = np.clip(np.searchsorted(t, tq, side="right") - 1, 0, len(t) - 2)
    return _hermite(t[i], y[i], d[i], t[i + 1], y[i + 1], d[i + 1], tq)


def _rk4_knots(f: Callable[[float], float], t: float, y: float, t_end: float, y_end: float):
    # classical RK4 at _CRITICAL_STEP on an increasing y' = f(y), from (t, y)
    # until t reaches t_end or y reaches y_end; knot arrays t, y, y'
    h = _CRITICAL_STEP
    ts, ys, ds = [t], [y], [f(y)]
    while t < t_end and y < y_end:
        k1 = ds[-1]
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        ts.append(t)
        ys.append(y)
        ds.append(f(y))
    return np.array(ts), np.array(ys), np.array(ds)


class _Collector:
    """Accumulates samples, events and the termination cause; t must increase."""

    def __init__(self) -> None:
        self.t: list[float] = []
        self.x: list[float] = []
        self.v: list[float] = []
        self.events: list[Event] = []
        self.terminated_by = TERMINATED_HORIZON

    def touch_down(self, t: float, x: float, v: float, surface: float) -> None:
        t_c = t + (surface - x) / v if v > 0.0 else t  # drift from the trigger state
        self.events.append(Event(EVENT_TOUCHDOWN, t_c, surface))
        self.terminated_by = TERMINATED_TOUCHDOWN

    def corner(self, t: float) -> None:
        self.add(t, 0.0, 0.0)  # the origin corner (x, v) = (0, 0), where the motion returns
        self.events.append(Event(EVENT_RETURN, t, 0.0))

    def add(self, t: float, x: float, v: float) -> None:
        if self.t and t <= self.t[-1]:
            raise IntegratorFailureError(
                f"samples not strictly increasing in t at t={t}"
            )
        self.t.append(t)
        self.x.append(x)
        self.v.append(v)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.asarray(self.t), np.asarray(self.x), np.asarray(self.v)


def _check_step_budget(t_max: float, dt: float) -> None:
    # ceil(t_max/dt) > N exactly when t_max/dt > N, and the quotient may be inf
    if t_max / dt > _MAX_STEPS:
        raise IntegratorFailureError(f"t_max={t_max} at dt={dt} exceeds the budget of {_MAX_STEPS} fixed steps")


def _run_symplectic(
    force: Callable[[float, float], float],
    mu: float,
    x0: float,
    v0: float,
    cfg: IntegratorConfig,
    surface: float,
    project_origin: bool,
) -> _Collector:
    """Staggered position-velocity scheme with step halving near contact.

    The damping term enters the half kick explicitly and the full kick
    implicitly, which reduces to plain velocity Verlet at mu = 0.
    """
    _check_step_budget(cfg.t_max, cfg.dt)
    col = _Collector()
    # regular steps append directly and check t against the loop's t, which
    # is always the last sample's t
    t_append, x_append, v_append = col.t.append, col.x.append, col.v.append
    dt_base = cfg.dt
    zone = _CONTACT_ZONE * surface
    trigger = surface - cfg.contact_epsilon
    t_max = cfg.t_max
    t, x, v = 0.0, x0, v0
    a = force(x, t)
    col.add(t, x, v)
    half_mu = 0.5 * mu

    while t < t_max - 1e-15:
        dt_eff = dt_base if t + dt_base <= t_max else t_max - t
        if surface - x < zone:
            gap = surface - x
            while dt_eff > _DT_MIN:
                vh_est = v + 0.5 * dt_eff * (a - mu * v)
                if abs(vh_est) * dt_eff <= 0.25 * gap:
                    break
                dt_eff *= 0.5
            dt_eff = max(dt_eff, _DT_MIN)

        vh = v + 0.5 * dt_eff * (a - mu * v)
        x_new = x + dt_eff * vh
        t_new = t + dt_eff

        if x_new >= trigger:
            if vh <= 0.0:
                raise IntegratorFailureError(
                    f"contact trigger reached with nonpositive drift velocity at t={t}"
                )
            t_cross = t + (trigger - x) / vh
            col.add(t_cross, trigger, vh)
            col.touch_down(t_cross, trigger, vh, surface)
            break

        if x_new < 0.0:
            if x_new < -_ORIGIN_EPSILON or not project_origin:
                raise IntegratorFailureError(
                    f"interior displacement went negative: x={x_new} at t={t_new}"
                )
            # descending zero crossing inside the (linear) drift
            t_zero = t + (0.0 - x) / vh
            col.corner(t_zero)
            t, x, v = t_zero, 0.0, 0.0
            a = force(x, t)
            continue

        a_new = force(x_new, t_new)
        if mu:
            v_new = (vh + 0.5 * dt_eff * a_new) / (1.0 + half_mu * dt_eff)
        else:
            v_new = vh + 0.5 * dt_eff * a_new

        if v != 0.0 and (v * v_new < 0.0 or v_new == 0.0):
            acc0 = a - mu * v
            acc1 = a_new - mu * v_new
            t_star = bracketed_root(
                lambda tq: _hermite(t, v, acc0, t_new, v_new, acc1, tq),
                t,
                t_new,
                xtol=cfg.event_refine_tol,
            )
            x_star = _hermite(t, x, v, t_new, x_new, v_new, t_star)
            if project_origin and v < 0.0 and x_star <= _ORIGIN_EPSILON:
                col.corner(t_star)
                t, x, v = t_star, 0.0, 0.0
                a = force(x, t)
                continue
            col.events.append(Event(EVENT_STAGNATION, t_star, x_star))

        if t_new <= t:
            raise IntegratorFailureError(
                f"samples not strictly increasing in t at t={t_new}"
            )
        t, x, v, a = t_new, x_new, v_new, a_new
        t_append(t)
        x_append(x)
        v_append(v)

    return col


def _run_adaptive(
    force: Callable[[float, float], float],
    mu: float,
    x0: float,
    v0: float,
    cfg: IntegratorConfig,
    surface: float,
    ceiling: float,
    project_origin: bool,
) -> _Collector:
    """Steps of scipy's RK45, stepped directly, with events found on each step.

    After each accepted step, a rise of x through the contact trigger ends
    the run, a fall of v through 0 is a stagnation, and a rise of v through 0
    is a return (undamped rest-start runs within _ORIGIN_EPSILON of the
    origin, where the state is projected onto the corner and the solver
    restarted) or else an interior turning point, recorded as a stagnation.
    Event times are brentq roots of the step's dense output, as solve_ivp
    finds them. A crossing needs a nonzero sign at the step's start, so a
    start at v = 0 is no event.
    """
    from scipy.integrate import RK45
    from scipy.optimize import brentq

    col = _Collector()
    trigger = surface - cfg.contact_epsilon
    clamp = ceiling - 1e-13 * max(1.0, ceiling)
    tol = 4.0 * np.finfo(float).eps  # solve_ivp's event tolerance

    def rhs(t, y):
        x = y[0] if y[0] < clamp else clamp
        return (y[1], force(x, t) - mu * y[1])

    def start(t: float, x: float, v: float):
        return RK45(rhs, t, (x, v), cfg.t_max, rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=0.25)

    col.add(0.0, x0, v0)
    solver = start(0.0, x0, v0)
    while solver.t < cfg.t_max:
        if len(col.t) >= _MAX_SAMPLES:  # each step keeps one sample
            raise IntegratorFailureError(f"t_max={cfg.t_max} exceeds the adaptive budget of {_MAX_SAMPLES} samples")
        t_old, x, v = col.t[-1], col.x[-1], col.v[-1]
        message = solver.step()
        if solver.status == "failed":
            if surface - x < _CONTACT_ZONE * surface and v > 0.0:
                col.touch_down(t_old, x, v, surface)  # stalled at contact
                break
            raise IntegratorFailureError(f"adaptive solver stalled: {message} at t={t_old}, x={x}")
        t = solver.t
        x_new, v_new = solver.y.tolist()
        hit = x < trigger <= x_new
        turn = v > 0.0 >= v_new or v < 0.0 <= v_new
        if hit or turn:
            dense = solver.dense_output()
            t_c = brentq(lambda s: dense(s)[0] - trigger, t_old, t, xtol=tol, rtol=tol) if hit else math.inf
            t_e = brentq(lambda s: dense(s)[1], t_old, t, xtol=tol, rtol=tol) if turn else math.inf
            if t_e < t_c:  # a turn after the contact trigger is never reached
                x_e = float(dense(t_e)[0])
                if project_origin and v < 0.0 and x_e <= _ORIGIN_EPSILON:
                    col.corner(t_e)
                    solver = start(t_e, 0.0, 0.0)
                    continue
                col.events.append(Event(EVENT_STAGNATION, t_e, x_e))
            if hit:
                x_c, v_c = dense(t_c).tolist()
                col.add(t_c, x_c, v_c)
                col.touch_down(t_c, x_c, v_c, surface)
                break
        col.add(t, x_new, v_new)

    return col


def _run(
    force: Callable[[float, float], float],
    mu: float,
    x0: float,
    v0: float,
    cfg: IntegratorConfig,
    surface: float,
    ceiling: float,
    project_origin: bool,
) -> _Collector:
    # the configured scheme; the fixed-step one needs no force ceiling
    if cfg.scheme == SCHEME_ADAPTIVE:
        return _run_adaptive(force, mu, x0, v0, cfg, surface, ceiling, project_origin)
    return _run_symplectic(force, mu, x0, v0, cfg, surface, project_origin)


def _finalize(col: _Collector, m: ModelParams | None, surface: float) -> Trajectory:
    t, x, v = col.arrays()
    traj = Trajectory(t=t, x=x, v=v, events=col.events, terminated_by=col.terminated_by)
    if m is not None and m.mu == 0.0:
        energies = energy_series(traj, m)
        keep = x <= surface - _CONTACT_ZONE * surface
        if not np.any(keep):
            keep = np.ones_like(x, dtype=bool)
        traj.energy_drift = float(np.max(np.abs(energies[keep] - energies[0])))
    return traj


def integrate(
    m: ModelParams,
    cfg: IntegratorConfig | None = None,
    x0: float = 0.0,
    v0: float = 0.0,
) -> Trajectory:
    """Integrate the actuator equation of motion from rest.

    Runs until the first touch-down or the horizon t_max, recording
    stagnation, return-to-origin, and touch-down events. The touch-down time
    extrapolates the residual travel beyond the trigger distance. Initial
    conditions other than (0, 0) are accepted but lie outside the regime
    guarantees documented for the rest start; origin projection is then
    disabled.
    """
    cfg = cfg or IntegratorConfig()
    start = PhaseState(t=0.0, x=x0, v=v0)
    x0, v0 = start.x, start.v
    if x0 >= 1.0 - cfg.contact_epsilon:
        raise InvalidParameterError(
            f"initial displacement x0={x0} already at the contact trigger"
        )
    rest = x0 == 0.0 and v0 == 0.0
    fast = make_force(m)
    a0 = fast(x0)

    if v0 == 0.0 and a0 == 0.0:
        # exact equilibrium (zero voltage at rest): two-sample trajectory
        t = np.array([0.0, cfg.t_max])
        return Trajectory(t=t, x=np.full(2, x0), v=np.zeros(2), energy_drift=0.0 if m.mu == 0.0 else None)

    def force(x: float, t: float) -> float:
        return fast(x)

    col = _run(force, m.mu, x0, v0, cfg, 1.0, m.x_singular, rest and m.mu == 0.0)
    return _finalize(col, m, 1.0)


def verify_periodicity(traj: Trajectory) -> SymmetryReport:
    """Check mirror symmetry of a periodic response about its stagnation time.

    Compares x(t_s + tau) with x(t_s - tau) for every sample time in
    (t_s, 2 t_s], interpolating the mirrored side, and reports the worst
    defect together with the defect of the detected period against 2 t_s.
    """
    stag = traj.first_event(EVENT_STAGNATION)
    if stag is None:
        raise NotApplicableError("trajectory has no stagnation event")
    t_s = stag.t
    t_end = float(traj.t[-1])
    if t_end < 2.0 * t_s:
        raise NotApplicableError("trajectory ends before one full period (2 t_s)")
    mask = (traj.t > t_s) & (traj.t <= 2.0 * t_s)
    tau = traj.t[mask] - t_s
    mirrored = traj.interpolate_x(t_s - tau)
    defect = float(np.max(np.abs(traj.x[mask] - mirrored))) if np.any(mask) else 0.0

    ret = traj.first_event(EVENT_RETURN)
    period_defect = abs(ret.t - 2.0 * t_s) if ret is not None else None
    t_p = ret.t if ret is not None else 2.0 * t_s
    return SymmetryReport(
        t_s=t_s,
        t_p=t_p,
        max_defect=defect,
        period_defect=period_defect,
        n_points=int(np.count_nonzero(mask)),
    )


def integrate_critical(
    m: ModelParams, cfg: IntegratorConfig | None = None
) -> tuple[Trajectory, CriticalReport]:
    """Integrate the critical response via its reduced first-order equation.

    At the critical voltage the residual has a double root at the pull-in
    position x0 and the climb obeys dx/dt = r(x) (x0 - x) with
    r(x) = sqrt(x q(x)/(xi+1-x)) and q positive. Classical RK4 at the fixed
    step _CRITICAL_STEP, independent of cfg.dt, integrates s = sqrt(x) from
    rest to x0/2 and then w = -ln(x0 - x); both rates are smooth and bounded.
    Once x rounds to x0, w grows at the constant rate r(x0) and the steps end.
    cfg.dt is the sample spacing: the samples at t = k cfg.dt (the last one at
    t_max) are cubic Hermite fills of the RK4 knots. The gap x0 - x = exp(-w)
    underflows to 0 past w ~ 745, so the report judges positivity and strict
    decrease on its logarithm, which holds at any horizon. When x0 > 1 the
    run ends at touch-down on the contact surface, its time refined on the
    same interpolant. The budget bounds both t_max/dt samples and
    t_max/_CRITICAL_STEP steps. The applied voltage is projected onto the
    exactly critical value when deflating the double root.
    """
    cfg = cfg or IntegratorConfig()
    _check_step_budget(cfg.t_max, min(cfg.dt, _CRITICAL_STEP))
    cls = classify_regime(m)
    if cls.regime != REGIME_CRITICAL:
        raise RegimeMismatchError(
            f"regime is '{cls.regime}', not critical (v={m.v}, v_dpi={cls.threshold.v_dpi})"
        )
    xs = m.x_singular
    x0 = cls.threshold.x0
    t_max = cfg.t_max
    surface = 1.0
    # residual as a polynomial, deflated twice at its double root; a linear
    # model leaves the quadratic (0 x + 0) x + c, which evaluates to c exactly
    q1, _ = deflate(g_coeffs(m.xi, m.v, m.kappa), x0)
    (c0, c1, c2), _ = deflate(q1, x0)

    def q_ratio(x):  # q(x)/(xs - x), on scalars or arrays
        return ((c0 * x + c1) * x + c2) / (xs - x)

    def ds_dt(s: float) -> float:
        return 0.5 * (x0 - s * s) * math.sqrt(q_ratio(s * s))

    def dw_dt(w: float) -> float:
        x = x0 - math.exp(-w)
        return math.sqrt(x * q_ratio(x))

    # s = sqrt(x) from rest to x0/2, or to the surface if it comes first
    t1, s1, d1 = _rk4_knots(ds_dt, 0.0, 0.0, t_max, math.sqrt(min(0.5 * x0, surface)))
    # then w = -ln(x0 - x) to the surface, or until x rounds to x0
    w_end = -math.log(x0 - surface if x0 > surface else 2.0**-55 * x0)
    t2, w2, d2 = _rk4_knots(dw_dt, t1[-1], -math.log(x0 - s1[-1] ** 2), t_max, w_end)
    steps = len(t1) + len(t2) - 2
    t_c = math.inf
    if s1[-1] >= 1.0 or (x0 > surface and w2[-1] >= w_end):
        # the last step of the phase that reached the surface (s = 1 or w = w_end) brackets it
        tk, yk, dk, level = (t1, s1, d1, 1.0) if s1[-1] >= 1.0 else (t2, w2, d2, w_end)
        t_c = bracketed_root(lambda tq: _knot_hermite(tk, yk, dk, tq) - level,
                             float(tk[-2]), float(tk[-1]), xtol=cfg.event_refine_tol)
    elif t2[-1] < t_max:  # x is x0 in floating point: w grows at the rate r(x0) to the horizon
        t2, w2, d2 = np.append(t2, t_max), np.append(w2, w2[-1] + d2[-1] * (t_max - t2[-1])), np.append(d2, d2[-1])

    t = np.arange(math.ceil(t_max / cfg.dt) + 1) * cfg.dt
    t = np.append(t[t < t_max - 1e-12], t_max)
    t = t[t < t_c]
    n1 = int(np.searchsorted(t, t1[-1], side="right"))
    s = _knot_hermite(t1, s1, d1, t[:n1])
    w = _knot_hermite(t2, w2, d2, t[n1:])
    # the gap underflows to 0 past w ~ 745; its logarithm, -w there, does not
    gap = np.concatenate((x0 - s * s, np.exp(-w)))
    log_gap = np.concatenate((np.log(gap[:n1]), -w))
    events = []
    if t_c <= t_max:
        keep = gap > x0 - surface  # a sample within the refine tolerance of t_c may reach it
        t, gap = np.append(t[keep], t_c), np.append(gap[keep], x0 - surface)
        log_gap = np.append(log_gap[keep], math.log(x0 - surface))
        events.append(Event(EVENT_TOUCHDOWN, t_c, surface))
    x = x0 - gap  # x0 - 1 is exact, so touch-down lands on the surface exactly
    traj = Trajectory(t=t, x=x, v=gap * np.sqrt(x * q_ratio(x)), events=events,
                      terminated_by=TERMINATED_TOUCHDOWN if events else TERMINATED_HORIZON)
    if m.mu == 0.0:
        energies = energy_series(traj, m)
        traj.energy_drift = float(np.max(np.abs(energies - energies[0])))
    report = CriticalReport(
        x_limit=x0,
        final_gap=float(gap[-1]),
        gap_strictly_decreasing=bool(np.all(np.diff(log_gap) < 0.0)),
        always_below_limit=bool(np.all(np.isfinite(log_gap))),
        gap=gap,
        steps=steps,
    )
    return traj, report


def generic_tc_bound(mu: float, margin: float, a: float) -> float:
    """Contact-time bound from inverting the touch-down displacement lower bound.

    For mu > 0 the bound solves (margin/mu)(t - (1 - e^{-mu t})/mu) = a; for
    mu = 0 it is sqrt(2 a / margin). margin = lam*c2 - c1 must be positive.
    """
    if margin <= 0.0:
        raise InvalidParameterError("touch-down bound requires lam*c2 > c1")
    if mu == 0.0:
        return math.sqrt(2.0 * a / margin)

    def lower(t: float) -> float:
        return (margin / mu) * (t - (1.0 - math.exp(-mu * t)) / mu)

    hi = 1.0
    while lower(hi) < a:
        hi *= 2.0
        if hi > 1e12:
            raise InvalidParameterError("touch-down bound bracket expansion failed")
    return bracketed_root(lambda t: lower(t) - a, 0.0, hi, xtol=1e-12)


_BOUND_GRID = 1000
_BOUND_SLACK = 1e-9


def _validate_generic_bounds(gm: GenericForcedModel, t_max: float) -> None:
    # Sample the claimed sup/inf bounds on a dense grid; reject models whose
    # constants are violated by more than the slack.
    xs = np.linspace(0.0, gm.a - 1e-6, _BOUND_GRID)
    ts = np.linspace(0.0, t_max, _BOUND_GRID)
    xg, tg = np.meshgrid(xs, ts, indexing="ij")
    try:
        fv = np.broadcast_to(np.asarray(gm.f_fn(xg, tg), dtype=float), xg.shape)
        gv = np.broadcast_to(np.asarray(gm.forcing_g(xg, tg), dtype=float), xg.shape)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"f_fn and forcing_g must accept arrays of x and t: {exc}") from exc
    sup_f = float(np.max(np.abs(fv)))
    inf_g = float(np.min(gv))
    if sup_f > gm.c1 + _BOUND_SLACK:
        raise InvalidParameterError(
            f"claimed sup|f| <= c1={gm.c1} violated: sampled sup {sup_f}"
        )
    if inf_g < gm.c2 - _BOUND_SLACK:
        raise InvalidParameterError(
            f"claimed inf g >= c2={gm.c2} violated: sampled inf {inf_g}"
        )


def integrate_generic(
    gm: GenericForcedModel, cfg: IntegratorConfig | None = None
) -> tuple[Trajectory, TouchDownCheck]:
    """Integrate a generic forced model and check the touch-down guarantee.

    When lam*c2 > c1 the motion provably climbs monotonically to the
    touch-down position; the check verifies positive velocity throughout,
    the pointwise displacement lower bound, and that the detected contact
    time respects the analytic bound. When the margin is nonpositive the
    model is still integrated and the check reports guaranteed=False.
    """
    cfg = cfg or IntegratorConfig()
    _validate_generic_bounds(gm, cfg.t_max)

    def force(x: float, t: float) -> float:
        if x >= gm.a:
            raise SingularityError(f"x={x} at or beyond touch-down position a={gm.a}")
        return gm.lam * gm.forcing_g(x, t) - gm.f_fn(x, t)

    col = _run(force, gm.mu, 0.0, 0.0, cfg, gm.a, gm.a, False)
    traj = _finalize(col, None, gm.a)

    margin = gm.lam * gm.c2 - gm.c1
    guaranteed = margin > 0.0
    if not guaranteed:
        return traj, TouchDownCheck(
            guaranteed=False,
            margin=margin,
            t_c=None,
            tc_bound=None,
            monotone=None,
            lower_bound_ok=None,
        )

    interior = traj.t > traj.t[0]
    monotone = bool(np.all(traj.v[interior] > 0.0))
    if gm.mu > 0.0:
        lower = (margin / gm.mu) * (traj.t - (1.0 - np.exp(-gm.mu * traj.t)) / gm.mu)
    else:
        lower = 0.5 * margin * traj.t**2
    lower_ok = bool(np.all(traj.x >= lower - 1e-9))
    touch = traj.first_event(EVENT_TOUCHDOWN)
    t_c = touch.t if touch is not None else None
    return traj, TouchDownCheck(
        guaranteed=True,
        margin=margin,
        t_c=t_c,
        tc_bound=generic_tc_bound(gm.mu, margin, gm.a),
        monotone=monotone,
        lower_bound_ok=lower_ok,
    )
