"""Time integration of the actuator motion with event detection.

Two schemes share one trajectory/event contract: a fixed-step staggered
(velocity Verlet) scheme, which is the deterministic default and conserves
energy to O(dt^2) for undamped runs, and an adaptive explicit Runge-Kutta
scheme for tolerance-driven runs: a plain loop of Dormand-Prince 5(4) steps
on float locals, with scipy RK45's step control, that finds each event on the
quartic dense output of the step where it occurs. Detected
events are stagnation (a turn: zero crossing of the velocity, dated by one
rule on the interpolant of its step in either scheme), return to the origin,
and touch-down at the contact surface. Touch-down triggers contact_epsilon
below the surface; its time adds the residual travel at the trigger
velocity, a drift whose error lies far below either scheme's own error
against the quadrature contact time.

Origin passes of undamped rest-start motion deserve care: the exact orbit
passes through the phase-space corner (x, v) = (0, 0), so a discretized orbit
turns within an energy-error neighborhood of the corner, possibly at a
slightly negative displacement. Such turns inside the band
|x| <= _ORIGIN_EPSILON are recorded as return events and the state is
projected onto the exact corner, which keeps multi-period event spacing
uniform; a turn below the band, the minimum of x, aborts with an integrator
failure since the motion provably never goes negative. A run started away
from rest is not projected: it may go below 0, and a turn there is a stagnation.

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
import struct
from array import array
from dataclasses import dataclass, field
from typing import Callable

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
    deflate,
    force_constants,
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

# A start displacement in [-NEGATIVE_X_CLAMP, 0) is snapped to 0; anywhere
# else a negative one is rejected as a caller's error, not rounding noise.
NEGATIVE_X_CLAMP = 1e-12

# Width of the contact layer (relative to the contact surface) inside which
# fixed steps are halved and energy diagnostics are not meaningful.
_CONTACT_ZONE = 1e-3
_MAX_STEPS = 10**7  # fixed steps a run may take; each kept step stores 24 B (t, x, v as doubles)
_MAX_SAMPLES = 10**6  # samples an adaptive run may keep (24 B each), checked at every solver step
_CRITICAL_STEP = 1e-2  # RK4 step of integrate_critical, independent of the sample spacing
_BLOCK = 2048  # regular fixed steps per block; its two 16 KiB time buffers stay far under malloc's mmap threshold
_DT_MIN = 1e-12  # floor of the fixed step halved near contact
_ORIGIN_EPSILON = 1e-6  # displacement band of undamped rest-start runs treated as an origin pass
_REFINE_TOL = 1e-10  # bracket width of the fixed-step turn, the critical touch-down and level crossings
_EPS = np.finfo(float).eps
# RK45's step control: the largest step, and the safety factor and bounds of a step-size change
_MAX_STEP = 0.25
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# Shampine's quartic dense output of the Dormand-Prince pair (Math. Comp. 46
# (1986) 135), as RK45 uses it: row i weights stage i in the coefficients of
# s, s^2, s^3 and s^4, where s is the fraction of the step
_DP5_DENSE = (
    (1.0, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
    (0.0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
    (0.0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632),
    (0.0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0.0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration controls.

    scheme selects "symplectic" (fixed step dt) or "adaptive"
    (rel_tol/abs_tol driven), both up to the horizon t_max. contact_epsilon
    is the trigger distance below the contact surface, from which the
    touch-down time is extrapolated at the trigger velocity. Turn times are
    refined to 1e-10 on a fixed step and to 4 machine epsilons on an adaptive
    one.
    """

    scheme: str = SCHEME_SYMPLECTIC
    dt: float = 1e-4
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_max: float = 50.0
    contact_epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.scheme not in (SCHEME_SYMPLECTIC, SCHEME_ADAPTIVE):
            raise InvalidParameterError(f"unknown scheme '{self.scheme}'")
        for name in ("dt", "rel_tol", "abs_tol", "t_max"):
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

    t, x, v are aligned arrays with strictly increasing t. Every undamped run
    of integrate or integrate_critical sets energy, H at every sample, and
    energy_drift, the maximum |H(t) - H(0)| over the samples outside the
    contact layer, where a fixed-step scheme has no meaningful energy
    resolution (over all, if none is outside); both are None otherwise.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    events: list[Event] = field(default_factory=list)
    energy_drift: float | None = None
    terminated_by: str = TERMINATED_HORIZON
    energy: np.ndarray | None = None

    def __post_init__(self) -> None:
        # samples are immutable after construction and safe to share
        for arr in (self.t, self.x, self.v):
            arr.setflags(write=False)
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0.0):
            raise IntegratorFailureError("samples not strictly increasing in t")

    def __len__(self) -> int:
        return len(self.t)

    def first_event(self, kind: str) -> Event | None:
        return next((e for e in self.events if e.kind == kind), None)

    def interpolate_x(self, tq) -> np.ndarray:
        """Cubic Hermite interpolation of the displacement at query times, in any order and shape."""
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        if not np.all((tq >= self.t[0]) & (tq <= self.t[-1])):  # NaN fails both
            raise InvalidParameterError("query time NaN or outside the sampled range")
        order = np.argsort(tq, axis=None, kind="stable")
        x = np.empty(tq.shape)
        x.flat[order] = _knot_hermite(self.t, self.x, self.v, tq.ravel()[order])
        return x

    def first_crossing_time(self, level: float) -> float | None:
        """Time of the first upward crossing of a displacement level (to 1e-10), or None."""
        if math.isnan(level):
            raise InvalidParameterError("crossing level is NaN")
        above = np.nonzero(self.x >= level)[0]
        if len(above) == 0:
            return None
        i = int(above[0])
        if i == 0:
            return float(self.t[0])
        t, x, v = self.t, self.x, self.v  # the step from sample i - 1 to i brackets the crossing
        return bracketed_root(lambda tq: float(_hermite(t[i - 1], x[i - 1], v[i - 1], t[i], x[i], v[i], tq)) - level,
                              float(t[i - 1]), float(t[i]), xtol=_REFINE_TOL)


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
    numpy arrays of x and t (use np.sin, not math.sin) and act elementwise:
    each gets x as a column and t as a row of a 1000 x 1000 grid, and its
    result must broadcast to the grid (a column or a scalar will do).
    """

    mu: float
    lam: float
    f_fn: Callable
    forcing_g: Callable
    a: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        for name in ("mu", "lam", "a", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
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
    that lower bound at x = a; all four are None when not guaranteed.
    """

    guaranteed: bool
    margin: float
    t_c: float | None = None
    tc_bound: float | None = None
    monotone: bool | None = None
    lower_bound_ok: bool | None = None


def energy_series(traj: Trajectory, m: ModelParams) -> np.ndarray:
    """Total energy at each sample of an actuator trajectory; IntegratorFailureError where it is not finite.

    model.energy's terms in its order, each formed and summed in place: a
    call allocates two arrays of the samples' size (model.energy on arrays
    allocates one per operation) and returns bit for bit the same values.
    """
    x, v = traj.x, traj.v
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.multiply(0.5, v)
        h *= v
        term = np.multiply(0.5, x)
        term *= x
        h += term
        np.power(x, 4, out=term)
        term *= 0.25 * m.kappa
        h += term
        np.subtract(m.x_singular, x, out=term)
        np.divide(0.5 * m.v * m.v, term, out=term)
        h -= term
    bad = np.flatnonzero(~np.isfinite(h))
    if bad.size:
        raise IntegratorFailureError(f"energy {float(h[bad[0]])!r} is not finite at t={float(traj.t[bad[0]])!r}")
    return h


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
    # piecewise cubic Hermite through the knots (t, y, dy/dt), t increasing, at nondecreasing
    # tq: step i's cubic y + s (d + s (c2 + s c3)), s = tq - t_i, is built once and its
    # coefficients repeated over its queries in [t_i, t_i+1); the end steps extend outward
    h = np.diff(t)
    dy = np.diff(y) / h
    c2 = (3.0 * dy - 2.0 * d[:-1] - d[1:]) / h
    c3 = (d[:-1] + d[1:] - 2.0 * dy) / (h * h)
    n = np.diff(np.searchsorted(tq, t[1:-1]), prepend=0, append=len(tq))
    s = tq - np.repeat(t[:-1], n)
    out = np.repeat(c3, n)
    for c in (c2, d[:-1], y[:-1]):
        out *= s
        out += np.repeat(c, n)
    return out


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
    """Accumulates samples as packed doubles, events and the termination cause; t must increase."""

    def __init__(self) -> None:
        self.t, self.x, self.v = array("d"), array("d"), array("d")
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
            raise IntegratorFailureError(f"samples not strictly increasing in t at t={t}")
        self.t.append(t)
        self.x.append(x)
        self.v.append(v)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # views, no copy: append no more
        return np.frombuffer(self.t), np.frombuffer(self.x), np.frombuffer(self.v)


def _turn(col: _Collector, t: float, t_new: float, v: float, v_at: Callable, x_at: Callable, xtol: float,
          project_origin: bool, t_c: float = math.inf) -> float | None:
    """Record the turn on a step from t to t_new where v changes sign from v.

    The turn is the zero of the step's interpolant v_at, bisected to xtol; one
    past the contact trigger t_c is never reached. In a projected run a turn
    below -_ORIGIN_EPSILON fails, and one from v < 0 within _ORIGIN_EPSILON is
    a corner, whose time is returned for a restart at (0, 0). Every other turn
    is a stagnation at x_at(turn).
    """
    t_e = bracketed_root(v_at, t, t_new, xtol=xtol)
    if t_e >= t_c:
        return None
    x_e = x_at(t_e)
    if project_origin and x_e < -_ORIGIN_EPSILON:
        raise IntegratorFailureError(f"interior displacement went negative: x={x_e} at t={t_e}")
    if project_origin and v < 0.0 and x_e <= _ORIGIN_EPSILON:
        col.corner(t_e)
        return t_e
    col.events.append(Event(EVENT_STAGNATION, t_e, x_e))
    return None


def _check_step_budget(t_max: float, dt: float) -> None:
    # ceil(t_max/dt) > N exactly when t_max/dt > N, and the quotient may be inf
    if t_max / dt > _MAX_STEPS:
        raise IntegratorFailureError(f"t_max={t_max} at dt={dt} exceeds the budget of {_MAX_STEPS} fixed steps")


def _last_float(holds: Callable[[float], bool], lo: float, hi: float) -> float:
    """The largest float in [lo, hi) where holds is true, for 0 <= lo < hi and a
    predicate that is true up to some point and false beyond it; -inf if it is
    false at lo. A bisection over the bit patterns, which order nonnegative
    floats by value, so at most 64 probes however close the limit is to lo."""
    if not holds(lo):
        return -math.inf
    a, b = (struct.unpack("<q", struct.pack("<d", y))[0] for y in (lo, hi))
    while b - a > 1:
        mid = (a + b) // 2
        if holds(struct.unpack("<d", struct.pack("<q", mid))[0]):
            a = mid
        else:
            b = mid
    return struct.unpack("<d", struct.pack("<q", a))[0]


def _run_symplectic(force: Callable[[float, float], float], mu: float, x0: float, v0: float, cfg: IntegratorConfig,
                    surface: float, project_origin: bool, consts: tuple | None = None) -> _Collector:
    """Staggered position-velocity scheme with step halving near contact.

    The damping term enters the half kick explicitly and the full kick
    implicitly, which reduces to plain velocity Verlet at mu = 0. Turns are
    dated on the step's cubic Hermite interpolant of v.

    An undamped run given the actuator's force constants
    (model.force_constants) takes its regular steps in blocks of _BLOCK,
    bounded by two limits, each found once by _last_float: t_lim, the largest t
    with t + dt <= t_max, and x_lim, the largest x outside the contact zone and
    below the trigger (which can lie inside the zone). There a step needs no
    halving, meets no trigger and, by the step budget, advances t. One
    np.add.accumulate over [t, dt, dt, ...] gives a block's times, the loop's
    own sequential t + dt sums, and one searchsorted against t_lim its step
    count; the block body stores x and v in list slots, which join the
    samples with its times when it ends, evaluates make_force's expression
    inline with math.pow bound once (x <= x_lim < 1 <= xi + 1 there, so its
    guard never fires) and tests only x_new > x_lim and v * v_new <= 0, which
    also breaks on underflow. A block starts only at v * v > 0, so rest and
    underflowing products skip its set-up. Every other step (the partial
    last one, the zone, the trigger, a turn, every step of a damped run or of
    one given no constants) leaves the block before it commits anything and
    takes the general body, which calls force. Both do the same arithmetic in
    the same order, so the results are bit for bit those of the general body.
    """
    _check_step_budget(cfg.t_max, cfg.dt)
    col = _Collector()
    t_append, x_append, v_append = col.t.append, col.x.append, col.v.append
    dt_base = cfg.dt
    zone = _CONTACT_ZONE * surface
    trigger = surface - cfg.contact_epsilon
    t_max = cfg.t_max
    t, x, v = 0.0, x0, v0
    a = force(x, t)
    col.add(t, x, v)
    half_mu = 0.5 * mu
    half_dt = 0.5 * dt_base
    xs, kappa, v2h = consts or (0.0, 0.0, 0.0)
    # both tests are monotone in their variable; -inf when no full step or no x qualifies, and
    # t_lim = -inf sends every step of a damped run, or of one without constants, to the general body
    t_lim = _last_float(lambda tq: tq + dt_base <= t_max and tq < t_max, 0.0, t_max) if consts and not mu else -math.inf
    x_lim = _last_float(lambda xq: surface - xq >= zone and xq < trigger, 0.0, surface)
    steps = np.full(_BLOCK + 1, dt_base)  # [t, dt, dt, ...]: its running sums are the block's times
    ts = np.empty_like(steps)
    xb, vb, pow_ = [0.0] * _BLOCK, [0.0] * _BLOCK, math.pow

    def turn(t, x, v, a, t_new, x_new, v_new, a_new) -> float | None:
        # the turn on a step where v changes sign; a corner's time, for a restart at (0, 0)
        acc0 = a - mu * v
        acc1 = a_new - mu * v_new
        return _turn(col, t, t_new, v, lambda tq: _hermite(t, v, acc0, t_new, v_new, acc1, tq),
                     lambda tq: _hermite(t, x, v, t_new, x_new, v_new, tq), _REFINE_TOL, project_origin)

    while t < t_max:
        if t <= t_lim and x <= x_lim and v * v > 0.0:
            steps[0] = t
            np.add.accumulate(steps, out=ts)
            k = min(int(ts.searchsorted(t_lim, "right")), _BLOCK)  # the block's steps that start at or below t_lim
            for i in range(k):
                vh = v + half_dt * a  # mu = 0: a damped run never gets here
                x_new = x + dt_base * vh
                if x_new > x_lim:
                    break
                a_new = -x_new - kappa * pow_(x_new, 3.0) + v2h / pow_(xs - x_new, 2.0)
                v_new = vh + half_dt * a_new
                if v * v_new <= 0.0:  # a turn, v = 0 or an underflow: the general body redoes the step
                    break
                x = xb[i] = x_new  # one store each: a tuple assignment builds a tuple per step
                v = vb[i] = v_new
                a = a_new
            else:
                i = k
            col.t.frombytes(ts[1:i + 1].view(np.uint8))  # before the general body can add a sample
            col.x.fromlist(xb[:i])
            col.v.fromlist(vb[:i])
            t = ts.item(i)
            if i == k:
                continue  # a full block, or past t_lim: the horizon test, then the partial last step

        dt_eff = dt_base if t + dt_base <= t_max else t_max - t
        if surface - x < zone:
            gap = surface - x
            while dt_eff > _DT_MIN:
                vh_est = v + 0.5 * dt_eff * (a - mu * v)
                if abs(vh_est) * dt_eff <= 0.25 * gap:
                    break
                dt_eff *= 0.5
            dt_eff = max(dt_eff, _DT_MIN)

        half = 0.5 * dt_eff
        vh = v + half * (a - mu * v)
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

        a_new = force(x_new, t_new)
        v_new = (vh + half * a_new) / (1.0 + half_mu * dt_eff)  # / 1.0, exact, at mu = 0

        if v > 0.0 >= v_new or v < 0.0 <= v_new:
            t_corner = turn(t, x, v, a, t_new, x_new, v_new, a_new)
            if t_corner is not None:
                t, x, v = t_corner, 0.0, 0.0
                a = force(x, t)
                continue

        if t_new <= t:
            raise IntegratorFailureError(
                f"samples not strictly increasing in t at t={t_new}"
            )
        t = t_new
        x = x_new
        v = v_new
        a = a_new
        t_append(t)
        x_append(x)
        v_append(v)

    return col


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def _start(rhs, t: float, x: float, v: float, t_max: float, rtol: float, atol: float):
    # the derivative at the start and RK45's first step size (Hairer, Norsett
    # & Wanner, Solving ODEs I, II.4)
    fx, fv = rhs(t, x, v)
    span = t_max - t
    if span == 0.0:
        return fx, fv, 0.0
    sx, sv = atol + abs(x) * rtol, atol + abs(v) * rtol
    d0, d1 = _rms(x / sx, v / sv), _rms(fx / sx, fv / sv)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    gx, gv = rhs(t + h0, x + h0 * fx, v + h0 * fv)
    d2 = _rms((gx - fx) / sx, (gv - fv) / sv) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return fx, fv, min(100.0 * h0, h1, span, _MAX_STEP)


def _dp5_step(rhs, t: float, x: float, v: float, kx1: float, kv1: float, h: float):
    """One Dormand-Prince 5(4) step of size h from (x, v) at t, where the
    derivative is (kx1, kv1): the fifth-order state at t + h, the seven stage
    derivatives of x and of v (the last one at that state), and the error
    estimate of each component per unit step."""
    kx2, kv2 = rhs(t + 1/5 * h, x + (1/5 * kx1) * h, v + (1/5 * kv1) * h)
    kx3, kv3 = rhs(t + 3/10 * h, x + (3/40 * kx1 + 9/40 * kx2) * h, v + (3/40 * kv1 + 9/40 * kv2) * h)
    kx4, kv4 = rhs(t + 4/5 * h, x + (44/45 * kx1 - 56/15 * kx2 + 32/9 * kx3) * h,
                   v + (44/45 * kv1 - 56/15 * kv2 + 32/9 * kv3) * h)
    kx5, kv5 = rhs(t + 8/9 * h, x + (19372/6561 * kx1 - 25360/2187 * kx2 + 64448/6561 * kx3 - 212/729 * kx4) * h,
                   v + (19372/6561 * kv1 - 25360/2187 * kv2 + 64448/6561 * kv3 - 212/729 * kv4) * h)
    kx6, kv6 = rhs(t + h,
                   x + (9017/3168 * kx1 - 355/33 * kx2 + 46732/5247 * kx3 + 49/176 * kx4 - 5103/18656 * kx5) * h,
                   v + (9017/3168 * kv1 - 355/33 * kv2 + 46732/5247 * kv3 + 49/176 * kv4 - 5103/18656 * kv5) * h)
    x_new = x + h * (35/384 * kx1 + 500/1113 * kx3 + 125/192 * kx4 - 2187/6784 * kx5 + 11/84 * kx6)
    v_new = v + h * (35/384 * kv1 + 500/1113 * kv3 + 125/192 * kv4 - 2187/6784 * kv5 + 11/84 * kv6)
    kx7, kv7 = rhs(t + h, x_new, v_new)
    ex = -71/57600 * kx1 + 71/16695 * kx3 - 71/1920 * kx4 + 17253/339200 * kx5 - 22/525 * kx6 + 1/40 * kx7
    ev = -71/57600 * kv1 + 71/16695 * kv3 - 71/1920 * kv4 + 17253/339200 * kv5 - 22/525 * kv6 + 1/40 * kv7
    return x_new, v_new, (kx1, kx2, kx3, kx4, kx5, kx6, kx7), (kv1, kv2, kv3, kv4, kv5, kv6, kv7), ex, ev


def _dp5_dense(t: float, h: float, y: float, k) -> Callable[[float], float]:
    """One component of a step's quartic dense output: y at t, stages k."""
    q0, q1, q2, q3 = (sum(ki * row[j] for ki, row in zip(k, _DP5_DENSE)) for j in range(4))

    def y_at(tq: float) -> float:
        s = (tq - t) / h
        return y + h * (s * (q0 + s * (q1 + s * (q2 + s * q3))))

    return y_at


def _run_adaptive(force: Callable[[float, float], float], mu: float, x0: float, v0: float, cfg: IntegratorConfig,
                  surface: float, ceiling: float, project_origin: bool,
                  consts: tuple[float, float, float] | None = None) -> _Collector:
    """Dormand-Prince 5(4) steps under RK45's control, with events found on each step.

    A step is accepted when the RMS over (x, v) of its error estimate, in
    units of abs_tol + rel_tol |y|, is below 1. Steps are at most _MAX_STEP;
    one below 10 ulp of t is a stall. Stages clamp x below ceiling, where
    the force is singular. After each accepted step, a rise of x through the
    contact trigger ends the run, and a change of sign of v before it goes to
    _turn (a return restarts the steps at the corner). Event times are
    bisection roots of the step's quartic dense output to solve_ivp's
    tolerance, 4 eps (1 + |t|). A crossing needs a nonzero sign at the
    step's start, so a start at v = 0 is no event. Given the actuator's force
    constants (model.force_constants), stages evaluate make_force's expression.
    """
    col = _Collector()
    trigger = surface - cfg.contact_epsilon
    clamp = ceiling - 1e-13 * max(1.0, ceiling)
    t_max, atol = cfg.t_max, cfg.abs_tol
    rtol = max(cfg.rel_tol, 100.0 * _EPS)  # RK45's floor

    (xs, kappa, v2h), pow_ = consts or (None, None, None), math.pow

    def rhs(t: float, x: float, v: float) -> tuple[float, float]:
        x = x if x < clamp else clamp  # below the singular ceiling: xi + 1 for the actuator, so no guard is needed
        return v, (force(x, t) if xs is None else -x - kappa * pow_(x, 3.0) + v2h / pow_(xs - x, 2.0)) - mu * v

    t, x, v = 0.0, x0, v0
    col.add(t, x, v)
    fx, fv, h_abs = _start(rhs, t, x, v, t_max, rtol, atol)
    while t < t_max:
        if len(col.t) >= _MAX_SAMPLES:  # each step keeps one sample
            raise IntegratorFailureError(f"t_max={t_max} exceeds the adaptive budget of {_MAX_SAMPLES} samples")
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = _MAX_STEP if h_abs > _MAX_STEP else max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_max)
            h = t_new - t
            x_new, v_new, kx, kv, ex, ev = _dp5_step(rhs, t, x, v, fx, fv, h)
            err = _rms(ex * h / (atol + max(abs(x), abs(x_new)) * rtol),
                       ev * h / (atol + max(abs(v), abs(v_new)) * rtol))
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**-0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err**-0.2)
            rejected = True
        else:
            if surface - x < _CONTACT_ZONE * surface and v > 0.0:
                col.touch_down(t, x, v, surface)  # stalled at contact
                break
            raise IntegratorFailureError(f"adaptive solver stalled: Required step size is less than spacing "
                                         f"between numbers. at t={t}, x={x}")
        hit = x < trigger <= x_new
        turn = v > 0.0 >= v_new or v < 0.0 <= v_new
        if hit or turn:
            x_at, v_at = _dp5_dense(t, h, x, kx), _dp5_dense(t, h, v, kv)
            tol = 4.0 * _EPS * (1.0 + abs(t_new))  # solve_ivp's event tolerance
            t_c = bracketed_root(lambda s: x_at(s) - trigger, t, t_new, xtol=tol) if hit else math.inf
            t_corner = _turn(col, t, t_new, v, v_at, x_at, tol, project_origin, t_c) if turn else None
            if t_corner is not None:
                t, x, v = t_corner, 0.0, 0.0
                fx, fv, h_abs = _start(rhs, t, x, v, t_max, rtol, atol)
                continue
            if hit:
                x_c, v_c = x_at(t_c), v_at(t_c)
                col.add(t_c, x_c, v_c)
                col.touch_down(t_c, x_c, v_c, surface)
                break
        col.add(t_new, x_new, v_new)
        t, x, v, fx, fv = t_new, x_new, v_new, kx[6], kv[6]

    return col


def _keep_energy(traj: Trajectory, m: ModelParams, keep: np.ndarray | None = None, out: np.ndarray | None = None):
    # sets traj.energy (read-only) and traj.energy_drift, max |H - H(0)| over the samples keep selects, or
    # over all of them when keep is None or selects none; that drift is formed in out, the caller's scratch
    h = traj.energy = energy_series(traj, m)
    h.setflags(write=False)
    if keep is not None and np.any(keep):
        h = out = h[keep]  # a copy
    drift = np.subtract(h, traj.energy[0], out=out)
    traj.energy_drift = float(np.max(np.abs(drift, out=drift)))


def _finalize(col: _Collector, m: ModelParams | None, surface: float) -> Trajectory:
    t, x, v = col.arrays()
    traj = Trajectory(t=t, x=x, v=v, events=col.events, terminated_by=col.terminated_by)
    if m is not None and m.mu == 0.0:
        _keep_energy(traj, m, x <= surface - _CONTACT_ZONE * surface)
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
    guarantees documented for the rest start; origin projection and its
    displacement floor are then disabled. A start that is not finite, lies
    below -NEGATIVE_X_CLAMP or at or beyond the contact trigger is rejected.
    """
    cfg = cfg or IntegratorConfig()
    if not (math.isfinite(x0) and math.isfinite(v0)):
        raise InvalidParameterError(f"initial state x0={x0}, v0={v0} is not finite")
    if x0 < -NEGATIVE_X_CLAMP:
        raise InvalidParameterError(f"initial displacement x0={x0} below 0")
    x0 = max(x0, 0.0)  # rounding noise below 0 is snapped to the origin
    if x0 >= 1.0 - cfg.contact_epsilon:  # beyond the contact surface too
        raise InvalidParameterError(
            f"initial displacement x0={x0} already at the contact trigger"
        )
    project = x0 == 0.0 and v0 == 0.0 and m.mu == 0.0  # an undamped rest start passes the origin corner
    fast = make_force(m)
    a0 = fast(x0)

    if v0 == 0.0 and a0 == 0.0:
        # exact equilibrium (zero voltage at rest): two-sample trajectory
        col = _Collector()
        for t in (0.0, cfg.t_max):
            col.add(t, x0, 0.0)
        return _finalize(col, m, 1.0)

    def force(x: float, t: float) -> float:
        return fast(x)

    consts = force_constants(m)
    col = (_run_adaptive(force, m.mu, x0, v0, cfg, 1.0, m.x_singular, project, consts)
           if cfg.scheme == SCHEME_ADAPTIVE else _run_symplectic(force, m.mu, x0, v0, cfg, 1.0, project, consts))
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
    xs, sqrt, exp = m.x_singular, math.sqrt, math.exp
    x0 = cls.threshold.x0
    t_max = cfg.t_max
    surface = 1.0
    # residual as a polynomial, deflated twice at its double root; a linear
    # model leaves the quadratic (0 x + 0) x + c, which evaluates to c exactly
    q1, _ = deflate(g_coeffs(m.xi, m.v, m.kappa), x0)
    (c0, c1, c2), _ = deflate(q1, x0)

    def ds_dt(s: float) -> float:
        x = s * s
        return 0.5 * (x0 - x) * sqrt(((c0 * x + c1) * x + c2) / (xs - x))

    def dw_dt(w: float) -> float:
        x = x0 - exp(-w)
        return sqrt(x * (((c0 * x + c1) * x + c2) / (xs - x)))

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
        t_c = bracketed_root(lambda tq: _hermite(tk[-2], yk[-2], dk[-2], tk[-1], yk[-1], dk[-1], tq) - level,
                             float(tk[-2]), float(tk[-1]), xtol=_REFINE_TOL)
    elif t2[-1] < t_max:  # x is x0 in floating point: w grows at the rate r(x0) to the horizon
        t2, w2, d2 = np.append(t2, t_max), np.append(w2, w2[-1] + d2[-1] * (t_max - t2[-1])), np.append(d2, d2[-1])

    # whole-grid passes below work in place, on as few arrays as the results need
    t = np.arange(math.ceil(t_max / cfg.dt) + 1, dtype=float)
    t *= cfg.dt
    t = np.append(t[:np.searchsorted(t, t_max - 1e-12)], t_max)
    t = t[:np.searchsorted(t, t_c)]
    n1 = int(np.searchsorted(t, t1[-1], side="right"))
    s = _knot_hermite(t1, s1, d1, t[:n1])
    w = _knot_hermite(t2, w2, d2, t[n1:])
    # the gap underflows to 0 past w ~ 745; its logarithm, -w there, does not
    gap, log_gap = np.empty(len(t)), np.empty(len(t))
    np.subtract(x0, np.multiply(s, s, out=s), out=gap[:n1])
    np.negative(w, out=log_gap[n1:])
    np.exp(log_gap[n1:], out=gap[n1:])
    np.log(gap[:n1], out=log_gap[:n1])
    events = []
    if t_c <= t_max:
        keep = gap > x0 - surface  # a sample within the refine tolerance of t_c may reach it
        t, gap = np.append(t[keep], t_c), np.append(gap[keep], x0 - surface)
        log_gap = np.append(log_gap[keep], math.log(x0 - surface))
        events.append(Event(EVENT_TOUCHDOWN, t_c, surface))
    x = x0 - gap  # x0 - 1 is exact, so touch-down lands on the surface exactly
    # v = gap sqrt(x q(x)/(xs - x)) with q(x) = (c0 x + c1) x + c2
    v, tmp = np.multiply(c0, x), np.subtract(xs, x)
    v += c1
    v *= x
    v += c2
    v /= tmp
    v *= x
    np.sqrt(v, out=v)
    v *= gap
    traj = Trajectory(t=t, x=x, v=v, events=events,
                      terminated_by=TERMINATED_TOUCHDOWN if events else TERMINATED_HORIZON)
    if m.mu == 0.0:
        _keep_energy(traj, m, out=tmp)
    report = CriticalReport(
        x_limit=x0,
        final_gap=float(gap[-1]),
        gap_strictly_decreasing=bool(np.all(np.subtract(log_gap[1:], log_gap[:-1], out=tmp[1:]) < 0.0)),
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
    # Sample the claimed sup/inf bounds on a dense grid inside [0, a); reject
    # models whose constants are violated by more than the slack. The functions
    # get the grid's axes, x as a column and t as a row.
    xs = np.linspace(0.0, max(gm.a - 1e-6, 0.5 * gm.a), _BOUND_GRID)[:, None]
    ts = np.linspace(0.0, t_max, _BOUND_GRID)[None, :]
    try:
        fv = np.asarray(gm.f_fn(xs, ts), dtype=float)
        np.broadcast_to(fv, (_BOUND_GRID,) * 2)  # a shape check: the extremes are taken over fv and gv as returned
        gv = np.asarray(gm.forcing_g(xs, ts), dtype=float)
        np.broadcast_to(gv, (_BOUND_GRID,) * 2)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"f_fn and forcing_g must accept arrays of x and t: {exc}") from exc
    sup_f = float(np.max(np.abs(fv)))
    inf_g = float(np.min(gv))
    if not sup_f <= gm.c1 + _BOUND_SLACK:  # NaN fails too
        raise InvalidParameterError(
            f"claimed sup|f| <= c1={gm.c1} violated: sampled sup {sup_f}"
        )
    if not inf_g >= gm.c2 - _BOUND_SLACK:
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
    if cfg.contact_epsilon >= gm.a:  # the trigger a - contact_epsilon would lie at or below the start
        raise InvalidParameterError(f"contact_epsilon={cfg.contact_epsilon!r} must be below a={gm.a!r}")
    _validate_generic_bounds(gm, cfg.t_max)

    def force(x: float, t: float) -> float:
        if x >= gm.a:
            raise SingularityError(f"x={x} at or beyond touch-down position a={gm.a}")
        return gm.lam * gm.forcing_g(x, t) - gm.f_fn(x, t)

    col = (_run_adaptive(force, gm.mu, 0.0, 0.0, cfg, gm.a, gm.a, False) if cfg.scheme == SCHEME_ADAPTIVE
           else _run_symplectic(force, gm.mu, 0.0, 0.0, cfg, gm.a, False))
    traj = _finalize(col, None, gm.a)

    margin = gm.lam * gm.c2 - gm.c1
    guaranteed = margin > 0.0
    if not guaranteed:
        return traj, TouchDownCheck(guaranteed=False, margin=margin)

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
