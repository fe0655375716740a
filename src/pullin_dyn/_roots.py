"""Bracketed root finding: safeguarded Newton on arrays of monotone functions,
and bisection for one scalar function."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidParameterError

_MAX_ITER = 200
_XTOL = 1e-12  # absolute width of the final bracket of convex_roots


def convex_roots(f_df, x, lo, hi, rising) -> np.ndarray:
    """Roots of monotone functions, one per element of the arrays x, lo, hi and rising.

    f_df(x) returns f and f' at x. Each element of f changes sign once on
    [lo, hi], from negative to positive where rising is true. Newton steps
    start from x, and a step leaving the bracket bisects it. On a convex
    function they never overshoot from the positive side, so a step shorter
    than _XTOL/2 is lengthened to _XTOL/2 to close the bracket from the other
    side. An element stops once its bracket is no wider than _XTOL and
    returns the Newton step from the bracket end with the smaller |f|, kept
    inside the bracket.
    """
    half = 0.5 * _XTOL
    sign = np.where(rising, -1.0, 1.0)  # the sign of f(lo)
    step_lo = step_hi = f_lo = f_hi = np.inf  # f and the Newton step at the bracket ends
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            open_ = hi - lo > _XTOL
            if not open_.any():
                break
            fx, dfx = f_df(x)
            step = -fx / dfx
            side = sign * fx  # > 0 on the lo side; a root (0) closes the bracket
            at_lo, at_hi = open_ & (side >= 0.0), open_ & (side <= 0.0)
            lo, f_lo, step_lo = np.where(at_lo, x, lo), np.where(at_lo, fx, f_lo), np.where(at_lo, step, step_lo)
            hi, f_hi, step_hi = np.where(at_hi, x, hi), np.where(at_hi, fx, f_hi), np.where(at_hi, step, step_hi)
            trial = x + np.copysign(np.maximum(np.abs(step), half), step)
            x = np.where((lo < trial) & (trial < hi), trial, 0.5 * (lo + hi))
    best = np.abs(f_lo) <= np.abs(f_hi)
    return np.clip(np.where(best, lo + step_lo, hi + step_hi), lo, hi)


def bracketed_root(f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-12) -> float:
    """Find the root of f in [lo, hi] to absolute x-tolerance xtol by bisection.

    f(lo) and f(hi) must have opposite signs (or vanish).
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise InvalidParameterError(f"no sign change on bracket [{lo}, {hi}]")
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi = x
        else:
            lo, flo = x, fx
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or abs(mid - x) <= 0.5 * xtol:
            return mid
        x = mid
    return 0.5 * (lo + hi)
