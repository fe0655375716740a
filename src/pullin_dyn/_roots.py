"""Bracketed scalar root finding: bisection with safeguarded Newton acceleration."""

from __future__ import annotations

from typing import Callable

from .errors import InvalidParameterError

_MAX_ITER = 200


def bracketed_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    fprime: Callable[[float], float] | None = None,
    xtol: float = 1e-12,
) -> float:
    """Find the root of f in [lo, hi] to absolute x-tolerance xtol.

    f(lo) and f(hi) must have opposite signs (or vanish). Newton steps are
    taken whenever they land strictly inside the current bracket; a bisection
    step is forced whenever the bracket failed to halve, so convergence is
    guaranteed on any sign-changing bracket.
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
    force_bisect = False
    for _ in range(_MAX_ITER):
        width_before = hi - lo
        fx = f(x)
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi = x
        else:
            lo, flo = x, fx
        width = hi - lo
        if width <= xtol:
            return 0.5 * (lo + hi)

        candidate = None
        if fprime is not None and not force_bisect:
            d = fprime(x)
            if d != 0.0:
                trial = x - fx / d
                if lo < trial < hi:
                    candidate = trial
        if candidate is None:
            candidate = 0.5 * (lo + hi)
        # Newton may creep along one side of the bracket; force the next step
        # to bisect whenever the bracket did not halve.
        force_bisect = width > 0.5 * width_before
        if abs(candidate - x) <= 0.5 * xtol:
            return candidate
        x = candidate
    return 0.5 * (lo + hi)
