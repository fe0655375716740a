"""Seeded workload generation, independent references and output checks.

Every op is generated from the run's seed alone. References are computed
here, outside the timed loop, from the paper's first integral with scipy
(brentq for the roots, QUADPACK for the time integrals); nothing in this
module calls pullin_dyn, so a defect in the program cannot hide in its own
reference.

Model (normalized, rest start): xs = xi + 1 is the electrostatic
singularity, contact is at x = 1, and the squared velocity is
x g(x) / (xs - x) with g(x) = v^2/xs - (xs - x) x - (kappa/2)(xs - x) x^3.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

WORKLOADS = ("sweep", "threshold", "trajectory")

# Ops per cycle. A run executes whole cycles, so every run has the same mix.
CYCLE = {"sweep": 8, "threshold": 16, "trajectory": 6}
# Cycles per second of --seconds: a run executes round(seconds * rate)
# cycles, so both sides of a comparison run exactly the same ops. The rates
# give each run enough ops for a steady tail percentile.
CYCLES_PER_SECOND = {"sweep": 0.5, "threshold": 1.4, "trajectory": 0.8}
# Per-op deadline in seconds, far from every op's cost at the seed commit:
# completed ops take at most a tenth of it (threshold ops at most 25 ms), and
# the ops that overrun need a Gauss-Legendre build of 4096 nodes (about 10 s).
DEADLINE = {"sweep": 5.0, "threshold": 0.3, "trajectory": 10.0}

# Output tolerances. Times follow the acceptance gates: 1e-7 relative for
# stagnation time and period, 1e-6 for contact time, 1e-8 absolute for the
# stagnation position and the energy drift of a periodic symplectic run.
# Quadrature outputs are compared with a second quadrature, so they get the
# period tolerance for every time. Positions and thresholds are root finds to
# an absolute 1e-12 (the program's bracket width), printed with 12
# significant digits: 1e-9 relative, or 2e-12 absolute for tiny positions.
TOL_TIME = 1e-7
TOL_CONTACT_ODE = 1e-6
# The gates hold the adaptive scheme to 1e-6 on the contact time. The fixed
# dt = 1e-4 symplectic scheme steps into a force that turns singular at the
# contact surface as xi -> 0; there it is measured up to 8e-6 off (xi = 0)
# and 1.2e-6 at xi = 0.001, so its touch-down time is held to 1e-5.
TOL_CONTACT_SYMPLECTIC = 1e-5
TOL_POS = 1e-9
TOL_POS_ABS = 2e-12
TOL_STAG_X = 1e-8
TOL_DRIFT = 1e-8
TOL_INPUT = 1e-10

BAND = 0.01  # sweep rows keep outside +-1 % of their own v_dpi
SWEEP_V_STEPS = 45  # 3 xi x 2 kappa x 45 v = 270 rows per sweep op
SYMPLECTIC_T_MAX = 4.0  # periodic symplectic runs: 40k steps, past stagnation
CRITICAL_T_MAX = 2.0
DT_SYMPLECTIC = 1e-4


class GenerationError(RuntimeError):
    """The generator could not meet its constraints for this seed."""


# ---------------------------------------------------------------- references


def convexity_bound(xi: float) -> float:
    return 16.0 / (3.0 * (xi + 1.0) ** 2)


def _g(x, xi, v, kappa):
    xs = xi + 1.0
    return v * v / xs - (xs - x) * x - 0.5 * kappa * (xs - x) * x**3


def _g_prime(x, xi, kappa):
    xs = xi + 1.0
    return 2.0 * kappa * x**3 - 1.5 * kappa * xs * x * x + 2.0 * x - xs


def _root(f, lo, hi, *args):
    return brentq(f, lo, hi, args=args, xtol=1e-16, rtol=8.9e-16, maxiter=500)


def pullin_ref(xi: float, kappa: float) -> tuple[float, float]:
    """(x0, v_dpi): minimizer of g and the voltage at which g(x0) = 0."""
    x0 = _root(_g_prime, 0.0, xi + 1.0, xi, kappa)
    xs = xi + 1.0
    h0 = (xs - x0) * x0 + 0.5 * kappa * (xs - x0) * x0**3
    return x0, math.sqrt(xs * h0)


def _quad(f, a, b, **kw):
    with warnings.catch_warnings():
        # near-double roots trip QUADPACK's roundoff detector although the
        # result still agrees with the analytic limits to ~1e-11
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500, **kw)
    return val


def _stagnation_time(xi, v, kappa, x_s):
    # g = (x_s - x) * r(x) with r from synthetic division; the weight
    # x^-1/2 (x_s - x)^-1/2 carries both endpoint singularities exactly.
    xs = xi + 1.0
    coeffs = (0.5 * kappa, -0.5 * kappa * xs, 1.0, -xs)
    quot = [coeffs[0]]
    for c in coeffs[1:]:
        quot.append(c + quot[-1] * x_s)

    def f(x):
        q = 0.0
        for c in quot:
            q = q * x + c
        return math.sqrt((xs - x) / -q)

    return _quad(f, 0.0, x_s, weight="alg", wvar=(-0.5, -0.5))


def _contact_time(xi, v, kappa, x0):
    # g > 0 on [0, 1]; split at x0 where a near-double root makes g tiny.
    xs = xi + 1.0

    def f(x):
        return math.sqrt((xs - x) / _g(x, xi, v, kappa))

    if x0 >= 1.0:
        return _quad(f, 0.0, 1.0, weight="alg", wvar=(-0.5, 0.0))
    return _quad(f, 0.0, x0, weight="alg", wvar=(-0.5, 0.0)) + _quad(
        lambda x: f(x) / math.sqrt(x), x0, 1.0
    )


def reference(xi: float, kappa: float, v: float, pull=None) -> dict:
    """Expected statics and time scales of one parameter point.

    outcome is "periodic" (returns without contact), "touchdown"
    (supercritical) or "contact" (subcritical, but the stagnation level x_s
    lies at or beyond the contact surface, so the electrode touches down
    first; possible only when x0 > 1). For "contact" the unobstructed x_s and
    t_s are kept too, because the seed program reports them.
    """
    x0, v_dpi = pull or pullin_ref(xi, kappa)
    ref = {"xi": xi, "kappa": kappa, "v": v, "x0": x0, "v_dpi": v_dpi}
    if v < v_dpi:
        x_s = _root(_g, 0.0, x0, xi, v, kappa) if v > 0.0 else 0.0
        ref["x_s"] = x_s
        ref["t_s"] = _stagnation_time(xi, v, kappa, x_s)
        ref["outcome"] = "contact" if x_s >= 1.0 else "periodic"
        if x_s >= 1.0:
            ref["t_c"] = _contact_time(xi, v, kappa, x0)
    else:
        ref["outcome"] = "touchdown"
        ref["t_c"] = _contact_time(xi, v, kappa, x0)
    return ref


def contact_below_stagnation(xi: float, kappa: float, v: float, x0: float) -> bool:
    """True when a subcritical point touches down before stagnating (g(1) > 0)."""
    return x0 > 1.0 and _g(1.0, xi, v, kappa) >= 0.0


# ---------------------------------------------------------------- generation


def _axis(lo: float, hi: float, steps: int) -> list[float]:
    # same arithmetic as the CLI's grid, so both sides hold identical floats
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


# xi strata of the eight sweep ops of a cycle; only the last one reaches
# past 1.2, where subcritical rows can touch down before stagnating. Every
# fourth op passes --jobs 2, so the pool runs one grid that passes its check
# and one that carries the known defect.
_SWEEP_XI = ((0.0, 0.7), (0.3, 1.0), (0.6, 1.15), (0.0, 1.15),
             (0.0, 0.7), (0.3, 1.0), (0.6, 1.15), (1.3, 2.0))


def _sweep_op(rng: np.random.Generator, j: int) -> dict:
    a, b = _SWEEP_XI[j]
    for _ in range(2000):
        xi_lo = float(rng.uniform(a, b - 0.2))
        xi_hi = float(rng.uniform(xi_lo + 0.1, b))
        # half the rows linear (kappa = 0), half cubic, and a fixed row count,
        # so every op does about the same work whatever the seed
        k_lo, k_hi = 0.0, float(rng.uniform(0.1, 0.9)) * convexity_bound(xi_hi)
        xis, kappas = _axis(xi_lo, xi_hi, 3), _axis(k_lo, k_hi, 2)
        pulls = {(xi, k): pullin_ref(xi, k) for xi in xis for k in kappas}
        vd = [p[1] for p in pulls.values()]
        for _ in range(200):
            v_min = float(rng.uniform(0.1, 0.2)) * min(vd)
            v_max = float(rng.uniform(1.35, 1.45)) * max(vd)
            v_steps = SWEEP_V_STEPS
            vs = _axis(v_min, v_max, v_steps)
            if any(abs(v - p[1]) <= BAND * p[1] for p in pulls.values() for v in vs):
                continue
            contact = sum(
                contact_below_stagnation(xi, k, v, p[0])
                for (xi, k), p in pulls.items()
                for v in vs
                if v < p[1]
            )
            # exactly one op per cycle carries rows that touch down before
            # stagnating, so the share of ops exposing that case is fixed
            if (contact > 0) != (j == 7):
                continue
            rows = [
                reference(xi, k, v, pulls[(xi, k)]) for xi in xis for k in kappas for v in vs
            ]
            argv = [
                "sweep",
                "--xi-range", repr(xi_lo), repr(xi_hi), "3",
                "--kappa-range", repr(k_lo), repr(k_hi), "2",
                "--v-min", repr(v_min), "--v-max", repr(v_max), "--v-steps", str(v_steps),
                "--format", "json" if j % 2 else "csv",
            ]
            if j % 4 == 3:
                argv += ["--jobs", "2"]
            return {"kind": "cli", "argv": argv, "format": argv[argv.index("--format") + 1],
                    "rows": rows}
    raise GenerationError(f"no sweep grid for stratum {j}")


def _pair_in_gap(rng: np.random.Generator) -> tuple[float, float, float, float]:
    # (xi, kappa) whose pull-in position lies inside the gap (x0 < 1): only
    # there does the near-double root sit on the contact path.
    while True:
        xi = float(rng.uniform(0.0, 1.0))
        kappa = float(rng.uniform(0.0, 0.9)) * convexity_bound(xi)
        x0, v_dpi = pullin_ref(xi, kappa)
        if x0 < 1.0:
            return xi, kappa, x0, v_dpi


def _threshold_op(rng: np.random.Generator, j: int, u: float) -> dict:
    xi, kappa, x0, v_dpi = _pair_in_gap(rng)
    # one decade of [1e-9, 1e-1] per pair of ops, log-uniform within it at
    # offset u; even ops sit below v_dpi (two t_p values), odd ops above (two t_c)
    delta = 10.0 ** (-9.0 + j // 2 + u)
    side = -1.0 if j % 2 == 0 else 1.0
    vs = sorted((v_dpi * (1.0 + side * delta), v_dpi * (1.0 + 2.0 * side * delta)))
    argv = [
        "sweep", "--xi", repr(xi), "--kappa", repr(kappa),
        "--v-min", repr(vs[0]), "--v-max", repr(vs[1]), "--v-steps", "2",
        "--format", "csv",
    ]
    rows = [reference(xi, kappa, v, (x0, v_dpi)) for v in vs]
    return {"kind": "cli", "argv": argv, "format": "csv", "rows": rows, "delta": delta,
            "side": "above" if side > 0 else "below"}


# Trajectory cycle: schemes alternate, regimes alternate out of phase with
# them, and every third op is a critical run. The first op is adaptive, so
# the cold op pays the lazy scipy import as a one-shot simulate run does.
_TRAJ = (("adaptive", "sub"), ("symplectic", "super"), ("critical", None),
         ("adaptive", "super"), ("symplectic", "sub"), ("critical", None))


def _trajectory_op(rng: np.random.Generator, j: int) -> dict:
    scheme, regime = _TRAJ[j]
    while True:
        xi = float(rng.uniform(0.0, 2.0))
        kappa = float(rng.uniform(0.0, 0.9)) * convexity_bound(xi)
        x0, v_dpi = pullin_ref(xi, kappa)
        if scheme == "critical":
            return {"kind": "critical", "xi": xi, "kappa": kappa, "v": v_dpi,
                    "dt": DT_SYMPLECTIC, "t_max": CRITICAL_T_MAX, "x0": x0}
        if regime == "super":
            # v from a drawn contact time, so a run's length does not hang on
            # how far above threshold the draw landed
            target = float(rng.uniform(1.4, 1.6))
            lo, hi = v_dpi * (1.0 + 1e-6), 10.0 * v_dpi
            if _contact_time(xi, lo, kappa, x0) < target:
                continue  # x0 >= 1: even the slowest touch-down is quicker
            v = _root(lambda u: _contact_time(xi, u, kappa, x0) - target, lo, hi)
        else:
            v = float(rng.uniform(0.3, 0.75)) * v_dpi
        ref = reference(xi, kappa, v, (x0, v_dpi))
        # periodic draws that touch down first (x_s >= 1) are drawn again, so
        # the mix of periodic and touch-down runs is the same in every cycle
        if (ref["outcome"] == "periodic") == (regime == "sub"):
            break
    if ref["outcome"] == "periodic":
        # symplectic runs stop past stagnation; adaptive ones past the return
        t_max = SYMPLECTIC_T_MAX if scheme == "symplectic" else 2.2 * ref["t_s"]
        if 1.1 * ref["t_s"] > t_max:
            raise GenerationError(f"t_s {ref['t_s']} too close to the horizon")
    else:
        t_max = 1.2 * ref["t_c"]
    argv = ["simulate", "--xi", repr(xi), "--kappa", repr(kappa), "--v", repr(v),
            "--scheme", scheme, "--t-max", repr(t_max)]
    if scheme == "symplectic":
        argv += ["--dt", repr(DT_SYMPLECTIC)]
    return {"kind": "cli", "argv": argv, "format": "trajectory", "ref": ref,
            "scheme": scheme, "t_max": t_max}


_MAKERS = {"sweep": _sweep_op, "threshold": _threshold_op, "trajectory": _trajectory_op}


def generate(workload: str, seed: int, cycles: int) -> list[dict]:
    """The run's ops: `cycles` whole cycles drawn from one seeded stream."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = _MAKERS[workload]
    if workload == "threshold":
        # Latin hypercube over the cycles: op j of cycle c gets a decade offset
        # from its own 1/cycles slice, so every run covers each decade evenly
        # and the number of ops past the overrun threshold barely moves
        slices = [rng.permutation(cycles) for _ in range(CYCLE[workload])]
        ops = [make(rng, i % CYCLE[workload],
                    float(slices[i % CYCLE[workload]][i // CYCLE[workload]] + rng.random()) / cycles)
               for i in range(cycles * CYCLE[workload])]
    else:
        ops = [make(rng, i % CYCLE[workload]) for i in range(cycles * CYCLE[workload])]
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


# A contact-time point close above the threshold (xi=0, kappa=0, v_dpi=0.5,
# delta=3e-4): the hardest that completes in seconds at the seed commit. It
# builds every Gauss-Legendre node set up to 2048.
_HARD = {"kind": "cli", "format": "csv", "argv": [
    "sweep", "--xi", "0.0", "--kappa", "0.0", "--v-min", repr(0.5 * (1 + 3e-4)),
    "--v-max", repr(0.5 * (1 + 6e-4)), "--v-steps", "2", "--format", "csv"]}


def setup_ops(workload: str, ops: list[dict]) -> list[dict]:
    """Ops a fresh interpreter runs to time set-up (setup_s).

    The run's first op; threshold adds the hard point, so the node builds
    that the worker template does before the loop are timed here.
    """
    return [ops[0], _HARD] if workload == "threshold" else [ops[0]]


def warmup_ops(workload: str, ops: list[dict]) -> list[dict]:
    """Ops the worker template runs once before it forks workers.

    They bring a fresh process to the state a long-running one reaches:
    modules imported, lazy imports done and the Gauss-Legendre node cache
    filled. Their cost is timed in setup_s, not in the loop.
    """
    if workload == "trajectory":
        return ops[: CYCLE["trajectory"]]
    return setup_ops(workload, ops)


def request(op: dict, output: str | None) -> dict:
    """What the worker receives: the generated inputs and nothing else."""
    if op["kind"] == "critical":
        return {k: op[k] for k in ("kind", "xi", "kappa", "v", "dt", "t_max")}
    return {"kind": "cli", "argv": op["argv"] + ["--output", output]}


# ---------------------------------------------------------------- checks


def _close(got, want, rel, floor=0.0) -> bool:
    return got is not None and abs(got - want) <= rel * abs(want) + floor


def _num(cell):
    if cell is None or cell == "":
        return None
    return float(cell)


def _read_sweep(path: str, fmt: str) -> list[dict]:
    with open(path) as fh:
        if fmt == "json":
            payload = json.load(fh)
            return payload["rows"]
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_sweep_row(row: dict, ref: dict) -> str | None:
    """None if the row is right, "known" for the documented xi > 1 defect
    (a subcritical row that touches down first, reported as periodic with the
    unobstructed x_s and t_p), otherwise a description of the mismatch."""
    for key in ("xi", "kappa", "v"):
        if not _close(_num(row[key]), ref[key], TOL_INPUT):
            return f"{key} {row[key]} != {ref[key]}"
    if row.get("error"):
        return f"error {row['error']}"
    if not _close(_num(row["v_dpi"]), ref["v_dpi"], TOL_POS, TOL_POS_ABS):
        return f"v_dpi {row['v_dpi']} != {ref['v_dpi']}"
    if not _close(_num(row["x_dpi"]), ref["x0"], TOL_POS, TOL_POS_ABS):
        return f"x_dpi {row['x_dpi']} != {ref['x0']}"
    regime, x_s, t_p, t_c = row["regime"], _num(row["x_s"]), _num(row["t_p"]), _num(row["t_c"])
    out = ref["outcome"]
    unobstructed = (
        regime == "periodic" and t_c is None
        and _close(x_s, ref.get("x_s", 0.0), TOL_POS, TOL_POS_ABS)
        and _close(t_p, 2.0 * ref.get("t_s", 0.0), TOL_TIME)
    )
    if out == "periodic":
        return None if unobstructed else f"periodic row got {regime} x_s={x_s} t_p={t_p} t_c={t_c}"
    if out == "contact":
        if unobstructed:
            return "known"
        if regime != "periodic" and t_p is None and _close(t_c, ref["t_c"], TOL_TIME):
            return None
        return f"contact row got {regime} x_s={x_s} t_p={t_p} t_c={t_c}"
    if regime == "touchdown" and x_s is None and t_p is None and _close(t_c, ref["t_c"], TOL_TIME):
        return None
    return f"touchdown row got {regime} x_s={x_s} t_p={t_p} t_c={t_c}"


def _check_sweep(op: dict, path: str) -> str | None:
    rows = _read_sweep(path, op["format"])
    if len(rows) != len(op["rows"]):
        return f"{len(rows)} rows, expected {len(op['rows'])}"
    known = False
    for row, ref in zip(rows, op["rows"]):
        err = check_sweep_row(row, ref)
        if err == "known":
            known = True
        elif err is not None:
            return err
    return "known" if known else None


def _read_trajectory(path: str):
    events = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# event,"):
                _, kind, t, x = line.strip().split(",")
                events.append((kind, float(t), float(x)))
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=4, ndmin=2)
    return data, events


def _check_trajectory(op: dict, reply: dict, path: str) -> str | None:
    ref = op["ref"]
    data, events = _read_trajectory(path)
    record = json.loads(reply["stdout"])
    if record["outputs"]["samples"] != len(data):
        return f"{len(data)} rows, record says {record['outputs']['samples']}"
    first: dict = {}
    for e in events:
        first.setdefault(e[0], e)
    if ref["outcome"] == "periodic":
        if "touchdown" in first:
            return "touchdown on a periodic orbit"
        stag = first.get("stagnation")
        if stag is None or not _close(stag[1], ref["t_s"], TOL_TIME):
            return f"stagnation {stag} != t_s {ref['t_s']}"
        if abs(stag[2] - ref["x_s"]) > TOL_STAG_X:
            return f"stagnation x {stag[2]} != x_s {ref['x_s']}"
        if op["scheme"] == "adaptive":
            ret = first.get("return")
            if ret is None or not _close(ret[1], 2.0 * ref["t_s"], TOL_TIME):
                return f"return {ret} != t_p {2.0 * ref['t_s']}"
        else:
            x, v = data[:, 1], data[:, 2]
            xi, kappa, va = ref["xi"], ref["kappa"], ref["v"]
            h = 0.5 * v * v + 0.5 * x * x + 0.25 * kappa * x**4 - 0.5 * va * va / (xi + 1.0 - x)
            drift = float(np.max(np.abs(h - h[0])))
            if drift > TOL_DRIFT:
                return f"energy drift {drift:.3e} > {TOL_DRIFT}"
        return None
    touch = first.get("touchdown")
    if record["outputs"]["terminated_by"] != "touchdown" or touch is None:
        return "no touchdown"
    tol = TOL_CONTACT_SYMPLECTIC if op["scheme"] == "symplectic" else TOL_CONTACT_ODE
    if not _close(touch[1], ref["t_c"], tol):
        return f"touchdown {touch[1]} != t_c {ref['t_c']}"
    if "stagnation" in first:
        return "stagnation before touchdown"
    return None


def _check_critical(op: dict, reply: dict) -> str | None:
    rep = reply["result"]
    if not (rep["gap_strictly_decreasing"] and rep["always_below_limit"]):
        return f"critical report {rep}"
    if not _close(rep["x_limit"], op["x0"], TOL_POS, TOL_POS_ABS):
        return f"x_limit {rep['x_limit']} != x0 {op['x0']}"
    if not 0.0 < rep["final_gap"] < op["x0"]:
        return f"final gap {rep['final_gap']}"
    return None


def check(op: dict, reply: dict, path: str | None) -> str | None:
    """None if the output is correct, "known" for a documented defect,
    otherwise the first mismatch."""
    if op["kind"] == "critical":
        return _check_critical(op, reply)
    if reply.get("rc") != 0:
        return f"exit code {reply.get('rc')}"
    if op["format"] == "trajectory":
        return _check_trajectory(op, reply, path)
    return _check_sweep(op, path)


def known_overrun(op: dict) -> bool:
    """The documented contact-time hang: node doubling just above the
    threshold with the pull-in position inside the gap."""
    return op.get("side") == "above" and op["delta"] < 1e-3 and op["rows"][0]["x0"] < 1.0


def output_bytes(reply: dict, path: str | None) -> int:
    n = len(reply.get("stdout", "").encode())
    if path and os.path.exists(path):
        n += os.path.getsize(path)
    return n
