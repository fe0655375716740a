"""Command-line front end: parameter queries, simulation runs, sweeps.

Subcommands: pullin, classify, simulate, period, sweep, generic. Flags may be
seeded from a flat key=value file via --config, with explicit flags taking
precedence; the PULLIN_DYN_PRECISION environment variable overrides the
default output precision. Exit codes: 0 success, 2 invalid input, 3 convexity
violation, 4 integrator or quadrature failure, 5 regime mismatch.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .analysis import (
    REGIME_CONTACT,
    REGIME_CRITICAL,
    REGIME_PERIODIC,
    REGIME_TOUCHDOWN,
    PullInResult,
    classify_regime,
    classify_rows,
    factor_rows,
    pullin,
)
from .dynamics import (
    SCHEME_ADAPTIVE,
    SCHEME_SYMPLECTIC,
    GenericForcedModel,
    IntegratorConfig,
    Trajectory,
    energy_series,
    integrate,
    integrate_generic,
)
from .errors import (
    ConvexityError,
    IntegratorFailureError,
    InvalidParameterError,
    NotApplicableError,
    PullInDynError,
    QuadratureFailureError,
    RegimeMismatchError,
)
from .model import ModelParams, PhysicalParams, check_convexity, normalize_physical
from .quadrature import _cap_error, contact_times, period_by_quadrature, stagnation_times

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CONVEXITY = 3
EXIT_INTEGRATOR = 4
EXIT_REGIME = 5

DEFAULT_PRECISION = 12
_PRECISION_ENV = "PULLIN_DYN_PRECISION"

_PHYS_KEYS = ("mass", "spring_k", "spring_k3", "area", "gap", "voltage", "d0", "eps_r", "eps0")
_NORM_KEYS = tuple(f.name for f in fields(ModelParams))
_CFG_KEYS = tuple(f.name for f in fields(IntegratorConfig))  # "scheme" first
_SWEEP_COLUMNS = ("x_s", "t_p", "t_c", "regime", "v_dpi", "x_dpi")
# Allowed values of the keys with a fixed set, for flags and config files alike.
_CHOICES = {"format": ("csv", "json"), "method": ("quad", "ode", "both")}
# Trajectory rows formatted per write: whole-file joins cost megabytes of text.
_CSV_CHUNK_ROWS = 4096


def fmt_float(x: float, precision: int) -> str:
    return format(x, f".{precision}g")


def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return float(fmt_float(obj, precision))
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, precision) for v in obj]
    return obj


def _emit_json(obj: dict, precision: int) -> None:
    print(json.dumps(_round_floats(obj, precision), sort_keys=True))


def _config_hash(params: dict) -> str:
    canon = "\n".join(f"{k}={params[k]}" for k in sorted(params))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass
class RunRecord:
    """Reproducibility record emitted alongside file outputs.

    stages holds the seconds of each stage of a run (simulate: resolve_s,
    integrate_s, write_s; sweep: rows_s, write_s), and wall_time_s is their
    sum. Timings never enter config_hash.
    """

    command: str
    params: dict
    version: str
    config_hash: str
    wall_time_s: float
    outputs: dict
    stages: dict = field(default_factory=dict)

    def to_json(self, precision: int = DEFAULT_PRECISION) -> str:
        # _round_floats copies every dict and list, so asdict's deep copy is not needed
        return json.dumps(_round_floats(vars(self), precision), sort_keys=True)


def _read_config(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(f"config line without '=': {raw.strip()!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _number(convert, text: str, name: str):
    try:
        return convert(text)
    except ValueError:
        raise InvalidParameterError(f"{name}: {text!r} is not a number") from None


def _coerce(key: str, val: str):
    if key in _CHOICES and val not in _CHOICES[key]:
        raise InvalidParameterError(f"config {key}={val!r} is not one of {', '.join(_CHOICES[key])}")
    if key in ("scheme", "format", "outputs", "method", "output"):
        return val
    if key.endswith("_range"):
        return val.split(",")
    return _number(int if key in ("v_steps", "jobs", "precision") else float, val, f"config {key}")


def _effective(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """Merge config file values and explicit flags; explicit flags win."""
    eff: dict = {}
    config = getattr(args, "_config_values", {})
    for key in keys:
        if key in config:
            eff[key] = _coerce(key, config[key])
    explicit = {k: v for k, v in vars(args).items() if not k.startswith("_")}
    for key in keys:
        if key in explicit:
            eff[key] = explicit[key]
    return eff


def _resolve_precision(args: argparse.Namespace) -> int:
    eff = _effective(args, ("precision",))
    if "precision" in eff:
        precision = int(eff["precision"])
        source = "--precision" if hasattr(args, "precision") else "config precision"
    else:
        env = os.environ.get(_PRECISION_ENV)
        if env is None:
            return DEFAULT_PRECISION
        try:
            precision, source = int(env), _PRECISION_ENV
        except ValueError as exc:
            raise InvalidParameterError(f"bad {_PRECISION_ENV}: {env!r}") from exc
    if precision < 0:
        raise InvalidParameterError(f"{source} must be >= 0, got {precision}")
    return precision


def _resolve_model(args: argparse.Namespace) -> ModelParams:
    eff = _effective(args, _PHYS_KEYS + _NORM_KEYS)
    phys = {k: eff[k] for k in _PHYS_KEYS if k in eff}
    norm = {k: eff[k] for k in _NORM_KEYS if k in eff}
    if phys and norm:
        raise InvalidParameterError(
            "physical-unit flags are mutually exclusive with normalized flags"
        )
    if phys:
        missing = [k for k in ("mass", "spring_k", "area", "gap") if k not in phys]
        if missing:
            raise InvalidParameterError(f"missing physical flags: {', '.join(missing)}")
        p = PhysicalParams(
            m=phys["mass"],
            k=phys["spring_k"],
            area=phys["area"],
            gap=phys["gap"],
            voltage=phys.get("voltage", 0.0),
            k3=phys.get("spring_k3", 0.0),
            d0=phys.get("d0", 0.0),
            eps_r=phys.get("eps_r", 1.0),
            **({"eps0": phys["eps0"]} if "eps0" in phys else {}),
        )
        return normalize_physical(p)
    return ModelParams(**norm)


def _resolve_cfg(args: argparse.Namespace, scheme_default: str = SCHEME_SYMPLECTIC) -> IntegratorConfig:
    return IntegratorConfig(**{"scheme": scheme_default, **_effective(args, _CFG_KEYS)})


def _add_model_args(p: argparse.ArgumentParser) -> None:
    for key in _NORM_KEYS:
        p.add_argument(f"--{key}", type=float, default=argparse.SUPPRESS)
    for key in _PHYS_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float, default=argparse.SUPPRESS)


def _add_cfg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=[SCHEME_SYMPLECTIC, SCHEME_ADAPTIVE], default=argparse.SUPPRESS)
    for key in _CFG_KEYS[1:]:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float, default=argparse.SUPPRESS)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=argparse.SUPPRESS)
    p.add_argument("--precision", type=int, default=argparse.SUPPRESS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on first use and shared by later calls.

    Each add_argument builds a HelpFormatter that queries the terminal size,
    so a build costs more than a small sweep; parsing leaves no state behind.
    """
    parser = argparse.ArgumentParser(
        prog="pullin-dyn",
        description="Pull-in analysis and dynamics of an undamped electrostatic actuator",
    )
    parser.add_argument("--version", action="version", version=f"pullin-dyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pullin", help="pull-in voltage and position")
    _add_model_args(p)
    _add_common(p)

    p = sub.add_parser("classify", help="classify the response regime")
    _add_model_args(p)
    _add_common(p)
    p.add_argument("--eps-v", dest="eps_v", type=float, default=argparse.SUPPRESS)

    p = sub.add_parser("simulate", help="integrate a trajectory and write CSV")
    _add_model_args(p)
    _add_cfg_args(p)
    _add_common(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("period", help="stagnation time and period")
    _add_model_args(p)
    _add_cfg_args(p)
    _add_common(p)
    p.add_argument("--method", choices=_CHOICES["method"], default=argparse.SUPPRESS)

    p = sub.add_parser("sweep", help="parameter sweep table")
    _add_common(p)
    p.add_argument("--xi", type=float, default=argparse.SUPPRESS)
    p.add_argument("--xi-range", dest="xi_range", nargs=3, metavar=("MIN", "MAX", "STEPS"), default=argparse.SUPPRESS)
    p.add_argument("--kappa", type=float, default=argparse.SUPPRESS)
    p.add_argument(
        "--kappa-range", dest="kappa_range", nargs=3, metavar=("MIN", "MAX", "STEPS"), default=argparse.SUPPRESS
    )
    p.add_argument("--v-min", dest="v_min", type=float, default=argparse.SUPPRESS)
    p.add_argument("--v-max", dest="v_max", type=float, default=argparse.SUPPRESS)
    p.add_argument("--v-steps", dest="v_steps", type=int, default=argparse.SUPPRESS)
    p.add_argument("--outputs", default=argparse.SUPPRESS, help="comma list of columns")
    p.add_argument("--format", choices=_CHOICES["format"], default=argparse.SUPPRESS)
    p.add_argument("--output", required=True)
    p.add_argument("--jobs", type=int, default=argparse.SUPPRESS, help="kept for compatibility; rows run serially")

    p = sub.add_parser("generic", help="generic damped touch-down check (f=x, g=1/(2(a-x)^2))")
    _add_cfg_args(p)
    _add_common(p)
    p.add_argument("--mu", type=float, default=argparse.SUPPRESS)
    p.add_argument("--lam", type=float, default=argparse.SUPPRESS)
    p.add_argument("--a", type=float, default=argparse.SUPPRESS)
    p.add_argument("--c1", type=float, default=argparse.SUPPRESS)
    p.add_argument("--c2", type=float, default=argparse.SUPPRESS)

    return parser


def cmd_pullin(args: argparse.Namespace) -> int:
    precision = _resolve_precision(args)
    m = _resolve_model(args)
    res = pullin(m.xi, m.kappa)
    conv = check_convexity(ModelParams(xi=m.xi, kappa=m.kappa))
    _emit_json(
        {
            "v_dpi": res.v_dpi,
            "x_dpi": res.x_dpi,
            "xi": res.xi,
            "kappa": res.kappa,
            "convexity_ok": conv.ok,
        },
        precision,
    )
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    precision = _resolve_precision(args)
    m = _resolve_model(args)
    eps = _effective(args, ("eps_v",)).get("eps_v", 1e-12)
    cls = classify_regime(m, eps_v=eps)
    out = {
        "regime": cls.regime,
        "v": cls.v_applied,
        "xi": m.xi,
        "kappa": m.kappa,
        "v_dpi": cls.threshold.v_dpi,
        "x_dpi": cls.threshold.x_dpi,
    }
    if cls.regime in (REGIME_PERIODIC, REGIME_CONTACT):
        out["x_s"] = cls.x_s
    elif cls.regime == REGIME_CRITICAL:
        out["x_limit"] = cls.x_limit
    else:
        out["a_sq"] = cls.a_sq
        out["tc_bound"] = cls.tc_bound
    _emit_json(out, precision)
    return EXIT_OK


def _write_trajectory_csv(
    path: str, traj: Trajectory, m: ModelParams, cfg: IntegratorConfig, precision: int
) -> None:
    # Rows are formatted a column chunk at a time with one line template;
    # "%.{p}g" % x is format(x, ".{p}g"), so the text is that of fmt_float,
    # and no formatted float needs csv quoting. Chunks bound the text held.
    with_h = m.mu == 0.0
    columns = [traj.t, traj.x, traj.v] + ([energy_series(traj, m)] if with_h else [])
    line = ",".join([f"%.{precision}g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(f"# pullin-dyn simulate version={__version__}\n")
        fh.write(f"# params xi={m.xi!r} v={m.v!r} kappa={m.kappa!r} mu={m.mu!r}\n")
        fh.write(
            f"# config scheme={cfg.scheme} dt={cfg.dt!r} t_max={cfg.t_max!r} "
            f"contact_epsilon={cfg.contact_epsilon!r}\n"
        )
        fh.write(",".join(["t", "x", "v"] + (["H"] if with_h else [])) + "\n")
        for i in range(0, len(traj), _CSV_CHUNK_ROWS):
            rows = zip(*(c[i : i + _CSV_CHUNK_ROWS].tolist() for c in columns))
            fh.write("".join([line % row for row in rows]))
        for ev in traj.events:
            fh.write(
                f"# event,{ev.kind},{fmt_float(ev.t, precision)},{fmt_float(ev.x, precision)}\n"
            )


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    precision = _resolve_precision(args)
    m = _resolve_model(args)
    cfg = _resolve_cfg(args)
    resolved = time.perf_counter()
    traj = integrate(m, cfg)
    integrated = time.perf_counter()
    _write_trajectory_csv(args.output, traj, m, cfg, precision)
    stages = {
        "resolve_s": resolved - started,
        "integrate_s": integrated - resolved,
        "write_s": time.perf_counter() - integrated,
    }
    params = {"xi": m.xi, "v": m.v, "kappa": m.kappa, "mu": m.mu, **asdict(cfg)}
    record = RunRecord(
        command="simulate",
        params=params,
        version=__version__,
        config_hash=_config_hash(params),
        wall_time_s=sum(stages.values()),
        outputs={
            "samples": len(traj),
            "terminated_by": traj.terminated_by,
            "energy_drift": traj.energy_drift,
            "events": [[e.kind, e.t, e.x] for e in traj.events],
            "path": args.output,
        },
        stages=stages,
    )
    print(record.to_json(precision))
    return EXIT_OK


def cmd_period(args: argparse.Namespace) -> int:
    precision = _resolve_precision(args)
    m = _resolve_model(args)
    method = _effective(args, ("method",)).get("method", "quad")
    cls = classify_regime(m)
    if cls.regime != REGIME_PERIODIC:
        raise RegimeMismatchError(
            f"regime is '{cls.regime}'; period requires a periodic response "
            "(see the classify subcommand)"
        )
    scales = period_by_quadrature(m, cls=cls)
    quad_result = {"t_s": scales.t_s, "t_p": scales.t_p}
    ode_result = None
    if method in ("ode", "both"):
        cfg = _resolve_cfg(args, scheme_default=SCHEME_ADAPTIVE)
        if "t_max" not in _effective(args, ("t_max",)):
            cfg = replace(cfg, t_max=2.5 * scales.ts_bound)
        traj = integrate(m, cfg)
        stag = traj.first_event("stagnation")
        if stag is None:
            raise IntegratorFailureError("no stagnation event detected within the horizon")
        ret = traj.first_event("return")
        ode_result = {"t_s": stag.t, "t_p": ret.t if ret is not None else 2.0 * stag.t}
    if method == "both":
        out = {
            "method": method,
            "quad": quad_result,
            "ode": ode_result,
            "discrepancy": abs(quad_result["t_p"] - ode_result["t_p"]) / quad_result["t_p"],
        }
    else:
        out = {"method": method, **(ode_result if method == "ode" else quad_result)}
    _emit_json(out, precision)
    return EXIT_OK


def _axis(eff: dict, name: str) -> list[float]:
    rng = eff.get(f"{name}_range")
    if rng is not None:
        flag = f"--{name}-range"
        if len(rng) != 3:
            raise InvalidParameterError(f"{flag} takes MIN MAX STEPS, got {rng!r}")
        lo, hi = (_finite(_number(float, bound, flag), flag) for bound in rng[:2])
        steps = _number(int, rng[2], flag)
        if steps < 2 or not hi > lo:
            raise InvalidParameterError(f"bad {name} range")
        return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    return [_finite(float(eff.get(name, 0.0)), f"--{name}")]


def _finite(val: float, flag: str) -> float:
    # a non-finite bound makes NaN grid points, and JSON has no NaN or Infinity
    if not math.isfinite(val):
        raise InvalidParameterError(f"{flag} must be finite, got {val!r}")
    return val


def _cell(exc: PullInDynError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_rows(xis: list[float], kappas: list[float], vs: list[float], wanted: tuple[str, ...]) -> dict[str, list]:
    """The sweep table as columns, computed in one pass over arrays of rows.

    The rows of an (xi, kappa) pair share its cached pull-in point. An
    invalid input, a non-convex pair or a failed quadrature fills the error
    cell of its own rows only. A cell with no value is None.
    """

    def pull(xi: float, kappa: float, v: float) -> PullInResult | str:
        # the row's pull-in point, or the error cell of its input or pair
        try:
            ModelParams(xi=xi, v=v, kappa=kappa)
            return pullin(xi, kappa)
        except PullInDynError as exc:
            return _cell(exc)

    grid = [(xi, kappa, v) for xi in xis for kappa in kappas for v in vs]
    pairs = {(xi, kappa): pull(xi, kappa, 0.0) for xi in xis for kappa in kappas}
    pulls = [pairs[xi, kappa] if math.isfinite(v) and v >= 0.0 else pull(xi, kappa, v) for xi, kappa, v in grid]
    error = [p if isinstance(p, str) else None for p in pulls]
    ok = [i for i, e in enumerate(error) if e is None]
    xi, kappa, v, x0, v_dpi, x_dpi = np.array(
        [grid[i] + (pulls[i].x0, pulls[i].v_dpi, pulls[i].x_dpi) for i in ok], dtype=float
    ).reshape(-1, 6).T
    regime, x_s, x2, a_sq = classify_rows(xi, kappa, v, x0, v_dpi)
    t_p, t_c = np.full((2, len(ok)), np.nan)
    at = (regime == REGIME_PERIODIC).nonzero()[0]
    if "t_p" in wanted and at.size:
        q, bad = factor_rows(xi[at], v[at], kappa[at], x_s[at], x2[at])
        t_s, _, err_est = stagnation_times(xi[at], x_s[at], x2[at], *q)
        t_p[at] = 2.0 * t_s
        for j in np.isnan(t_s).nonzero()[0]:
            error[ok[at[j]]] = _cell(_cap_error(*grid[ok[at[j]]], err_est[j]))
        for j, exc in bad.items():  # raised before the quadrature, so it wins
            error[ok[at[j]]] = _cell(exc)
        t_p[at[list(bad)]] = np.nan
    at = ((regime == REGIME_TOUCHDOWN) | (regime == REGIME_CONTACT)).nonzero()[0]
    if "t_c" in wanted and at.size:
        t_c[at], _, err_est = contact_times(xi[at], kappa[at], x0[at], a_sq[at])
        for j in np.isnan(t_c[at]).nonzero()[0]:
            error[ok[at[j]]] = _cell(_cap_error(*grid[ok[at[j]]], err_est[j]))
    x_s[regime == REGIME_CONTACT] = np.nan  # the electrode never gets there

    cells = np.full((len(_SWEEP_COLUMNS), len(grid)), None, dtype=object)
    for col, values in zip(cells, (x_s, t_p, t_c, regime, v_dpi, x_dpi)):
        col[ok] = values
    columns = {k: [None if c != c else c for c in col] for k, col in zip(_SWEEP_COLUMNS, cells.tolist())}
    return dict(zip(("xi", "kappa", "v"), map(list, zip(*grid))), **columns, error=error)


def _write_sweep(path: str, spec: dict, table: dict[str, list]) -> None:
    # Each column is rounded once with one template: "%.{p}g" % x is
    # format(x, ".{p}g"), so a CSV cell reads as fmt_float's text and a JSON
    # number as _round_floats's; csv.writer still quotes error cells and
    # writes None as an empty cell.
    precision = spec["precision"]
    columns = ["xi", "kappa", "v", *spec["outputs"], "error"]
    text, number = f"%.{precision}g", float if spec["format"] == "json" else str
    cells = [[number(text % c) if isinstance(c, float) else c for c in table[k]] for k in columns]
    spec_out = _round_floats(spec, precision)
    if spec["format"] == "json":
        payload = {"spec": spec_out, "columns": columns, "rows": [dict(zip(columns, row)) for row in zip(*cells)]}
        # one dumps call: json.dump streams through the pure-Python encoder
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        with open(path, "w", newline="") as fh:
            fh.write(f"# pullin-dyn sweep version={__version__}\n")
            fh.write(f"# spec {json.dumps(spec_out, sort_keys=True)}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(zip(*cells))


def cmd_sweep(args: argparse.Namespace) -> int:
    precision = _resolve_precision(args)
    eff = _effective(
        args,
        (
            "xi",
            "xi_range",
            "kappa",
            "kappa_range",
            "v_min",
            "v_max",
            "v_steps",
            "outputs",
            "format",
            "jobs",
        ),
    )
    if "v_min" not in eff or "v_max" not in eff or "v_steps" not in eff:
        raise InvalidParameterError("sweep requires --v-min, --v-max and --v-steps")
    v_min, v_max = _finite(float(eff["v_min"]), "--v-min"), _finite(float(eff["v_max"]), "--v-max")
    v_steps = int(eff["v_steps"])
    if not (v_min < v_max and v_steps >= 2):
        raise InvalidParameterError("sweep requires v_min < v_max and v_steps >= 2")
    xis = _axis(eff, "xi")
    kappas = _axis(eff, "kappa")
    vs = [v_min + (v_max - v_min) * i / (v_steps - 1) for i in range(v_steps)]
    wanted = tuple(
        col.strip() for col in str(eff.get("outputs", ",".join(_SWEEP_COLUMNS))).split(",")
    )
    unknown = [c for c in wanted if c not in _SWEEP_COLUMNS]
    if unknown:
        raise InvalidParameterError(f"unknown sweep columns: {', '.join(unknown)}")
    fmt = eff.get("format", "csv")
    if int(eff.get("jobs", 1)) < 1:
        raise InvalidParameterError("jobs must be >= 1")

    started = time.perf_counter()
    table = _sweep_rows(xis, kappas, vs, wanted)
    rows_done = time.perf_counter()

    spec = {
        "xi": xis if len(xis) > 1 else xis[0],
        "kappa": kappas if len(kappas) > 1 else kappas[0],
        "v_min": v_min,
        "v_max": v_max,
        "v_steps": v_steps,
        "outputs": list(wanted),
        "format": fmt,
        "precision": precision,
    }
    _write_sweep(args.output, spec, table)

    stages = {"rows_s": rows_done - started, "write_s": time.perf_counter() - rows_done}
    params = {**spec, "output": args.output}
    record = RunRecord(
        command="sweep",
        params=params,
        version=__version__,
        config_hash=_config_hash({k: str(v) for k, v in params.items()}),
        wall_time_s=sum(stages.values()),
        outputs={"rows": len(table["error"]), "path": args.output},
        stages=stages,
    )
    print(record.to_json(precision))
    return EXIT_OK


def cmd_generic(args: argparse.Namespace) -> int:
    precision = _resolve_precision(args)
    eff = _effective(args, ("mu", "lam", "a", "c1", "c2"))
    a = float(eff.get("a", 1.0))
    gm = GenericForcedModel(
        mu=float(eff.get("mu", 0.0)),
        lam=float(eff.get("lam", 1.0)),
        f_fn=lambda x, t: x,
        forcing_g=lambda x, t: 1.0 / (2.0 * (a - x) ** 2),
        a=a,
        c1=float(eff.get("c1", a)),
        c2=float(eff.get("c2", 1.0 / (2.0 * a * a))),
    )
    cfg = _resolve_cfg(args)
    traj, check = integrate_generic(gm, cfg)
    _emit_json(
        {
            "guaranteed": check.guaranteed,
            "margin": check.margin,
            "t_c": check.t_c,
            "tc_bound": check.tc_bound,
            "monotone": check.monotone,
            "lower_bound_ok": check.lower_bound_ok,
            "terminated_by": traj.terminated_by,
        },
        precision,
    )
    return EXIT_OK


_DISPATCH = {
    "pullin": cmd_pullin,
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "period": cmd_period,
    "sweep": cmd_sweep,
    "generic": cmd_generic,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = getattr(args, "config", None)
        args._config_values = _read_config(config_path) if config_path else {}
        return _DISPATCH[args.command](args)
    except ConvexityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVEXITY
    except RegimeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (InvalidParameterError, NotApplicableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (IntegratorFailureError, QuadratureFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR


if __name__ == "__main__":
    sys.exit(main())
