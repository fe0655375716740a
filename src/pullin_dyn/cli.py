"""Command-line front end: parameter queries, simulation runs, sweeps.

Subcommands: pullin, classify, simulate, period, sweep, generic. Flags may be
seeded from a flat key=value file via --config, output included; each value
is read by its flag's own type, choices and arity (xi_range = MIN, MAX, STEPS),
and explicit flags take precedence. Each command returns its result, which
main prints as one JSON line at the output precision. Exit codes: 0 success,
2 invalid input, 3 convexity violation, 4 integrator or quadrature failure,
5 regime mismatch.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace

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
    _stream,
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
from .model import ModelParams, PhysicalParams, in_statics_range, normalize_physical
from .quadrature import _cap_error, contact_times, period_by_quadrature, stagnation_times

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CONVEXITY = 3
EXIT_INTEGRATOR = 4
EXIT_REGIME = 5

DEFAULT_PRECISION = 12
_MAX_PRECISION = 767  # no double's exact decimal value has more significant digits

_PHYS_KEYS = ("mass", "spring_k", "spring_k3", "area", "gap", "voltage", "d0", "eps_r", "eps0")
_PHYS_FIELD = {"mass": "m", "spring_k": "k", "spring_k3": "k3"}  # the other flags are named as their field
_NORM_KEYS = tuple(f.name for f in fields(ModelParams))
_CFG_KEYS = tuple(f.name for f in fields(IntegratorConfig))  # "scheme" first
_SWEEP_COLUMNS = ("x_s", "t_p", "t_c", "regime", "v_dpi", "x_dpi")
# Trajectory rows formatted and written at once, as the run makes them: a run keeps at most a chunk and a block of
# fixed steps, and whole chunks keep the text kernel's passes whole.
_CSV_CHUNK_ROWS = 4096
_JSON_NAMES = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}  # by the float's repr
_to_json = json.JSONEncoder(sort_keys=True).encode  # json.dumps(obj, sort_keys=True), without an encoder per call
_MIN_DISTINCT = 100  # sweep float cells from which each distinct one is formatted once (np.unique breaks even)
_MAX_ROWS = 10**6  # rows a sweep may have
# rows of a sweep block, computed and written before the next: the quadrature kernels take a block's rows in one
# call, whose node-by-row matrices stay a few MB
_BLOCK_ROWS = 2048


def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return float(f"%.{precision}g" % obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, precision) for v in obj]
    return obj


def _record(command: str, params: dict, outputs: dict, stages: dict) -> dict:
    """Reproducibility record of a run that writes a file.

    stages holds the seconds of each stage of a run (simulate: resolve_s,
    integrate_s, write_s; sweep: rows_s, write_s), and wall_time_s is their
    sum. Timings never enter config_hash.
    """
    canon = "\n".join(f"{k}={params[k]}" for k in sorted(params))
    return {
        "command": command,
        "params": params,
        "version": __version__,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:12],
        "wall_time_s": sum(stages.values()),
        "outputs": outputs,
        "stages": stages,
    }


def _apply_config(args: argparse.Namespace, path: str) -> None:
    """Set the flags that the command line left unset from a key = value file.

    A value is read as its flag reads one: by the flag's choices, its type,
    and as comma-separated items for a flag of fixed arity. One file may
    serve several subcommands, so the keys of the others are skipped.
    """
    (sub,) = (a for a in build_parser()._actions if a.dest == "command")
    known = {a.dest for p in sub.choices.values() for a in p._actions} - {"help", "config"}
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    explicit = set(vars(args))
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(f"config line without '=': {raw.strip()!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in known:
                raise InvalidParameterError(f"config key {key!r} is not a flag of any subcommand")
            action = actions.get(key)
            if action is None:
                continue
            if action.choices is not None and text not in action.choices:
                raise InvalidParameterError(f"config {key}={text!r} is not one of {', '.join(action.choices)}")
            convert = functools.partial(_number, action.type or str, name=f"config {key}")
            if isinstance(action.nargs, int):  # MIN, MAX, STEPS
                value = [convert(item.strip()) for item in text.split(",")]
            else:
                value = convert(text)
            if key not in explicit:
                setattr(args, key, value)


def _number(convert, text: str, name: str):
    try:
        return convert(text)
    except ValueError:
        raise InvalidParameterError(f"{name}: {text!r} is not a number") from None


def _require(args: argparse.Namespace, *keys: str) -> None:
    missing = [f"--{k.replace('_', '-')}" for k in keys if not hasattr(args, k)]
    if missing:
        raise InvalidParameterError(f"{args.command} requires {', '.join(missing)}")


def _resolve_precision(args: argparse.Namespace) -> int:
    precision = getattr(args, "precision", DEFAULT_PRECISION)
    if precision < 0:
        raise InvalidParameterError(f"--precision must be >= 0, got {precision}")
    if precision > _MAX_PRECISION:
        raise InvalidParameterError(f"--precision must be <= {_MAX_PRECISION}, got {precision}")
    return precision


def _resolve_model(args: argparse.Namespace) -> ModelParams:
    given = vars(args)
    phys = {k: given[k] for k in _PHYS_KEYS if k in given}
    norm = {k: given[k] for k in _NORM_KEYS if k in given}
    if phys and norm:
        raise InvalidParameterError(
            "physical-unit flags are mutually exclusive with normalized flags"
        )
    if phys:
        missing = [k for k in ("mass", "spring_k", "area", "gap") if k not in phys]
        if missing:
            raise InvalidParameterError(f"missing physical flags: {', '.join(missing)}")
        return normalize_physical(PhysicalParams(**{_PHYS_FIELD.get(k, k): val for k, val in phys.items()}))
    return ModelParams(**norm)


def _resolve_cfg(args: argparse.Namespace, scheme_default: str = SCHEME_SYMPLECTIC) -> IntegratorConfig:
    given = vars(args)
    return IntegratorConfig(**{"scheme": scheme_default, **{k: given[k] for k in _CFG_KEYS if k in given}})


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
    p.add_argument("--output", default=argparse.SUPPRESS)

    p = sub.add_parser("period", help="stagnation time and period")
    _add_model_args(p)
    _add_cfg_args(p)
    _add_common(p)
    p.add_argument("--method", choices=("quad", "ode", "both"), default=argparse.SUPPRESS)

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
    p.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS)
    p.add_argument("--output", default=argparse.SUPPRESS)
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


def cmd_pullin(args: argparse.Namespace, precision: int) -> dict:
    m = _resolve_model(args)
    res = pullin(m.xi, m.kappa)  # raises ConvexityError for a non-convex kappa
    return {
        "v_dpi": res.v_dpi,
        "x_dpi": res.x_dpi,
        "xi": res.xi,
        "kappa": res.kappa,
        "convexity_ok": True,
    }


def cmd_classify(args: argparse.Namespace, precision: int) -> dict:
    m = _resolve_model(args)
    cls = classify_regime(m, eps_v=getattr(args, "eps_v", 1e-12))
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
    return out


def cmd_simulate(args: argparse.Namespace, precision: int) -> dict:
    """Integrate and write the CSV chunk by chunk as the run goes (dynamics._stream).

    Each cell, event footers included, is "%.{p}g" % x, which needs no csv
    quoting; the rows come from the text module as ASCII bytes. The file is
    made beside the output at the first chunk and replaces it once the run
    has finished, so a failed run leaves no file and an existing output as it
    was. integrate_s excludes the time spent writing chunks, which write_s
    counts with the footer.
    """
    from ._gtext import csv_rows  # imported here: commands that write no trajectory neither compile nor load it

    started = time.perf_counter()
    _require(args, "output")
    m = _resolve_model(args)
    cfg = _resolve_cfg(args)
    resolved = time.perf_counter()
    head = (
        f"# pullin-dyn simulate version={__version__}\n"
        f"# params xi={m.xi!r} v={m.v!r} kappa={m.kappa!r} mu={m.mu!r}\n"
        f"# config scheme={cfg.scheme} dt={cfg.dt!r} t_max={cfg.t_max!r} "
        f"contact_epsilon={cfg.contact_epsilon!r}\n"
        f"{','.join(['t', 'x', 'v'] + (['H'] if m.mu == 0.0 else []))}\n"
    ).encode()
    part, fh, writing = f"{args.output}.{os.getpid()}.part", None, 0.0

    def sink(*columns) -> None:  # t, x, v and H, which is None in a damped run
        nonlocal fh, writing
        began = time.perf_counter()
        if fh is None:
            fh = open(part, "wb")
            fh.write(head)
        fh.write(csv_rows(np.column_stack([c for c in columns if c is not None]), precision))
        writing += time.perf_counter() - began

    try:
        col = _stream(m, cfg, sink, _CSV_CHUNK_ROWS)  # the last chunk makes the file, if no earlier one did
        integrated = time.perf_counter()
        text = f"%.{precision}g"
        fh.write("".join([f"# event,{ev.kind},{text % ev.t},{text % ev.x}\n" for ev in col.events]).encode())
        fh.close()
        os.replace(part, args.output)
    except BaseException:
        if fh is not None:
            fh.close()
            os.remove(part)
        raise
    stages = {
        "resolve_s": resolved - started,
        "integrate_s": integrated - resolved - writing,
        "write_s": writing + time.perf_counter() - integrated,
    }
    return _record(
        "simulate",
        {"xi": m.xi, "v": m.v, "kappa": m.kappa, "mu": m.mu, **asdict(cfg)},
        {
            "samples": col.samples,
            "terminated_by": col.terminated_by,
            "energy_drift": col.energy_drift,
            "events": [[e.kind, e.t, e.x] for e in col.events],
            "path": args.output,
        },
        stages,
    )


def cmd_period(args: argparse.Namespace, precision: int) -> dict:
    m = _resolve_model(args)
    method = getattr(args, "method", "quad")
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
        if not hasattr(args, "t_max"):
            cfg = replace(cfg, t_max=2.5 * scales.ts_bound)
        traj = integrate(m, cfg)
        stag = traj.first_event("stagnation")
        if stag is None:
            raise IntegratorFailureError("no stagnation event detected within the horizon")
        ret = traj.first_event("return")
        ode_result = {"t_s": stag.t, "t_p": ret.t if ret is not None else 2.0 * stag.t}
    if method == "both":
        return {
            "method": method,
            "quad": quad_result,
            "ode": ode_result,
            "discrepancy": abs(quad_result["t_p"] - ode_result["t_p"]) / quad_result["t_p"],
        }
    return {"method": method, **(ode_result if method == "ode" else quad_result)}


def _axis(args: argparse.Namespace, name: str) -> tuple[float, float, int]:
    # the flag's grid as (min, max, steps); a single value is (value, value, 1)
    rng = getattr(args, f"{name}_range", None)
    if rng is not None:
        flag = f"--{name}-range"
        if len(rng) != 3:
            raise InvalidParameterError(f"{flag} takes MIN MAX STEPS, got {rng!r}")
        lo, hi = (_finite(_number(float, bound, flag), flag) for bound in rng[:2])
        steps = _number(int, rng[2], flag)
        if steps < 2 or not hi > lo:
            raise InvalidParameterError(f"bad {name} range")
        return lo, hi, steps
    val = _finite(getattr(args, name, 0.0), f"--{name}")
    return val, val, 1


def _finite(val: float, flag: str) -> float:
    # a non-finite bound makes NaN grid points, and JSON has no NaN or Infinity
    if not math.isfinite(val):
        raise InvalidParameterError(f"{flag} must be finite, got {val!r}")
    return val


def _cell(exc: PullInDynError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_rows(pairs: list[tuple[float, float]], vs: list[float], wanted: tuple[str, ...]) -> dict:
    """The sweep table of (xi, kappa) pairs by voltages as columns, computed in one pass over arrays of rows.

    The rows of an (xi, kappa) pair share its cached pull-in point, and the
    xi, kappa and error columns repeat each pair's cell. An invalid input, a
    non-convex pair or a failed quadrature fills the error cell of its own
    rows only. A float cell with no value is NaN, a regime or error one None.
    """

    def pull(xi: float, kappa: float, v: float) -> PullInResult | str:
        # the row's pull-in point, or the error cell of its input or pair
        try:
            ModelParams(xi=xi, v=v, kappa=kappa)
            return pullin(xi, kappa)
        except PullInDynError as exc:
            return _cell(exc)

    n_v = len(vs)
    pulls = [pull(xi, kappa, 0.0) for xi, kappa in pairs]
    per_pair = [(xi, kappa, *(np.nan,) * 3) if isinstance(p, str) else (xi, kappa, p.x0, p.v_dpi, p.x_dpi)
                for (xi, kappa), p in zip(pairs, pulls)]
    xi_col, kappa_col, *pulled = np.repeat(np.array(per_pair).T, n_v, axis=1)
    v_col = np.tile(vs, len(pairs))
    error = list(itertools.chain(*([p if isinstance(p, str) else None] * n_v for p in pulls)))
    for j in [j for j, v in enumerate(vs) if not in_statics_range(v)]:
        error[j::n_v] = [pull(*pair, vs[j]) for pair in pairs]  # an invalid v: the row's own input error
    ok = np.array([e is None for e in error]).nonzero()[0]
    xi, kappa, v, x0, v_dpi, x_dpi = (col[ok] for col in (xi_col, kappa_col, v_col, *pulled))
    regime, x_s, x2, a_sq = classify_rows(xi, kappa, v, x0, v_dpi)
    t_p, t_c = np.full((2, len(ok)), np.nan)

    def fail(j: int, last: float) -> None:  # row ok[j]'s quadrature was capped
        error[ok[j]] = _cell(_cap_error(float(xi[j]), float(kappa[j]), float(v[j]), last))

    at = (regime == REGIME_PERIODIC).nonzero()[0]
    if "t_p" in wanted and at.size:
        q, bad = factor_rows(xi[at], v[at], kappa[at], x_s[at], x2[at])
        t_s, _, err_est = stagnation_times(xi[at], x_s[at], x2[at], *q)
        t_p[at] = 2.0 * t_s
        for j in np.isnan(t_s).nonzero()[0]:
            fail(at[j], err_est[j])
        for j, exc in bad.items():  # raised before the quadrature, so it wins
            error[ok[at[j]]] = _cell(exc)
        t_p[at[list(bad)]] = np.nan
    at = ((regime == REGIME_TOUCHDOWN) | (regime == REGIME_CONTACT)).nonzero()[0]
    if "t_c" in wanted and at.size:
        t_c[at], _, err_est = contact_times(xi[at], kappa[at], x0[at], a_sq[at])
        for j in np.isnan(t_c[at]).nonzero()[0]:
            fail(at[j], err_est[j])
    x_s[regime == REGIME_CONTACT] = np.nan  # the electrode never gets there

    values, regimes = np.full((5, len(error)), np.nan), np.full(len(error), None, object)
    values[:, ok], regimes[ok] = (x_s, t_p, t_c, v_dpi, x_dpi), regime
    return dict(xi=xi_col, kappa=kappa_col, v=v_col, **dict(zip(("x_s", "t_p", "t_c", "v_dpi", "x_dpi"), values)),
                regime=regimes.tolist(), error=error)


def _json_float(text: str, precision: int) -> str:
    # json.dumps's text of float(text), text being "%.{precision}g" % x. Up to 15 digits, the text's digits are
    # repr's (no shorter decimal reads back as the same double), so only whole numbers (repr adds ".0"), exponents
    # in (0, 16) (repr is positional there) or at +-308 and beyond (subnormals, overflow) and inf or nan read back.
    exp = int(text.partition("e")[2] or 0)
    if precision <= 15 and -308 < exp < 308 and not 0 < exp < 16 and text[-1].isdigit():
        return text if "." in text or "e" in text else text + ".0"
    back = repr(float(text))
    return _JSON_NAMES.get(back, back)


@functools.lru_cache(maxsize=256)  # the regime names recur in every sweep
def _csv_text(cell: str) -> str:
    # csv.writer's text for a cell of a row of several (it quotes a lone empty cell)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((cell, None))
    return buf.getvalue()[:-2]


def _write_sweep(path: str, spec: dict, table: dict, more=()) -> None:
    # The rows of table, then those of each table of more, which may make each one as the writer reaches it: CSV
    # appends them, JSON joins them with ", ". The float columns (arrays with NaN, or lists with None, for no value)
    # take "%.{p}g" % x from one % call per table, in JSON then _json_float, as json.dumps writes _round_floats's
    # value; from _MIN_DISTINCT cells on, once per distinct bit pattern (0.0 and -0.0 apart). Other cells take
    # json.dumps's or csv.writer's text. One % call on the row template writes a table's rows; JSON rows take the
    # sorted keys, as json.dumps does.
    precision, as_json = spec["precision"], spec["format"] == "json"
    columns = ["xi", "kappa", "v", *spec["outputs"], "error"]
    keys = sorted(set(columns)) if as_json else columns
    none, width = "null" if as_json else "", len(keys)
    at = [j for j, k in enumerate(keys) if k not in ("regime", "error")]  # the float cells' places in a row
    row = "{" + ", ".join(f'"{k}": %s' for k in keys) + "}" if as_json else ",".join(["%s"] * width) + "\n"

    def rows(table: dict) -> str:
        n_rows = len(table["error"])
        bits, index = np.array([table[keys[j]] for j in at], float).ravel().view(np.int64), None  # column by column
        if bits.size >= _MIN_DISTINCT:
            # return_index makes np.unique sort stably: that sort keeps 0.1 MB of code resident, quicksort 0.3 MB
            bits, _, index = np.unique(bits, return_index=True, return_inverse=True)
        texts = (f"%.{precision}g\n" * bits.size % tuple(bits.view(float).tolist())).split("\n")[:-1]
        texts = [t if as_json and precision <= 15 and "." in t and "e" not in t  # already _json_float's text
                 else none if t == "nan" else _json_float(t, precision) if as_json else t for t in texts]
        if index is not None:
            texts = np.array(texts, object)[index].tolist()
        cells = [none] * (n_rows * width)
        for i, j in enumerate(at):
            cells[j::width] = texts[i * n_rows : (i + 1) * n_rows]
        for j in set(range(width)).difference(at):
            memo = {c: none if c is None else (json.dumps if as_json else _csv_text)(c) for c in set(table[keys[j]])}
            cells[j::width] = map(memo.__getitem__, table[keys[j]])
        return (", ".join([row] * n_rows) if as_json else row * n_rows) % tuple(cells)

    spec_text = _to_json(_round_floats(spec, precision))
    if as_json:
        head, sep, tail = f'{{"columns": {json.dumps(columns)}, "rows": [', ", ", f'], "spec": {spec_text}}}\n'
    else:
        head, sep, tail = f"# pullin-dyn sweep version={__version__}\n# spec {spec_text}\n{','.join(columns)}\n", "", ""
    with open(path, "w", newline=None if as_json else "") as fh:
        text = head + rows(table)
        for later in more:
            fh.write(text)
            text = sep + rows(later)
        fh.write(text + tail)


def cmd_sweep(args: argparse.Namespace, precision: int) -> dict:
    """Compute and write the sweep table in blocks of at most _BLOCK_ROWS rows, one block at a time.

    A block is whole (xi, kappa) pairs, or a slice of one pair's voltages
    where that pair alone has more rows. rows_s counts the time spent
    computing blocks and write_s the rest.
    """
    _require(args, "v_min", "v_max", "v_steps", "output")
    v_min, v_max, v_steps = _finite(args.v_min, "--v-min"), _finite(args.v_max, "--v-max"), args.v_steps
    if not (v_min < v_max and v_steps >= 2):
        raise InvalidParameterError("sweep requires v_min < v_max and v_steps >= 2")
    axes = _axis(args, "xi"), _axis(args, "kappa"), (v_min, v_max, v_steps)
    rows = math.prod(steps for _, _, steps in axes)  # before any grid is built
    if rows > _MAX_ROWS:
        raise InvalidParameterError(f"the sweep grid has {rows} rows, above the budget of {_MAX_ROWS} rows")
    xis, kappas, vs = ([lo + (hi - lo) * i / (n - 1) for i in range(n)] if n > 1 else [lo] for lo, hi, n in axes)
    wanted = tuple(col.strip() for col in getattr(args, "outputs", ",".join(_SWEEP_COLUMNS)).split(","))
    unknown = [c for c in wanted if c not in _SWEEP_COLUMNS]
    if unknown:
        raise InvalidParameterError(f"unknown sweep columns: {', '.join(unknown)}")
    if getattr(args, "jobs", 1) < 1:
        raise InvalidParameterError("jobs must be >= 1")

    started = time.perf_counter()
    pairs = list(itertools.product(xis, kappas))
    per, step = max(_BLOCK_ROWS // v_steps, 1), min(v_steps, _BLOCK_ROWS)  # pairs and voltages per block
    blocks = [(pairs[i:i + per], vs[j:j + step]) for i in range(0, len(pairs), per) for j in range(0, v_steps, step)]
    computing = 0.0

    def block_rows(block: tuple) -> dict:
        nonlocal computing
        began = time.perf_counter()
        table = _sweep_rows(*block, wanted)
        computing += time.perf_counter() - began
        return table

    table = block_rows(blocks[0])
    spec = {"xi": xis if len(xis) > 1 else xis[0], "kappa": kappas if len(kappas) > 1 else kappas[0],
            "v_min": v_min, "v_max": v_max, "v_steps": v_steps, "outputs": list(wanted),
            "format": getattr(args, "format", "csv"), "precision": precision}
    _write_sweep(args.output, spec, table, map(block_rows, blocks[1:]))

    elapsed = time.perf_counter() - started
    stages = {"rows_s": computing, "write_s": elapsed - computing}
    return _record("sweep", {**spec, "output": args.output}, {"rows": rows, "path": args.output}, stages)


def cmd_generic(args: argparse.Namespace, precision: int) -> dict:
    a = getattr(args, "a", 1.0)
    c2 = getattr(args, "c2", 1.0 / (2.0 * a * a) if a * a else 0.0)  # the model rejects a = 0
    if not hasattr(args, "c2") and 0.0 < a < math.inf and not 0.0 < c2 < math.inf:
        raise InvalidParameterError(f"--a={a!r} is out of range: the default bound 1/(2 a^2) under- or overflows")
    gm = GenericForcedModel(
        mu=getattr(args, "mu", 0.0),
        lam=getattr(args, "lam", 1.0),
        f_fn=lambda x, t: x,
        forcing_g=lambda x, t: 1.0 / (2.0 * (a - x) ** 2),
        a=a,
        c1=getattr(args, "c1", a),
        c2=c2,
    )
    cfg = _resolve_cfg(args)
    traj, check = integrate_generic(gm, cfg)
    return {
        "guaranteed": check.guaranteed,
        "margin": check.margin,
        "t_c": check.t_c,
        "tc_bound": check.tc_bound,
        "monotone": check.monotone,
        "lower_bound_ok": check.lower_bound_ok,
        "terminated_by": traj.terminated_by,
    }


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
        if hasattr(args, "config"):
            _apply_config(args, args.config)
        precision = _resolve_precision(args)
        result = _DISPATCH[args.command](args, precision)
        print(_to_json(_round_floats(result, precision)))
        return EXIT_OK
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
