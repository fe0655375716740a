"""Spans and counters around calls into pullin_dyn's layers, from outside.

The worker template installs a Tracer before it forks workers, so only the
traced process sees the wrappers. A wrapper records a span (name, start,
end, parent) for each call of a layer's public function; the names other
modules bound with ``from .x import y`` are rebound too. Counters that would
cost a span per call (root-finder residuals, force evaluations, solver
segments) are plain counts. Spans stay in memory and travel back with the
op's reply; the client turns them into per-layer metrics with
:func:`layer_metrics`.

Pool processes forked by ``sweep --jobs`` append their spans to a file per
process, which the worker collects after the op. While a worker runs an op,
its open spans are mirrored into shared memory, so that when an op is killed
at its deadline the spans it was inside are still recorded, ending at the
kill.
"""

from __future__ import annotations

import functools
import glob
import importlib
import mmap
import os
import pickle
import struct
import sys
import time
from collections import Counter

# layer -> (module, public functions that get a span)
LAYERS = {
    "cli": ("pullin_dyn.cli", ("main",)),
    "analysis": ("pullin_dyn.analysis", (
        "classify_regime", "pullin", "cubic_pullin", "cubic_min_point", "stagnation",
        "cubic_stagnation", "cubic_factorization", "linear_factorization",
        "pullin_linear", "stagnation_linear")),
    "roots": ("pullin_dyn._roots", ("bracketed_root",)),
    "quadrature": ("pullin_dyn.quadrature", (
        "period_by_quadrature", "contact_time_by_quadrature", "analytic_bounds")),
    "dynamics": ("pullin_dyn.dynamics", ("integrate", "integrate_critical", "energy_series")),
}
ANALYSIS_CALLS = LAYERS["analysis"][1][:7]
NODES = "quadrature.leggauss"

_STACK_SLOTS = 64
_SLOT = struct.Struct("<qd")  # span name index, start time
_DEPTH = struct.Struct("<q")
# after the depth: leggauss calls and the largest n, kept here in a worker so
# that an op killed inside a node build still counts it
_NODES = struct.Struct("<qq")
_SLOTS_AT = _DEPTH.size + _NODES.size


class Tracer:
    """Span recorder for one process tree (template, worker, pool children)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.stack: list[tuple[int, int]] = []
        self.next = 0
        self.pid = os.getpid()
        self.role = "template"
        self.base = 0
        self.pool_dir: str | None = None
        self.shm = mmap.mmap(-1, _SLOTS_AT + _STACK_SLOTS * _SLOT.size)
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installation

    def install(self) -> None:
        import numpy.polynomial.legendre as legendre
        import scipy.integrate

        for layer, (modname, fns) in LAYERS.items():
            mod = importlib.import_module(modname)
            for fn in fns:
                self._rebind(getattr(mod, fn), self._span(f"{layer}.{fn}", getattr(mod, fn)))
        model = importlib.import_module("pullin_dyn.model")
        self._rebind(model.make_force, self._counted_force(model.make_force))
        legendre.leggauss = self._span(NODES, legendre.leggauss)
        scipy.integrate.solve_ivp = self._counted_solver(scipy.integrate.solve_ivp)

    @staticmethod
    def _rebind(orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name == "pullin_dyn" or name.startswith("pullin_dyn."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

    def _span(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        tracer = self
        if name == "roots.bracketed_root":
            def call(f, *a, **k):
                def counted(x):
                    tracer.counts["roots.f_evals"] += 1
                    return f(x)
                return fn(counted, *a, **k)
        elif name == NODES:
            def call(n, *a, **k):
                if tracer.role == "worker":
                    built, largest = _NODES.unpack_from(tracer.shm, _DEPTH.size)
                    _NODES.pack_into(tracer.shm, _DEPTH.size, built + 1, max(largest, n))
                else:
                    tracer.counts["quadrature.nodes_built"] += 1
                    tracer.counts["quadrature.max_nodes"] = max(
                        tracer.counts["quadrature.max_nodes"], n)
                return fn(n, *a, **k)
        elif name in ("dynamics.integrate", "dynamics.integrate_critical"):
            def call(*a, **k):
                out = fn(*a, **k)
                traj = out[0] if isinstance(out, tuple) else out
                tracer.counts["dynamics.samples"] += len(traj)
                return out
        else:
            call = fn

        def wrapper(*a, **k):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            key = (tracer.pid, tracer.next)
            tracer.next += 1
            stack.append(key)
            depth = len(stack)
            t0 = time.perf_counter()
            if tracer.role == "worker" and depth <= _STACK_SLOTS:
                _SLOT.pack_into(tracer.shm, _SLOTS_AT + (depth - 1) * _SLOT.size, idx, t0)
                _DEPTH.pack_into(tracer.shm, 0, depth)
            try:
                return call(*a, **k)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((key, idx, t0, t1, parent))
                if tracer.role == "worker":
                    _DEPTH.pack_into(tracer.shm, 0, min(len(stack), _STACK_SLOTS))
                elif tracer.role == "pool" and len(stack) == tracer.base:
                    tracer._flush_pool()

        return functools.update_wrapper(wrapper, fn)

    def _counted_force(self, make_force):
        tracer = self

        def counted_make_force(m):
            f = make_force(m)

            def counted(x):
                tracer.counts["model.force_evals"] += 1
                return f(x)

            return counted

        return counted_make_force

    def _counted_solver(self, solve_ivp):
        tracer = self

        def counted_solve_ivp(*a, **k):
            sol = solve_ivp(*a, **k)
            tracer.counts["dynamics.solver_segments"] += 1
            tracer.counts["dynamics.solver_nfev"] += int(sol.nfev)
            return sol

        return counted_solve_ivp

    # -- process roles

    def _after_fork(self) -> None:
        if self.role == "worker":
            # a pool process of `sweep --jobs`: spans go to a file
            self.role = "pool"
            self.base = len(self.stack)
        self.pid = os.getpid()
        self.next = 0
        self.spans = []
        self.counts = Counter()

    def become_worker(self) -> None:
        self.role = "worker"
        _DEPTH.pack_into(self.shm, 0, 0)

    def _flush_pool(self) -> None:
        if self.pool_dir is None:
            return
        with open(os.path.join(self.pool_dir, f"pool-{self.pid}.pkl"), "ab") as fh:
            pickle.dump((self.spans, dict(self.counts)), fh)
        self.spans = []
        self.counts = Counter()

    # -- per op

    def start_op(self, pool_dir: str) -> None:
        self.spans = []
        self.counts = Counter()
        self.pool_dir = pool_dir
        _NODES.pack_into(self.shm, _DEPTH.size, 0, 0)

    def _node_counts(self) -> dict:
        built, largest = _NODES.unpack_from(self.shm, _DEPTH.size)
        return {"quadrature.nodes_built": built, "quadrature.max_nodes": largest}

    def finish_op(self) -> dict:
        spans, counts = self.spans, Counter(self.counts)
        _merge_counts(counts, self._node_counts())
        for path in sorted(glob.glob(os.path.join(self.pool_dir, "pool-*.pkl"))):
            with open(path, "rb") as fh:
                while True:
                    try:
                        more, extra = pickle.load(fh)
                    except EOFError:
                        break
                    spans.extend(more)
                    _merge_counts(counts, extra)
            os.remove(path)
        return {"spans": spans, "counts": dict(counts), "names": self.names}

    def killed_op(self, pid: int, now: float) -> dict:
        """What the template keeps of an op killed in a worker: the spans it
        was inside, closed at `now`, and its node builds."""
        depth = min(_DEPTH.unpack_from(self.shm, 0)[0], _STACK_SLOTS)
        spans, parent = [], None
        for level in range(depth):
            idx, t0 = _SLOT.unpack_from(self.shm, _SLOTS_AT + level * _SLOT.size)
            key = (pid, -1 - level)
            spans.append((key, idx, t0, now, parent))
            parent = key
        return {"spans": spans, "counts": self._node_counts(), "names": self.names}


def _merge_counts(into: Counter, extra: dict) -> None:
    for k, v in extra.items():
        if k == "quadrature.max_nodes":
            into[k] = max(into[k], v)
        else:
            into[k] += v


# ---------------------------------------------------------------- client side


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[tuple], names: list[str]) -> list[tuple[str, float, float]]:
    """(name, duration, self time) per span; self time excludes the part of
    the span covered by its children (children may run in parallel in pool
    processes, hence a union rather than a sum)."""
    children: dict = {}
    for key, _, t0, t1, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for key, idx, t0, t1, _ in spans:
        dur = t1 - t0
        out.append((names[idx], dur, dur - _covered(children.get(key, []), t0, t1)))
    return out


def _unit(name: str) -> str:
    return "ms" if "_ms" in name else "count"


def layer_metrics(traces: list[dict]) -> dict[str, dict]:
    """Per-op averages of the per-layer metrics over the traced ops, with units."""
    n = max(len(traces), 1)
    total: Counter = Counter()
    max_nodes = 0
    for tr in traces:
        for name, dur, own in self_times(tr["spans"], tr["names"]):
            layer, fn = name.split(".", 1)
            total[f"calls.{name}"] += 1
            if name == NODES:
                total["quadrature.nodes_ms"] += dur * 1e3
            elif layer == "dynamics":
                total[f"dynamics.self_ms.{fn}"] += own * 1e3
            else:
                total[f"{layer}.self_ms"] += own * 1e3
        for k, v in tr["counts"].items():
            if k == "quadrature.max_nodes":
                max_nodes = max(max_nodes, v)
            else:
                total[k] += v
    out = {
        "cli.self_ms": total["cli.self_ms"] / n,
        "analysis.self_ms": total["analysis.self_ms"] / n,
    }
    for fn in ANALYSIS_CALLS:
        out[f"analysis.calls.{fn}"] = total[f"calls.analysis.{fn}"] / n
    out["roots.calls"] = total["calls.roots.bracketed_root"] / n
    out["roots.f_evals"] = total["roots.f_evals"] / n
    out["quadrature.self_ms"] = total["quadrature.self_ms"] / n
    out["quadrature.calls"] = sum(
        total[f"calls.quadrature.{fn}"] for fn in LAYERS["quadrature"][1]) / n
    out["quadrature.nodes_ms"] = total["quadrature.nodes_ms"] / n
    out["quadrature.nodes_built"] = total["quadrature.nodes_built"] / n
    out["quadrature.max_nodes"] = float(max_nodes)
    for fn in LAYERS["dynamics"][1]:
        out[f"dynamics.self_ms.{fn}"] = total[f"dynamics.self_ms.{fn}"] / n
    for k in ("dynamics.samples", "dynamics.solver_nfev", "dynamics.solver_segments",
              "model.force_evals"):
        out[k] = total[k] / n
    return {k: {"value": v, "unit": _unit(k)} for k, v in out.items()}
