"""pullin-dyn benchmark: one closed-loop client running seeded ops.

    python3 perf/run.py --workload {sweep,threshold,trajectory} --seed N
                        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. Closed loop: one client sends the next op only after the
previous one completed or was killed at its deadline. Each run executes
round(S x rate) whole cycles of the workload's op mix (see workloads.py),
so every commit runs the same ops; untraced runs pass over them several
times (PASSES).

--trace 0 prints the end-to-end metrics; --trace 1 runs the same ops once
untraced and once traced and prints the per-layer metrics. The last line of
stdout is the result object; the line before it carries the provenance.
Artifacts (per-op records, spans) go to .perf_out/ in the checkout.
"""

from __future__ import annotations

import os

# one BLAS thread: steadier timings, and worker templates fork safely
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from worker import CPUS, calibrate, fast_cpus, read_frame, write_frame  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = ROOT / ".perf_out"

COLD_RUNS = 3  # fresh interpreters per setup_s or cli.import_ms, after one priming run
# Untraced runs repeat every passing op: passes per workload. A sweep pass
# takes the least time, so sweep makes the most passes, to span more of the
# machine's slower phases; threshold's time goes to its overruns, which are
# not repeated.
PASSES = {"sweep": 6, "threshold": 3, "trajectory": 4}
RUN_BUDGET_S = 150.0  # stop starting ops past this, so a run ends within 180 s
PLACE_BUDGET_S = 4.0  # past this much waiting for a fast CPU, ops take the fastest at once
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, broken worker)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _wait_readable(fd: int, timeout: float) -> None:
    ready, _, _ = select.select([fd], [], [], timeout)
    if not ready:
        raise BenchError(f"no answer within {timeout:.0f} s")


def _stop(proc: subprocess.Popen) -> None:
    """Close a child's stdin, give it time to exit, then kill its group."""
    if proc.stdin and not proc.stdin.closed:
        proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


# ---------------------------------------------------------------- set-up time


def _pinned_to_fast_cpu():
    """preexec_fn that pins a child to a CPU that probes fast right now."""
    cpus = fast_cpus()
    os.sched_setaffinity(0, CPUS)
    return lambda: os.sched_setaffinity(0, cpus)


def _cold_run(reqs: list[dict]) -> float:
    pin = _pinned_to_fast_cpu()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--cold"], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, env=_env(), start_new_session=True, preexec_fn=pin)
    try:
        proc.stdin.write(json.dumps(reqs).encode())
        proc.stdin.close()
        _wait_readable(proc.stdout.fileno(), 120.0)
        line = proc.stdout.readline().decode()
        elapsed = time.perf_counter() - started
    finally:
        _stop(proc)
    if line.strip() != "done":
        raise BenchError(f"cold op failed: {line.strip() or 'no output'}")
    return elapsed


def _import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import pullin_dyn.cli; "
            "print(time.perf_counter() - t)")
    runs = []
    for _ in range(COLD_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                             text=True, timeout=120, check=True,
                             preexec_fn=_pinned_to_fast_cpu())
        runs.append(float(out.stdout) * 1e3)
    return statistics.median(runs[1:])


# ---------------------------------------------------------------- the loop


class Loop:
    """One worker template serving ops in a closed loop."""

    def __init__(self, workload: str, ops: list[dict], workdir: Path, traced: bool) -> None:
        self.workload, self.workdir = workload, workdir
        self.place_s = 0.0  # time workers spent picking a CPU, outside op times
        cmd = [sys.executable, str(WORKER), "--serve"] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=_env(), start_new_session=True)
        try:
            warm = [wl.request(op, str(workdir / f"warm{i}.out"))
                    for i, op in enumerate(wl.warmup_ops(workload, ops))]
            write_frame(self.proc.stdin.fileno(), {"warmup": warm, "workdir": str(workdir)})
            _wait_readable(self.proc.stdout.fileno(), 120.0)
            self.hello = read_frame(self.proc.stdout.fileno())
            if self.hello is None or self.hello["failures"]:
                raise BenchError(f"warm-up failed: {self.hello and self.hello['failures']}")
            if self.hello["threads"] != 1:
                raise BenchError(f"worker template has {self.hello['threads']} threads")
        except BaseException:
            self.close()
            raise

    def run(self, op: dict) -> dict:
        deadline = wl.DEADLINE[self.workload]
        path = None if op["kind"] == "critical" else str(self.workdir / f"op{op['id']}.out")
        write_frame(self.proc.stdin.fileno(), {"req": wl.request(op, path), "deadline": deadline,
                                               "workdir": str(self.workdir),
                                               "wait": self.place_s < PLACE_BUDGET_S})
        _wait_readable(self.proc.stdout.fileno(), deadline + 60.0)
        reply = read_frame(self.proc.stdout.fileno())
        if reply is None:
            raise BenchError("worker template exited")
        self.place_s += reply.get("place_s", 0.0)
        try:
            return _record(op, reply, path)
        finally:
            if path and os.path.exists(path):
                os.remove(path)

    def close(self) -> None:
        _stop(self.proc)


def run_passes(loop: Loop, ops: list[dict], passes: int, budget_end: float,
               between=None) -> list[dict]:
    """Run every op, then run again the ops that passed: `passes` passes.

    The machine's speed drifts by up to 2x over seconds, so the time of an
    op that passes every pass is its minimum, over passes taken far apart in
    time. Passes after the first run the ops in a shuffled order (seeded by
    the pass number), so a slow phase that recurs with the pass's period
    does not hit the same ops every time. An op that fails keeps the record
    of the pass it failed in, with that pass's time, and is not run again.
    `between(n)` runs after pass n.
    """
    records = {}
    for n in range(passes):
        todo = [op for op in ops if records.get(op["id"], {"verdict": None})["verdict"] is None]
        if n:
            random.Random(n).shuffle(todo)
        for op in todo:
            if time.perf_counter() > budget_end:
                break
            rec = loop.run(op)
            prev = records.get(op["id"])
            if prev is not None:
                if rec["verdict"] is None:
                    rec["seconds"] = min(rec["seconds"], prev["seconds"])
                rec["peak_rss_kb"] = max(rec["peak_rss_kb"], prev["peak_rss_kb"])
            records[op["id"]] = rec
        if between:
            between(n)
    return [records[op["id"]] for op in ops if op["id"] in records]


def measure(workload: str, ops: list[dict], workdir: Path, traced: bool, passes: int,
            budget_end: float, between=None) -> tuple[list[dict], dict]:
    """Per-op records of `passes` passes through a fresh worker template."""
    loop = Loop(workload, ops, workdir, traced)
    try:
        records = run_passes(loop, ops, passes, budget_end, between)
        return records, {**loop.hello, "place_s": loop.place_s}
    finally:
        loop.close()


def _record(op: dict, reply: dict, path: str | None) -> dict:
    if reply["status"] == "overrun" and wl.known_overrun(op):
        verdict = "known"
    elif reply["status"] != "ok":
        verdict = f"{reply['status']}: {reply['error']}"
    else:
        try:
            verdict = wl.check(op, reply, path)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            verdict = f"unreadable output: {type(exc).__name__}: {exc}"
    return {
        "id": op["id"], "status": reply["status"], "seconds": reply["seconds"],
        "verdict": verdict, "bytes": wl.output_bytes(reply, path),
        "peak_rss_kb": reply["peak_rss_kb"], "trace": reply.get("trace"),
    }


# ---------------------------------------------------------------- metrics


def tail_percentile(n: int) -> float:
    """Highest percentile of PERCENTILES with at least ten samples above it."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def _percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def loop_summary(records: list[dict], deadline: float) -> dict:
    # A failed op misses every latency limit. Completed ops answer within the
    # deadline, so a failed op counted at no less than the deadline ranks
    # above all of them, as +inf would; a percentile that falls on one reads
    # that op's time, at least the deadline, so the metric stays a number.
    secs = [r["seconds"] if r["verdict"] is None else max(r["seconds"], deadline)
            for r in records]
    completed = sum(r["status"] == "ok" for r in records)
    failed_all = sum(r["verdict"] is not None for r in records)
    unexpected = [r for r in records if r["verdict"] not in (None, "known")]
    tail = tail_percentile(len(secs))
    return {
        "attempted": len(records),
        "completed": completed,
        "failed": failed_all,
        "known_failures": failed_all - len(unexpected),
        "unexpected": [(r["id"], r["verdict"]) for r in unexpected],
        # completed ops over the time of every op, overruns and failures too
        "ops_per_s": completed / sum(r["seconds"] for r in records),
        "op_p50_ms": _percentile(secs, 50.0) * 1e3,
        "tail_percentile": tail,
        "op_tail_ms": _percentile(secs, tail) * 1e3,
        "samples_beyond_tail": len(secs) - math.ceil(tail / 100.0 * len(secs)),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in records) / 1024.0,
        "bytes_per_op": statistics.fmean(r["bytes"] for r in records),
    }


def trace_overhead(untraced: list[dict], traced: list[dict]) -> float:
    """Traced over untraced time of the ops that completed in both runs.

    Overrun time is the deadline whether traced or not, so it is left out.
    """
    done = {r["id"] for r in untraced if r["status"] == "ok"}
    done &= {r["id"] for r in traced if r["status"] == "ok"}
    return (sum(r["seconds"] for r in traced if r["id"] in done)
            / sum(r["seconds"] for r in untraced if r["id"] in done))


def _provenance(args, cycles: int, n_ops: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "pullin_dyn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "ops": n_ops,
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
        "cpu_probe_ms": worker.best_probe() * 1e3,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _save(name: str, payload: dict, records: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.json", "w") as fh:
        json.dump({**payload, "ops": [{k: v for k, v in r.items() if k != "trace"}
                                      for r in records]}, fh, indent=1)


def _save_spans(name: str, records: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"{name}.spans.jsonl.gz", "wt") as fh:
        for r in records:
            tr = r["trace"]
            for key, idx, t0, t1, parent in tr["spans"]:
                fh.write(json.dumps({"op": r["id"], "id": key, "name": tr["names"][idx],
                                     "start": t0, "end": t1, "parent": parent}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "threshold", "trajectory"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pullin_dyn" / "__init__.py").is_file():
        print(f"error: no pullin_dyn sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    budget_end = started + RUN_BUDGET_S
    calibrate(0.5)
    cycles = max(1, round(args.seconds * wl.CYCLES_PER_SECOND[args.workload]))
    ops = wl.generate(args.workload, args.seed, cycles)
    workdir = ROOT / ".perf_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import_ms = _import_ms()
            untraced, _ = measure(args.workload, ops, workdir, False, 1,
                                  started + RUN_BUDGET_S / 2)
            records, hello = measure(args.workload, ops, workdir, True, 1, budget_end)
        else:
            # set-up runs spread over the run, so they sample its drift too
            cold_req = [wl.request(op, str(workdir / f"cold{i}.out"))
                        for i, op in enumerate(wl.setup_ops(args.workload, ops))]
            _cold_run(cold_req)
            cold = [_cold_run(cold_req)]
            passes = PASSES[args.workload]
            cold_after = {round((i + 1) * passes / (COLD_RUNS - 1)) - 1
                          for i in range(COLD_RUNS - 1)}

            def between(n: int) -> None:
                if n in cold_after:
                    cold.append(_cold_run(cold_req))

            records, hello = measure(args.workload, ops, workdir, False, passes, budget_end,
                                     between)
            untraced = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not records:
        raise BenchError("no op finished within the run's time budget")

    summary = loop_summary(records, wl.DEADLINE[args.workload])
    prov = _provenance(args, cycles, len(ops))
    prov.update({k: summary[k] for k in ("attempted", "completed", "failed", "known_failures",
                                         "unexpected", "tail_percentile", "samples_beyond_tail")})
    prov["warm_s"] = hello["warm_s"]
    prov["place_s"] = hello["place_s"]
    attempted = summary["attempted"] + len(untraced)
    unexpected = len(summary["unexpected"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        base = loop_summary(untraced, wl.DEADLINE[args.workload])
        unexpected += len(base["unexpected"])
        prov["untraced_unexpected"] = base["unexpected"]
        metrics = {"cli.import_ms": _metric(import_ms, "ms"),
                   "cli.bytes_out": _metric(summary["bytes_per_op"], "bytes")}
        metrics.update(spans.layer_metrics([r["trace"] for r in records]))
        overhead = trace_overhead(untraced, records)
        metrics["trace.overhead"] = _metric(overhead, "ratio")
        prov["trace_overhead"] = overhead
        _save_spans(name, records)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(cold), "s"),
            "ops_per_s": _metric(summary["ops_per_s"], "1/s"),
            "op_p50_ms": _metric(summary["op_p50_ms"], "ms"),
            "op_tail_ms": _metric(summary["op_tail_ms"], "ms"),
            # rule-of-succession estimate of the failure probability: never 0,
            # so its bound stays a share of a nonzero median
            "fail_share": _metric((summary["failed"] + 1) / (summary["attempted"] + 2), "ratio"),
            "peak_rss_mb": _metric(summary["peak_rss_mb"], "MB"),
        }
        prov["setup_runs_s"] = cold
    prov["run_s"] = time.perf_counter() - started
    _save(name, {"provenance": prov, "metrics": metrics}, records)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": unexpected,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
