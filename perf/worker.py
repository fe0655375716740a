"""Process that runs benchmark ops against pullin_dyn's public entry points.

    worker.py --cold          read a JSON list of ops on stdin, run them in
                              this fresh interpreter, print "done" when they end
    worker.py --serve [--trace]
                              worker template: warm up, then serve ops

The template imports pullin_dyn, runs the warm-up ops in-process and then
forks one long-lived worker at a time; ops go to the worker and replies come
back through the template, which enforces each op's deadline. An overrun
kills the worker's process group (its `sweep --jobs` pool included), and the
next op gets a fresh worker forked from the still-warm template. The template
is a child subreaper, so it also reaps pool processes orphaned by a kill.

Frames on every pipe are a little-endian u64 length and a pickle; both ends
are this benchmark's own processes.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import pickle
import select
import signal
import struct
import sys
import time

_LEN = struct.Struct("<Q")


def write_frame(fd: int, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_LEN.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytes | None:
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(fd: int):
    head = _read_exact(fd, _LEN.size)
    if head is None:
        return None
    body = _read_exact(fd, _LEN.unpack(head)[0])
    return None if body is None else pickle.loads(body)


def peak_rss_kb(pid: int | str = "self") -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


CPUS = sorted(os.sched_getaffinity(0))
PROBE_LOOPS = 10_000  # under a millisecond of interpreter work per probe
FAST_MARGIN = 1.2  # a CPU is fast while it probes within 20 % of the best probe seen
WAIT_S = 0.15  # longest wait for a fast CPU before an op runs anyway

# On a shared virtual machine a vCPU's speed can drop by 30-40 % (numpy-heavy
# ops by up to 80 %) for a fraction of a second up to seconds at a time, each
# vCPU independently: a busy sibling hyperthread on the host. Before each op
# the process probes every usable CPU with a fixed loop, waits (briefly)
# until one probes fast, and pins the op to it, so such episodes stay out of
# most op times.
_best_probe = float("inf")


def _loop() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - started


def _probe(cpu: int) -> float:
    global _best_probe
    os.sched_setaffinity(0, {cpu})
    _loop()  # the first run after a migration warms the caches
    seconds = min(_loop(), _loop())
    _best_probe = min(_best_probe, seconds)
    return seconds


def best_probe() -> float:
    """Seconds of the fastest probe so far: the fast state's speed."""
    return _best_probe


def calibrate(seconds: float) -> None:
    """Probe every CPU for `seconds`, so the best probe is a fast state's."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for cpu in CPUS:
            _probe(cpu)
        time.sleep(0.01)
    os.sched_setaffinity(0, CPUS)


def fast_cpus(every: bool = False, wait: float = WAIT_S) -> set[int]:
    """CPUs to pin the next op to: the first CPU that probes fast, starting
    with the one this process runs on, or, with `every`, all CPUs once they
    all probe fast. After `wait` seconds it stops waiting and takes the
    fastest."""
    give_up = time.perf_counter() + wait
    here = os.sched_getaffinity(0)
    order = sorted(CPUS, key=lambda cpu: cpu not in here)
    while True:
        times = {}
        for cpu in order:
            times[cpu] = _probe(cpu)
            if not every and times[cpu] <= FAST_MARGIN * _best_probe:
                return {cpu}
        if every and max(times.values()) <= FAST_MARGIN * _best_probe:
            return set(CPUS)
        if time.perf_counter() > give_up:
            return set(CPUS) if every else {min(times, key=times.get)}
        time.sleep(0.01)


def place(req: dict, wait: bool) -> None:
    """Pin this process for one op. An op that starts a `--jobs` pool gets
    every CPU, so the pool can use them."""
    every = req["kind"] == "cli" and "--jobs" in req["argv"]
    os.sched_setaffinity(0, fast_cpus(every, WAIT_S if wait else 0.0))


def run_op(req: dict) -> dict:
    """Run one op in this process; the time covers the entry-point call only."""
    from pullin_dyn import cli, dynamics, model

    out = io.StringIO()
    started = time.perf_counter()
    try:
        if req["kind"] == "cli":
            with contextlib.redirect_stdout(out):
                rc = cli.main(req["argv"])
            result = None
        else:
            m = model.ModelParams(xi=req["xi"], v=req["v"], kappa=req["kappa"])
            cfg = dynamics.IntegratorConfig(dt=req["dt"], t_max=req["t_max"])
            traj, rep = dynamics.integrate_critical(m, cfg)
            rc = 0
            result = {
                "x_limit": rep.x_limit, "final_gap": rep.final_gap,
                "gap_strictly_decreasing": rep.gap_strictly_decreasing,
                "always_below_limit": rep.always_below_limit, "samples": len(traj),
            }
        error = None
    except BaseException as exc:  # an op that raises is a failed op, not a dead worker
        if isinstance(exc, KeyboardInterrupt):
            raise
        rc, result, error = None, None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    return {"status": "raised" if error else "ok", "rc": rc, "seconds": seconds,
            "stdout": out.getvalue(), "error": error, "result": result}


def _cold() -> None:
    for req in json.loads(sys.stdin.read()):
        reply = run_op(req)
        if reply["status"] != "ok" or reply["rc"] != 0:
            print("fail", reply["error"] or f"exit code {reply['rc']}", flush=True)
            return
    print("done", flush=True)


def _worker_loop(tracer, rfd: int, wfd: int) -> None:
    while True:
        msg = read_frame(rfd)
        if msg is None:
            return
        placing = time.perf_counter()
        place(msg["req"], msg.get("wait", True))
        placed_s = time.perf_counter() - placing
        write_frame(wfd, "started")  # the op's deadline runs from here
        if tracer:
            tracer.start_op(msg["workdir"])
        reply = run_op(msg["req"])
        reply["peak_rss_kb"] = peak_rss_kb()
        reply["place_s"] = placed_s
        if tracer:
            reply["trace"] = tracer.finish_op()
        write_frame(wfd, reply)


class _Template:
    def __init__(self, tracer, prime: dict) -> None:
        self.tracer = tracer
        self.prime = prime
        self.pid = None
        self.to_worker = self.from_worker = None

    def spawn(self) -> None:
        r1, w1 = os.pipe()
        r2, w2 = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.setsid()
                os.close(w1)
                os.close(r2)
                if self.tracer:
                    self.tracer.become_worker()
                _worker_loop(self.tracer, r1, w2)
            finally:
                os._exit(0)
        os.close(r1)
        os.close(w2)
        self.pid, self.to_worker, self.from_worker = pid, w1, r2
        # one untimed op first: a forked worker pays copy-on-write faults on
        # the pages its first op touches, which a long-running worker does not
        write_frame(self.to_worker, {"req": self.prime["req"], "workdir": self.prime["workdir"]})
        read_frame(self.from_worker)
        read_frame(self.from_worker)

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.pid, signal.SIGKILL)
        os.close(self.to_worker)
        os.close(self.from_worker)
        self.pid = None
        _reap_all()

    def run(self, msg: dict) -> dict:
        if self.pid is None:
            self.spawn()
        deadline = msg["deadline"]
        write_frame(self.to_worker, {"req": msg["req"], "workdir": msg["workdir"],
                                     "wait": msg["wait"]})
        # the worker answers "started" once it has picked a CPU (placement
        # waits at most WAIT_S); the deadline covers the op alone
        ready, _, _ = select.select([self.from_worker], [], [], WAIT_S + 30.0)
        placed = ready and read_frame(self.from_worker) == "started"
        started = time.perf_counter()
        if placed:
            ready, _, _ = select.select([self.from_worker], [], [], deadline)
        if placed and ready:
            reply = read_frame(self.from_worker)
            if reply is not None:
                return reply
            elapsed = time.perf_counter() - started
            status, error = "crashed", "worker exited without a reply"
        elif not placed:
            elapsed = 0.0
            status, error = "crashed", "worker did not start the op"
        else:
            elapsed = time.perf_counter() - started
            status, error = "overrun", f"no reply within {deadline} s"
        reply = {"status": status, "rc": None, "seconds": elapsed, "stdout": "",
                 "error": error, "result": None, "peak_rss_kb": 0}
        with contextlib.suppress(OSError):
            reply["peak_rss_kb"] = peak_rss_kb(self.pid)
        if self.tracer:
            reply["trace"] = self.tracer.killed_op(self.pid, time.perf_counter())
        self.kill()
        return reply


def _reap_all() -> None:
    # the killed worker and, as subreaper, any pool process it orphaned
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _serve(trace: bool) -> None:
    proto_in, proto_out = os.dup(0), os.dup(1)
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    import pullin_dyn.cli  # noqa: F401  (the entry point and everything it imports)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup = read_frame(proto_in)
    started = time.perf_counter()
    failures = []
    for req in setup["warmup"]:
        reply = run_op(req)
        if reply["status"] != "ok" or reply["rc"] != 0:
            failures.append(reply["error"] or f"exit code {reply['rc']}")
    calibrate(0.5)
    # fork workers from a single-threaded process only
    threads = len(os.listdir("/proc/self/task"))
    write_frame(proto_out, {"warm_s": time.perf_counter() - started, "failures": failures,
                            "threads": threads})
    template = _Template(tracer, {"req": setup["warmup"][0], "workdir": setup["workdir"]})
    try:
        while True:
            msg = read_frame(proto_in)
            if msg is None:
                break
            write_frame(proto_out, template.run(msg))
    finally:
        if template.pid is not None:
            template.kill()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cold"]:
        _cold()
    elif sys.argv[1:2] == ["--serve"]:
        _serve("--trace" in sys.argv[2:])
    else:
        sys.exit("usage: worker.py --cold | --serve [--trace]")
