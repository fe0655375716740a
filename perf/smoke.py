"""Smoke check of the benchmark itself, at a tiny size (about a minute).

    python3 perf/smoke.py

1. For each workload, one op of each kind runs in this process; its output
   must pass the check, and the same output with one number changed in its
   sixth significant digit (or one report flag flipped) must fail it.
2. For each workload, perf/run.py runs one cycle with --trace 0 and with
   --trace 1; the result line must name exactly BENCHMARK.json's end-to-end
   or per-layer metrics, with their units, and report correct.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from worker import run_op  # noqa: E402

_NUMBER = re.compile(r"\d\.\d{5,}")


def _nudge(match: re.Match) -> str:
    value = float(match.group(0))
    return repr(value * (1.0 + 1e-5))


def _perturb_file(path: Path, op: dict) -> None:
    text = path.read_text()
    if op["format"] == "trajectory":
        # the time of the first event
        head, sep, tail = text.partition("# event,")
        kind, rest = tail.split(",", 1)
        t, rest = rest.split(",", 1)
        path.write_text(f"{head}{sep}{kind},{float(t) * (1.0 + 1e-5)!r},{rest}")
        return
    # the last number of the first data row: v_dpi/x_dpi or a time scale
    lines = text.splitlines(keepends=True)
    if op["format"] == "json":
        payload = json.loads(text)
        row = payload["rows"][0]
        row["v_dpi"] *= 1.0 + 1e-5
        path.write_text(json.dumps(payload))
        return
    first = next(i for i, ln in enumerate(lines) if ln[0].isdigit())
    matches = list(_NUMBER.finditer(lines[first]))
    m = matches[-1]
    lines[first] = lines[first][: m.start()] + _nudge(m) + lines[first][m.end():]
    path.write_text("".join(lines))


def check_checker() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in wl.WORKLOADS:
            ops = wl.generate(workload, seed=1, cycles=1)
            picks = {("critical" if op["kind"] == "critical" else op["format"]): op for op in ops
                     if op.get("side") != "above" or op["delta"] > 1e-3}
            for kind, op in picks.items():
                path = Path(tmp) / f"{workload}-{op['id']}.out"
                reply = run_op(wl.request(op, str(path)))
                verdict = wl.check(op, reply, str(path))
                assert verdict in (None, "known"), (workload, kind, verdict)
                if op["kind"] == "critical":
                    reply["result"]["gap_strictly_decreasing"] = False
                else:
                    _perturb_file(path, op)
                bad = wl.check(op, reply, str(path))
                assert bad not in (None, "known"), (workload, kind, "perturbed output passed")
                print(f"checker  {workload:10s} {kind:10s} ok: {verdict}; perturbed: {bad}")
        above = [op for op in wl.generate("threshold", 1, 1) if op["side"] == "above"]
        assert wl.known_overrun(above[0]) and not wl.known_overrun(above[-1])


def check_metrics() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "0.1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"metrics  {workload:10s} trace {trace}: {len(got)} named metrics printed")


if __name__ == "__main__":
    check_checker()
    check_metrics()
    print("smoke ok")
