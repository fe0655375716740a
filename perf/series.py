"""Run the benchmark over several seeds and save the results as one set.

    python3 perf/series.py --label NAME [--seeds 1-10]

Each of BENCHMARK.json's workloads runs once per seed with --trace 0 for its
run_seconds, one run after another. The set (every run's metrics and
provenance) is written to perf/history/NAME.json; perf/compare.py compares
two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for workload in workloads:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result, prov = json.loads(lines[-1]), json.loads(lines[-2])["provenance"]
            runs.append({"workload": workload, "seed": seed, **result, "provenance": prov})
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    out = HERE / "history" / f"{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"label": args.label, "seconds": seconds, "runs": runs},
                              indent=1) + "\n")
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in mine]
            if len(values) >= 2:
                print(f"{workload:11s} {metric['name']:12s} median {statistics.median(values):12.5g}"
                      f"  spread {spread(values):.3f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
