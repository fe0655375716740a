"""Compare two result sets written by perf/series.py.

    python3 perf/compare.py BASE.json NEW.json

One row per workload and end-to-end metric: each set's median with its
first and third quartile, the change of the medians, and a verdict against
the metric's bound from BENCHMARK.json:

    unresolved  a set's own spread (quartile distance over median) exceeds
                the bound, so the sets cannot be told apart at that bound
    agree       the medians differ by no more than the bound
    better / worse
                the medians differ by more than the bound, in the metric's
                good / bad direction

Sets of runs at different --seconds ran different ops and are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from series import spread

ROOT = Path(__file__).resolve().parent.parent


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    change = (n - b) / b
    if abs(change) <= bound:
        return "agree"
    return "better" if (change < 0) == (better == "lower") else "worse"


def _values(result_set: dict, workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in result_set["runs"]
            if r["workload"] == workload]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    if base["seconds"] != new["seconds"]:
        print(f"error: sets ran {base['seconds']} s and {new['seconds']} s runs, "
              "so their ops differ", file=sys.stderr)
        return 2
    print(f"base: {base['label']}   new: {new['label']}")
    print(f"{'workload':11s} {'metric':12s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict")
    worse = False
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            a, b = _values(base, w["name"], m["name"]), _values(new, w["name"], m["name"])
            if len(a) < 2 or len(b) < 2:
                continue
            cells = []
            for values in (a, b):
                q = statistics.quantiles(values, n=4)
                cells.append(f"{statistics.median(values):11.5g} [{q[0]:9.5g}, {q[2]:9.5g}]")
            change = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            v = verdict(a, b, m["bound"], m["better"])
            worse |= v == "worse"
            print(f"{w['name']:11s} {m['name']:12s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{change:+8.3f}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
