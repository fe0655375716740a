"""Rewrite tests/data/identity.json, the corpus that tests/test_identity.py checks.

    PYTHONPATH=src python tests/make_identity.py          # new digests for the stored runs
    PYTHONPATH=src python tests/make_identity.py --argv   # draw the workload runs again (needs scipy)

The first form reruns the stored argument vectors and rewrites the digests,
the summaries and the environment fingerprint; it prints the id of every entry
whose digest moved, which a change that moves an output lists as a declared
output change. The second form also draws the first cycle of each benchmark
workload for seeds 1-3 from perf/workloads.py again.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perf")]

import test_identity  # noqa: E402

SEEDS = (1, 2, 3)

# the console-script commands of CI (.github/workflows/tier1.yml) that run from an argument vector alone;
# True where the command writes --output
CI = [
    (["sweep", "--xi", "0", "--v-min", "0.1", "--v-max", "0.6", "--v-steps", "2", "--format", "json"], True),
    (["simulate", "--xi", "0", "--v", "0.4", "--t-max", "5", "--scheme", "adaptive"], True),
    (["simulate", "--xi", "0", "--v", "0.4", "--t-max", "5"], True),
    (["simulate", "--xi", "0", "--v", "0.4", "--t-max", "5", "--precision", "14"], True),
    (["simulate", "--xi", "0", "--v", "0.4", "--t-max", "5", "--precision", "15"], True),
    (["generic", "--mu", "1", "--lam", "4", "--t-max", "5"], False),
    (["simulate", "--xi", "0.3", "--v", "0", "--t-max", "2"], True),
    (["simulate", "--xi", "0", "--v", "0.4", "--dt", "1e-3", "--t-max", "1e-3", "--precision", "17"], True),
    (["simulate", "--xi", "0", "--v", "0.4", "--dt", "3e-4", "--t-max", "0.1", "--precision", "17"], True),
    (["simulate", "--xi", "0", "--v", "0.4", "--dt", "1e-3", "--t-max", "12", "--precision", "17"], True),
    (["generic", "--a", "1e-7", "--contact-epsilon", "1e-6"], False),
    *((["sweep", "--xi-range", "0", "4", "3", "--v-min", "2.5", "--v-max", v_max, "--v-steps", "2", "--format", fmt],
       True) for v_max in ("1e200", "5e13") for fmt in ("csv", "json")),
    (["pullin", "--xi", "1e300"], False),
    (["classify", "--xi", "0", "--v", "1e160"], False),
    (["sweep", "--xi", "0", "--v-min", "0.1", "--v-max", "0.6", "--v-steps", "1000000000000"], True),
    (["pullin", "--xi", "0.5"], False),
    (["classify", "--xi", "0.5", "--v", "0.5"], False),
    (["period", "--xi", "0.5", "--v", "0.5", "--method", "both"], False),
    (["simulate", "--xi", "0.3", "--v", "1.0", "--t-max", "3"], True),
    (["sweep", "--xi", "0.5", "--v-min", "0.9195", "--v-max", "2.76", "--v-steps", "12", "--format", "csv"], True),
]


def draw() -> list[dict]:
    import workloads

    entries = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.generate(name, seed, 1):
                entry = {"id": f"{name}-{seed}-{op['id']}"}
                if op["kind"] == "critical":
                    entry["critical"] = {k: op[k] for k in ("xi", "kappa", "v", "dt", "t_max")}
                else:
                    entry.update(argv=op["argv"], output=True)
                entries.append(entry)
    return entries + [{"id": f"ci-{i}", "argv": argv, "output": output} for i, (argv, output) in enumerate(CI)]


def main() -> None:
    old = test_identity.load() if test_identity.DATA.exists() else {"entries": []}
    entries = draw() if "--argv" in sys.argv[1:] else [{k: v for k, v in e.items() if k != "expect"}
                                                       for e in old["entries"]]
    before = {e["id"]: e["expect"] for e in old["entries"]}
    with tempfile.TemporaryDirectory() as tmp:
        for entry in entries:
            entry["expect"] = test_identity.run(entry, Path(tmp))
            was = before.get(entry["id"])
            if was is None or test_identity.mismatch(entry["expect"], was, True):
                print("moved" if was else "new", entry["id"])
    test_identity.DATA.parent.mkdir(exist_ok=True)
    with open(test_identity.DATA, "w") as fh:
        json.dump({"fingerprint": test_identity.fingerprint(), "entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
