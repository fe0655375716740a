"""Every output of a frozen corpus of runs matches its stored digest.

tests/data/identity.json holds argument vectors, stored once: the first cycle
of each benchmark workload (perf/workloads.py) for seeds 1-3, with the
critical ops as integrate_critical arguments, and the console-script commands
of CI. For each run it holds the SHA-256 of the output file and of the printed
record without its wall_time_s, stages, config_hash, path and output keys,
and a summary of both. numpy's SIMD exp, log and power may differ in the
last bit between versions and CPUs, so where the environment fingerprint
differs from the stored one the summaries are compared instead: the row
count, the math.fsum of each column and the last row, at 1e-12 relative.
Regenerate the file with `python tests/make_identity.py`; a change that
moves an output lists the entries it moved.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from pullin_dyn import IntegratorConfig, ModelParams, cli, integrate_critical

DATA = Path(__file__).with_name("data") / "identity.json"
_VOLATILE = {"wall_time_s", "stages", "config_hash", "path", "output"}  # output: a sweep's path among its params
_RTOL = 1e-12


def fingerprint() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(),
            "cpu_features": sorted(name for name, on in features.items() if on)}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in _VOLATILE}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _floats(obj) -> list[float]:
    # the float leaves in sorted-key order
    if isinstance(obj, dict):
        return [f for k in sorted(obj) for f in _floats(obj[k])]
    if isinstance(obj, list):
        return [f for v in obj for f in _floats(v)]
    return [obj] if isinstance(obj, float) else []


def _shape(obj):
    # the object with every float replaced by None
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_shape(v) for v in obj]
    return None if isinstance(obj, float) else obj


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _number(cell) -> float | None:
    try:
        return float(cell)
    except (TypeError, ValueError):  # None, "" or text
        return None


def summary(table: list[list]) -> dict:
    """Rows, and per column the fsum of its numbers (NaN, inf and text left out) and of their magnitudes,
    and the last row's numbers (None for text or empty cells)."""
    columns = list(zip(*table)) if table else []
    sums = []
    for col in columns:
        values = [x for x in map(_number, col) if x is not None and math.isfinite(x)]
        sums.append([math.fsum(values), math.fsum(map(abs, values))])
    last = [_number(cell) for cell in table[-1]] if table else []
    return {"rows": len(table), "fsum": sums, "last": [x if x is None or math.isfinite(x) else repr(x) for x in last]}


def _file_table(text: str) -> list[list]:
    if text.startswith("{"):  # a sweep as JSON
        grid = json.loads(text)
        return [[row[c] for c in grid["columns"]] for row in grid["rows"]]
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    return rows[1:]  # after the header


def run(entry: dict, workdir: Path, summaries: bool = True) -> dict:
    """The digests of one corpus entry and, if asked, its summaries."""
    if "critical" in entry:
        c = entry["critical"]
        traj, rep = integrate_critical(ModelParams(xi=c["xi"], v=c["v"], kappa=c["kappa"]),
                                       IntegratorConfig(dt=c["dt"], t_max=c["t_max"]))
        columns = (traj.t, traj.x, traj.v, rep.gap)
        data = b"".join(col.tobytes() for col in columns)
        table = np.column_stack(columns).tolist() if summaries else []
        record = {"events": [[e.kind, e.t, e.x] for e in traj.events], "terminated_by": traj.terminated_by,
                  "x_limit": rep.x_limit, "final_gap": rep.final_gap, "steps": rep.steps,
                  "gap_strictly_decreasing": rep.gap_strictly_decreasing,
                  "always_below_limit": rep.always_below_limit}
    else:
        argv, path = list(entry["argv"]), workdir / f"{entry['id']}.out"
        if entry.get("output"):
            argv += ["--output", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        record = {"exit": code, "stdout": _strip(json.loads(out.getvalue())) if code == 0 else None,
                  "stderr": err.getvalue()}
        data = path.read_bytes() if entry.get("output") and code == 0 else b""
        table = _file_table(data.decode()) if data and summaries else []
    digests = {"file_sha256": _sha(data), "record_sha256": _sha(json.dumps(record, sort_keys=True))}
    if not summaries:
        return digests
    return {**digests, "file": summary(table), "record_shape_sha256": _sha(json.dumps(_shape(record), sort_keys=True)),
            "record_floats": _floats(record)}


def _close(a, b, scale=0.0) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=_RTOL, abs_tol=_RTOL * scale)
    return a == b


def mismatch(got: dict, want: dict, exact: bool) -> str | None:
    """Why got differs from want: by digests where exact, else by the summaries at 1e-12 relative."""
    if exact:
        for key in ("file_sha256", "record_sha256"):
            if got[key] != want[key]:
                return key
        return None
    g, w = got["file"], want["file"]
    if g["rows"] != w["rows"] or len(g["fsum"]) != len(w["fsum"]) or len(g["last"]) != len(w["last"]):
        return f"rows {g['rows']} != {w['rows']}"
    for j, ((s, _), (t, mag)) in enumerate(zip(g["fsum"], w["fsum"])):
        if not _close(s, t, mag):
            return f"column {j}: fsum {s!r} != {t!r}"
    if not all(_close(a, b) for a, b in zip(g["last"], w["last"])):
        return f"last row {g['last']} != {w['last']}"
    if got["record_shape_sha256"] != want["record_shape_sha256"]:
        return "record_shape_sha256"
    if len(got["record_floats"]) != len(want["record_floats"]) or not all(
            _close(a, b) for a, b in zip(got["record_floats"], want["record_floats"])):
        return "record_floats"
    return None


def load() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def test_identity_corpus(tmp_path):
    corpus = load()
    exact = corpus["fingerprint"] == fingerprint()
    failures = {}
    for entry in corpus["entries"]:
        why = mismatch(run(entry, tmp_path, summaries=not exact), entry["expect"], exact)
        if why:
            failures[entry["id"]] = why
    by = "bytes" if exact else "summaries"
    assert not failures, f"{len(failures)} of {len(corpus['entries'])} entries moved ({by}): {failures}"


def test_identity_corpus_covers_every_kind():
    entries = load()["entries"]
    ids = [e["id"] for e in entries]
    assert len(ids) == len(set(ids))
    for prefix in ("sweep-", "threshold-", "trajectory-", "ci-"):
        assert any(i.startswith(prefix) for i in ids), prefix
    assert any("critical" in e for e in entries)
    # a moved digest, or in summary mode a moved row count, is caught
    want = entries[0]["expect"]
    assert mismatch(want, want, True) is None and mismatch(want, want, False) is None
    for key in ("file_sha256", "record_sha256"):
        assert mismatch({**want, key: "0"}, want, True) == key
    moved = {**want, "file": {**want["file"], "rows": want["file"]["rows"] + 1}}
    assert mismatch(moved, want, False)


@pytest.mark.parametrize("entry_id", ["sweep-1-1", "threshold-1-0", "trajectory-1-1", "trajectory-1-2", "ci-9"])
def test_identity_summaries_match(entry_id, tmp_path):
    # the comparison used where the fingerprint differs, on a sweep (JSON), a 2-row sweep, a symplectic
    # trajectory, a critical run and a run over several blocks
    entry = next(e for e in load()["entries"] if e["id"] == entry_id)
    assert mismatch(run(entry, tmp_path), entry["expect"], False) is None


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
