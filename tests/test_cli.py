import csv
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pullin_dyn
from pullin_dyn import (
    IntegratorConfig,
    IntegratorFailureError,
    InvalidParameterError,
    ModelParams,
    PullInDynError,
    _roots,
    analysis,
    classify_regime,
    cli,
    contact_time_by_quadrature,
    dynamics,
    energy_series,
    integrate,
    period_by_quadrature,
    pullin,
    quadrature,
)
from pullin_dyn.cli import _CSV_CHUNK_ROWS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_pullin_linear(capsys):
    out = run_json(capsys, "pullin", "--xi", "0", "--kappa", "0")
    assert out == {"v_dpi": 0.5, "x_dpi": 0.5, "xi": 0.0, "kappa": 0.0, "convexity_ok": True}


def test_pullin_cubic(capsys):
    out = run_json(capsys, "pullin", "--xi", "0", "--kappa", "1")
    assert out["v_dpi"] == pytest.approx(0.5339, abs=1e-4)
    assert out["x_dpi"] == pytest.approx(0.5596, abs=1e-4)


def test_pullin_convexity_violation_exits_3(capsys):
    code, _, err = run_cli(capsys, "pullin", "--xi", "0", "--kappa", "6")
    assert code == 3
    assert "kappa" in err


def test_pullin_invalid_parameter_exits_2(capsys):
    code, _, _ = run_cli(capsys, "pullin", "--xi", "-1", "--kappa", "0")
    assert code == 2


def test_pullin_physical_flags_route_through_normalization(capsys):
    out = run_json(
        capsys,
        "pullin",
        "--mass", "1e-9", "--spring-k", "1", "--area", "1e-8", "--gap", "1e-6",
        "--voltage", "2.0", "--spring-k3", "1e11", "--d0", "1e-7", "--eps-r", "2",
    )
    assert out["xi"] == pytest.approx(0.05)
    assert out["kappa"] == pytest.approx(0.1)


@pytest.mark.parametrize(
    "argv",
    [
        ["pullin", "--xi", "1e210"],
        ["classify", "--xi", "1e160", "--v", "1"],
        ["simulate", "--xi", "1e250", "--v", "0.1", "--t-max", "1"],
        ["classify", "--xi", "0", "--v", "1e160"],
        ["pullin", "--mass", "1", "--spring-k", "1", "--area", "1", "--gap", "1e-200", "--voltage", "1"],
    ],
)
def test_overflowing_statics_exit_2(capsys, tmp_path, argv):
    # at each point a power that the statics or the SI normalization form
    # would overflow, or a divisor would underflow to 0
    if argv[0] == "simulate":
        argv = argv + ["--output", str(tmp_path / "traj.csv")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflow" in err


def test_sweep_overflowing_statics_fill_error_cells(capsys, tmp_path):
    path = tmp_path / "s.csv"
    run_json(capsys, "sweep", "--xi", "1e300", "--v-min", "0.1", "--v-max", "0.5", "--v-steps", "2",
             "--output", str(path))
    rows = list(csv.DictReader(ln for ln in path.read_text().splitlines() if not ln.startswith("#")))
    assert len(rows) == 2 and all("xi=1e+300 is above" in row["error"] for row in rows)
    run_json(capsys, "sweep", "--xi", "0", "--v-min", "0.1", "--v-max", "1e200", "--v-steps", "3",
             "--output", str(path))
    rows = list(csv.DictReader(ln for ln in path.read_text().splitlines() if not ln.startswith("#")))
    assert rows[0]["regime"] == "periodic" and rows[0]["error"] == ""
    for row in rows[1:]:  # their a_sq would overflow to inf
        assert row["t_c"] == "" and "InvalidParameterError: v=" in row["error"]


def test_mixing_flag_families_exits_2(capsys):
    code, _, err = run_cli(capsys, "pullin", "--xi", "0", "--mass", "1e-9")
    assert code == 2
    assert "mutually exclusive" in err


def test_classify_regimes(capsys):
    per = run_json(capsys, "classify", "--xi", "0", "--v", "0.4")
    assert per["regime"] == "periodic" and per["x_s"] == pytest.approx(0.2)
    crit = run_json(capsys, "classify", "--xi", "0", "--v", "0.5")
    assert crit["regime"] == "critical" and crit["x_limit"] == 0.5
    td = run_json(capsys, "classify", "--xi", "0", "--v", "0.6")
    assert td["regime"] == "touchdown"
    assert td["tc_bound"] == pytest.approx(6.0303, abs=1e-4)


def test_simulate_zero_voltage_two_rows(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    record = run_json(capsys, "simulate", "--xi", "0", "--v", "0", "--t-max", "5", "--output", str(path))
    assert record["outputs"]["samples"] == 2
    lines = path.read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0] == "t,x,v,H"
    assert len(data) == 3  # header + two samples
    assert data[1].startswith("0,0,0")


def test_simulate_over_step_budget_exits_4(capsys, tmp_path):
    path = tmp_path / "never.csv"
    started = time.perf_counter()
    code, _, err = run_cli(
        capsys, "simulate", "--xi", "0", "--v", "0.4", "--dt", "1e-12", "--t-max", "1e6", "--output", str(path)
    )
    assert time.perf_counter() - started < 0.1
    assert code == 4 and "budget of 10000000 fixed steps" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "grid, rows",
    [
        (("--xi", "0", "--v-steps", str(10**12)), 10**12),
        (("--xi-range", "0", "1", str(10**9), "--v-steps", "2"), 2 * 10**9),
        (("--xi-range", "0", "1", "100", "--kappa-range", "0", "0.1", "100", "--v-steps", "101"), 1_010_000),
    ],
)
def test_sweep_over_row_budget_exits_2(capsys, tmp_path, grid, rows):
    # the row count comes from the step counts, so no axis is built before the check
    path = tmp_path / "never.csv"
    tracemalloc.start()
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "sweep", *grid, "--v-min", "0.1", "--v-max", "0.6", "--output", str(path))
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2 and err == f"error: the sweep grid has {rows} rows, above the budget of 1000000 rows\n"
    assert elapsed < 0.1 and peak < 100_000
    assert not path.exists()


def test_simulate_adaptive_over_sample_budget_exits_4(capsys, tmp_path, monkeypatch):
    # the budget is checked at every solver step, so a long horizon fails
    # early instead of running on
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 500)
    path = tmp_path / "never.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--xi", "0", "--v", "0.4", "--scheme", "adaptive", "--t-max", "1e6",
        "--output", str(path),
    )
    assert code == 4 and "t_max=1000000.0 exceeds the adaptive budget of 500 samples" in err
    assert not path.exists()


def test_simulate_with_overflowing_energy_exits_4(tmp_path):
    # xi = 0, v = 1e100: the square of the touch-down speed overflows. The run
    # fails at that sample's t, with one error line, no CSV and no
    # RuntimeWarning even when warnings are errors.
    path = tmp_path / "never.csv"
    src = os.path.dirname(os.path.dirname(pullin_dyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pullin_dyn.cli", "simulate", "--xi", "0", "--v", "1e100",
         "--t-max", "1", "--output", str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("error: energy inf is not finite at t=") and proc.stderr.count("\n") == 1
    assert float(proc.stderr.split("t=")[1]) == pytest.approx(4e-196, rel=1e-6)
    assert not path.exists()


def test_simulate_periodic_events_in_footer(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    run_json(
        capsys, "simulate", "--xi", "0", "--v", "0.4", "--dt", "1e-3",
        "--t-max", "8", "--output", str(path),
    )
    text = path.read_text()
    stag_pos = text.find("# event,stagnation,")
    ret_pos = text.find("# event,return,")
    assert 0 < stag_pos < ret_pos


def test_simulate_touchdown_footer_and_bound(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    run_json(
        capsys, "simulate", "--xi", "0", "--v", "0.6", "--dt", "1e-3",
        "--t-max", "10", "--output", str(path),
    )
    lines = path.read_text().splitlines()
    events = [l for l in lines if l.startswith("# event,")]
    assert len(events) == 1 and events[0].startswith("# event,touchdown,")
    t_c = float(events[0].split(",")[2])
    assert t_c <= 6.0303


def test_simulate_damped_omits_energy_column(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    run_json(
        capsys, "simulate", "--xi", "0", "--v", "0.4", "--mu", "0.5",
        "--dt", "1e-3", "--t-max", "2", "--output", str(path),
    )
    data = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert data[0] == "t,x,v"


def _reference_trajectory_csv(traj, m, cfg, precision):
    # one csv.writer row of format()ed cells per sample
    buf = io.StringIO()
    buf.write(f"# pullin-dyn simulate version={pullin_dyn.__version__}\n")
    buf.write(f"# params xi={m.xi!r} v={m.v!r} kappa={m.kappa!r} mu={m.mu!r}\n")
    buf.write(
        f"# config scheme={cfg.scheme} dt={cfg.dt!r} t_max={cfg.t_max!r} "
        f"contact_epsilon={cfg.contact_epsilon!r}\n"
    )
    with_h = m.mu == 0.0
    columns = [traj.t, traj.x, traj.v] + ([energy_series(traj, m)] if with_h else [])
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x", "v"] + (["H"] if with_h else []))
    for row in zip(*columns):
        writer.writerow([format(float(val), f".{precision}g") for val in row])
    for ev in traj.events:
        buf.write(
            f"# event,{ev.kind},{format(ev.t, f'.{precision}g')},{format(ev.x, f'.{precision}g')}\n"
        )
    return buf.getvalue()


@pytest.mark.parametrize("precision", [0, 1, 3, 6, 12, 15, 17])
@pytest.mark.parametrize("mu", [0.0, 0.2, 0.3])
def test_simulate_csv_matches_per_cell_reference(capsys, tmp_path, precision, mu):
    m = ModelParams(xi=0.3, v=0.35, kappa=0.5, mu=mu)
    cfg = IntegratorConfig(dt=1e-3, t_max=9.5)
    path = tmp_path / "traj.csv"
    run_json(
        capsys, "simulate", "--xi", "0.3", "--v", "0.35", "--kappa", "0.5", "--mu", repr(mu),
        "--dt", "1e-3", "--t-max", "9.5", "--precision", str(precision), "--output", str(path),
    )
    traj = integrate(m, cfg)
    # two whole chunks and a partial one
    assert 2 * _CSV_CHUNK_ROWS < len(traj) < 3 * _CSV_CHUNK_ROWS
    assert traj.events
    expected = _reference_trajectory_csv(traj, m, cfg, precision)
    assert path.read_text() == expected


@pytest.mark.parametrize(
    "argv, stages",
    [
        (
            ["simulate", "--xi", "0", "--v", "0.4", "--dt", "1e-3", "--t-max", "2"],
            {"resolve_s", "integrate_s", "write_s"},
        ),
        (
            ["sweep", "--xi", "0", "--v-min", "0.1", "--v-max", "0.7", "--v-steps", "5"],
            {"rows_s", "write_s"},
        ),
    ],
    ids=["simulate", "sweep"],
)
def test_record_stages(capsys, tmp_path, argv, stages):
    # the same output path twice: a sweep record's params name its output
    a = run_json(capsys, *argv, "--output", str(tmp_path / "out.csv"))
    b = run_json(capsys, *argv, "--output", str(tmp_path / "out.csv"))
    for rec in (a, b):
        assert set(rec["stages"]) == stages
        assert all(val >= 0.0 for val in rec["stages"].values())
        assert rec["wall_time_s"] == pytest.approx(sum(rec["stages"].values()), rel=1e-9)
    assert a["config_hash"] == b["config_hash"]


def _stripped(record):
    # a run record without what may differ between two runs of the same command
    outputs = {k: v for k, v in record["outputs"].items() if k != "path"}
    return {**{k: v for k, v in record.items() if k not in ("wall_time_s", "stages", "outputs")}, "outputs": outputs}


@pytest.mark.parametrize(
    "argv",
    [
        ["--xi", "0.3", "--v", "0.35", "--kappa", "0.5", "--dt", "1e-3", "--t-max", "9.5"],  # periodic
        ["--xi", "0.3", "--v", "1.0", "--t-max", "3"],  # touch-down
        ["--xi", "0", "--v", "0.4", "--dt", "1e-3", "--t-max", "12"],  # two corner restarts
        ["--xi", "0", "--v", "0.4", "--scheme", "adaptive", "--t-max", "200"],
        ["--xi", "0", "--v", "0.4", "--dt", "1e-3", "--t-max", "5", "--precision", "15"],  # the template path
        ["--xi", "0", "--v", "0.4", "--mu", "0.2", "--dt", "1e-3", "--t-max", "5"],  # damped: no H column
    ],
    ids=["periodic", "touchdown", "corner", "adaptive", "precision15", "damped"],
)
def test_simulate_streamed_in_chunks_matches_one_chunk(capsys, tmp_path, monkeypatch, argv):
    # 7-row chunks, the default chunks and the whole run as one chunk write the same bytes and the same record
    files, records = [], []
    for rows in (7, _CSV_CHUNK_ROWS, 10**9):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", rows)
        path = tmp_path / f"traj{rows}.csv"
        records.append(_stripped(run_json(capsys, "simulate", *argv, "--output", str(path))))
        files.append(path.read_bytes())
    assert records[1:] == records[:-1] and files[1:] == files[:-1]
    assert records[0]["outputs"]["samples"] > _CSV_CHUNK_ROWS  # more than one chunk at each size
    assert sorted(os.listdir(tmp_path)) == [f"traj{rows}.csv" for rows in (10**9, 4096, 7)]
    # and the library's Trajectory agrees with the streamed record
    args = cli.build_parser().parse_args(["simulate", *argv])
    m = cli._resolve_model(args)
    traj = integrate(m, cli._resolve_cfg(args))
    assert records[0]["outputs"]["samples"] == len(traj)
    p = int(argv[argv.index("--precision") + 1]) if "--precision" in argv else 12
    assert records[0]["outputs"]["energy_drift"] == (None if m.mu else float(f"%.{p}g" % traj.energy_drift))


def test_simulate_stream_checks_and_counts_across_chunks():
    # a sink sees each chunk once, in order: every sample counted, t strictly increasing across chunks, H as
    # energy_series gives it for the whole run, and the drift as integrate's
    m, cfg = ModelParams(xi=0.0, v=0.4), IntegratorConfig(dt=1e-3, t_max=12.0)
    chunks = []
    col = dynamics._stream(m, cfg, lambda *c: chunks.append([a.copy() for a in c]), 100)
    traj = integrate(m, cfg)
    assert [len(c[0]) for c in chunks[:-1]] == [100] * (len(chunks) - 1) and 0 < len(chunks[-1][0]) <= 100
    for j, ref in enumerate((traj.t, traj.x, traj.v, traj.energy)):
        assert np.concatenate([c[j] for c in chunks]).tobytes() == ref.tobytes()
    assert col.samples == len(traj) and col.energy_drift == traj.energy_drift
    assert (col.events, col.terminated_by) == (traj.events, traj.terminated_by)
    with pytest.raises(IntegratorFailureError, match="samples not strictly increasing"):
        bad = dynamics._Collector(lambda *c: None, 2, m)
        for t in (0.0, 1.0, 2.0):
            bad.add(t, 0.1, 0.0)
        bad.t_last = 5.0  # as if an earlier chunk had ended after the kept samples
        bad.drain(finish=True)


@pytest.mark.parametrize("scheme", ["symplectic", "adaptive"])
def test_simulate_failure_mid_run_leaves_no_file(capsys, tmp_path, monkeypatch, scheme):
    # chunks of 7 rows, or of 1, are written before the run fails at its sample budget (adaptive) or at an
    # energy that is not finite (v = 1e100, its second sample): the file beside the output is removed, and an
    # existing output keeps its bytes
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 7 if scheme == "adaptive" else 1)
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 500)
    written = []
    real = dynamics._Collector._hand
    monkeypatch.setattr(dynamics._Collector, "_hand", lambda self, *c: (written.append(1), real(self, *c)))
    path = tmp_path / "traj.csv"
    argv = (["--v", "0.4", "--scheme", "adaptive", "--t-max", "1e6"] if scheme == "adaptive"
            else ["--v", "1e100", "--t-max", "1"])
    for before in (None, b"an earlier file\n"):
        if before is not None:
            path.write_bytes(before)
        written.clear()
        code, out, err = run_cli(capsys, "simulate", "--xi", "0", *argv, "--output", str(path))
        assert (code, out) == (4, "") and err.count("\n") == 1
        assert ("adaptive budget of 500 samples" if scheme == "adaptive" else "energy inf is not finite") in err
        assert sorted(os.listdir(tmp_path)) == ([] if before is None else ["traj.csv"])
        assert before is None or path.read_bytes() == before
        assert len(written) >= (2 if scheme == "symplectic" else 70)  # the failing chunk and those written before


def test_simulate_memory_is_bounded_by_a_chunk(capsys, tmp_path):
    # 200,002 samples: 4.8 MB of packed samples and 1.6 MB of H if the run were kept whole; streamed, the run keeps
    # a chunk and a block of fixed steps, and the writer one chunk's text
    path = tmp_path / "traj.csv"
    run_json(capsys, "simulate", "--xi", "0", "--v", "0.4", "--t-max", "1", "--output", str(path))  # warm up
    tracemalloc.start()
    try:
        record = run_json(capsys, "simulate", "--xi", "0", "--v", "0.4", "--t-max", "20", "--output", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record["outputs"]["samples"] == 200_002
    assert peak < 1_500_000, peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_in_blocks_matches_one_block(capsys, tmp_path, monkeypatch, fmt):
    # 9 pairs of 7 voltages, non-convex pairs and an invalid v among them (error cells): blocks of 5 rows split
    # every pair, of 7 hold one pair, of 20 two pairs, and the default one block holds all; each file is the same
    tables = []
    write = cli._write_sweep
    monkeypatch.setattr(cli, "_write_sweep", lambda path, spec, table, more: write(
        path, spec, table, (tables.append(t) or t for t in more)))
    files, records = [], []
    for rows in (5, 7, 20, cli._BLOCK_ROWS):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        tables.clear()
        path = tmp_path / f"sweep{rows}.{fmt}"
        records.append(run_json(
            capsys, "sweep", "--xi-range", "0", "2", "3", "--kappa-range", "0", "2", "3", "--v-min", "-0.1",
            "--v-max", "3", "--v-steps", "7", "--format", fmt, "--output", str(path),
        ))
        files.append(path.read_bytes())
        assert len(tables) + 1 == {5: 18, 7: 9, 20: 5}.get(rows, 1)
        assert records[-1]["outputs"]["rows"] == 63
        assert records[-1]["wall_time_s"] == pytest.approx(sum(records[-1]["stages"].values()), rel=1e-9)
    assert files[1:] == files[:-1]
    text = files[0].decode()
    assert "ConvexityError" in text and "InvalidParameterError" in text
    if fmt == "json":
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_simulate_rows_increasing_and_roundtrip(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    run_json(
        capsys, "simulate", "--xi", "0", "--v", "0.4", "--dt", "1e-2",
        "--t-max", "2", "--output", str(path),
    )
    data = [l for l in path.read_text().splitlines() if l and not l.startswith("#")][1:]
    ts = [float(row.split(",")[0]) for row in data]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for row in data[:50]:
        for cell in row.split(","):
            assert "%.12g" % float(cell) == cell


def test_period_both_methods_agree(capsys):
    out = run_json(capsys, "period", "--xi", "0", "--v", "0.4", "--method", "both")
    assert out["discrepancy"] <= 1e-7
    assert out["quad"]["t_p"] == pytest.approx(7.132198208919252, rel=1e-10)


def test_period_harmonic_limit(capsys):
    out = run_json(capsys, "period", "--xi", "0", "--v", "0.01", "--method", "both")
    assert out["quad"]["t_p"] == pytest.approx(2.0 * math.pi, rel=1e-3)
    assert out["discrepancy"] <= 1e-6


def test_period_supercritical_exits_5(capsys):
    code, _, err = run_cli(capsys, "period", "--xi", "0", "--v", "0.6")
    assert code == 5
    assert "classify" in err


def test_sweep_stagnation_column_increasing(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    run_json(
        capsys, "sweep", "--xi", "0", "--kappa", "0", "--v-min", "0.05",
        "--v-max", "0.45", "--v-steps", "9", "--output", str(path),
    )
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 9
    x_s = [float(r.split(",")[3]) for r in rows]
    assert all(b > a for a, b in zip(x_s, x_s[1:]))


def test_sweep_regime_flip_across_threshold(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    run_json(
        capsys, "sweep", "--xi", "0", "--kappa", "0", "--v-min", "0.3",
        "--v-max", "0.7", "--v-steps", "9", "--output", str(path),
    )
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")][1:]
    regimes = [r.split(",")[6] for r in rows]
    # ordered flip: periodic below, touchdown above, the exact grid point at
    # v = 0.5 classifying critical
    order = {"periodic": 0, "critical": 1, "touchdown": 2}
    ranks = [order[r] for r in regimes]
    assert ranks == sorted(ranks)
    assert regimes[0] == "periodic" and regimes[-1] == "touchdown"
    assert regimes.count("critical") == 1
    # supercritical rows carry t_c and empty x_s/t_p
    super_cells = rows[-1].split(",")
    assert super_cells[3] == "" and super_cells[4] == "" and float(super_cells[5]) > 0


def test_sweep_kappa_axis_decreasing_stagnation(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    run_json(
        capsys, "sweep", "--xi", "0", "--kappa-range", "0", "1", "3",
        "--v-min", "0.4", "--v-max", "0.41", "--v-steps", "2",
        "--outputs", "x_s,regime", "--output", str(path),
    )
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")][1:]
    x_s_at_04 = [float(r.split(",")[3]) for r in rows if r.split(",")[2] == "0.4"]
    assert len(x_s_at_04) == 3
    assert all(b < a for a, b in zip(x_s_at_04, x_s_at_04[1:]))


def test_sweep_flags_convexity_violations_per_row(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    run_json(
        capsys, "sweep", "--xi", "0", "--kappa-range", "0", "8", "3",
        "--v-min", "0.1", "--v-max", "0.2", "--v-steps", "2", "--output", str(path),
    )
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 6
    bad = [r for r in rows if "ConvexityError" in r]
    assert len(bad) == 2  # kappa = 8 rows are flagged, sweep continues


def test_sweep_deterministic_across_jobs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    common = [
        "sweep", "--xi", "0.2", "--kappa", "0.3", "--v-min", "0.05",
        "--v-max", "0.6", "--v-steps", "12",
    ]
    run_json(capsys, *common, "--output", str(a), "--jobs", "1")
    run_json(capsys, *common, "--output", str(b), "--jobs", "2")
    assert a.read_bytes() == b.read_bytes()
    code, _, _ = run_cli(capsys, *common, "--output", str(b), "--jobs", "0")
    assert code == 2


def _scalar_sweep_row(xi, kappa, v):
    # the sweep row from the one-point API, as the per-row loop computed it
    row = {"xi": xi, "kappa": kappa, "v": v, **dict.fromkeys(cli._SWEEP_COLUMNS), "error": None}
    try:
        m = ModelParams(xi=xi, v=v, kappa=kappa)
        cls = classify_regime(m)
        row.update(regime=cls.regime, v_dpi=cls.threshold.v_dpi, x_dpi=cls.threshold.x_dpi)
        if cls.regime == "periodic":
            row["x_s"] = cls.x_s
            row["t_p"] = period_by_quadrature(m, cls=cls).t_p
        elif cls.regime in ("touchdown", "contact"):
            row["t_c"] = contact_time_by_quadrature(m, cls=cls)
    except PullInDynError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _rows(table):
    # the sweep table's columns as one dict per grid point, float cells as Python floats and NaN as None (no value)
    return [{k: (None if c != c else float(c)) if isinstance(c, float) else c for k, c in zip(table, cells)}
            for cells in zip(*table.values())]


def _error_parts(cell):
    # an error cell without the number a node-cap error ends in (the change
    # between the last two rules), and that number: the batched and the
    # one-row matrix products round it differently
    text, cap, last = (cell or "").partition("; last change ")
    return text, float(last) if cap else None


def _assert_rows_match_scalar(table):
    for row in _rows(table):
        ref = _scalar_sweep_row(row["xi"], row["kappa"], row["v"])
        assert row.keys() == ref.keys()
        for key in ("xi", "kappa", "v", "regime", "v_dpi", "x_dpi"):
            assert row[key] == ref[key], (key, row, ref)
        (text, last), (ref_text, ref_last) = _error_parts(row["error"]), _error_parts(ref["error"])
        assert (row["error"] is None, text) == (ref["error"] is None, ref_text), (row, ref)
        if ref_last is None:
            assert last is None, (row, ref)
        else:
            assert last == pytest.approx(ref_last, rel=0.0, abs=1e-12), (row, ref)
        for key, rel, abs_ in (("x_s", 0.0, 1e-12), ("t_p", 1e-12, 0.0), ("t_c", 1e-12, 0.0)):
            if ref[key] is None:
                assert row[key] is None, (key, row, ref)
            else:
                assert row[key] == pytest.approx(ref[key], rel=rel, abs=abs_), (key, row, ref)


def test_sweep_rows_equal_scalar_api_on_grid():
    # periodic, touch-down, critical-band and contact rows (xi = 2), v = 0,
    # a non-convex pair (xi = kappa = 2) and delta = 1e-9 ... 1e-1 on both
    # sides of every convex pair's v_dpi, all in one pass
    xis, kappas = [0.0, 0.6, 2.0], [0.0, 0.35, 2.0]
    vs = [0.0]
    for xi in xis:
        for kappa in kappas:
            if kappa < 16.0 / (3.0 * (xi + 1.0) ** 2):
                v_dpi = pullin(xi, kappa).v_dpi
                vs += [v_dpi, v_dpi * (1.0 + 1e-13)]
                vs += [v_dpi * (1.0 + s * 10.0**-k) for s in (-1.0, 1.0) for k in (9, 7, 5, 3, 1)]
    table = cli._sweep_rows(list(itertools.product(xis, kappas)), vs, cli._SWEEP_COLUMNS)
    rows = _rows(table)
    assert len(rows) == len(xis) * len(kappas) * len(vs)
    regimes = {r["regime"] for r in rows}
    assert regimes == {None, "periodic", "critical", "touchdown", "contact"}
    assert any(r["error"] and r["error"].startswith("ConvexityError") for r in rows)
    _assert_rows_match_scalar(table)


@given(
    st.floats(0.0, 2.5),
    st.floats(0.0, 0.95),
    st.lists(st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-12.0, 0.3)), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_sweep_rows_equal_scalar_api_property(xi, kappa_frac, offsets):
    kappa = kappa_frac * 16.0 / (3.0 * (xi + 1.0) ** 2)
    v_dpi = pullin(xi, kappa).v_dpi
    vs = [max(v_dpi * (1.0 + s * 10.0**e), 0.0) for s, e in offsets]
    _assert_rows_match_scalar(cli._sweep_rows([(xi, kappa)], vs, cli._SWEEP_COLUMNS))


def test_sweep_rows_with_failed_quadrature_equal_scalar_api(monkeypatch):
    # A 64-node cap fails the periods and contact times nearest the threshold
    # (a period at delta = 1e-6 needs 128 nodes, and so does a kappa = 0.35
    # contact time at delta = 1e-6) and leaves the others converged; the error
    # cells carry the scalar API's messages, and the failed rows keep their regime.
    monkeypatch.setattr(quadrature, "_MAX_NODES", 64)
    xis, kappas = [0.0, 1e-5], [0.0, 0.35]
    vs = []
    for xi in xis:
        for kappa in kappas:
            v_dpi = pullin(xi, kappa).v_dpi
            vs += [v_dpi * (1.0 + s * 10.0**-k) for s in (-1.0, 1.0) for k in (9, 6, 3, 1)]
    table = cli._sweep_rows(list(itertools.product(xis, kappas)), vs, cli._SWEEP_COLUMNS)
    failed = {r["regime"] for r in _rows(table) if r["error"] and r["error"].startswith("QuadratureFailureError")}
    assert failed == {"periodic", "touchdown"}
    assert not (np.isnan(table["t_p"]).all() or np.isnan(table["t_c"]).all())
    _assert_rows_match_scalar(table)


def test_sweep_rows_all_invalid_equal_scalar_api():
    # a non-convex pair (xi = kappa = 2) and a negative voltage: no row reaches the kernels
    table = cli._sweep_rows([(2.0, 2.0)], [-0.1, 0.3], cli._SWEEP_COLUMNS)
    assert all(table["error"]) and not any(table["regime"])
    assert {e.split(":")[0] for e in table["error"]} == {"ConvexityError", "InvalidParameterError"}
    _assert_rows_match_scalar(table)


def test_contact_regime_on_every_command(capsys, tmp_path):
    # xi = 2, v = 0.99 v_dpi: x_s = 1.288 lies beyond the contact surface,
    # and the electrode touches down at t_c (QUADPACK with the x^-1/2 weight)
    v = repr(0.99 * pullin(2.0).v_dpi)
    out = run_json(capsys, "classify", "--xi", "2", "--v", v)
    assert out["regime"] == "contact" and out["x_s"] == pytest.approx(1.2884, abs=1e-4)
    code, _, err = run_cli(capsys, "period", "--xi", "2", "--v", v)
    assert code == 5 and "'contact'" in err
    path = tmp_path / "s.csv"
    run_json(capsys, "sweep", "--xi", "2", "--v-min", v, "--v-max", "2.6", "--v-steps", "2",
             "--output", str(path))
    row = next(csv.DictReader(ln for ln in path.read_text().splitlines() if not ln.startswith("#")))
    assert row["regime"] == "contact" and row["x_s"] == row["t_p"] == "" and row["error"] == ""
    assert float(row["t_c"]) == pytest.approx(3.0783024246692783, rel=1e-11)


def test_sweep_solves_statics_once_per_row(capsys, tmp_path, monkeypatch):
    # the rows are solved as arrays: no scalar root find, and one array root
    # pass per (xi, kappa) pull-in point plus one for every row's x_s and x2
    scalar, batched = [], []
    real, real_batch = _roots.bracketed_root, analysis.convex_roots

    def counted(f, *args, **kwargs):
        scalar.append(1)
        return real(f, *args, **kwargs)

    def counted_batch(f_df, x, lo, hi, rising):
        batched.append(len(x))
        return real_batch(f_df, x, lo, hi, rising)

    n = 12
    v_max = 0.9 * min(pullin(xi, k).v_dpi for xi in (0.15, 0.25) for k in (0.35, 0.45))
    analysis.pullin.cache_clear()
    for mod in (_roots, analysis, dynamics):
        monkeypatch.setattr(mod, "bracketed_root", counted, raising=False)
    monkeypatch.setattr(analysis, "convex_roots", counted_batch)
    run_json(
        capsys, "sweep", "--xi-range", "0.15", "0.25", "2", "--kappa-range", "0.35", "0.45", "2",
        "--v-min", "0.05", "--v-max", repr(v_max), "--v-steps", str(n),
        "--output", str(tmp_path / "s.csv"),
    )
    rows = (tmp_path / "s.csv").read_text().splitlines()[3:]
    assert len(rows) == 4 * n and all(",periodic," in r for r in rows)
    assert scalar == [] and batched == [1, 1, 1, 1, 2 * 4 * n]


def test_sweep_classifies_each_row_once(capsys, tmp_path, monkeypatch):
    # one array classification covers every row; no row is classified, or
    # handed to a quadrature, one point at a time
    scalar, batched = [], []
    real, real_rows = analysis.classify_regime, cli.classify_rows

    def counted(m, *args, **kwargs):
        scalar.append(1)
        return real(m, *args, **kwargs)

    def counted_rows(xi, *args, **kwargs):
        batched.append(len(xi))
        return real_rows(xi, *args, **kwargs)

    for mod in (analysis, cli, quadrature):
        monkeypatch.setattr(mod, "classify_regime", counted)
    monkeypatch.setattr(cli, "classify_rows", counted_rows)
    n = 10
    run_json(
        capsys, "sweep", "--xi", "0.3", "--kappa-range", "0", "0.4", "2", "--v-min", "0.2",
        "--v-max", "1.2", "--v-steps", str(n), "--output", str(tmp_path / "s.csv"),
    )
    rows = list(csv.DictReader(
        ln for ln in (tmp_path / "s.csv").read_text().splitlines() if not ln.startswith("#")
    ))
    assert {"periodic", "touchdown"} <= {r["regime"] for r in rows}
    assert all(r["t_p"] or r["t_c"] for r in rows)
    assert scalar == [] and batched == [len(rows)] == [2 * n]


def test_benchmark_layer_names_resolve():
    # the benchmark's tracer looks these names up on their modules
    path = Path(__file__).resolve().parents[1] / "perf" / "spans.py"
    spec = importlib.util.spec_from_file_location("perf_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, fns in spans.LAYERS.values():
        mod = importlib.import_module(modname)
        for fn in fns:
            assert callable(getattr(mod, fn, None)), f"{modname}.{fn}"
    assert callable(importlib.import_module("pullin_dyn.model").make_force)


def test_cold_import_loads_no_scipy_and_no_process_pool():
    code = (
        "import sys, pullin_dyn.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing') or m.startswith('concurrent.futures')))"
    )
    src = os.path.dirname(os.path.dirname(pullin_dyn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_adaptive_simulate_loads_no_scipy(tmp_path):
    # a finder that refuses every scipy module: the adaptive run needs none
    path = tmp_path / "traj.csv"
    argv = ["simulate", "--xi", "0", "--v", "0.4", "--t-max", "5", "--scheme", "adaptive", "--output", str(path)]
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from pullin_dyn import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(pullin_dyn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    events = [line.split(",") for line in path.read_text().splitlines() if line.startswith("# event,")]
    assert [e[1] for e in events] == ["stagnation"]
    assert float(events[0][2]) == pytest.approx(3.57, abs=0.01)  # t_s at this point


def test_sweep_json_single_object(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    run_json(
        capsys, "sweep", "--xi", "0", "--kappa", "0", "--v-min", "0.1",
        "--v-max", "0.3", "--v-steps", "3", "--format", "json", "--output", str(path),
    )
    payload = json.loads(path.read_text())
    assert isinstance(payload, dict)
    assert len(payload["rows"]) == 3
    assert payload["spec"]["v_steps"] == 3


def _reference_round_floats(obj, precision):
    if isinstance(obj, float):
        return float(format(obj, f".{precision}g"))
    if isinstance(obj, dict):
        return {k: _reference_round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_round_floats(v, precision) for v in obj]
    return obj


def _reference_sweep_text(spec, rows):
    # the per-cell writer: _round_floats over the whole JSON payload, or one
    # csv.writer row of format()ed cells per grid point
    p = spec["precision"]
    columns = ["xi", "kappa", "v", *spec["outputs"], "error"]
    if spec["format"] == "json":
        payload = {"spec": spec, "columns": columns, "rows": [{k: row[k] for k in columns} for row in rows]}
        return json.dumps(_reference_round_floats(payload, p), sort_keys=True) + "\n"
    buf = io.StringIO()
    buf.write(f"# pullin-dyn sweep version={pullin_dyn.__version__}\n")
    buf.write(f"# spec {json.dumps(_reference_round_floats(spec, p), sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = (row[k] for k in columns)
        writer.writerow(["" if c is None else format(c, f".{p}g") if isinstance(c, float) else str(c) for c in cells])
    return buf.getvalue()


def _table_forms(rows):
    # one sweep table in both forms the writer takes: lists with None (and Python or numpy floats), and the
    # program's columns, float64 arrays in which NaN is no value
    lists = {k: [row[k] for row in rows] for k in rows[0]}
    return lists, {k: col if k in ("regime", "error") else np.array(col, float) for k, col in lists.items()}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "extra", [[], ["--precision", "3"], ["--precision", "17"], ["--outputs", "t_c,regime"]], ids=str
)
def test_sweep_file_matches_per_cell_reference(capsys, tmp_path, monkeypatch, fmt, extra):
    # periodic, touch-down and contact rows, empty cells, non-convex pairs
    # and invalid v (error cells with colons); the table as the sweep made it and as lists, its float
    # cells formatted once per distinct cell and once per cell
    seen = []
    write = cli._write_sweep
    monkeypatch.setattr(cli, "_write_sweep", lambda *a: (seen.append(a), write(*a)))
    path = tmp_path / f"sweep.{fmt}"
    run_json(
        capsys, "sweep", "--xi-range", "0", "2", "3", "--kappa-range", "0", "2", "3",
        "--v-min", "-0.1", "--v-max", "3", "--v-steps", "7", "--format", fmt, *extra, "--output", str(path),
    )
    [(_, spec, table, more)] = seen
    assert list(more) == []  # one block
    rows = _rows(table)
    assert {"periodic", "touchdown", "contact", None} <= {r["regime"] for r in rows}
    errors = {r["error"].split(":")[0] for r in rows if r["error"]}
    assert errors == {"ConvexityError", "InvalidParameterError"}
    expected = _reference_sweep_text(spec, rows).encode()
    assert path.read_bytes() == expected
    for min_distinct in (0, 10**9):
        monkeypatch.setattr(cli, "_MIN_DISTINCT", min_distinct)
        for form in (table, _table_forms(rows)[0]):
            write(str(path), spec, form)
            assert path.read_bytes() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_writer_rounds_numpy_floats_and_quotes_cells(tmp_path, monkeypatch, fmt):
    spec = {
        "xi": [0.0, 0.1], "kappa": 0.0, "v_min": 0.1, "v_max": 1.0 / 3.0, "v_steps": 2,
        "outputs": ["x_s", "regime"], "format": fmt, "precision": 17,
    }
    values = [1.0 / 3.0, 0.1, -0.0, 5e-324, 1.7976931348623157e308, 7.132198208919252, 2.0]
    rows = [
        {"xi": 0.1, "kappa": 0.0, "v": v, "x_s": v, "regime": "periodic", "error": None} for v in values
    ] + [
        {"xi": 0.1, "kappa": 0.0, "v": 0.2, "x_s": None, "regime": None,
         "error": 'QuadratureFailureError: at (xi, kappa, v) = (0.1, 0.0, 0.2); "last" 1e-3'}
    ]
    numpy_rows = [{k: np.float64(c) if isinstance(c, float) else c for k, c in row.items()} for row in rows]
    for precision in (3, 12, 17):
        spec["precision"] = precision
        expected = _reference_sweep_text(spec, rows)
        assert _reference_sweep_text(spec, numpy_rows) == expected
        # list tables of Python and numpy floats and the array form, formatted per distinct cell and per cell
        for min_distinct, table in itertools.product((0, 10**9), (*_table_forms(rows), _table_forms(numpy_rows)[0])):
            monkeypatch.setattr(cli, "_MIN_DISTINCT", min_distinct)
            cli._write_sweep(str(tmp_path / "out"), spec, table)
            assert (tmp_path / "out").read_text() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_writer_keeps_signed_zeros_and_escapes_error_cells(tmp_path, monkeypatch, fmt):
    # 0.0 and -0.0 compare equal but print apart ("0" and "-0", "0.0" and
    # "-0.0"), in either order in a column, and 0.25 repeats across rows; the
    # error cell needs CSV quoting and JSON escapes
    spec = {
        "xi": 0.5, "kappa": 0.0, "v_min": 0.1, "v_max": 0.25, "v_steps": 2,
        "outputs": ["x_s", "v_dpi", "regime"], "format": fmt, "precision": 12,
    }
    signs = [0.0, -0.0, 0.25, 0.0, 0.25, -0.0]
    rows = [
        {"xi": 0.5, "kappa": 0.0, "v": a, "x_s": b, "v_dpi": 0.25, "regime": "periodic", "error": None}
        for a, b in zip(signs, [-c for c in signs])
    ] + [
        {"xi": 0.5, "kappa": -0.0, "v": 0.25, "x_s": None, "v_dpi": None, "regime": None,
         "error": 'InvalidParameterError: "quoted", back\\slash and \u00e9, then 0.25'}
    ]
    numpy_rows = [{k: np.float64(c) if isinstance(c, float) else c for k, c in row.items()} for row in rows]
    for precision in (3, 12, 17):
        spec["precision"] = precision
        expected = _reference_sweep_text(spec, rows)
        assert ("-0," if fmt == "csv" else "-0.0,") in expected and "\\" in expected
        # list tables of Python and numpy floats and the array form, formatted per distinct cell and per cell
        for min_distinct, table in itertools.product((0, 10**9), (*_table_forms(rows), _table_forms(numpy_rows)[0])):
            monkeypatch.setattr(cli, "_MIN_DISTINCT", min_distinct)
            cli._write_sweep(str(tmp_path / "out"), spec, table)
            assert (tmp_path / "out").read_text() == expected


_MAX_DOUBLE = 1.7976931348623157e308
_DOUBLES = st.one_of(
    st.floats(allow_nan=False),  # the whole range, infinities included
    st.floats(-2.3e-308, 2.3e-308),  # subnormals and the smallest normals
    st.floats(-323.3, -307.6).map(lambda e: 10.0**e),  # subnormals, log-uniform
    st.floats(1e12, 1e16),
    st.floats(-1e16, -1e12),
    st.floats(1.6e308, _MAX_DOUBLE),  # round up to inf at low precision
    st.floats(-_MAX_DOUBLE, -1.6e308),
    st.integers(-(2**60), 2**60).map(float),  # whole numbers
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


@given(st.integers(0, 17), _DOUBLES)
@example(3, 5e-324)  # a subnormal: "4.94e-324" reads back as 5e-324
@example(15, 2.2362890372511e-310)  # "2.23628903725111e-310" reads back as this subnormal
@example(3, _MAX_DOUBLE)  # "1.8e+308" overflows
@example(15, 1e15)  # "1e+15", positional in repr
@example(12, 123456789012.0)  # a positional whole number
@example(0, -0.0)
# above 15 digits the text need not be the shortest that reads back, so it takes the repr path
@example(16, 9.41013511305455)  # "9.410135113054549" reads back as 9.41013511305455
@example(17, 0.1)  # "0.10000000000000001"
@example(17, 2.0)
@settings(max_examples=400, deadline=None)
def test_json_float_is_json_dumps_of_the_g_text(precision, x):
    text = f"%.{precision}g" % x
    assert cli._json_float(text, precision) == json.dumps(float(text))
    if precision <= 15 and "." in text and "e" not in text:  # the case _write_sweep takes without the call
        assert cli._json_float(text, precision) == text


def _untimed(stdout):
    try:
        record = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(record, dict):
        record.pop("stages", None)
        record.pop("wall_time_s", None)
    return record


def test_reused_parser_holds_no_state(capsys, tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # the usage text of an argparse error wraps to it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 0.3\nformat = json\nprecision = 5\n")
    out = str(tmp_path / "sweep.out")
    sweep = ["sweep", "--xi", "0.2", "--v-min", "0.1", "--v-max", "0.7", "--v-steps", "4", "--output", out]
    calls = [
        sweep + ["--config", str(cfg)],
        sweep,
        ["classify", "--xi", "0", "--v", "0.5", "--eps-v", "1e-3"],
        ["sweep", "--v-min", "0.1", "--v-max", "0.7", "--v-steps", "x", "--output", out],
        ["period", "--xi", "0", "--v", "0.4"],
        sweep + ["--config", str(cfg)],
    ]

    def result(code, stdout, stderr):
        written = Path(out).read_bytes() if os.path.exists(out) else None
        if os.path.exists(out):
            os.remove(out)
        return code, _untimed(stdout), stderr, written

    src = os.path.dirname(os.path.dirname(pullin_dyn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "pullin_dyn.cli", *argv], env=env, capture_output=True, text=True
        )
        fresh.append(result(proc.returncode, proc.stdout, proc.stderr))
    assert [r[0] for r in fresh] == [0, 0, 0, 2, 0, 0]
    assert fresh[0][3] != fresh[1][3]  # the config changes the table

    for argv, expected in zip(calls, fresh):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert result(code, captured.out, captured.err) == expected, argv


@pytest.mark.parametrize(
    "config_line, argv, flag",
    [
        (None, ["--v-min", "0.1", "--v-max", "inf", "--v-steps", "3"], "--v-max"),
        (None, ["--v-min=-inf", "--v-max", "0.4", "--v-steps", "3"], "--v-min"),
        (None, ["--v-min", "nan", "--v-max", "0.4", "--v-steps", "3"], "--v-min"),
        ("v_max = inf", ["--v-min", "0.1", "--v-steps", "3"], "--v-max"),
        ("v_min = -inf", ["--v-max", "0.4", "--v-steps", "3"], "--v-min"),
        (None, ["--xi-range", "0", "inf", "3", "--v-min", "0.1", "--v-max", "0.4", "--v-steps", "3"], "--xi-range"),
        (None, ["--kappa-range", "0", "inf", "3", "--v-min", "0.1", "--v-max", "0.4", "--v-steps", "3"],
         "--kappa-range"),
        ("xi_range = 0, inf, 3", ["--v-min", "0.1", "--v-max", "0.4", "--v-steps", "3"], "--xi-range"),
        ("kappa_range = 0, nan, 3", ["--v-min", "0.1", "--v-max", "0.4", "--v-steps", "3"], "--kappa-range"),
        (None, ["--xi", "inf", "--v-min", "0.1", "--v-max", "0.4", "--v-steps", "3"], "--xi"),
    ],
)
def test_sweep_rejects_non_finite_bounds(capsys, tmp_path, config_line, argv, flag):
    extra = []
    if config_line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_line + "\n")
        extra += ["--config", str(cfg)]
    out_path = tmp_path / "sweep.json"
    code, out, err = run_cli(capsys, "sweep", *argv, *extra, "--format", "json", "--output", str(out_path))
    assert code == 2 and out == ""
    assert flag in err and "finite" in err
    assert not out_path.exists()


def test_generic_subcommand(capsys):
    out = run_json(capsys, "generic", "--mu", "1", "--lam", "4", "--dt", "1e-3", "--t-max", "5")
    assert out["guaranteed"] is True
    assert out["t_c"] <= 1.842
    assert out["tc_bound"] == pytest.approx(1.8414, abs=1e-4)
    out2 = run_json(capsys, "generic", "--mu", "1", "--lam", "1", "--dt", "1e-3", "--t-max", "5")
    assert out2["guaranteed"] is False and out2["t_c"] is None


def test_config_file_with_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi=0.5\nkappa=0\n# comment\nv=0.2\n")
    out = run_json(capsys, "classify", "--config", str(cfg))
    assert out["xi"] == 0.5 and out["v"] == 0.2
    out2 = run_json(capsys, "classify", "--config", str(cfg), "--v", "0.3")
    assert out2["v"] == 0.3  # explicit flag wins
    assert out2["xi"] == 0.5


@pytest.mark.parametrize("key", ["t_maxx", "bogus", "event_refine_tol", "help", "config"])
def test_config_key_of_no_subcommand_exits_2(capsys, tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 5\n")
    out_path = tmp_path / "traj.csv"
    code, out, err = run_cli(capsys, "simulate", "--xi", "0", "--v", "0.4", "--config", str(cfg),
                             "--output", str(out_path))
    assert code == 2 and out == ""
    assert repr(key) in err
    assert not out_path.exists()


def test_config_values_read_as_their_flags(capsys, tmp_path):
    # one key of each kind: int, float, choice, 3-value range, string, and the output path
    out_path = tmp_path / "sweep.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "v_steps = 4\nv_min = 0.1\nv_max = 0.7\nformat = json\nxi_range = 0, 0.5, 2\n"
        f"outputs = x_s,t_p,regime\noutput = {out_path}\n"
    )
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0, err
    from_file, record = out_path.read_bytes(), _untimed(out)
    out_path.unlink()
    code, out, err = run_cli(capsys, "sweep", "--v-steps", "4", "--v-min", "0.1", "--v-max", "0.7", "--format",
                             "json", "--xi-range", "0", "0.5", "2", "--outputs", "x_s,t_p,regime", "--output",
                             str(out_path))
    assert code == 0, err
    assert out_path.read_bytes() == from_file and _untimed(out) == record
    assert json.loads(from_file)["spec"]["xi"] == [0.0, 0.5]


def test_output_flag_beats_config_output(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"xi = 0\nv = 0.4\nt_max = 1\noutput = {tmp_path / 'file.csv'}\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--output", str(tmp_path / "flag.csv"))
    assert code == 0, err
    assert json.loads(out)["outputs"]["path"] == str(tmp_path / "flag.csv")
    assert (tmp_path / "flag.csv").exists() and not (tmp_path / "file.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--xi", "0", "--v", "0.4", "--t-max", "1"],
        ["sweep", "--xi", "0", "--v-min", "0.1", "--v-max", "0.4", "--v-steps", "2"],
    ],
)
def test_missing_output_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--output" in err and "--v-min" not in err  # only the missing flags are named


def test_config_key_of_another_subcommand_is_allowed(capsys, tmp_path):
    # one file may serve several subcommands: simulate ignores the sweep's and classify's keys
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi = 0\nv = 0.4\nt_max = 1\nv_steps = 5\neps_v = 1e-9\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--output", str(tmp_path / "traj.csv"))
    assert code == 0 and json.loads(out)["params"]["t_max"] == 1.0
    assert run_json(capsys, "classify", "--config", str(cfg))["regime"] == "periodic"


@pytest.mark.parametrize("eps_v", [-1.0, math.nan])
def test_classify_rejects_negative_or_nan_eps_v(capsys, eps_v):
    # at v = v_dpi a negative band classified touch-down with a_sq = 0, and tc_bound divided by zero
    m = ModelParams(xi=0.0, v=0.5)
    with pytest.raises(InvalidParameterError, match="eps_v"):
        classify_regime(m, eps_v=eps_v)
    code, out, err = run_cli(capsys, "classify", "--xi", "0", "--v", "0.5", "--eps-v", str(eps_v))
    assert code == 2 and out == ""
    assert "eps_v" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--a", "nan"], "a must be finite"),
        (["--mu", "nan", "--lam", "4"], "mu must be finite"),
        (["--lam", "inf"], "lam must be finite"),
        (["--c1", "inf"], "c1 must be finite"),
        (["--a", "0"], "a must be positive"),  # the default c2 = 1/(2 a^2) divided by zero
    ],
)
def test_generic_rejects_non_finite_or_zero_parameters(capsys, argv, message):
    code, out, err = run_cli(capsys, "generic", *argv, "--t-max", "1")
    assert code == 2 and out == ""
    assert message in err


def test_generic_tiny_a_samples_inside_the_travel(capsys):
    # a grid up to a - 1e-6 would sample x < 0 here, where |f| > c1 = a
    out = run_json(capsys, "generic", "--a", "1e-7", "--t-max", "1")
    assert out["guaranteed"] is True


@pytest.mark.parametrize("a", ["1e-200", "1e200", "1e-160"])
def test_generic_default_bound_out_of_range_names_a(capsys, a):
    # the default c2 = 1/(2 a^2) underflows to 0 or overflows to inf; the
    # user gave neither c1 nor c2, so the message names a alone
    code, out, err = run_cli(capsys, "generic", "--a", a, "--t-max", "1")
    assert code == 2 and out == ""
    assert "--a=" in err
    assert "c1" not in err and "c2" not in err


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "classify", "--config", str(tmp_path / "nope.cfg"), "--v", "0.1")
    assert code == 2


def test_precision_env_is_ignored(capsys, monkeypatch):
    # the output precision is set by --precision or a config file's precision = N, never by the environment
    argv = ["pullin", "--xi", "0", "--kappa", "1"]
    monkeypatch.delenv("PULLIN_DYN_PRECISION", raising=False)
    default, flagged = run_cli(capsys, *argv), run_cli(capsys, *argv, "--precision", "8")
    assert '"v_dpi": 0.533887326355' in default[1] and '"v_dpi": 0.53388733' in flagged[1]
    for value in ("4", "-1", "3000000000", "abc"):
        monkeypatch.setenv("PULLIN_DYN_PRECISION", value)
        assert run_cli(capsys, *argv) == default
        assert run_cli(capsys, *argv, "--precision", "8") == flagged


def test_negative_precision_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "pullin", "--xi", "0", "--precision", "-1")
    assert code == 2 and out == ""
    assert "--precision" in err


def test_oversized_precision_flag_exits_2(capsys, tmp_path):
    # "%.{p}g" raises ValueError for a precision this large; 767 digits print every double exactly
    code, out, err = run_cli(
        capsys, "simulate", "--xi", "0", "--v", "0.4", "--t-max", "0.01",
        "--precision", "99999999999999999999", "--output", str(tmp_path / "traj.csv"),
    )
    assert code == 2 and out == ""
    assert "--precision" in err and "767" in err


@pytest.mark.parametrize(
    "line, argv",
    [
        ("format = xml", ["sweep", "--v-min", "0.1", "--v-max", "0.4", "--v-steps", "2"]),
        ("method = bogus", ["period", "--xi", "0", "--v", "0.4"]),
    ],
)
def test_config_choice_outside_flag_choices_exits_2(capsys, tmp_path, line, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out_path = tmp_path / "out.csv"
    extra = ["--output", str(out_path)] if argv[0] == "sweep" else []
    code, out, err = run_cli(capsys, *argv, *extra, "--config", str(cfg))
    assert code == 2 and out == ""
    assert line.split(" = ")[1] in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "config_line, argv, named",
    [
        ("v = abc", ["pullin", "--xi", "0"], "config v"),
        (None, ["sweep", "--xi-range", "0", "1", "abc", "--v-min", "0.1", "--v-max", "0.4",
                "--v-steps", "2"], "--xi-range"),
    ],
)
def test_non_numeric_value_exits_2(capsys, tmp_path, config_line, argv, named):
    extra = []
    if config_line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_line + "\n")
        extra += ["--config", str(cfg)]
    if argv[0] == "sweep":
        extra += ["--output", str(tmp_path / "out.csv")]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 2 and out == ""
    assert named in err and "abc" in err


def test_fmt_float_roundtrip_idempotent():
    values = [0.1, 1.0 / 3.0, 7.132198208919252, 1e-15, 123456.789, 5.0e9, 2.0]
    for p in (4, 8, 12, 17):
        for x in values:
            s = f"%.{p}g" % x
            assert f"%.{p}g" % float(s) == s


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--xi", "0", "--v", "0.4", "--dt", "1e-3", "--t-max", "2"],
        ["sweep", "--xi", "0", "--v-min", "0.1", "--v-max", "0.7", "--v-steps", "5"],
    ],
    ids=["simulate", "sweep"],
)
def test_run_record_keys(capsys, tmp_path, monkeypatch, argv):
    # clocks of different rates change a record's timings, never its keys or config_hash
    records = []
    for tick in (0.25, 0.75):
        clock = iter(np.arange(100) * tick)
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: float(next(clock))))
        records.append(run_json(capsys, *argv, "--output", str(tmp_path / "out.csv")))
    a, b = records
    keys = {"command", "params", "version", "config_hash", "wall_time_s", "outputs", "stages"}
    assert set(a) == set(b) == keys
    assert a["command"] == b["command"] == argv[0] and a["version"] == pullin_dyn.__version__
    assert a["wall_time_s"] * 3 == b["wall_time_s"] > 0.0
    assert a["config_hash"] == b["config_hash"]
    assert {k: v for k, v in a.items() if k not in ("wall_time_s", "stages")} == {
        k: v for k, v in b.items() if k not in ("wall_time_s", "stages")
    }
