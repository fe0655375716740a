"""The trajectory CSV kernel prints each cell exactly as the "%.{p}g" template does, as ASCII bytes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullin_dyn import IntegratorConfig, ModelParams, _gtext, cli, integrate

COLS = 4


def template_rows(block, precision):
    # one "%.{p}g" % cell per cell, as the writer printed before the kernel; the kernel's bytes are its .encode()
    text = f"%.{precision}g"
    return "".join(",".join(text % v for v in row) + "\n" for row in block.tolist())


def kernel_rows(block, precision):
    # csv_rows with the kernel on blocks of any size, so that a failing example shrinks fast
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_gtext, "_MIN_CELLS", 0)
        return _gtext.csv_rows(block, precision)


def as_block(values):
    return np.resize(np.asarray(values, dtype=np.float64), (-(-len(values) // COLS), COLS))


def _near_half(m, k, ulps):
    # the double nearest m.5e(k) moved by a few ulps: at len(str(m)) digits its rounding hangs on a near-half
    v = float(f"{m}5e{k}")
    return float(v + ulps * np.spacing(v))


@st.composite
def blocks(draw):
    precision = draw(st.integers(0, 17))
    digits = max(precision, 1)
    m = st.integers(10 ** (digits - 1), 10**digits - 1)
    near_halves = st.builds(_near_half, m, st.integers(-25, 20), st.integers(-2, 2))
    return draw(st.lists(st.floats() | near_halves, min_size=1, max_size=64)), precision


@given(blocks())
@settings(max_examples=400, deadline=None)
def test_kernel_matches_template(drawn):
    values, precision = drawn
    block = as_block(values)
    expected = template_rows(block, precision).encode()
    assert kernel_rows(block, precision) == expected
    assert _gtext.csv_rows(block, precision) == expected  # blocks this small take the template: bytes too


@pytest.mark.parametrize(
    "value, precision, text",
    [
        (0.0095, 1, "0.009"),  # the product is 9.5 but the exact value lies below the half
        (1.000244140625, 12, "1.00024414062"),  # an exact tie, rounded to even
        (9.9999999999995, 12, "10"),  # the rounding carries into the next exponent
    ],
)
def test_kernel_near_half(value, precision, text):
    block = as_block([value, -value])
    assert kernel_rows(block, precision) == template_rows(block, precision).encode()
    assert kernel_rows(block, precision).startswith(f"{text},-{text},".encode())


def _edges():
    # 10^k and its neighbours, and values that round onto the exponent boundaries of fixed notation
    values = []
    for k in range(-6, 17):
        v = float(f"1e{k}")
        values += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    for k in (-5, -4, 11, 12):
        values += [float(f"1e{k}") * (1.0 - 5.0 * 10.0 ** -j) for j in range(1, 17)]
    return values


@pytest.mark.parametrize("precision", range(18))
def test_kernel_edges(precision):
    edges = _edges()
    block = as_block(edges + [-v for v in edges])
    assert kernel_rows(block, precision) == template_rows(block, precision).encode()


@pytest.mark.parametrize("deferred", [-1.2345678901234567e100, -1e-100, -np.inf, np.nan, -5e-324])
@pytest.mark.parametrize("precision", range(15))
def test_deferred_cell_fits_a_short_fraction_row(precision, deferred):
    # short fractions make a narrow row; the one deferred cell's template text (sign, p digits, point and an
    # exponent) must still fit in it
    block = as_block([1234.5, 0.5, 12.25, 99.0] * 3 + [deferred] + [0.5, 12.25, 99.0])
    assert kernel_rows(block, precision) == template_rows(block, precision).encode()


@pytest.mark.parametrize("precision", [1, 3, 6, 12, 14])
def test_word_layouts_within_and_across_passes(monkeypatch, precision):
    # integer parts below 100 share the lead word; from 100 and from 10^4 they take one and two words of their
    # own: passes of each layout alone, then passes that mix them, with a sign and a pass edge inside each run
    rng = np.random.default_rng(precision)
    tops = [1e2] * 3 + [1e4] * 3 + [1e8] * 3 + [1e2, 1e4, 1e8] * 3
    values = np.concatenate([rng.uniform(-top, top, 96) for top in tops])
    values[::7] = np.trunc(values[::7])  # whole numbers: a row of all-NUL fraction words
    monkeypatch.setattr(_gtext, "_MAX_CELLS", 256)
    block = as_block(values.tolist())
    assert kernel_rows(block, precision) == template_rows(block, precision).encode()


@pytest.fixture(scope="module")
def trajectory_block():
    # the t, x, v and H columns of a real 40,001-row run, a row count that is no multiple of any pass
    traj = integrate(ModelParams(xi=0.0, v=0.4), IntegratorConfig(dt=1e-4, t_max=4.0))
    assert len(traj) == 40_001
    return np.column_stack([traj.t, traj.x, traj.v, traj.energy])


@pytest.mark.parametrize("cells", [1024, 2048, 4096])
@pytest.mark.parametrize("precision", [12, 14])
def test_text_does_not_depend_on_pass_size(trajectory_block, monkeypatch, cells, precision):
    monkeypatch.setattr(_gtext, "_MAX_CELLS", cells)
    assert _gtext.csv_rows(trajectory_block, precision) == template_rows(trajectory_block, precision).encode()


@pytest.mark.parametrize("precision", [12, 17])  # the kernel and the template
def test_written_trajectory_has_unix_line_ends(tmp_path, capsys, precision):
    # the writer's binary file: "\n" ends every line, the last one too, and no "\r" appears on any platform
    path = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--xi", "0", "--v", "0.4", "--dt", "1e-3", "--t-max", "12",
                     "--precision", str(precision), "--output", str(path)]) == 0
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    assert data.count(b"\n# event,return,") >= 1  # the event footers follow the rows
