"""The serialize module: the JSON input readers, string escaping in
json_dumps, and the column-wise wave CSV writer against a per-value
reference writer."""
import re

import numpy as np
import pytest

from cvhistory.dyadic import DyadicWave
from cvhistory.errors import ValidationError
from cvhistory.grid import GridWave
from cvhistory.serialize import (
    CSV_CHUNK_ROWS,
    WAVE_CSV_HEADER,
    dyadic_cells,
    expect_number,
    format_float,
    grid_cells,
    json_dumps,
    read_json,
    write_cells_csv,
    write_wave_csv,
)


def test_json_dumps_escapes_keys_and_values():
    text = 'q" b\\ \b\f\n\r\t \x00\x1f\x7f \u00e9 \U0001f600'
    want = b'"q\\" b\\\\ \\b\\f\\n\\r\\t \\u0000\\u001f\x7f \xc3\xa9 \xf0\x9f\x98\x80"'
    assert json_dumps({text: [text]}).encode("utf-8") == b"{" + want + b":[" + want + b"]}"


@pytest.mark.parametrize(
    "body, reason",
    [
        pytest.param("{nope", "Expecting property name", id="decode"),
        pytest.param("[" + "1" * 4301 + "]", "Exceeds the limit", id="digits"),
        pytest.param("[" * 100000 + "]" * 100000, "maximum recursion depth", id="nesting"),
        pytest.param(b"{\"a\": \"\xff\"}", "can't decode", id="not-utf8"),
    ],
)
def test_read_json_refuses_naming_the_file(tmp_path, body, reason):
    path = tmp_path / "in.json"
    (path.write_bytes if isinstance(body, bytes) else path.write_text)(body)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not valid JSON .*{reason}"):
        read_json(str(path))


def test_read_json_passes_missing_file_through(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_json(str(tmp_path / "absent.json"))


@pytest.mark.parametrize("value", [0, -3, 2.5, 1e308, 10**300])
def test_expect_number_reads_finite_numbers(value):
    assert expect_number(value, "v") == float(value)


@pytest.mark.parametrize(
    "value, reason",
    [
        (True, "expected a number, got True"),
        ("1", "expected a number, got '1'"),
        (None, "expected a number, got None"),
        (float("nan"), "expected a finite number, got nan"),
        (float("-inf"), "expected a finite number, got -inf"),
        (10**400, "expected a finite number, got 1000"),
    ],
)
def test_expect_number_refuses(value, reason):
    with pytest.raises(ValidationError, match=f"^v\\[0\\]: {reason}"):
        expect_number(value, "v[0]")



def reference_csv(rows) -> bytes:
    """One format_float call per value, one line per (x_left, x_right, re, im, abs2)."""
    lines = [WAVE_CSV_HEADER] + [",".join(format_float(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def value_rows(x_left, x_right, values):
    for xl, xr, v in zip(x_left, x_right, values):
        v = complex(v)
        yield xl, xr, v.real, v.imag, v.real * v.real + v.imag * v.imag


def dyadic_reference(w: DyadicWave) -> bytes:
    width = w.width
    n = w.n_cells
    left = [(w.offset + k) * width for k in range(n)]
    right = [(w.offset + k + 1) * width for k in range(n)]
    return reference_csv(value_rows(left, right, w.coeffs))


def grid_reference(g: GridWave) -> bytes:
    left = [g.x_min + j * g.h for j in range(g.n)]
    right = [g.x_min + (j + 1) * g.h for j in range(g.n)]
    return reference_csv(value_rows(left, right, g.samples))


def written(tmp_path, write, *args) -> bytes:
    path = tmp_path / "wave.csv"
    write(str(path), *args)
    return path.read_bytes()


def random_values(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@pytest.mark.parametrize("level,offset,n", [(0, 0, 1), (3, 5, 7), (17, 1000, 300), (24, 3 << 22, 513)])
def test_dyadic_matches_reference(tmp_path, level, offset, n):
    rng = np.random.default_rng(level * 1000 + n)
    w = DyadicWave(level, offset, random_values(rng, n))
    assert written(tmp_path, write_cells_csv, *dyadic_cells(w)) == dyadic_reference(w)


def test_extreme_values_match_reference(tmp_path):
    tiny = 5e-324
    special = [-0.0, 0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 1e-310, 1e300, -1.7e300,
               9.999999999999999e299, 1.7976931348623157e308, 1.0 / 3.0, -1.0]
    rng = np.random.default_rng(7)
    # subnormal, huge and non-dyadic edges, on cells with gaps
    for origin, step in ((0.0, tiny), (-1.7e300, 1e299), (1.0 / 3.0, 1e-310)):
        cells = np.sort(rng.choice(np.arange(-20, 20), size=12, replace=False))
        re, im, abs2 = (rng.choice(special, size=12) for _ in range(3))
        left, right = origin + cells * step, origin + (cells + 1) * step
        got = written(tmp_path, write_wave_csv, cells, origin, step, re, im, abs2)
        assert got == reference_csv(zip(left, right, re, im, abs2))


def test_signed_zero_and_subnormal_values_match_reference(tmp_path):
    values = np.array([1.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1e-310), 1e150j])
    w = DyadicWave(2, -3, values)
    assert written(tmp_path, write_cells_csv, *dyadic_cells(w)) == dyadic_reference(w)


def test_grid_with_non_dyadic_step_matches_reference(tmp_path):
    g = GridWave(-1.2, 0.1, random_values(np.random.default_rng(5), 32))
    assert written(tmp_path, write_cells_csv, *grid_cells(g)) == grid_reference(g)


def test_marginal_with_zero_re_im_matches_reference(tmp_path):
    rng = np.random.default_rng(6)
    n = 2 * CSV_CHUNK_ROWS + 3
    density = rng.random(n) ** 4
    level, offset = 9, 37
    width = 2.0 ** -level
    # contiguous cells, cells with gaps, and contiguous runs split by one
    # gap, over three chunks: one row per given cell each time
    gapped = np.sort(rng.choice(1 << 20, size=n, replace=False))
    runs = offset + np.arange(n) + (np.arange(n) >= CSV_CHUNK_ROWS + 5)
    for cells in (offset + np.arange(n), gapped, runs):
        rows = ((k * width, (k + 1) * width, 0.0, 0.0, p) for k, p in zip(cells, density))
        got = written(tmp_path, write_wave_csv, cells, 0.0, width, 0.0, 0.0, density)
        assert got == reference_csv(rows)


@pytest.mark.parametrize("n", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3])
def test_chunk_boundaries_match_reference(tmp_path, n):
    w = DyadicWave(14, 11, random_values(np.random.default_rng(n), n))
    assert written(tmp_path, write_cells_csv, *dyadic_cells(w)) == dyadic_reference(w)


def test_zero_rows_writes_header(tmp_path):
    assert written(tmp_path, write_wave_csv, [], 0.5, 0.25, [], [], []) == reference_csv([])


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_writes_no_file(tmp_path, column, bad):
    # column 0 is the edges: a NaN origin, or a finite step whose last edge
    # overflows
    origin, step = 0.0, 0.25
    cols = [np.ones(4), np.zeros(4), np.full(4, 0.25)]
    if column:
        cols[column - 1][2] = bad
    elif np.isnan(bad):
        origin = bad
    else:
        step = np.copysign(1e308, bad)
    path = tmp_path / "wave.csv"
    with pytest.raises(ValidationError, match="non-finite"):
        write_wave_csv(str(path), [0, 1, 2, 3], origin, step, *cols)
    assert not path.exists()


def test_non_finite_scalar_column_writes_no_file(tmp_path):
    path = tmp_path / "wave.csv"
    with pytest.raises(ValidationError, match="non-finite"):
        write_wave_csv(str(path), [0, 1], 0.0, 0.5, np.nan, 0.0, [1.0, 1.0])
    assert not path.exists()


def test_mismatched_columns_rejected(tmp_path):
    path = tmp_path / "wave.csv"
    with pytest.raises(ValidationError, match="do not match 2 cells"):
        write_wave_csv(str(path), [0, 1], 0.0, 0.5, [1.0], 0.0, [1.0, 1.0])
    with pytest.raises(ValidationError, match="strictly increasing"):
        write_wave_csv(str(path), [1, 1], 0.0, 0.5, 0.0, 0.0, [1.0, 1.0])
    assert not path.exists()
