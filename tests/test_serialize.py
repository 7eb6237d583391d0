"""The column-wise wave CSV writer against a per-value reference writer."""
import numpy as np
import pytest

from cvhistory.dyadic import DyadicWave
from cvhistory.errors import ValidationError
from cvhistory.grid import GridWave
from cvhistory.serialize import (
    CSV_CHUNK_ROWS,
    WAVE_CSV_HEADER,
    dyadic_cells,
    dyadic_edges,
    format_float,
    grid_cells,
    write_cells_csv,
    write_wave_csv,
)


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
    edges = np.sort(rng.choice(special + [0.5, 2.0, 1e300], size=13))
    re, im, abs2 = (rng.choice(special, size=12) for _ in range(3))
    rows = zip(edges[:-1], edges[1:], re, im, abs2)
    assert written(tmp_path, write_wave_csv, edges, re, im, abs2) == reference_csv(rows)


def test_signed_zero_and_subnormal_values_match_reference(tmp_path):
    values = np.array([1.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1e-310), 1e150j])
    w = DyadicWave(2, -3, values)
    assert written(tmp_path, write_cells_csv, *dyadic_cells(w)) == dyadic_reference(w)


def test_grid_with_non_dyadic_step_matches_reference(tmp_path):
    g = GridWave(-1.2, 0.1, random_values(np.random.default_rng(5), 32))
    assert written(tmp_path, write_cells_csv, *grid_cells(g)) == grid_reference(g)


def test_marginal_with_zero_re_im_matches_reference(tmp_path):
    density = np.random.default_rng(6).random(100) ** 4
    level, offset = 9, 37
    edges = dyadic_edges(level, offset, density.size)
    width = 2.0 ** -level
    rows = (((offset + k) * width, (offset + k + 1) * width, 0.0, 0.0, p) for k, p in enumerate(density))
    assert written(tmp_path, write_wave_csv, edges, 0.0, 0.0, density) == reference_csv(rows)


@pytest.mark.parametrize("n", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3])
def test_chunk_boundaries_match_reference(tmp_path, n):
    w = DyadicWave(14, 11, random_values(np.random.default_rng(n), n))
    assert written(tmp_path, write_cells_csv, *dyadic_cells(w)) == dyadic_reference(w)


def test_zero_rows_writes_header(tmp_path):
    assert written(tmp_path, write_wave_csv, [0.5], [], [], []) == reference_csv([])


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_writes_no_file(tmp_path, column, bad):
    cols = [np.linspace(0.0, 1.0, 5), np.ones(4), np.zeros(4), np.full(4, 0.25)]
    cols[column] = cols[column].copy()
    cols[column][2] = bad
    path = tmp_path / "wave.csv"
    with pytest.raises(ValidationError, match="non-finite"):
        write_wave_csv(str(path), *cols)
    assert not path.exists()


def test_non_finite_scalar_column_writes_no_file(tmp_path):
    path = tmp_path / "wave.csv"
    with pytest.raises(ValidationError, match="non-finite"):
        write_wave_csv(str(path), [0.0, 0.5, 1.0], np.nan, 0.0, [1.0, 1.0])
    assert not path.exists()


def test_mismatched_columns_rejected(tmp_path):
    path = tmp_path / "wave.csv"
    with pytest.raises(ValidationError, match="cell edges"):
        write_wave_csv(str(path), [0.0, 0.5, 1.0], [1.0], 0.0, [1.0, 1.0])
    assert not path.exists()
