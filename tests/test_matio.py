"""Binary matrix container and CSV grid round trips."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mshoa.fields import FieldGrid, GridSpec
from mshoa.matio import _FAST_RANGE, _decimal, export_matrix, write_field_csv, write_real_csv
from tests.oracles import read_field_csv, read_matrix


def test_matrix_roundtrip_bit_exact(tmp_path, rng):
    m = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    path = tmp_path / "m.bin"
    export_matrix(path, m)
    back = read_matrix(path)
    assert back.dtype == np.complex128
    np.testing.assert_array_equal(back, m)
    # byte-stable: exporting the same matrix twice writes identical files
    path2 = tmp_path / "m2.bin"
    export_matrix(path2, m)
    assert path.read_bytes() == path2.read_bytes()


def test_matrix_io_makes_no_whole_matrix_copy(tmp_path, rng):
    """Export writes the matrix's own buffer: a traced peak of under 10 % of
    its bytes, with a bit-exact round trip."""
    import tracemalloc

    m = rng.normal(size=(600, 500)) + 1j * rng.normal(size=(600, 500))
    path = tmp_path / "m.bin"
    tracemalloc.start()
    try:
        export_matrix(path, m)
        export_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert export_peak < 0.1 * m.nbytes
    assert read_matrix(path).tobytes() == m.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 16), (7, 5)], ids=["1x1", "1x16", "7x5"])
def test_matrix_header_is_the_documented_layout(tmp_path, rng, shape):
    """The file is the module docstring's layout, read here field by field:
    b"MSHOAMTX", version 1 and dtype tag 1 as u32 LE, rows and cols as u64 LE,
    then rows*cols little-endian complex128 values, row-major, and nothing more."""
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    path = tmp_path / "m.bin"
    export_matrix(path, m)
    data = path.read_bytes()
    assert data[:8] == b"MSHOAMTX"
    assert struct.unpack("<II", data[8:16]) == (1, 1)
    assert struct.unpack("<QQ", data[16:32]) == shape
    assert len(data) == 32 + 16 * m.size
    assert np.array_equal(np.frombuffer(data[32:], dtype="<c16").reshape(shape), m)


@pytest.mark.parametrize(
    "convert",
    [
        lambda m: m.real.copy(),
        lambda m: m.astype(np.complex64),
        lambda m: m.astype(">c16"),
        lambda m: np.asfortranarray(m),
    ],
    ids=["float64", "complex64", "big-endian", "fortran-order"],
)
def test_matrix_export_writes_any_2d_input_as_complex128(tmp_path, rng, convert):
    """A real, single-precision, big-endian or column-major matrix is written
    as the C-ordered little-endian complex128 of its values, bit for bit."""
    m = convert(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    path = tmp_path / "m.bin"
    export_matrix(path, m)
    reference = tmp_path / "reference.bin"
    export_matrix(reference, np.ascontiguousarray(m, dtype="<c16"))
    assert path.read_bytes() == reference.read_bytes()
    np.testing.assert_array_equal(read_matrix(path), np.asarray(m, dtype=complex))


def test_matrix_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        export_matrix(tmp_path / "m.bin", np.zeros(3))


def test_field_csv_roundtrip(tmp_path, rng):
    spec = GridSpec(plane="xz", extent=(0.4, 0.6), resolution=0.2, normal_offset=0.5)
    values = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    grid = FieldGrid(spec=spec, values=values)
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, "deadbeef01234567")
    back, header = read_field_csv(path)
    np.testing.assert_array_equal(back, values)
    assert len(header) == 3
    assert header[0].startswith("#") and "plane=xz" in header[0]
    assert "config=deadbeef01234567" in header[2]


def test_real_csv_header_and_values(tmp_path):
    spec = GridSpec(plane="xy", extent=(0.4, 0.4), resolution=0.2)
    vals = np.array([[1.5, -2.25], [0.0, 300.0]])
    path = tmp_path / "sdr.csv"
    write_real_csv(path, vals, spec, "cafebabecafebabe")
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[2] == "# config=cafebabecafebabe"
    assert [float(tok) for tok in lines[3].split(",")] == [1.5, -2.25]


def _per_value_csv(header, values):
    """The grid text as formatted one value at a time."""
    if np.iscomplexobj(values):
        rows = [",".join(f"{v.real:.16e}{v.imag:+.16e}j" for v in row) for row in values]
    else:
        rows = [",".join(f"{v:.16e}" for v in row) for row in values]
    return "\n".join(header + rows) + "\n"


@pytest.mark.parametrize("shape", [(3, 4), (1, 1)], ids=["3x4", "1x1"])
def test_grid_csv_bytes_match_per_value_formatting(tmp_path, rng, shape):
    """One format pass over a grid writes what formatting each value writes,
    signed zeros, infinities, nan, subnormals and extreme exponents included."""
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e300, -1e-300, 0.1])
    values = np.empty(shape, dtype=complex)
    values.real = rng.choice(special, size=shape)
    values.imag = rng.choice(special, size=shape)
    if shape == (3, 4):
        values.flat[:2] = [complex(-0.0, np.nan), complex(np.inf, -0.0)]
    spec = GridSpec(plane="xy", extent=(0.1 * shape[1], 0.1 * shape[0]), resolution=0.1)
    assert spec.shape == shape
    write_field_csv(tmp_path / "f.csv", FieldGrid(spec=spec, values=values), "cafe")
    write_real_csv(tmp_path / "r.csv", values.real, spec, "cafe")
    for name, grid in (("f.csv", values), ("r.csv", values.real)):
        text = (tmp_path / name).read_text()
        assert text == _per_value_csv(text.splitlines()[:3], grid)


def _assert_writers_match_per_value(tmp_path, values):
    """Both writers, on ``values`` as one grid row per row, write the bytes of per-value ``%.16e`` / ``%+.16e``."""
    values = np.atleast_2d(np.asarray(values, dtype=complex))
    rows, cols = values.shape
    spec = GridSpec(plane="xy", extent=(0.5 * cols, 0.5 * rows), resolution=0.5)
    assert spec.shape == values.shape
    write_field_csv(tmp_path / "f.csv", FieldGrid(spec=spec, values=values), "cafe")
    write_real_csv(tmp_path / "r.csv", values.real, spec, "cafe")
    for name, grid in (("f.csv", values), ("r.csv", values.real)):
        data = (tmp_path / name).read_bytes()
        assert data == _per_value_csv(data.decode().splitlines()[:3], grid).encode()


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
_ANY_FLOAT = st.one_of(_BIT_PATTERNS, st.floats(allow_subnormal=True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=24), st.integers(1, 3))
def test_grid_csv_bytes_match_per_value_formatting_for_any_float(tmp_path_factory, pairs, rows):
    """Any float64 bit pattern, subnormals, infinities and nans included, is
    written as per-value formatting writes it, by both writers."""
    values = np.array([complex(*pair) for pair in pairs] * rows).reshape(rows, -1)
    values.real, values.imag = np.array(pairs * rows).reshape(rows, -1, 2).transpose(2, 0, 1)  # keeps -0.0 and nan
    _assert_writers_match_per_value(tmp_path_factory.mktemp("any"), values)


def _boundaries() -> np.ndarray:
    """Powers of ten from 1e-300 to 1e300, the fast path's range ends and two 17-digit ties,
    each with the floats 1 ulp either side of it, and all of them negated."""
    centres = [float(f"1e{k}") for k in range(-300, 301)] + list(_FAST_RANGE)
    centres += [1234567890123456.25, 1234567890123456.75]  # 17 digits and a 5: ties, rounded to even
    values = [math.nextafter(c, toward) for c in centres for toward in (0.0, math.inf)] + centres
    return np.array(values + [-v for v in values])


def test_grid_csv_bytes_match_per_value_formatting_at_boundaries(tmp_path):
    """Powers of ten +-1 ulp, the floats whose 17-digit rounding carries
    into the next decade, the fast path's range ends and exact 17-digit ties,
    over enough rows to span more than one formatting chunk."""
    values = _boundaries()
    shown = [(Fraction(v), Fraction(f"{v:.16e}")) for v in values if v > 0]
    assert any(exact < text == Fraction(10) ** round(math.log10(text)) for exact, text in shown)  # carries
    assert {1e-4, 1e17, 1234567890123456.25} <= set(values)
    values = np.concatenate([values, np.zeros(-len(values) % 40)]).reshape(-1, 40)
    _assert_writers_match_per_value(tmp_path, values + 1j * values[::-1])


def test_digits_come_from_array_arithmetic_for_all_but_ties():
    """Inside the fast range the boundary values get their 17 digits and
    exponent from the array arithmetic, and they are those of ``%.16e``. Only
    exact 17-digit ties go to Python, and 1e20: its product with the
    double-double 1e-4 lands a hair below 1e16, so its range test reads low."""
    values = _boundaries()
    inside = values[(np.abs(values) > _FAST_RANGE[0]) & (np.abs(values) < _FAST_RANGE[1])]
    digits, exponents, ok = _decimal(inside)
    assert set(np.abs(inside[~ok])) <= {1234567890123456.25, 1234567890123456.75, 999999999999999.875, 1e20}
    shown = [f"{d // 10**16}.{d % 10**16:016d}e{x:+03d}" for d, x in zip(digits[ok], exponents[ok])]
    assert shown == [f"{v:.16e}" for v in np.abs(inside[ok])]
