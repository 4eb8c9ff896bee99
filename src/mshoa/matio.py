"""Binary complex-matrix format and CSV grid export.

Matrix files are a bit-exact contract for reuse across runs:

    8 bytes   magic  b"MSHOAMTX"
    u32 LE    version (1)
    u32 LE    dtype tag (1 = complex128)
    u64 LE    rows
    u64 LE    cols
    raw       rows*cols complex128 little-endian, row-major

CSV grids carry a 3-line ``#`` header (plane/offset, extent/resolution/center,
config hash) before the data rows. A cell is ``%.17g`` of its float, or
``%.17g%+.17gj`` of a complex value, so it reads back bit-exact.
"""

from __future__ import annotations

import functools
import os
import struct

import numpy as np

from .fields import FieldGrid, GridSpec

MAGIC = b"MSHOAMTX"
VERSION = 1
DTYPE_COMPLEX128 = 1
_HEADER = struct.Struct("<8sIIQQ")


class MatrixFormatError(ValueError):
    """Corrupt or incompatible matrix file."""


def export_matrix(path, matrix: np.ndarray) -> None:
    """Write ``matrix`` from its own buffer: no copy when it is already C-ordered little-endian complex128."""
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype="<c16"))
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, DTYPE_COMPLEX128, *matrix.shape))
        fh.write(matrix.data)


def import_matrix(path) -> np.ndarray:
    """Read a matrix file into one array, its size checked against the file's before it is allocated."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise MatrixFormatError(f"{path}: truncated header")
        magic, version, dtype, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise MatrixFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise MatrixFormatError(f"{path}: unsupported version {version}")
        if dtype != DTYPE_COMPLEX128:
            raise MatrixFormatError(f"{path}: unsupported dtype tag {dtype}")
        if max(rows, cols) > np.iinfo(np.intp).max // 16:  # passes the size check when the other is 0
            raise MatrixFormatError(f"{path}: dimensions {rows} x {cols} exceed what an array can hold")
        size, expected = os.fstat(fh.fileno()).st_size, _HEADER.size + rows * cols * 16
        if size != expected:
            raise MatrixFormatError(f"{path}: payload size mismatch ({size} bytes, expected {expected})")
        flat = np.fromfile(fh, dtype="<c16", count=rows * cols)
    return flat.reshape(rows, cols).astype(np.complex128, copy=False)


def _grid_header(spec: GridSpec, config_hash: str) -> list[str]:
    return [
        f"# plane={spec.plane} normal_offset={spec.normal_offset!r}",
        f"# extent={spec.extent[0]!r}x{spec.extent[1]!r} "
        f"resolution={spec.resolution!r} center={spec.center[0]!r},{spec.center[1]!r}",
        f"# config={config_hash}",
    ]


_FAST_RANGE = (1e-280, 1e280)  # |x| whose scaled products and splits stay far from overflow and subnormals
_TIE_MARGIN = 1e-9  # a rounding fraction this close to 1/2 goes to Python; the fraction errs by less than 1e-14
_CHUNK_FLOATS = 4096  # floats formatted per pass, which keeps the temporaries near 1 MB
_E0 = 300  # the exponent tables run from -_E0 to _E0
# Each float is laid out in a slot of 32 bytes, NUL where ``%g`` prints nothing, and handled as 4 little-endian
# words, in which a left shift by 8 bits moves every byte one column right:
#   0 separator | 1 sign | 2-6 "0.000" | 7-24 17 digits and a point | 25 "e" | 26 exponent sign | 28-30 its digits
#   | 31 "j" after an imaginary part
_SLOT = 32


@functools.cache
def _pow10(p: int) -> tuple[float, float]:
    """10**p as hi + lo: hi the nearest double, lo the nearest double to the rest, from exact integers."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den  # int true division rounds correctly
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


@functools.cache
def _tables():
    """Lookup tables of the slot layout, built on first use.

    - ``quads``: the ASCII of 0000 to 9999, one 32-bit word each;
    - ``trailing``: the trailing zeros of 0 to 9999, 4 for 0;
    - ``notations`` and ``exponents``, by exponent X + _E0: the first
      ``layouts`` row of X's notation less one, and the slot's last word
      with X's printed digits, 0 in fixed notation;
    - ``layouts``, by notation * 17 + digits printed - 1: the mask of the
      digits in place (before the point), the mask of the digits one byte
      right (after it), and the bytes of the point, "0.000" and "e+" or
      "e-". Notations 0-16 are fixed with X = 0-16, 17-20 fixed with
      X = -1 to -4, and 21 and 22 scientific with X < 0 and X > 0.
    """
    n = np.arange(10000)
    quads = (n[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    trailing = sum(n % place == 0 for place in (10, 100, 1000, 10000))
    x = np.arange(-_E0, _E0 + 1)
    fixed = (x >= -4) & (x < 17)
    notations = np.where(fixed, np.where(x >= 0, x, 16 - x), np.where(x < 0, 21, 22)) * 17 - 1
    exponents = np.zeros((len(x), 4), np.uint8)
    exponents[:, :3] = quads[np.abs(x), 1:] * ~fixed[:, None]
    exponents[np.abs(x) < 100, 0] = 0
    layouts = np.zeros((3, 23, 17, _SLOT), np.uint8)
    for notation in range(23):
        x = notation if notation < 17 else 16 - notation if notation < 21 else 0
        point = x if notation < 17 else -1 if notation < 21 else 0  # the point follows this digit
        for shown in range(1, 18):
            rows = layouts[:, notation, shown - 1]
            kept = max(shown, point + 1)  # a whole number keeps its zeros
            rows[0, 7 : 8 + min(point, kept - 1)] = 255
            rows[1, 9 + point : 8 + kept] = 255
            if 0 <= point < kept - 1:
                rows[2, 8 + point] = ord(".")
            if point < 0:
                rows[2, 2 : 3 - x] = np.frombuffer(b"0.000"[: 1 - x], np.uint8)
            if notation >= 21:
                rows[2, 25:27] = np.frombuffer(b"e-" if notation == 21 else b"e+", np.uint8)
    exponents = exponents.view("<u4").ravel().astype("<u8") << np.uint64(32)
    return quads.view("<u4").ravel(), trailing, notations, exponents, layouts.reshape(3, -1, _SLOT)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's exact split of doubles into halves of at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of ax * 10**(16 - e): Dekker's exact product with the double-double 10**p."""
    p = 16 - e
    first = int(p.min())
    offsets = p - first
    table = np.zeros((2, int(offsets.max()) + 1))
    for q in np.flatnonzero(np.bincount(offsets)):  # only the exponents present
        table[:, q] = _pow10(first + int(q))
    hi, lo = table[0].take(offsets), table[1].take(offsets)
    ph = ax * hi
    ah, al = _split(ax)
    bh, bl = _split(hi)
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl  # ph + pl == ax * hi exactly
    whole = np.floor(ph)
    rest = (ph - whole) + (pl + ax * lo)
    below = np.floor(rest)
    return whole.astype(np.int64) + below.astype(np.int64), rest - below


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits D = round(|x| 10**(16 - X)) and the exponent X of ``%.17g``, and where they hold.

    The scaled value's fraction errs by less than 1e-14: 10**p as hi + lo
    and the product ax * lo each err by under 2**-106 of the scaled value
    (below 1.3e-15 each), and adding ax * lo to Dekker's error term rounds
    by half an ulp of a number below 20 (1.8e-15). So a fraction more than
    ``_TIE_MARGIN`` from 1/2 rounds as the exact value does. They do not
    hold for zero, inf, nan, |x| outside ``_FAST_RANGE`` and fractions
    within the margin of 1/2.
    """
    ax = np.abs(x)
    fast = (ax > _FAST_RANGE[0]) & (ax < _FAST_RANGE[1])
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    whole, frac = _scaled(ax, e)
    off = (whole < 10**16).astype(np.int64) - (whole >= 10**17)  # log10 one off near a power of ten
    redo = off != 0
    if redo.any():
        e -= off
        whole[redo], frac[redo] = _scaled(ax[redo], e[redo])
    ok = fast & (whole >= 10**16) & (whole < 10**17) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    d = whole + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    return d, e + carry, ok


def _format_floats(x: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``%.17g`` of each float of ``x`` in its slot, a row of the returned bytes; separators are left NUL.

    ``signs`` is the first word of each slot with its sign byte: "+" for
    ``%+.17g``, else NUL. A float whose digits :func:`_decimal` cannot give
    is formatted by Python's own ``%``.
    """
    d, e, ok = _decimal(x)
    e += _E0
    quads, trailing, notations, exponents, layouts = _tables()
    top = d // 10**16
    high = (d - top * 10**16) // 10**8
    low = d - top * 10**16 - high * 10**8
    groups = (high // 10**4, high % 10**4, low // 10**4, low % 10**4)
    digits = np.zeros((len(x), _SLOT // 4), "<u4")
    digits.view(np.uint8)[:, 7] = top + ord("0")
    for i, group in enumerate(groups):
        digits[:, 2 + i] = quads.take(group)
    zeros = trailing.take(groups[3])
    for i in (2, 1, 0):  # a group of zeros adds the trailing zeros of the group before it
        zeros += (zeros == 4 * (3 - i)) * trailing.take(groups[i])

    in_place = digits.view("<u8")
    moved = in_place << np.uint64(8)  # each byte one column right; a slot's last byte is NUL
    moved.ravel()[1:] |= in_place.ravel()[:-1] >> np.uint64(56)
    layout = notations.take(e) + (17 - zeros)
    slots = layouts[0].take(layout, axis=0).view("<u8")
    slots &= in_place
    moved &= layouts[1].take(layout, axis=0).view("<u8")
    slots |= moved
    slots |= layouts[2].take(layout, axis=0).view("<u8")
    slots[:, 0] |= np.where(np.signbit(x), np.uint64(ord("-") << 8), signs)
    slots[:, 3] |= exponents.take(e)
    slots = slots.view(np.uint8)

    for i in np.flatnonzero(~ok):
        text = (("%+.17g" if signs[i] else "%.17g") % float(x[i])).encode()
        slots[i, 1:-1] = 0
        slots[i, 1 : 1 + len(text)] = np.frombuffer(text, np.uint8)
    return slots


def _write_grid(path, spec: GridSpec, config_hash: str, values: np.ndarray) -> None:
    """Header, then one CSV row per grid row, formatted and written a chunk of rows at a time.

    ``values`` is float64 or complex128; a float is written ``%.17g`` and a
    complex value ``%.17g%+.17gj``. Each float is laid out in its slot, and
    every NUL byte is dropped before a chunk is written.
    """
    rows, cols = values.shape
    per_value = 2 if np.iscomplexobj(values) else 1
    floats = np.ascontiguousarray(values).view(float).ravel()
    step = max(1, _CHUNK_FLOATS // (cols * per_value)) * cols * per_value
    signs = np.zeros(min(step, len(floats)), "<u8")
    if per_value == 2:
        signs[1::2] = ord("+") << 8  # the imaginary part is signed
    with open(path, "wb") as fh:
        fh.write("\n".join(_grid_header(spec, config_hash)).encode())
        for first in range(0, len(floats), step):
            chunk = floats[first : first + step]
            slots = _format_floats(chunk, signs[: len(chunk)])
            slots[::per_value, 0] = ord(",")
            slots[:: cols * per_value, 0] = ord("\n")  # each grid row starts a line
            if per_value == 2:
                slots[1::2, -1] = ord("j")
            fh.write(slots.tobytes().translate(None, b"\0"))
        fh.write(b"\n")


def write_field_csv(path, grid: FieldGrid, config_hash: str) -> None:
    """Complex grid values as CSV, one row of 're+imj' entries per pixel row."""
    _write_grid(path, grid.spec, config_hash, np.asarray(grid.values, dtype=complex))


def write_real_csv(path, values: np.ndarray, spec: GridSpec, config_hash: str) -> None:
    """Real grid (e.g. an SDR map in dB) as CSV with the same header."""
    _write_grid(path, spec, config_hash, np.asarray(values, dtype=float))

