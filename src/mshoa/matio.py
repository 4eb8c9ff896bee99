"""Binary complex-matrix export and CSV grid export.

``--dump-coeffs`` writes the estimated coefficients, bit for bit, as a
one-row matrix file:

    8 bytes   magic  b"MSHOAMTX"
    u32 LE    version (1)
    u32 LE    dtype tag (1 = complex128)
    u64 LE    rows
    u64 LE    cols
    raw       rows*cols complex128 little-endian, row-major

CSV grids carry a 3-line ``#`` header (plane/offset, extent/resolution/center,
config hash) before the data rows. A cell is ``%.16e`` of its float, or
``%.16e%+.16ej`` of a complex value: 17 significant digits, so it reads back
to the same float64 bits.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .fields import FieldGrid, GridSpec

MAGIC = b"MSHOAMTX"
VERSION = 1
DTYPE_COMPLEX128 = 1
_HEADER = struct.Struct("<8sIIQQ")


def export_matrix(path, matrix: np.ndarray) -> None:
    """Write ``matrix`` from its own buffer: no copy when it is already C-ordered little-endian complex128."""
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype="<c16"))
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, DTYPE_COMPLEX128, *matrix.shape))
        fh.write(matrix.data)


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
# Each float is laid out in a slot of 8 little-endian 32-bit words, NUL where ``%.16e`` prints nothing:
#   0 separator, sign, lead digit, point | 1-4 the 16 digits after the point | 5 "e", exponent sign
#   | 6 NUL, the exponent's 3 digits (the first NUL below 100) | 7 NUL, but "j" in the last byte after an imaginary part


@functools.cache
def _pow10(p: int) -> tuple[float, float]:
    """10**p as hi + lo: hi the nearest double, lo the nearest double to the rest, from exact integers."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den  # int true division rounds correctly
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


@functools.cache
def _quads() -> np.ndarray:
    """The ASCII of 0000 to 9999, one little-endian 32-bit word each."""
    n = np.arange(10000)
    return (n[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8).view("<u4").ravel()


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
    """The 17 digits D = round(|x| 10**(16 - X)) and the exponent X of ``%.16e``, and where they hold.

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
    """``%.16e`` of each float of ``x`` in its slot, a row of the returned bytes; separators are left NUL.

    ``signs`` is the first word of each slot with its sign byte: "+" for
    ``%+.16e``, else NUL. A float whose digits :func:`_decimal` cannot give
    is formatted by Python's own ``%``.
    """
    d, e, ok = _decimal(x)
    quads = _quads()
    lead, rest = np.divmod(d, 10**16)
    high, low = np.divmod(rest, 10**8)
    words = np.zeros((len(x), 8), "<u4")
    words[:, 0] = np.where(np.signbit(x), ord("-") << 8, signs) | (lead + ord("0")) << 16 | ord(".") << 24
    for i, group in enumerate(np.divmod(high, 10**4) + np.divmod(low, 10**4)):
        words[:, 1 + i] = quads.take(group)
    words[:, 5] = np.where(e < 0, ord("-"), ord("+")) << 8 | ord("e")
    e = np.abs(e)
    words[:, 6] = quads.take(e) & np.where(e < 100, 0xFFFF0000, 0xFFFFFF00)  # no thousands digit, no hundreds below 100
    slots = words.view(np.uint8)

    for i in np.flatnonzero(~ok):
        text = (("%+.16e" if signs[i] else "%.16e") % float(x[i])).encode()
        slots[i, 1:-1] = 0
        slots[i, 1 : 1 + len(text)] = np.frombuffer(text, np.uint8)
    return slots


def _write_grid(path, spec: GridSpec, config_hash: str, values: np.ndarray) -> None:
    """Header, then one CSV row per grid row, formatted and written a chunk of rows at a time.

    ``values`` is float64 or complex128; a float is written ``%.16e`` and a
    complex value ``%.16e%+.16ej``. Each float is laid out in its slot, and
    every NUL byte is dropped before a chunk is written.
    """
    rows, cols = values.shape
    per_value = 2 if np.iscomplexobj(values) else 1
    floats = np.ascontiguousarray(values).view(float).ravel()
    step = max(1, _CHUNK_FLOATS // (cols * per_value)) * cols * per_value
    signs = np.zeros(min(step, len(floats)), "<u4")
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

