"""Binary complex-matrix format and CSV grid export.

Matrix files are a bit-exact contract for reuse across runs:

    8 bytes   magic  b"MSHOAMTX"
    u32 LE    version (1)
    u32 LE    dtype tag (1 = complex128)
    u64 LE    rows
    u64 LE    cols
    raw       rows*cols complex128 little-endian, row-major

CSV grids carry a 3-line ``#`` header (plane/offset, extent/resolution/center,
config hash) before the data rows.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

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


def _write_grid(path, spec: GridSpec, config_hash: str, values: np.ndarray, cell: str) -> None:
    """Header, then one CSV row per grid row, formatted by one ``%`` over every float.

    ``values`` is float64 or complex128; a complex value fills two fields of
    ``cell`` (real, imaginary).
    """
    rows, cols = values.shape
    floats = np.ascontiguousarray(values).view(float).ravel().tolist()
    body = "\n".join([",".join([cell] * cols)] * rows) % tuple(floats)
    Path(path).write_text("\n".join(_grid_header(spec, config_hash)) + "\n" + body + "\n")


def write_field_csv(path, grid: FieldGrid, config_hash: str) -> None:
    """Complex grid values as CSV, one row of 're+imj' entries per pixel row."""
    _write_grid(path, grid.spec, config_hash, np.asarray(grid.values, dtype=complex), "%.17g%+.17gj")


def write_real_csv(path, values: np.ndarray, spec: GridSpec, config_hash: str) -> None:
    """Real grid (e.g. an SDR map in dB) as CSV with the same header."""
    _write_grid(path, spec, config_hash, np.asarray(values, dtype=float), "%.17g")

