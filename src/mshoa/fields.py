"""Planar field reconstruction, SDR maps, sweet-spot area, hyperparameter search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .basis import CoefficientVector, real_table_weights, regular_real_table
from .scene import IncidentSource, RsmaSpec

SDR_CAP_DB = 150.0
SDR_FLOOR_DB = -300.0
DEFAULT_THRESHOLD_DB = 30.0
MAX_PIXELS = 10**8  # 2.4 GB of pixel coordinates alone; the configs use 1e4 pixels, the benchmark 4e4
CHUNK_PIXELS = 4096  # pixels per chunk of a reconstruction, at most
# Real-table entries per pixel chunk: 4096 pixels at degree 25, (25+1)(25+2) rows (23 MB)
CHUNK_TABLE_ENTRIES = 702 * CHUNK_PIXELS

_PLANE_AXES = {"xy": (0, 1, 2), "yz": (1, 2, 0), "xz": (0, 2, 1)}


@dataclass(frozen=True)
class GridSpec:
    """Regular pixel grid on a coordinate plane.

    ``center`` is the in-plane window center, ``extent`` its (width, height),
    ``resolution`` the pixel size; ``normal_offset`` places the plane along its
    normal axis.  Pixel (i, j) is centered at lower-left + ((j+0.5), (i+0.5))
    * resolution; values arrays are row-major with shape (rows, cols).
    """

    plane: str = "xy"
    extent: tuple[float, float] = (2.0, 2.0)
    resolution: float = 0.005
    center: tuple[float, float] = (0.0, 0.0)
    normal_offset: float = 0.0

    def __post_init__(self):
        if self.plane not in _PLANE_AXES:
            raise ValueError(f"plane must be one of {sorted(_PLANE_AXES)}, got {self.plane!r}")
        if self.resolution <= 0 or self.extent[0] <= 0 or self.extent[1] <= 0:
            raise ValueError("extent and resolution must be positive")
        if not all(math.isfinite(e / self.resolution) for e in self.extent) or min(self.shape) < 1:
            raise ValueError(
                f"extent {self.extent} at resolution {self.resolution} must give a finite "
                "number of pixels, at least one per axis"
            )
        if self.shape[0] * self.shape[1] > MAX_PIXELS:
            raise ValueError(
                f"extent {self.extent} at resolution {self.resolution} gives "
                f"{self.shape[0] * self.shape[1]:,} pixels, more than the {MAX_PIXELS:,} allowed"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (
            int(round(self.extent[1] / self.resolution)),
            int(round(self.extent[0] / self.resolution)),
        )

    @property
    def pixel_area(self) -> float:
        return self.resolution * self.resolution

    def points(self) -> np.ndarray:
        """Pixel-center coordinates, shape (rows*cols, 3), row-major."""
        rows, cols = self.shape
        u0 = self.center[0] - self.extent[0] / 2.0
        v0 = self.center[1] - self.extent[1] / 2.0
        u = u0 + (np.arange(cols) + 0.5) * self.resolution
        v = v0 + (np.arange(rows) + 0.5) * self.resolution
        uu, vv = np.meshgrid(u, v, indexing="xy")
        ax_u, ax_v, ax_n = _PLANE_AXES[self.plane]
        pts = np.empty((rows * cols, 3))
        pts[:, ax_u] = uu.ravel()
        pts[:, ax_v] = vv.ravel()
        pts[:, ax_n] = self.normal_offset
        return pts


@dataclass
class FieldGrid:
    """Complex pressure samples on a :class:`GridSpec`."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.spec.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.spec.shape}"
            )


@dataclass
class SdrReport:
    """Per-pixel SDR in dB plus the sweet-spot area above the threshold."""

    sdr_map: np.ndarray = field(repr=False)
    ssa: float = 0.0
    threshold: float = DEFAULT_THRESHOLD_DB
    mask: np.ndarray | None = field(default=None, repr=False)  # True = excluded


def reconstruct_field(
    coeffs: CoefficientVector,
    k: float,
    spec: GridSpec,
    center=(0.0, 0.0, 0.0),
) -> FieldGrid | list[FieldGrid]:
    """Evaluate the regular-basis series of ``coeffs`` at every pixel center.

    The coefficients are folded once into real-table weights
    (:func:`~mshoa.basis.real_table_weights`), and each chunk of pixels is one
    real table (:func:`~mshoa.basis.regular_real_table`) times those weights,
    in one real matrix product.  A chunk holds at most ``CHUNK_PIXELS``
    pixels, and fewer at high degree, so that its table has at most
    ``CHUNK_TABLE_ENTRIES`` entries.  A coefficient block gives one grid per
    column from that single pass.
    """
    pts = spec.points()
    weights = real_table_weights(coeffs.values, coeffs.n_max).view(float)  # real, imaginary interleaved
    out = np.empty((pts.shape[0], weights.shape[1] // 2), dtype=complex)
    chunk = max(1, min(CHUNK_PIXELS, CHUNK_TABLE_ENTRIES // ((coeffs.n_max + 1) * (coeffs.n_max + 2))))
    for start in range(0, pts.shape[0], chunk):
        table = regular_real_table(coeffs.n_max, k, pts[start : start + chunk], center)
        np.matmul(table.T, weights, out=out[start : start + chunk].view(float))
    if coeffs.values.ndim == 1:
        return FieldGrid(spec=spec, values=out[:, 0].reshape(spec.shape))
    return [FieldGrid(spec=spec, values=column.reshape(spec.shape)) for column in out.T]


def ground_truth_field(source: IncidentSource, k: float, spec: GridSpec) -> FieldGrid:
    """Direct (truncation-free) incident field at every pixel center."""
    values = source.field_at(k, spec.points())
    return FieldGrid(spec=spec, values=values.reshape(spec.shape))


def sphere_mask(spec: GridSpec, spheres: Sequence[RsmaSpec]) -> np.ndarray:
    """Pixels strictly inside any sphere, shape (rows, cols)."""
    pts = spec.points()
    inside = np.zeros(pts.shape[0], dtype=bool)
    for s in spheres:
        inside |= np.linalg.norm(pts - s.center[None, :], axis=1) < s.radius
    return inside.reshape(spec.shape)


def sdr_map(
    estimated: FieldGrid,
    truth: FieldGrid,
    mask: np.ndarray | None = None,
    threshold: float = DEFAULT_THRESHOLD_DB,
) -> SdrReport:
    """Per-pixel 10*log10(|p_true|^2 / |p_est - p_true|^2), capped at +150 dB."""
    if estimated.spec != truth.spec:
        raise ValueError("estimated and ground-truth grids are not congruent")
    if mask is not None and mask.shape != truth.values.shape:
        raise ValueError("mask shape does not match the grid")
    sig = np.abs(truth.values) ** 2
    err = np.abs(estimated.values - truth.values) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        sdr = 10.0 * np.log10(sig / err)
    sdr = np.where(err == 0.0, SDR_CAP_DB, sdr)
    sdr = np.clip(np.nan_to_num(sdr, nan=SDR_FLOOR_DB), SDR_FLOOR_DB, SDR_CAP_DB)
    good = sdr > threshold
    if mask is not None:
        good &= ~mask
    ssa = float(good.sum()) * truth.spec.pixel_area
    return SdrReport(sdr_map=sdr, ssa=ssa, threshold=threshold, mask=mask)


@dataclass
class SearchResult:
    """Sweet-spot area of every candidate of a search, and the one chosen."""

    candidates: list
    ssa: list[float]
    index: int
    report: SdrReport  # of the chosen candidate

    @property
    def chosen(self):
        return self.candidates[self.index]

    @property
    def at_edge(self) -> bool:
        """True when the winner is the first or last of more than one candidate."""
        return len(self.candidates) > 1 and self.index in (0, len(self.candidates) - 1)


def regularization_search(
    candidates: Sequence,
    coeffs: CoefficientVector,
    truth: FieldGrid,
    mask: np.ndarray | None = None,
    threshold: float = DEFAULT_THRESHOLD_DB,
    center=(0.0, 0.0, 0.0),
) -> SearchResult:
    """Pick the candidate whose coefficient column scores the largest sweet-spot area.

    Column j of ``coeffs`` belongs to ``candidates[j]``.  The block is
    reconstructed in one pass and every column scored against ``truth``.
    Candidates come in the caller's order of preference and the first strict
    maximum is kept, so a tie goes to the earlier candidate.
    """
    candidates = list(candidates)
    if not candidates or coeffs.values.shape[1:] != (len(candidates),):
        raise ValueError(
            f"a search needs one coefficient column per candidate (and at least one); "
            f"{len(candidates)} candidates, coefficient shape {coeffs.values.shape}"
        )
    ssa, best = [], None
    for estimated in reconstruct_field(coeffs, coeffs.k, truth.spec, center=center):
        report = sdr_map(estimated, truth, mask=mask, threshold=threshold)
        ssa.append(report.ssa)
        if best is None or report.ssa > best.ssa:
            best = report
    return SearchResult(candidates=candidates, ssa=ssa, index=ssa.index(best.ssa), report=best)
