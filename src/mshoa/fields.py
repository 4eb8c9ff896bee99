"""Planar field reconstruction, SDR maps, sweet-spot area, hyperparameter search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .basis import CoefficientVector, num_coeffs, real_table_layout, real_table_weights, regular_real_table
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
    """Per-pixel SDR in dB, and the sweet-spot area: the unmasked pixels above the threshold :func:`sdr_map` was given."""

    sdr_map: np.ndarray = field(repr=False)
    ssa: float


def reconstruct_field(
    coeffs: CoefficientVector,
    spec: GridSpec,
    center=(0.0, 0.0, 0.0),
) -> FieldGrid | list[FieldGrid]:
    """Evaluate the regular-basis series of ``coeffs`` at every pixel center, at their wavenumber ``coeffs.k``.

    The grid's reflections about ``center`` (:func:`_pixel_orbits`) split
    the pixels into orbits, and only one pixel per orbit, its
    representative, is tabled.  The coefficients are folded once into real
    weights (:func:`~mshoa.basis.real_table_weights`), taken in the row
    order of one :func:`~mshoa.basis.real_table_layout`, whose rows come
    in classes by their signs under those reflections.  Each chunk of
    representatives is one real table
    (:func:`~mshoa.basis.regular_real_table`), and each sign class of its
    rows is multiplied by its weight rows in one real matrix product.  An
    image of a representative is that representative reflected, so its
    field is the sum of the class products, each signed by the class's
    signs under the reflections taking the representative to it, and it is
    written straight into the image's pixel.  The representatives are taken
    by distance to ``center``, then height, so that those sharing a
    table's (kr, cos theta) key share a chunk.  A chunk holds at most
    ``CHUNK_PIXELS`` representatives, and fewer at high degree, so that its
    table, of at most (n_max+1)^2 rows, has at most ``CHUNK_TABLE_ENTRIES``
    entries.  A coefficient block gives one grid per column from that
    single pass.
    """
    center = np.asarray(center, float)
    mirror, images = _pixel_orbits(spec, center)
    pts = spec.points()[images[0]]  # the representatives'
    rel = pts - center
    by_key = np.lexsort((rel[:, 2], np.einsum("pi,pi->p", rel, rel)))
    pts, images = pts[by_key], images[:, by_key]
    layout = real_table_layout(coeffs.n_max, mirror, through_center=not rel[:, 2].any())
    weights = real_table_weights(coeffs.values, coeffs.n_max)[layout.rows].view(float)  # real, imaginary interleaved
    # image b's sign for class c: -1 per reflection that image b takes and class c flips under
    signs = np.array([[(-1.0) ** (b & c).bit_count() for c in range(len(images))] for b in range(len(images))])
    out = np.empty((spec.shape[0] * spec.shape[1], weights.shape[1] // 2), dtype=complex)
    chunk = max(1, min(CHUNK_PIXELS, CHUNK_TABLE_ENTRIES // num_coeffs(coeffs.n_max)))
    products = np.empty((len(images), min(chunk, len(pts)), weights.shape[1]))
    for start in range(0, len(pts), chunk):
        pixels = images[:, start : start + chunk]
        table = regular_real_table(coeffs.n_max, coeffs.k, pts[start : start + chunk], center, layout)
        part = products[:, : pixels.shape[1]]
        for product, low, high in zip(part, layout.bounds, layout.bounds[1:]):
            np.matmul(table[low:high].T, weights[low:high], out=product)
        del table  # before the next chunk's table is built
        # a pixel on a mirror line is its own image under that reflection: the image with fewer reflections writes last
        for image, field_values in zip(pixels[::-1], (signs[::-1] @ part.reshape(len(part), -1)).reshape(part.shape)):
            out.view(float)[image] = field_values
    if coeffs.values.ndim == 1:
        return FieldGrid(spec=spec, values=out[:, 0].reshape(spec.shape))
    return [FieldGrid(spec=spec, values=column.reshape(spec.shape)) for column in out.T]


def _pixel_orbits(spec: GridSpec, center: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The grid's mirror axes about ``center``, and the orbit of each representative pixel.

    An in-plane axis is a mirror axis when the window center equals
    ``center``'s coordinate on it, compared with ``==``, and the window is a
    whole number of pixels along it, so that pixels j and count - 1 - j
    (by index) sit at mirrored coordinates.  The representatives are the
    pixels in the first half, rounded up, of every mirrored index range: a
    middle row or column of an odd count is its own image.  Returns the
    mirror axes, as coordinate axes (0, 1, 2 for x, y, z), and a
    (2^axes, representatives) array of flat pixel indices: row b holds each
    representative reflected in mirror axis i for every bit i set in b, so
    row 0 holds the representatives themselves.
    """
    shape = spec.shape
    ax_u, ax_v, _ = _PLANE_AXES[spec.plane]
    mirrored = [
        dim
        for dim, (axis, extent, middle) in enumerate(zip((ax_v, ax_u), spec.extent[::-1], spec.center[::-1]))
        if middle == center[axis] and math.isclose(shape[dim] * spec.resolution, extent, rel_tol=1e-15)
    ]
    half = [(count + 1) // 2 if dim in mirrored else count for dim, count in enumerate(shape)]
    images = []
    for b in range(2 ** len(mirrored)):
        index = list(np.indices(half).reshape(2, -1))
        for bit, dim in enumerate(mirrored):
            if b >> bit & 1:
                index[dim] = shape[dim] - 1 - index[dim]
        images.append(np.ravel_multi_index(index, shape))
    return tuple((ax_v, ax_u)[dim] for dim in mirrored), np.array(images)


def ground_truth_field(source: IncidentSource, k: float, spec: GridSpec) -> FieldGrid:
    """Direct (truncation-free) incident field at every pixel center."""
    values = source.field_at(k, spec.points())
    return FieldGrid(spec=spec, values=values.reshape(spec.shape))


def sphere_mask(spec: GridSpec, spheres: Sequence[RsmaSpec]) -> np.ndarray:
    """Pixels strictly inside any sphere, shape (rows, cols)."""
    pts = spec.points()
    inside = np.zeros(pts.shape[0], dtype=bool)
    with np.errstate(over="ignore"):  # a distance that overflows is inf: outside
        for s in spheres:
            inside |= np.linalg.norm(pts - s.center[None, :], axis=1) < s.radius
    return inside.reshape(spec.shape)


def sdr_map(
    estimated: FieldGrid,
    truth: FieldGrid,
    mask: np.ndarray | None = None,
    threshold: float = DEFAULT_THRESHOLD_DB,
) -> SdrReport:
    """Per-pixel 20*log10(|p_true| / |p_est - p_true|), capped at +150 dB.

    The magnitudes are divided, not squared, so a finite field of any size
    reads its relative error.
    """
    if estimated.spec != truth.spec:
        raise ValueError("estimated and ground-truth grids are not congruent")
    if mask is not None and mask.shape != truth.values.shape:
        raise ValueError("mask shape does not match the grid")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and nan map to the floor or cap
        diff = estimated.values - truth.values
        sdr = 20.0 * np.log10(np.abs(truth.values) / np.abs(diff))
    sdr = np.where(diff == 0.0, SDR_CAP_DB, sdr)  # an exact estimate, a zero truth included
    sdr = np.clip(np.nan_to_num(sdr, nan=SDR_FLOOR_DB), SDR_FLOOR_DB, SDR_CAP_DB)
    good = sdr > threshold
    if mask is not None:
        good &= ~mask
    ssa = float(good.sum()) * truth.spec.pixel_area
    return SdrReport(sdr_map=sdr, ssa=ssa)


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
    for estimated in reconstruct_field(coeffs, truth.spec, center=center):
        report = sdr_map(estimated, truth, mask=mask, threshold=threshold)
        ssa.append(report.ssa)
        if best is None or report.ssa > best.ssa:
            best = report
    return SearchResult(candidates=candidates, ssa=ssa, index=ssa.index(best.ssa), report=best)
