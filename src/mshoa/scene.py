"""Geometry and source models: sphere arrays, capsule grids, incident fields."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    CoefficientVector,
    cart_to_sph,
    num_coeffs,
    sph_harm_matrix,
    sph_hankel1_upto,
    degrees_upto,
)

DEFAULT_SOUND_SPEED = 343.0
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


class SceneError(ValueError):
    """Invalid scene geometry (overlap, bad source placement, ...)."""


MAX_CAPSULES = 10**6  # per sphere; each capsule is a row of T_F, and the configs and the benchmark use at most 252
MAX_SPHERES = 10**3  # per layout; the overlap check visits every pair, and the configs use at most 9
MAX_DEGREE = 10**3  # of an expansion: (n+1)² = 1e6 coefficients at most; the configs use at most 55


def fibonacci_grid(q: int) -> np.ndarray:
    """Spherical Fibonacci lattice of ``q`` unit vectors.

    Point i has z = 1 - (2i+1)/q and azimuth 2*pi*i/phi with phi the golden
    ratio, giving near-uniform coverage for capsule layouts.
    """
    if q < 1:
        raise SceneError(f"a capsule grid needs at least one point, got {q}")
    if q > MAX_CAPSULES:
        raise SceneError(f"a capsule grid of {q:,} points is more than the {MAX_CAPSULES:,} allowed")
    i = np.arange(q)
    z = 1.0 - (2.0 * i + 1.0) / q
    phi = 2.0 * np.pi * i / GOLDEN_RATIO
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)


@dataclass
class RsmaSpec:
    """One rigid spherical microphone array: center, radius, capsule directions."""

    center: np.ndarray
    radius: float
    capsule_dirs: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        if not np.all(np.isfinite(self.center)):
            raise SceneError(f"sphere center must be finite, got {self.center}")
        self.capsule_dirs = np.atleast_2d(np.asarray(self.capsule_dirs, dtype=float))
        if self.radius <= 0:
            raise SceneError(f"sphere radius must be positive, got {self.radius}")
        if self.capsule_dirs.shape[0] < 1 or self.capsule_dirs.shape[1] != 3:
            raise SceneError("capsule_dirs must be a (Q, 3) array with Q >= 1")
        norms = np.linalg.norm(self.capsule_dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise SceneError("capsule directions must be unit vectors")
        if len(np.unique(self.capsule_dirs, axis=0)) < len(self.capsule_dirs):
            raise SceneError("capsule positions must be pairwise distinct")

    @classmethod
    def fibonacci(cls, center, radius: float, capsules: int) -> "RsmaSpec":
        return cls(center=center, radius=radius, capsule_dirs=fibonacci_grid(capsules))

    @property
    def num_capsules(self) -> int:
        return self.capsule_dirs.shape[0]

    def capsule_positions(self) -> np.ndarray:
        return self.center[None, :] + self.radius * self.capsule_dirs


@dataclass
class IncidentSource:
    """Plane wave (unit direction) or monopole (position), either scaled by a complex amplitude."""

    kind: str
    direction: np.ndarray | None = None
    position: np.ndarray | None = None
    amplitude: complex = 1.0 + 0j

    def __post_init__(self):
        if self.amplitude == 0:  # a silent source leaves truth and estimate both 0, every pixel at the SDR cap
            raise SceneError("source amplitude must be nonzero")
        if self.kind == "plane_wave":
            if self.direction is None:
                raise SceneError("plane_wave source needs a direction")
            if self.position is not None:
                raise SceneError("a plane_wave source has no position: remove it, or make the source a monopole")
            self.direction = np.asarray(self.direction, dtype=float).reshape(3)
            if not np.all(np.isfinite(self.direction)):
                raise SceneError(f"plane_wave direction must be finite, got {self.direction}")
            scale = np.max(np.abs(self.direction))  # divided out first, so the norm neither overflows nor underflows
            if scale == 0.0:
                raise SceneError("plane_wave direction must be nonzero")
            self.direction = self.direction / scale
            self.direction /= np.linalg.norm(self.direction)
        elif self.kind == "monopole":
            if self.position is None:
                raise SceneError("monopole source needs a position")
            if self.direction is not None:
                raise SceneError("a monopole source has no direction: remove it, or make the source a plane_wave")
            self.position = np.asarray(self.position, dtype=float).reshape(3)
            if not np.all(np.isfinite(self.position)):
                raise SceneError(f"monopole position must be finite, got {self.position}")
            with np.errstate(over="ignore"):  # the squares overflow beyond about 1e154 m
                distance = np.linalg.norm(self.position)
            if distance == 0.0:
                raise SceneError("monopole source cannot sit at the origin")
            if distance == np.inf:  # every series and distance of the run would overflow with it
                raise SceneError(f"monopole position {self.position} is too far: its distance overflows a double")
        else:
            raise SceneError(f"unknown source kind {self.kind!r}")

    def coefficients(self, k: float, n_max: int, center=(0.0, 0.0, 0.0)) -> CoefficientVector:
        """Expansion coefficients of the incident field about ``center``."""
        center = np.asarray(center, dtype=float)
        if self.kind == "plane_wave":
            cv = plane_wave_coeffs(self.direction, k, n_max)
            phase = np.exp(1j * k * float(np.dot(self.direction, center)))
            return CoefficientVector(k=k, n_max=n_max, values=cv.values * phase * self.amplitude)
        return monopole_coeffs(self.position - center, self.amplitude, k, n_max)

    def field_at(self, k: float, points: np.ndarray) -> np.ndarray:
        """Direct (series-free) evaluation of the incident field."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "plane_wave":
            return self.amplitude * np.exp(1j * k * points @ self.direction)
        d = np.linalg.norm(points - self.position[None, :], axis=1)
        if np.any(d == 0.0):
            raise SceneError("field evaluated at the monopole position")
        return self.amplitude * np.exp(1j * k * d) / (4.0 * np.pi * d)


def plane_wave_coeffs(direction, k: float, n_max: int) -> CoefficientVector:
    """Regular expansion of exp(i k khat . r): A_n^m = 4 pi i^n conj(Y_n^m(khat))."""
    direction = np.asarray(direction, dtype=float).reshape(3)
    direction = direction / np.linalg.norm(direction)
    _, theta, phi = cart_to_sph(direction)
    y = sph_harm_matrix(n_max, [theta], [phi])[0]
    values = 4.0 * np.pi * (1j) ** degrees_upto(n_max) * np.conj(y)
    return CoefficientVector(k=k, n_max=n_max, values=values)


def monopole_coeffs(position, amplitude: complex, k: float, n_max: int) -> CoefficientVector:
    """Regular expansion of amplitude * exp(ikd)/(4 pi d), d = |r - position|.

    Valid for |r| < |position|: A_n^m = amplitude * i k h_n(k|position|)
    conj(Y_n^m(position direction)).
    """
    position = np.asarray(position, dtype=float).reshape(3)
    r0 = np.linalg.norm(position)
    if r0 == 0.0:
        raise SceneError("monopole position cannot coincide with the expansion center")
    _, theta, phi = cart_to_sph(position)
    y = sph_harm_matrix(n_max, [theta], [phi])[0]
    hn = sph_hankel1_upto(n_max, k * r0)
    values = amplitude * 1j * k * hn[degrees_upto(n_max)] * np.conj(y)
    return CoefficientVector(k=k, n_max=n_max, values=values)


def layout_cartesian(rows: int, cols: int, spacing: float, plane: str = "xy") -> np.ndarray:
    """rows x cols grid of centers in the given coordinate plane, origin-centered."""
    if rows < 1 or cols < 1:
        raise SceneError("grid needs at least one row and one column")
    if rows * cols > MAX_SPHERES:
        raise SceneError(f"a layout of {rows * cols:,} spheres is more than the {MAX_SPHERES:,} allowed")
    axes = {"xy": (0, 1), "yz": (1, 2), "xz": (0, 2)}
    if plane not in axes:
        raise SceneError(f"plane must be xy, yz or xz, got {plane!r}")
    a, bax = axes[plane]
    centers = np.zeros((rows * cols, 3))
    u = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    v = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    uu, vv = np.meshgrid(u, v, indexing="xy")
    centers[:, a] = uu.ravel()
    centers[:, bax] = vv.ravel()
    return centers


def check_surface_degree(k: float, radius: float, n: int) -> None:
    """Raise SceneError unless (ka)² h'_0(ka) .. (ka)² h'_n(ka) are finite: a run divides by each of them.

    At a small ka, h'_n(ka) grows like (n + 1) (2n - 1)!! / (ka)^(n+2) and
    leaves the double range from some degree on; past about 1.3e154, (ka)² does.
    """
    ka = k * radius
    if float(ka) * float(ka) == math.inf:  # Python floats: inf, with no warning
        raise SceneError(
            f"sphere radius {radius:g} m is too large at this frequency: at ka = {ka:.3g}, (ka)² overflows a double, "
            f"and the run divides by (ka)² h'_n(ka)"
        )
    finite = np.isfinite(sph_hankel1_upto(n, ka, derivative=True))
    if not finite.all():
        raise SceneError(
            f"sphere radius {radius:g} m is too small at this frequency: at ka = {ka:.3g}, h'_n(ka) overflows "
            f"a double from degree {int(np.argmin(finite))} on, and the run divides by it up to degree {n}"
        )


def recommended_forward_truncation(k: float, radius: float) -> int:
    """Common rule of thumb floor(e * k * a) for the per-sphere truncation."""
    return int(math.floor(math.e * k * radius))


@dataclass
class SceneConfig:
    """Full capture scene: sphere grid, incident source, frequency, truncations."""

    spheres: list[RsmaSpec]
    source: IncidentSource
    frequency: float
    n_in: int
    n_fwd: int | None = None  # None: floor(e k a) for the largest radius a, capped at n_in
    sound_speed: float = DEFAULT_SOUND_SPEED

    def __post_init__(self):
        if not self.spheres:
            raise SceneError("scene needs at least one sphere")
        if self.frequency <= 0 or self.sound_speed <= 0:
            raise SceneError("frequency and sound speed must be positive")
        if not 0.0 < self.k < math.inf:
            raise SceneError(
                f"frequency {self.frequency:g} Hz at sound speed {self.sound_speed:g} m/s gives the wavenumber "
                f"2 pi f / c = {self.k:g}: it must be positive and finite"
            )
        if self.n_in > MAX_DEGREE:
            raise SceneError(f"incident truncation n_in {self.n_in:,} is more than the {MAX_DEGREE:,} allowed")
        if self.n_fwd is None:
            self.n_fwd = min(self.n_in, recommended_forward_truncation(self.k, max(s.radius for s in self.spheres)))
        if self.n_fwd < 0 or self.n_in < 0:
            raise SceneError("truncation degrees must be non-negative")
        if self.n_fwd > self.n_in:
            raise SceneError(
                f"forward truncation {self.n_fwd} exceeds incident truncation {self.n_in}"
            )
        with np.errstate(over="ignore"):  # the squares overflow beyond about 1e154 m: such a distance reads inf
            for i, a in enumerate(self.spheres):
                if np.linalg.norm(a.center) == np.inf:  # every translation from it would overflow too
                    raise SceneError(f"sphere {i}'s center {a.center} is too far: its distance overflows a double")
                for j in range(i + 1, len(self.spheres)):
                    bb = self.spheres[j]
                    distance = np.linalg.norm(a.center - bb.center)
                    if distance == np.inf:  # the translations between them would overflow
                        raise SceneError(f"spheres {i} and {j} are too far apart: their distance overflows a double")
                    if distance <= a.radius + bb.radius:
                        raise SceneError(f"spheres {i} and {j} overlap")
        for radius in sorted({s.radius for s in self.spheres}):
            check_surface_degree(self.k, radius, self.n_fwd)
        if self.source.kind == "monopole":
            for i, s in enumerate(self.spheres):
                if np.linalg.norm(self.source.position - s.center) <= s.radius:
                    raise SceneError(f"monopole source lies inside sphere {i}")

    @property
    def k(self) -> float:
        return 2.0 * np.pi * self.frequency / self.sound_speed

    @property
    def num_spheres(self) -> int:
        return len(self.spheres)

    @property
    def total_capsules(self) -> int:
        return sum(s.num_capsules for s in self.spheres)

    def incident_coeffs(self) -> CoefficientVector:
        return self.source.coefficients(self.k, self.n_in)

    def capsule_positions(self) -> np.ndarray:
        return np.vstack([s.capsule_positions() for s in self.spheres])

