"""Special functions, complex spherical harmonics, and spherical basis functions.

Coefficient packing is 0-based: the (n, m) weight of an expansion lives at
index l = n^2 + n + m, so a series truncated at degree N has (N+1)^2 entries.

Angle conventions: theta is the polar angle measured from +z in [0, pi],
phi is the azimuth measured from +x in [0, 2*pi).  Points on the z-axis get
phi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import spherical_jn, spherical_yn

SQRT_4PI = np.sqrt(4.0 * np.pi)


class BasisDomainError(ValueError):
    """Argument outside the domain of a special function."""


def num_coeffs(n_max: int) -> int:
    return (n_max + 1) ** 2


def degrees_upto(n_max: int) -> np.ndarray:
    """Array of length (n_max+1)^2 holding the degree n of each flat index."""
    return np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)


@dataclass
class CoefficientVector:
    """Spherical-harmonic expansion weights at a fixed wavenumber.

    Entry l = n^2 + n + m holds the (n, m) weight; ``values`` has length
    (n_max + 1)^2, or shape ((n_max + 1)^2, n) for a block of n candidate
    expansions, one per column.
    """

    k: float
    n_max: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.k <= 0:
            raise ValueError(f"wavenumber must be positive, got {self.k}")
        if self.n_max < 0:
            raise ValueError(f"truncation degree must be >= 0, got {self.n_max}")
        if self.values.ndim not in (1, 2) or self.values.shape[0] != num_coeffs(self.n_max):
            raise ValueError(
                f"expected {num_coeffs(self.n_max)} coefficients (rows) for degree "
                f"{self.n_max}, got shape {self.values.shape}"
            )

    def column(self, j: int, n_max: int | None = None) -> "CoefficientVector":
        """Candidate ``j`` of a block, truncated to degree ``n_max`` (default: the block's)."""
        n_max = self.n_max if n_max is None else n_max
        return CoefficientVector(k=self.k, n_max=n_max, values=self.values[: num_coeffs(n_max), j].copy())


# ---------------------------------------------------------------------------
# radial functions
# ---------------------------------------------------------------------------

def sph_bessel_j(n, x, derivative: bool = False):
    """Spherical Bessel function j_n(x) (or its derivative)."""
    return spherical_jn(n, x, derivative=derivative)


def sph_hankel1(n, x, derivative: bool = False):
    """Spherical Hankel function of the first kind, h_n = j_n + i*y_n."""
    if np.any(np.asarray(x) <= 0):
        raise BasisDomainError("h_n requires x > 0")
    return spherical_jn(n, x, derivative=derivative) + 1j * spherical_yn(
        n, x, derivative=derivative
    )


# ---------------------------------------------------------------------------
# angular functions
# ---------------------------------------------------------------------------

def norm_legendre_triangle(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormalized associated Legendre values for all 0 <= m <= n <= n_max.

    Returns an array of shape (T, ...) with T = (n_max+1)(n_max+2)/2 and row
    index t = n(n+1)/2 + m holding

        Pbar_n^m(x) = sqrt((2n+1)/(4 pi) * (n-m)!/(n+m)!) * P_n^m(x),

    Condon-Shortley phase included, computed by the standard stable
    three-term recurrences (usable far beyond the factorial overflow range).
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = np.empty(((n_max + 1) * (n_max + 2) // 2,) + x.shape, dtype=float)
    out[0] = 1.0 / SQRT_4PI
    for n in range(1, n_max + 1):
        t, prev = n * (n + 1) // 2, (n - 1) * n // 2  # rows of (n, 0) and (n-1, 0)
        # sectorial Pbar_n^n, then the first off-sectorial Pbar_n^{n-1}
        out[t + n] = -np.sqrt((2 * n + 1) / (2.0 * n)) * s * out[prev + n - 1]
        out[t + n - 1] = np.sqrt(2 * n + 1.0) * x * out[prev + n - 1]
        if n < 2:
            continue
        # upward in n for m = 0..n-2, one slice: rows (n-1, m) and (n-2, m)
        m = np.arange(n - 1).reshape((-1,) + (1,) * x.ndim)
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        b = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
        rows = np.multiply(x, out[prev : prev + n - 1], out=out[t : t + n - 1])
        rows -= b * out[prev - n + 1 : prev]
        rows *= a
    return out


def sph_harm_matrix(n_max: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """All Y_n^m up to degree n_max at the given angles.

    Returns shape (P, (n_max+1)^2) for flat angle arrays of length P, flat
    index l = n^2 + n + m along the last axis.  Each degree is filled in two
    slices: m >= 0 from the Legendre rows t(n, 0..n) times e^{i m phi}, and
    m < 0 from the same rows reversed times (-1)^m e^{-i m phi}.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    pbar = norm_legendre_triangle(n_max, np.cos(theta)).T  # (P, T)
    orders = np.arange(n_max + 1)
    expp = np.exp(1j * np.outer(phi, orders))  # (P, m)
    expn = expp.conj() * np.where(orders % 2, -1.0, 1.0)  # (-1)^m e^{-i m phi}
    out = np.empty((theta.size, num_coeffs(n_max)), dtype=complex)
    for n in range(n_max + 1):
        t, l = n * (n + 1) // 2, n * n + n  # Legendre row and flat index of (n, 0)
        np.multiply(pbar[:, t : t + n + 1], expp[:, : n + 1], out=out[:, l : l + n + 1])
        np.multiply(pbar[:, t + n : t : -1], expn[:, n:0:-1], out=out[:, n * n : l])
    return out


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def cart_to_sph(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cartesian (..., 3) -> (r, theta, phi); phi = 0 for points on the z-axis."""
    points = np.asarray(points, dtype=float)
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    r = np.sqrt(x * x + y * y + z * z)
    rho = np.hypot(x, y)
    theta = np.where(r > 0, np.arctan2(rho, z), 0.0)
    phi = np.where(rho > 0, np.mod(np.arctan2(y, x), 2.0 * np.pi), 0.0)
    return r, theta, phi


# ---------------------------------------------------------------------------
# spherical basis functions
# ---------------------------------------------------------------------------

def _basis_matrix(n_max: int, k: float, points: np.ndarray, center, radial) -> np.ndarray:
    """radial(n, kr) Y_n^m about ``center`` for every (n, m), shape (P, (n_max+1)^2)."""
    rel = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, float)
    r, theta, phi = cart_to_sph(rel)
    ymat = sph_harm_matrix(n_max, theta, phi)
    fr = radial(np.arange(n_max + 1)[:, None], k * r[None, :])  # (n, P)
    for n in range(n_max + 1):  # in place, one degree at a time: no second (P, L) buffer
        ymat[:, n * n : (n + 1) ** 2] *= fr[n][:, None]
    return ymat


def regular_basis_matrix(n_max: int, k: float, points: np.ndarray, center) -> np.ndarray:
    """Values of all regular basis functions R_n^m = j_n(kr) Y_n^m about ``center``.

    Returns shape (P, (n_max+1)^2).
    """
    return _basis_matrix(n_max, k, points, center, spherical_jn)


def regular_real_table(n_max: int, k: float, points: np.ndarray, center) -> np.ndarray:
    """Real regular basis rows about ``center``, shape ((n_max+1)(n_max+2), P).

    With T = (n_max+1)(n_max+2)/2, row t = n(n+1)/2 + m (0 <= m <= n) holds
    j_n(kr) Pbar_n^m(cos theta) cos(m phi) and row T + t the same product
    with sin(m phi).  ``table.T @ real_table_weights(c, n_max)`` equals
    ``regular_basis_matrix(...) @ c`` at half the entries of the complex
    basis, because R_n^m and R_n^{-m} share their real factors.
    """
    rel = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, float)
    r, theta, phi = cart_to_sph(rel)
    radial_legendre = norm_legendre_triangle(n_max, np.cos(theta))  # (T, P), scaled by j_n below
    radii, at = np.unique(k * r, return_inverse=True)  # a pixel grid repeats its radii
    jr = spherical_jn(np.arange(n_max + 1)[:, None], radii[None, :])[:, at]  # (n, P)
    angles = np.outer(np.arange(n_max + 1), phi)  # (m, P)
    cos, sin = np.cos(angles), np.sin(angles)
    half = radial_legendre.shape[0]
    table = np.empty((2 * half, r.size))
    for n in range(n_max + 1):
        rows = slice(n * (n + 1) // 2, (n + 1) * (n + 2) // 2)
        radial_legendre[rows] *= jr[n]
        np.multiply(radial_legendre[rows], cos[: n + 1], out=table[rows])
        np.multiply(radial_legendre[rows], sin[: n + 1], out=table[half:][rows])
    return table


def real_table_weights(values: np.ndarray, n_max: int) -> np.ndarray:
    """Complex weights, shape ((n_max+1)(n_max+2), n), of the rows of :func:`regular_real_table`.

    For 0 <= m <= n the cosine row of (n, m) weighs
    u = c_{n,m} + (-1)^m c_{n,-m} and the sine row i w with
    w = c_{n,m} - (-1)^m c_{n,-m}, m = 0 counted once (u = c_{n,0}).
    ``values`` is a coefficient vector or an (L, n) block of them.
    """
    block = np.asarray(values, dtype=complex).reshape(num_coeffs(n_max), -1)
    n = np.repeat(np.arange(n_max + 1), np.arange(1, n_max + 2))
    m = np.arange(n.size) - n * (n + 1) // 2
    positive = block[n * n + n + m]
    negative = (np.where(m % 2, -1.0, 1.0) * (m > 0))[:, None] * block[n * n + n - m]
    return np.concatenate([positive + negative, 1j * (positive - negative)])


def singular_basis_matrix(n_max: int, k: float, points: np.ndarray, center) -> np.ndarray:
    """Values of all singular basis functions S_n^m = h_n(kr) Y_n^m about ``center``.

    A point at ``center`` is outside the domain of h_n (BasisDomainError).
    """
    return _basis_matrix(n_max, k, points, center, sph_hankel1)
