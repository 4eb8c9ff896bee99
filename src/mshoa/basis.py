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


class IndexError_(ValueError):
    """Invalid (n, m) harmonic index."""


def pack_index(n: int, m: int) -> int:
    """Flat index l = n^2 + n + m of the (n, m) harmonic."""
    if n < 0 or abs(m) > n:
        raise IndexError_(f"invalid harmonic index (n={n}, m={m})")
    return n * n + n + m


def unpack_index(l: int) -> tuple[int, int]:
    """Inverse of :func:`pack_index`."""
    if l < 0:
        raise IndexError_(f"invalid flat index {l}")
    n = int(np.floor(np.sqrt(l)))
    m = l - n * n - n
    return n, m


def num_coeffs(n_max: int) -> int:
    return (n_max + 1) ** 2


def degrees_upto(n_max: int) -> np.ndarray:
    """Array of length (n_max+1)^2 holding the degree n of each flat index."""
    out = np.empty(num_coeffs(n_max), dtype=int)
    for n in range(n_max + 1):
        out[n * n : (n + 1) ** 2] = n
    return out


def orders_upto(n_max: int) -> np.ndarray:
    """Array of length (n_max+1)^2 holding the order m of each flat index."""
    out = np.empty(num_coeffs(n_max), dtype=int)
    for n in range(n_max + 1):
        out[n * n : (n + 1) ** 2] = np.arange(-n, n + 1)
    return out


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

    @classmethod
    def zeros(cls, k: float, n_max: int) -> "CoefficientVector":
        return cls(k=k, n_max=n_max, values=np.zeros(num_coeffs(n_max), complex))

    def __getitem__(self, nm: tuple[int, int]) -> complex:
        return self.values[pack_index(*nm)]

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


def sph_bessel_y(n, x, derivative: bool = False):
    """Spherical Neumann function y_n(x); singular at x = 0."""
    if np.any(np.asarray(x) <= 0):
        raise BasisDomainError("y_n requires x > 0")
    return spherical_yn(n, x, derivative=derivative)


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
    T = (n_max + 1) * (n_max + 2) // 2
    out = np.empty((T,) + x.shape, dtype=float)

    def t(n, m):
        return n * (n + 1) // 2 + m

    out[0] = 1.0 / SQRT_4PI
    # sectorial: Pbar_m^m
    for m in range(1, n_max + 1):
        out[t(m, m)] = -np.sqrt((2 * m + 1) / (2.0 * m)) * s * out[t(m - 1, m - 1)]
    # first off-sectorial: Pbar_{m+1}^m
    for m in range(0, n_max):
        out[t(m + 1, m)] = np.sqrt(2 * m + 3.0) * x * out[t(m, m)]
    # upward in n
    for m in range(0, n_max + 1):
        for n in range(m + 2, n_max + 1):
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
            out[t(n, m)] = a * (x * out[t(n - 1, m)] - b * out[t(n - 2, m)])
    return out


def sph_harm(n: int, m: int, theta, phi):
    """Orthonormal complex spherical harmonic Y_n^m(theta, phi).

    Negative orders follow the conjugation symmetry
    Y_n^{-m} = (-1)^m conj(Y_n^m).
    """
    if abs(m) > n:
        raise IndexError_(f"invalid harmonic index (n={n}, m={m})")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    pbar = norm_legendre_triangle(n, np.cos(theta))[n * (n + 1) // 2 + ma]
    val = pbar * np.exp(1j * m * phi)
    if m < 0 and ma % 2:
        val = -val
    return val


def sph_harm_matrix(n_max: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """All Y_n^m up to degree n_max at the given angles.

    Returns shape (P, (n_max+1)^2) for flat angle arrays of length P, flat
    index l = n^2 + n + m along the last axis.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    pbar = norm_legendre_triangle(n_max, np.cos(theta))
    expp = np.exp(1j * np.outer(np.arange(n_max + 1), phi))  # (m, P)
    out = np.empty((theta.size, num_coeffs(n_max)), dtype=complex)
    for n in range(n_max + 1):
        base = n * (n + 1) // 2
        for m in range(0, n + 1):
            pos = pbar[base + m] * expp[m]
            out[:, pack_index(n, m)] = pos
            if m > 0:
                neg = pbar[base + m] * np.conj(expp[m])
                if m % 2:
                    neg = -neg
                out[:, pack_index(n, -m)] = neg
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


def sph_to_cart(r, theta, phi) -> np.ndarray:
    st = np.sin(theta)
    return np.stack(
        [r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta)], axis=-1
    )


# ---------------------------------------------------------------------------
# spherical basis functions
# ---------------------------------------------------------------------------

def regular_basis_matrix(n_max: int, k: float, points: np.ndarray, center) -> np.ndarray:
    """Values of all regular basis functions R_n^m = j_n(kr) Y_n^m about ``center``.

    Returns shape (P, (n_max+1)^2).
    """
    rel = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, float)
    r, theta, phi = cart_to_sph(rel)
    ymat = sph_harm_matrix(n_max, theta, phi)
    jr = spherical_jn(np.arange(n_max + 1)[:, None], k * r[None, :])  # (n, P)
    for n in range(n_max + 1):  # in place, one degree at a time: no second (P, L) buffer
        ymat[:, n * n : (n + 1) ** 2] *= jr[n][:, None]
    return ymat


def singular_basis_matrix(n_max: int, k: float, points: np.ndarray, center) -> np.ndarray:
    """Values of all singular basis functions S_n^m = h_n(kr) Y_n^m about ``center``."""
    rel = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, float)
    r, theta, phi = cart_to_sph(rel)
    if np.any(r == 0):
        raise BasisDomainError("singular basis evaluated at its expansion center")
    ymat = sph_harm_matrix(n_max, theta, phi)
    ns = np.arange(n_max + 1)[:, None]
    hr = spherical_jn(ns, k * r[None, :]) + 1j * spherical_yn(ns, k * r[None, :])
    for n in range(n_max + 1):
        ymat[:, n * n : (n + 1) ** 2] *= hr[n][:, None]
    return ymat


def basis_gradient_matrix(
    kind: str, n_max: int, k: float, points: np.ndarray, center
) -> np.ndarray:
    """Cartesian gradients of all basis functions about ``center``.

    ``kind`` selects the radial function: 'regular' (j_n) or 'singular' (h_n).
    Returns shape (P, (n_max+1)^2, 3).  Points must not coincide with the
    center; points on the z-axis through the center are rejected (the polar
    decomposition of the gradient degenerates there).
    """
    if kind not in ("regular", "singular"):
        raise ValueError(f"kind must be 'regular' or 'singular', got {kind!r}")
    rel = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, float)
    r, theta, phi = cart_to_sph(rel)
    if np.any(r == 0):
        raise BasisDomainError("gradient evaluated at the expansion center")
    st = np.sin(theta)
    if np.any(st < 1e-12):
        raise BasisDomainError("gradient evaluation on the polar axis is unsupported")

    L = num_coeffs(n_max)
    degs = degrees_upto(n_max)
    ords = orders_upto(n_max)
    ns = np.arange(n_max + 1)[:, None]
    kr = k * r[None, :]
    if kind == "regular":
        f = spherical_jn(ns, kr)
        fp = spherical_jn(ns, kr, derivative=True)
    else:
        f = spherical_jn(ns, kr) + 1j * spherical_yn(ns, kr)
        fp = spherical_jn(ns, kr, derivative=True) + 1j * spherical_yn(
            ns, kr, derivative=True
        )

    # Y and its theta derivative: dY_n^m/dtheta = m cot(theta) Y_n^m
    #   + sqrt((n-m)(n+m+1)) e^{-i phi} Y_n^{m+1}
    ymat = sph_harm_matrix(n_max, theta, phi)  # (P, L)
    dtheta = (ords[None, :] * (np.cos(theta) / st)[:, None]) * ymat
    eminus = np.exp(-1j * phi)
    for l in range(L):
        n, m = degs[l], ords[l]
        if m < n:
            c = np.sqrt((n - m) * (n + m + 1.0))
            dtheta[:, l] += c * eminus * ymat[:, pack_index(n, m + 1)]

    rhat = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    that = np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -st], axis=-1
    )
    phat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)

    fr = f[degs].T  # (P, L)
    fpr = fp[degs].T
    radial = (k * fpr * ymat)[:, :, None] * rhat[:, None, :]
    polar = (fr * dtheta / r[:, None])[:, :, None] * that[:, None, :]
    azim = (fr * ymat * (1j * ords[None, :]) / (r * st)[:, None])[:, :, None] * phat[
        :, None, :
    ]
    return radial + polar + azim
