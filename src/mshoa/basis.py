"""Special functions, complex spherical harmonics, and spherical basis functions.

The radial functions j_n and h_n = j_n + i y_n, and h'_n, whose real part is
j'_n, are evaluated at every order 0..N at once, by three-term recurrences
run in their stable direction (:func:`sph_bessel_j_upto`, :func:`sph_hankel1_upto`).

Coefficient packing is 0-based: the (n, m) weight of an expansion lives at
index l = n^2 + n + m, so a series truncated at degree N has (N+1)^2 entries.
The +-m pair basis (:func:`_to_pairs`) packs the same way.

Angle conventions: theta is the polar angle measured from +z in [0, pi],
phi is the azimuth measured from +x in [0, 2*pi).  Points on the z-axis get
phi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQRT_4PI = np.sqrt(4.0 * np.pi)
SQRT_HALF = np.sqrt(0.5)


class BasisDomainError(ValueError):
    """Argument outside the domain of a special function."""


def num_coeffs(n_max: int) -> int:
    return (n_max + 1) ** 2


def degrees_upto(n_max: int) -> np.ndarray:
    """Array of length (n_max+1)^2 holding the degree n of each flat index."""
    return np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)


def _to_pairs(a: np.ndarray, n_max: int) -> np.ndarray:
    """``a`` with its coefficient index, the last axis, taken to the +-m pair basis, in place; returns ``a``.

    The pair basis holds e_{n,0} and, for m > 0, (e_{n,m} + e_{n,-m}) / sqrt 2
    at index (n, m) and (e_{n,m} - e_{n,-m}) / sqrt 2 at index (n, -m).  The
    change of basis is real, symmetric and orthogonal, so it is its own
    inverse: applying it again takes pair coordinates back.  It runs one
    degree at a time (:func:`_orders_to_pairs`) on slices of ``a``, so its
    only temporaries are one degree's sums and differences.  Another axis
    is transformed through a view that puts it last, such as ``a.T``.
    """
    for n in range(1, n_max + 1):
        _orders_to_pairs(a[..., n * n : (n + 1) ** 2], n)
    return a


def _orders_to_pairs(orders: np.ndarray, n: int) -> None:
    """Degree ``n``'s orders m = -n..n, the last axis of ``orders``, taken to the pair basis in place."""
    plus, minus = orders[..., n + 1 :], orders[..., :n][..., ::-1]  # m = 1..n, and m = -1..-n
    plus *= SQRT_HALF
    minus *= SQRT_HALF
    plus[...], minus[...] = plus + minus, plus - minus


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

def sph_bessel_j_upto(n_max: int, x) -> np.ndarray:
    """j_0 .. j_{n_max} at ``x >= 0``: shape (n_max+1,) + shape of ``x``.

    Each order comes from its neighbours by the three-term recurrence
    f_{n+1} = (2n+1)/x f_n - f_{n-1} (Gautschi, SIAM Review 9, 1967; Gumerov
    & Duraiswami 2004, section 2.1), in the direction in which it is stable:
    upward from j_0 = sin x / x and j_{-1} = cos x / x at the orders n < x,
    where j_n oscillates, and, at n >= x, where j_n falls off, as
    j_n = r_n j_{n-1} with the ratios r_n = j_n / j_{n-1} = x / (2n+1 - x r_{n+1})
    of the downward continued fraction, started from r = 0 beyond order
    :func:`_ratio_start`.  The derivatives j'_n are the real part of
    :func:`sph_hankel1_upto`'s.
    """
    if np.any(np.asarray(x) < 0):
        raise BasisDomainError("j_n is evaluated for x >= 0")
    return _orders(_bessel_j_rows, n_max, x)


def sph_hankel1_upto(n_max: int, x, derivative: bool = False) -> np.ndarray:
    """h_0 .. h_{n_max} (or their derivatives) at ``x > 0``, h_n = j_n + i y_n: shape (n_max+1,) + shape of ``x``.

    y_n runs upward from y_0 = -cos x / x and y_{-1} = sin x / x at every
    order, where it grows; past the double range it is not finite.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise BasisDomainError("h_n requires x > 0")
    j = _orders(_bessel_j_rows, n_max + derivative, x)
    y = _orders(_bessel_y, n_max + derivative, x)
    h = np.empty((n_max + 1,) + x.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an order past the double range is not finite
        h.real, h.imag = (_derivative(j, x), _derivative(y, x)) if derivative else (j, y)
    return h


def _ratio_start(n_max: int) -> int:
    """The order whose ratio r is taken as 0 to start the continued fraction for orders up to ``n_max``.

    Started m orders beyond order n, the ratio at n is off by about
    (j/y)(n + m) / (j/y)(n) relative.  That is largest at n ~ x, where it is
    exp(-(2/3)(2m)^(3/2) / sqrt x) (Debye), below 1e-17 for m > 7.5 x^(1/3);
    only arguments x <= n_max take ratios, so starting 10 + 8 n_max^(1/3)
    beyond n_max covers them all.
    """
    return n_max + 10 + int(8 * np.cbrt(n_max))


def _orders(rows, n_max: int, x) -> np.ndarray:
    """Orders 0..n_max of one radial function at ``x``, rows first: by ``rows`` on the arguments sorted
    ascending, gathered back by the inverse permutation (``take`` writes each row contiguously)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    order = np.argsort(flat, kind="stable")
    return np.take(rows(n_max, flat[order]), np.argsort(order), axis=1).reshape((n_max + 1,) + x.shape)


def _bessel_j_rows(n_max: int, x: np.ndarray) -> np.ndarray:
    """j_0 .. j_{n_max} at ascending x >= 0, one row per order: upward on the points beyond each order, the
    ratios on the rest (see :func:`sph_bessel_j_upto`)."""
    rows = np.empty((n_max + 1, x.size))
    np.divide(np.sin(x), x, out=rows[0], where=x > 0)
    rows[0, x == 0] = 1.0
    beyond = np.searchsorted(x, np.arange(n_max + 1), side="right")  # beyond[n]: the first point with x > n
    for n in range(1, n_max + 1):
        a = beyond[n]
        if a == x.size:
            break
        older = np.cos(x[a:]) / x[a:] if n == 1 else rows[n - 2, a:]
        rows[n, a:] = (2 * n - 1) / x[a:] * rows[n - 1, a:] - older
    r = np.zeros(beyond[n_max])
    for n in range(_ratio_start(n_max), 0, -1):  # the ratios r_n at the points x <= n, in the rows of order n
        a = beyond[min(n, n_max)]
        if a == 0:
            break
        r = x[:a] / (2 * n + 1 - x[:a] * r[:a])
        if n <= n_max:
            rows[n, :a] = r
    for n in range(1, n_max + 1):
        rows[n, : beyond[n]] *= rows[n - 1, : beyond[n]]
    return rows


def _bessel_y(n_max: int, x: np.ndarray) -> list:
    """y_0 .. y_{n_max} upward at x > 0: one array per order."""
    y, older = [-np.cos(x) / x], np.sin(x) / x  # y_0, y_{-1}
    with np.errstate(over="ignore", invalid="ignore"):  # an order past the double range is not finite
        for n in range(1, n_max + 1):
            y.append((2 * n - 1) / x * y[-1] - older)
            older = y[-2]
    return y


def _derivative(f: np.ndarray, x) -> np.ndarray:
    """f_0' .. f_{n_max}' from the orders 0..n_max+1 of j or y at ``x`` (rows first): f_0' = -f_1 and
    f_n' = f_{n-1} - (n+1)/x f_n."""
    d = np.empty_like(f[:-1])
    d[0] = -f[1]
    n = np.arange(2, len(f)).reshape((-1,) + (1,) * np.ndim(x))
    d[1:] = f[:-2] - n / x * f[1:-1]
    return d


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
        # upward in n for m = 0..n-2 (none at n = 1), one slice: rows (n-1, m) and (n-2, m)
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
    """f_n(kr) Y_n^m about ``center`` for every (n, m), shape (P, (n_max+1)^2), with radial(n_max, kr) the orders of f."""
    rel = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, float)
    r, theta, phi = cart_to_sph(rel)
    ymat = sph_harm_matrix(n_max, theta, phi)
    fr = radial(n_max, k * r)  # (n, P)
    for n in range(n_max + 1):  # in place, one degree at a time: no second (P, L) buffer
        ymat[:, n * n : (n + 1) ** 2] *= fr[n][:, None]
    return ymat


def regular_basis_matrix(n_max: int, k: float, points: np.ndarray, center) -> np.ndarray:
    """Values of all regular basis functions R_n^m = j_n(kr) Y_n^m about ``center``.

    Returns shape (P, (n_max+1)^2).
    """
    return _basis_matrix(n_max, k, points, center, sph_bessel_j_upto)


def triangle_indices(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree n and order m of every Legendre-triangle row t = n(n+1)/2 + m, 0 <= m <= n <= n_max."""
    n = np.repeat(np.arange(n_max + 1), np.arange(1, n_max + 2))
    return n, np.arange(n.size) - n * (n + 1) // 2


@dataclass(frozen=True)
class RealTableLayout:
    """The rows of a :func:`regular_real_table` and their order, set once per reconstruction.

    Table row i is weighed by row ``rows[i]`` of :func:`real_table_weights`.
    The rows come in sign classes: under the reflection in the coordinate
    axis ``mirror[b]`` that :func:`real_table_layout` was given (0, 1, 2 for
    x, y, z) a row of class c keeps its sign if bit b of c is clear and
    changes it if set, and class c spans
    table rows ``bounds[c]:bounds[c + 1]``, its cosine rows before its sine
    rows, each by m, then n.  ``cosines`` lists the Legendre-triangle row of
    each cosine row, in table order.  ``runs[m]`` holds, per run of cosine
    rows of one class and order m, its table rows, its places in
    ``cosines``, its degrees n, and the table rows of the sine rows of the
    same (n, m), None at m = 0.
    """

    rows: np.ndarray
    bounds: np.ndarray
    cosines: np.ndarray
    runs: list


def real_table_layout(n_max: int, mirror=(), through_center: bool = False) -> RealTableLayout:
    """The rows of the real regular table up to degree ``n_max``, in classes by their signs under the reflections ``mirror``.

    A reflection about the expansion center acts on each real row as a
    sign, the real-table analogue of the pair-basis signs of the scattering
    classes (Gumerov & Duraiswami, 2004, section 3.2): x -> -x takes phi to
    pi - phi, so the cosine row of (n, m) gets (-1)^m and its sine row
    -(-1)^m; y -> -y takes phi to -phi, so the cosine row gets + and the
    sine row -; z -> -z takes cos theta to -cos theta, and both rows get
    (-1)^(n+m).  ``through_center`` says that every point lies on the plane
    z = c_z through the center, where cos theta = 0 and so Pbar_n^m, and
    the whole row, vanishes for every odd n + m: those rows are left out,
    with their weights.
    """
    degree, order = triangle_indices(n_max)
    n, m, sine = np.tile(degree, 2), np.tile(order, 2), np.repeat([0, 1], degree.size)  # cosine rows, then sine rows
    kept = (sine == 0) | (m > 0)
    if through_center:
        kept &= (n + m) % 2 == 0
    odd = {0: m + sine, 1: sine, 2: n + m}  # each reflection's sign is (-1)^odd
    sign_class = sum(((odd[axis] % 2) << bit for bit, axis in enumerate(mirror)), np.zeros_like(n))
    rows = np.lexsort((n, m, sine, sign_class))
    rows = rows[kept[rows]]
    bounds = np.searchsorted(sign_class[rows], np.arange(2 ** len(mirror) + 1))
    triangle = rows % degree.size
    cosine = np.flatnonzero(sine[rows] == 0)
    sine_at = np.zeros(degree.size, int)
    sine_at[triangle[sine[rows] == 1]] = np.flatnonzero(sine[rows])  # the table row of each triangle row's sine row
    run = (sign_class * (n_max + 1) + m)[rows[cosine]]
    cuts = np.append(np.flatnonzero(np.diff(run, prepend=-1)), run.size)
    runs = [[] for _ in range(n_max + 1)]
    for low, high in zip(cuts, cuts[1:]):  # a run's table rows are consecutive, as are its sine rows
        first, last = triangle[cosine[low]], triangle[cosine[high - 1]]
        step = (degree[last] - degree[first]) // max(high - low - 1, 1) or 1  # n ascends by 2 where its parity is set
        runs[order[first]].append((
            slice(cosine[low], cosine[high - 1] + 1),
            slice(low, high),
            slice(degree[first], degree[last] + 1, step),
            slice(sine_at[first], sine_at[last] + 1) if order[first] else None,
        ))
    return RealTableLayout(rows, bounds, triangle[cosine], runs)


def regular_real_table(n_max: int, k: float, points: np.ndarray, center, layout: RealTableLayout) -> np.ndarray:
    """The real regular basis rows of ``layout`` about ``center``, one column per point.

    R_n^m and R_n^-m share their real factor j_n(kr) Pbar_n^|m|(cos theta)
    and differ only in cos m phi / sin m phi.  The Bessel orders are
    evaluated at each point's kr, and the Legendre triangle once per
    distinct cos theta (one on a plane through the center, where it is 0).
    One run of the layout's cosine rows at a time, its Legendre rows are
    gathered to the points and multiplied by their Bessel orders; the run
    then gives its sine rows, times sin m phi, and takes cos m phi.  With
    ``rows = layout.rows``, ``table.T @ real_table_weights(c,
    n_max)[rows]`` equals ``regular_basis_matrix(...) @ c`` when the rows
    the layout leaves out vanish at the points.
    """
    rel = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, float)
    x, y, z = rel[:, 0], rel[:, 1], rel[:, 2]
    r = np.sqrt(x * x + y * y + z * z)
    cosines, at_cosine = np.unique(np.divide(z, r, out=np.ones_like(r), where=r > 0), return_inverse=True)
    bessel = sph_bessel_j_upto(n_max, k * r)  # (n, points)
    legendre = norm_legendre_triangle(n_max, cosines)[layout.cosines]  # (cosine rows, cosines)
    rho = np.hypot(x, y)
    turn = np.divide(x + 1j * y, rho, out=np.ones(r.size, complex), where=rho > 0)  # e^{i phi}
    phase = np.ones(r.size, complex)  # e^{i m phi}
    table = np.empty((layout.rows.size, r.size))
    for runs in layout.runs:  # m = 0, 1, ..., n_max
        for cosine, places, degrees, sine in runs:
            np.take(legendre[places], at_cosine, axis=1, out=table[cosine], mode="clip")  # "raise" would buffer ``out``
            table[cosine] *= bessel[degrees]
            if sine is not None:
                np.multiply(table[cosine], phase.imag, out=table[sine])
                table[cosine] *= phase.real
        phase *= turn
    return table


def real_table_weights(values: np.ndarray, n_max: int) -> np.ndarray:
    """Complex weights, shape ((n_max+1)(n_max+2), n), of every row a :func:`regular_real_table` may hold.

    Row t = n(n+1)/2 + m (0 <= m <= n) weighs the cosine row of (n, m) by
    u = c_{n,m} + (-1)^m c_{n,-m} and row T + t, T = (n_max+1)(n_max+2)/2,
    the sine row by i w with w = c_{n,m} - (-1)^m c_{n,-m}, m = 0 counted
    once (u = c_{n,0}).  ``values`` is a coefficient vector or an (L, n)
    block of them.
    """
    block = np.asarray(values, dtype=complex).reshape(num_coeffs(n_max), -1)
    n, m = triangle_indices(n_max)
    positive = block[n * n + n + m]
    negative = (np.where(m % 2, -1.0, 1.0) * (m > 0))[:, None] * block[n * n + n - m]
    return np.concatenate([positive + negative, 1j * (positive - negative)])


def singular_basis_matrix(n_max: int, k: float, points: np.ndarray, center) -> np.ndarray:
    """Values of all singular basis functions S_n^m = h_n(kr) Y_n^m about ``center``.

    A point at ``center`` is outside the domain of h_n (BasisDomainError).
    """
    return _basis_matrix(n_max, k, points, center, sph_hankel1_upto)
