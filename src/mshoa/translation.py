"""Translation operators between spherical expansion origins.

A translation matrix T for displacement t (source origin -> destination
origin) re-expands a field so that its value is preserved:

    sum_l' (T a)_l' F_l'(r - c_dst) = sum_l a_l F_l(r - c_src)

with F the regular basis for R|R, and the regular re-expansion of the
singular basis for S|R (valid for |r - c_dst| < |t|).

Assembly goes through the coaxial (z-aligned) case, where only equal orders
couple and T^m_{l,n}(d zhat) = T^{-m}_{l,n}(d zhat).  Those coefficients come
from the coaxial recurrences of Gumerov & Duraiswami (Fast Multipole Methods
for the Helmholtz Equation in Three Dimensions, 2004, section 3.2): the
column T^0_{l,0} = (-1)^l sqrt(2l+1) f_l(kd), with f = j for R|R and f = h
for S|R, is raised in order by the sectorial recurrence and in source degree
by the three-term degree recurrence, with no quadrature and no cache.
General displacements are handled by conjugating with per-degree
spherical-harmonic rotation matrices (Wigner D), evaluated in closed form as
the exponential of the tridiagonal angular-momentum matrix through its exact
eigendecomposition (Feng et al., Phys. Rev. E 92, 043307, 2015).

Both sides of every translation are in the +-m pair basis of
:func:`mshoa.basis._to_pairs`, the basis the scatterers' mirror classes
are built in.  A coaxial matrix is the same in either basis, since it
gives +m and -m one coefficient; otherwise each degree's D_n is composed
with the pair change P_n, which is real, symmetric and orthogonal, so the
pair-basis matrix is (D_dst P)^H C (D_src P) with no pass of its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .basis import _orders_to_pairs, cart_to_sph, degrees_upto, num_coeffs, sph_bessel_j_upto, sph_hankel1_upto


class DegenerateDisplacementError(ValueError):
    """S|R translation with zero displacement has no valid region."""


def _coaxial_matrix(kind: str, dist: float, k: float, n_src: int, n_dst: int, columns=None) -> np.ndarray:
    """Translation matrix for displacement ``dist`` along +z, or it times ``columns``.

    Column n of T^m[n', n] is held for every order m <= n at once, over
    n' = 0..p_max with p_max = n_src + n_dst.  Each step in n raises the orders below n by the degree
    recurrence and starts order n from the sectorial one of order n - 1.
    Column n is exact for n' <= p_max - n and kept zero beyond, so every
    entry read (n <= n_src, n' <= n_dst) is exact.  ``columns``, one
    (2n+1)-square block B_n per source degree n, multiplies source degree
    n's columns by B_n as they are written: only equal orders couple, so
    entry (l, m) of column j of that product is T^|m|_{l,n} B_n[n+m, j],
    and no dense product is formed.
    """
    p_max = n_dst + n_src
    m_max = min(n_dst, n_src)
    ps = np.arange(p_max + 1)
    x = k * dist
    fp = sph_hankel1_upto(p_max, x) if kind == "SR" else sph_bessel_j_upto(p_max, x)

    ms = np.arange(m_max + 1)[:, None]
    # a[m, n] = sqrt((n+1+m)(n+1-m)/((2n+1)(2n+3))) for n >= m, zero below
    a = np.sqrt(np.clip((ps + 1.0 + ms) * (ps + 1.0 - ms), 0.0, None) / ((2.0 * ps + 1.0) * (2.0 * ps + 3.0)))
    prev = np.zeros((m_max + 1, p_max + 1), dtype=fp.dtype)  # column n - 1, one row per order (real for R|R)
    col = np.zeros_like(prev)  # column n
    col[0] = (-1.0) ** ps * np.sqrt(2.0 * ps + 1.0) * fp  # T^0[n', 0]

    # destination rows (l, m), sorted by |m|: column n fills those with |m| <= n
    ll = degrees_upto(n_dst)
    mm = np.arange(ll.size) - ll * (ll + 1)
    rows = np.argsort(np.abs(mm), kind="stable")
    ll, mm = ll[rows], mm[rows]
    filled = np.searchsorted(np.abs(mm), np.arange(n_src + 1), side="right")
    out = np.zeros((num_coeffs(n_dst), num_coeffs(n_src)), dtype=complex)
    for n in range(n_src + 1):
        if n > 0:
            # a_{n-1} T[n', n] = -a_n' T[n'+1, n-1] + a_{n'-1} T[n'-1, n-1] + a_{n-2} T[n', n-2]
            r = min(n, m_max + 1)  # the orders m < n
            nxt = a[:r, n - 2, None] * prev[:r]  # prev is zero at n = 1 (n - 2 wraps) and for m = n - 1
            nxt[:, :-1] -= a[:r, :-1] * col[:r, 1:]
            nxt[:, 1:] += a[:r, :-1] * col[:r, :-1]
            nxt[:, p_max - n + 1 :] = 0.0
            nxt /= a[:r, n - 1, None]
            prev[:r] = col[:r]
            col[:r] = nxt
            if n <= m_max:
                # sectorial step: T^n[n', n] from T^{n-1}[n'-1, n-1] and T^{n-1}[n'+1, n-1]
                q = np.arange(n, p_max - n + 1)
                beta_lo = np.sqrt((q + n - 1.0) * (q + n) / ((2.0 * q - 1.0) * (2.0 * q + 1.0)))
                beta_hi = np.sqrt((q - n + 1.0) * (q - n + 2.0) / ((2.0 * q + 1.0) * (2.0 * q + 3.0)))
                col[n, q] = (beta_lo * prev[n - 1, q - 1] + beta_hi * prev[n - 1, q + 1]) / np.sqrt(
                    2.0 * n / (2.0 * n + 1.0)
                )
        f = filled[n]
        m, coefficients = mm[:f], col[np.abs(mm[:f]), ll[:f]]  # coaxial coefficients are identical for +m and -m
        if columns is None:
            out[rows[:f], n * n + n + m] = coefficients
        else:
            out[rows[:f], n * n : (n + 1) ** 2] = coefficients[:, None] * columns[n][n + m]
    return out


def rotation_blocks(n_max: int, theta: float, phi: float) -> list[np.ndarray]:
    """Per-degree rotation matrices D_n of Rz(phi) Ry(theta), which takes +z
    to the direction (theta, phi).

    D_n satisfies Y_n^m(q @ v) = sum_m' D_n[m'+n, m+n] Y_n^m'(v) for that
    rotation q; stacking the blocks diagonally rotates a coefficient vector
    into the frame where a field f(r) is re-read as f(q @ u).  The closed
    form is D_n = exp(i theta L_y) diag(e^{i m phi}), with L_y the Hermitian
    angular-momentum matrix of degree n, exponentiated exactly through its
    eigendecomposition L_y = V diag(mu) V^H.
    """
    blocks = []
    for n in range(n_max + 1):
        mu, v = _ly_eigenbasis(n)
        ry = (v * np.exp(1j * theta * mu)) @ v.conj().T
        blocks.append(ry * np.exp(1j * np.arange(-n, n + 1) * phi))
    return blocks


@lru_cache(maxsize=None)  # one entry per degree: at most the size of one rotation's blocks
def _ly_eigenbasis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the degree-n L_y, which depends on n alone (read-only)."""
    m = np.arange(-n, n)
    raise_op = np.diag(np.sqrt((n - m) * (n + m + 1.0)), -1)  # L+, m -> m+1
    mu, v = np.linalg.eigh((raise_op - raise_op.T) / 2j)
    mu.flags.writeable = v.flags.writeable = False  # shared by every caller
    return mu, v


def _translation(kind: str, t, k: float, n_src: int, n_dst: int) -> np.ndarray:
    t = np.asarray(t, dtype=float).reshape(3)
    if n_src < 0 or n_dst < 0:
        raise ValueError("truncation degrees must be non-negative")
    if k <= 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    dist = float(np.linalg.norm(t))
    if dist == 0.0 and kind == "SR":
        raise DegenerateDisplacementError("S|R translation requires a nonzero displacement")
    if dist == 0.0 or abs(t[2] / dist - 1.0) < 1e-15:
        # coaxial, the same in the pair basis; at dist 0 (R|R) the recurrences give the identity
        return _coaxial_matrix(kind, dist, k, n_src, n_dst)
    # conjugate by the block-diagonal rotation composed with the pair change, (D P)^H coax (D P)
    _, theta, phi = cart_to_sph(t / dist)
    blocks = rotation_blocks(max(n_src, n_dst), theta, phi)
    for n, d in enumerate(blocks):
        _orders_to_pairs(d, n)  # D_n P_n: the pair change on D_n's columns
    entries = _coaxial_matrix(kind, dist, k, n_src, n_dst, columns=blocks)
    for n, d in enumerate(blocks[: n_dst + 1]):
        sl = slice(n * n, (n + 1) ** 2)
        entries[sl] = d.conj().T @ entries[sl]
    return entries


def rr_translation(t, k: float, n_src: int, n_dst: int) -> np.ndarray:
    """Regular-to-regular re-expansion about an origin displaced by ``t``: the (L_dst, L_src) pair-basis matrix."""
    return _translation("RR", t, k, n_src, n_dst)


def sr_translation(t, k: float, n_src: int, n_dst: int) -> np.ndarray:
    """Singular-to-regular re-expansion, valid for |r - c_dst| < |t|: the (L_dst, L_src) pair-basis matrix."""
    return _translation("SR", t, k, n_src, n_dst)
