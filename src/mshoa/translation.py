"""Translation operators between spherical expansion origins.

A translation matrix T for displacement t (source origin -> destination
origin) re-expands a field so that its value is preserved:

    sum_l' (T a)_l' F_l'(r - c_dst) = sum_l a_l F_l(r - c_src)

with F the regular basis for R|R, and the regular re-expansion of the
singular basis for S|R (valid for |r - c_dst| < |t|).

Assembly goes through the coaxial (z-aligned) case, where only equal orders
couple and the coefficients reduce to finite Gegenbauer-type sums

    T^m_{l,n}(d zhat) = 2 pi i^(l-n) sum_p i^p (2p+1) f_p(kd) G_{p,l,n}^m,

with f = j for R|R and f = h for S|R, and G the overlap integrals of a
Legendre polynomial with two orthonormalized associated Legendre functions.
The G integrals are polynomial and evaluated exactly by Gauss-Legendre
quadrature; they are cached per truncation pair.  General displacements are
handled by conjugating with per-degree spherical-harmonic rotation matrices
(Wigner D), evaluated in closed form as the exponential of the tridiagonal
angular-momentum matrix through its exact eigendecomposition (Feng et al.,
Phys. Rev. E 92, 043307, 2015).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_legendre, spherical_jn, spherical_yn

from .basis import cart_to_sph, norm_legendre_triangle, num_coeffs


class DegenerateDisplacementError(ValueError):
    """S|R translation with zero displacement has no valid region."""


@lru_cache(maxsize=32)
def _gaunt_tensors(n_dst: int, n_src: int) -> tuple:
    """Overlap integrals G^m[p, l, n] = int_-1^1 P_p Pbar_l^m Pbar_n^m dx.

    Returned as a tuple (indexed by m) of arrays with l in m..n_dst and
    n in m..n_src; p runs over 0..n_dst+n_src.
    """
    p_max = n_dst + n_src
    # integrand degree <= 2*(n_dst+n_src); need >= (deg+1)/2 nodes
    nodes = p_max + 1 + (p_max + 1) % 2
    xg, wg = leggauss(max(nodes, 2))
    pleg = eval_legendre(np.arange(p_max + 1)[:, None], xg[None, :])  # (p, j)
    tri_d = norm_legendre_triangle(n_dst, xg)
    tri_s = tri_d if n_src == n_dst else norm_legendre_triangle(n_src, xg)

    def row(tri, n, m):
        return tri[n * (n + 1) // 2 + m]

    out = []
    for m in range(min(n_dst, n_src) + 1):
        pl = np.stack([row(tri_d, l, m) for l in range(m, n_dst + 1)])  # (L, j)
        pn = np.stack([row(tri_s, n, m) for n in range(m, n_src + 1)])  # (N, j)
        g = np.einsum("pj,lj,nj,j->pln", pleg, pl, pn, wg, optimize=True)
        # selection rules: |l-n| <= p <= l+n with even p+l+n; quadrature
        # roundoff outside that window would otherwise be amplified by h_p
        ps = np.arange(p_max + 1)[:, None, None]
        ls = np.arange(m, n_dst + 1)[None, :, None]
        ns = np.arange(m, n_src + 1)[None, None, :]
        valid = (ps >= np.abs(ls - ns)) & (ps <= ls + ns) & ((ps + ls + ns) % 2 == 0)
        g[~valid] = 0.0
        out.append(g)
    return tuple(out)


def _coaxial_matrix(kind: str, dist: float, k: float, n_src: int, n_dst: int) -> np.ndarray:
    """Translation matrix for displacement ``dist`` along +z."""
    p_max = n_dst + n_src
    ps = np.arange(p_max + 1)
    x = k * dist
    if kind == "RR":
        fp = spherical_jn(ps, x)
    else:
        fp = spherical_jn(ps, x) + 1j * spherical_yn(ps, x)
    weights = 2.0 * np.pi * (1j) ** ps * (2.0 * ps + 1.0) * fp

    gaunt = _gaunt_tensors(n_dst, n_src)
    out = np.zeros((num_coeffs(n_dst), num_coeffs(n_src)), dtype=complex)
    for m in range(min(n_dst, n_src) + 1):
        ls = np.arange(m, n_dst + 1)
        ns = np.arange(m, n_src + 1)
        block = np.einsum("p,pln->ln", weights, gaunt[m], optimize=True)
        block = block * (1j) ** ls[:, None] * (1j) ** (-ns[None, :])
        rows = ls * ls + ls + m
        cols = ns * ns + ns + m
        out[np.ix_(rows, cols)] = block
        if m > 0:
            # coaxial coefficients are identical for +m and -m
            out[np.ix_(ls * ls + ls - m, ns * ns + ns - m)] = block
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
    if dist == 0.0:
        if kind == "SR":
            raise DegenerateDisplacementError(
                "S|R translation requires a nonzero displacement"
            )
        entries = np.zeros((num_coeffs(n_dst), num_coeffs(n_src)), dtype=complex)
        ncom = num_coeffs(min(n_src, n_dst))
        entries[:ncom, :ncom] = np.eye(ncom)
        return entries

    that = t / dist
    entries = _coaxial_matrix(kind, dist, k, n_src, n_dst)
    if abs(that[2] - 1.0) >= 1e-15:
        # conjugate by the block-diagonal rotation, D^H coax D, one degree at a time
        _, theta, phi = cart_to_sph(that)
        for n, d in enumerate(rotation_blocks(max(n_src, n_dst), theta, phi)):
            sl = slice(n * n, (n + 1) ** 2)
            if n <= n_src:
                entries[:, sl] = entries[:, sl] @ d
            if n <= n_dst:
                entries[sl, :] = d.conj().T @ entries[sl, :]
    return entries


def rr_translation(t, k: float, n_src: int, n_dst: int) -> np.ndarray:
    """Regular-to-regular re-expansion about an origin displaced by ``t``: the (L_dst, L_src) matrix."""
    return _translation("RR", t, k, n_src, n_dst)


def sr_translation(t, k: float, n_src: int, n_dst: int) -> np.ndarray:
    """Singular-to-regular re-expansion, valid for |r - c_dst| < |t|: the (L_dst, L_src) matrix."""
    return _translation("SR", t, k, n_src, n_dst)
