"""Re-expansion (translation) operators, checked against direct field evaluation
and independent Gaunt-coefficient sums built from Wigner 3-j symbols."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn, spherical_yn

from mshoa.basis import (
    cart_to_sph,
    degrees_upto,
    num_coeffs,
    regular_basis_matrix,
    singular_basis_matrix,
)
from mshoa.scene import plane_wave_coeffs
from mshoa.translation import (
    DegenerateDisplacementError,
    _coaxial_matrix,
    rotation_blocks,
    rr_translation,
    sr_translation,
)
from tests.conftest import random_unit_vectors
from tests.oracles import orders_upto, pack_index, pairs_both_axes, sph_harm, standard_translation


# +z takes the coaxial shortcut, -z is the rotation with theta = pi, and the
# last is a hair off -z
AXIAL = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-9, 0.0, -1.0]])


def _random_singular_coeffs(rng, n_src):
    v = rng.normal(size=num_coeffs(n_src)) + 1j * rng.normal(size=num_coeffs(n_src))
    return v


@lru_cache(maxsize=None)
def _gaunt_integrals(n_src, n_dst):
    """I[p, (l, m'), (n, m)] = int Y_p^(m'-m) Y_n^m conj(Y_l^m') dOmega, from Wigner 3-j
    symbols as (-1)^m' gaunt(p, n, l, m' - m, m, -m'); zero unless p + l + n is
    even, |l - n| <= p <= l + n and |m' - m| <= p."""
    from sympy.physics.wigner import gaunt

    out = np.zeros((n_src + n_dst + 1, num_coeffs(n_dst), num_coeffs(n_src)))
    for l in range(n_dst + 1):
        for mp in range(-l, l + 1):
            for n in range(n_src + 1):
                for m in range(-n, n + 1):
                    for p in range(max(abs(l - n), abs(mp - m)), l + n + 1):
                        if (p + l + n) % 2 == 0:
                            out[p, pack_index(l, mp), pack_index(n, m)] = (-1) ** mp * float(gaunt(p, n, l, mp - m, m, -mp))
    return out


def _gaunt_translation(kind, t, k, n_src, n_dst):
    """The translation by ``t`` in the standard order as Gaunt sums:
    T_(l,m'),(n,m) = 4 pi sum_p i^(l+p-n) f_p(k|t|) conj(Y_p^(m'-m)(t/|t|)) I[p, (l,m'), (n,m)],
    with f = j for R|R and f = h for S|R (the plane-wave expansion of
    R_n^m(r + t) = j_n Y_n^m, read one harmonic at a time)."""
    t = np.asarray(t, dtype=float)
    dist = np.linalg.norm(t)
    _, theta, phi = cart_to_sph(t / dist)
    ps = np.arange(n_src + n_dst + 1)
    fp = spherical_jn(ps, k * dist)
    if kind == "SR":
        fp = fp + 1j * spherical_yn(ps, k * dist)
    l, n = degrees_upto(n_dst)[:, None], degrees_upto(n_src)[None, :]
    mu = orders_upto(n_dst)[:, None] - orders_upto(n_src)[None, :]
    total = np.zeros(mu.shape, dtype=complex)
    for p in ps:
        y = np.array([np.conj(sph_harm(p, int(m), theta, phi)) if abs(m) <= p else 0.0 for m in mu.ravel()])
        total += np.array([1, 1j, -1, -1j])[(l + p - n) % 4] * fp[p] * y.reshape(mu.shape) * _gaunt_integrals(n_src, n_dst)[p]
    return 4 * np.pi * total


@pytest.mark.parametrize("kind", ["RR", "SR"])
@pytest.mark.parametrize("n_src, n_dst", [(3, 4), (4, 3)])
def test_coaxial_matrix_against_wigner_gaunt_sums(kind, n_src, n_dst):
    """Whole coaxial matrices equal the Gaunt sums at t = d zhat, where only
    Y_p^0(zhat) = sqrt((2p+1)/(4 pi)) is nonzero, so orders that differ do
    not couple."""
    k, dist = 3.0, 0.7
    ref = _gaunt_translation(kind, [0.0, 0.0, dist], k, n_src, n_dst)
    got = _coaxial_matrix(kind, dist, k, n_src, n_dst)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind, translate", [("RR", rr_translation), ("SR", sr_translation)], ids=["RR", "SR"])
@pytest.mark.parametrize("n_src, n_dst", [(3, 4), (4, 3)])
@pytest.mark.parametrize(
    "t",
    [[0.0, 0.0, 0.7], [0.0, 0.0, -0.7], [0.3, -0.4, 0.5], [0.5, 0.45, 0.0]],
    ids=["plus_z", "minus_z", "general", "in_plane"],
)
def test_translations_are_the_pair_basis_gaunt_sums(kind, translate, n_src, n_dst, t):
    """S|R and R|R are the Gaunt sums with the pair change on both axes, to
    1e-13 of their largest entry, as the coaxial matrices are.  Along +z
    that change is the whole conversion: a coaxial matrix gives +m and -m
    one coefficient, so it is the same matrix in both bases."""
    k = 3.0
    ref = pairs_both_axes(_gaunt_translation(kind, t, k, n_src, n_dst), n_src, n_dst)
    got = translate(t, k, n_src, n_dst)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))
    if t[0] == t[1] == 0 < t[2]:
        np.testing.assert_array_equal(got, _coaxial_matrix(kind, t[2], k, n_src, n_dst))


def test_high_order_sr_entry_against_mpmath():
    """The S|R entry (l, n, m) = (16, 16, 16) of a full-scale planar-grid
    neighbour pair (f = 4 kHz, d = 0.25 m) against a 60-digit Gaunt sum."""
    import mpmath as mp
    from sympy.physics.wigner import gaunt

    l = n = m = 16
    k = 2 * np.pi * 4000 / 343.0
    with mp.workdps(60):
        x = 2 * mp.pi * 4000 / 343 * mp.mpf("0.25")
        total = mp.mpc(0)
        for p in range(0, l + n + 1, 2):  # odd p + l + n gives zero
            hp = mp.sqrt(mp.pi / (2 * x)) * (mp.besselj(p + 0.5, x) + 1j * mp.bessely(p + 0.5, x))
            g = mp.mpf(gaunt(p, l, n, 0, m, -m).evalf(70))
            g *= (-1) ** m * mp.sqrt(4 * mp.pi / (2 * p + 1)) / (2 * mp.pi)
            total += mp.mpc(0, 1) ** p * (2 * p + 1) * hp * g
        ref = complex(2 * mp.pi * mp.mpc(0, 1) ** (l - n) * total)
    got = _coaxial_matrix("SR", 0.25, k, 16, 16)[l * l + l + m, n * n + n + m]
    assert abs(ref) == pytest.approx(3.127e-3, rel=1e-3)
    assert abs(got - ref) < 1e-12 * abs(ref)


def test_zero_translation_is_identity():
    """R|R by zero is the coaxial recurrences at kd = 0: exactly the identity
    on the common degrees and zero beyond, at the shapes the builds use
    ((n_src, n_dst) = (45, 16), (55, 20)) and their transposes."""
    t = rr_translation([0.0, 0.0, 0.0], 2.0, 4, 4)
    np.testing.assert_array_equal(t, np.eye(num_coeffs(4)))
    for n_src, n_dst in ((2, 5), (45, 16), (16, 45), (55, 20), (25, 12), (5, 8)):
        common = num_coeffs(min(n_src, n_dst))
        identity = np.zeros((num_coeffs(n_dst), num_coeffs(n_src)))
        identity[:common, :common] = np.eye(common)
        assert np.array_equal(rr_translation([0.0, 0.0, 0.0], 2.0, n_src, n_dst), identity)


def test_sr_zero_displacement_rejected():
    with pytest.raises(DegenerateDisplacementError):
        sr_translation([0.0, 0.0, 0.0], 2.0, 3, 3)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        rr_translation([1.0, 0.0, 0.0], -2.0, 3, 3)
    with pytest.raises(ValueError):
        rr_translation([1.0, 0.0, 0.0], 2.0, -1, 3)


def test_coaxial_order_symmetry():
    m = _coaxial_matrix("SR", 0.7, 3.0, 5, 5)
    for n in range(1, 6):
        for l in range(1, 6):
            for mm in range(1, min(n, l) + 1):
                a = m[l * l + l + mm, n * n + n + mm]
                b = m[l * l + l - mm, n * n + n - mm]
                assert a == b


def test_rr_preserves_plane_wave_field(rng):
    """A regular expansion of a plane wave, re-expanded about a shifted origin,
    must still reproduce the plane wave near the new origin."""
    k = 5.0
    n_src = n_dst = 24
    ts = np.vstack([rng.normal(size=(4, 3)) * 0.4, 0.3 * AXIAL])
    for khat, t in zip(random_unit_vectors(rng, len(ts)), ts):
        a = plane_wave_coeffs(khat, k, n_src)
        moved = standard_translation(rr_translation, t, k, n_src, n_dst) @ a.values
        pts = t + 0.1 * random_unit_vectors(rng, 12) * rng.uniform(0.2, 1, (12, 1))
        direct = np.exp(1j * k * pts @ khat)
        series = regular_basis_matrix(n_dst, k, pts, t) @ moved
        assert np.max(np.abs(series - direct) / np.abs(direct)) < 1e-10


def test_sr_matches_direct_singular_field(rng):
    """A radiating expansion re-read as a regular expansion about a displaced
    origin reproduces the original field inside the valid sphere."""
    k = 4.0
    n_src, n_dst = 8, 30
    randoms = random_unit_vectors(rng, 3) * rng.uniform(0.8, 1.5, (3, 1))
    for t in np.vstack([randoms, 1.2 * AXIAL]):
        a = _random_singular_coeffs(rng, n_src)
        local = standard_translation(sr_translation, t, k, n_src, n_dst) @ a
        pts = t + 0.2 * np.linalg.norm(t) * random_unit_vectors(rng, 15)
        direct = singular_basis_matrix(n_src, k, pts, np.zeros(3)) @ a
        series = regular_basis_matrix(n_dst, k, pts, t) @ local
        assert np.max(np.abs(series - direct) / np.max(np.abs(direct))) < 1e-10


def test_rr_inverse_on_inner_block(rng):
    k = 3.0
    t = np.array([0.21, -0.33, 0.14])
    n_big, n_small = 22, 6
    fwd = rr_translation(t, k, n_big, n_big)
    back = rr_translation(-t, k, n_big, n_big)
    prod = back @ fwd
    inner = num_coeffs(n_small)
    assert np.max(np.abs(prod[:inner, :inner] - np.eye(inner))) < 1e-8


def test_rotation_blocks_are_unitary_and_consistent(rng):
    """D_n is unitary and satisfies Y(q v) = Y(v) D for q = Rz(phi) Ry(theta),
    including the poles theta = 0 and theta = pi."""
    from mshoa.basis import sph_harm_matrix

    for n_max, theta in [(5, 1.1), (45, 1.1), (5, 0.0), (45, 0.0), (5, np.pi), (45, np.pi)]:
        phi = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(phi), np.sin(phi)
        rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        c, s = np.cos(theta), np.sin(theta)
        ry = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        q = rz @ ry
        blocks = rotation_blocks(n_max, theta, phi)
        assert len(blocks) == n_max + 1
        pts = random_unit_vectors(rng, 10)
        _, th, ph = cart_to_sph(pts)
        _, th_r, ph_r = cart_to_sph(pts @ q.T)
        y = sph_harm_matrix(n_max, th, ph)
        y_rot = sph_harm_matrix(n_max, th_r, ph_r)
        for n, d in enumerate(blocks):
            assert np.max(np.abs(d.conj().T @ d - np.eye(2 * n + 1))) < 1e-12
            sl = slice(n * n, (n + 1) ** 2)
            np.testing.assert_allclose(y_rot[:, sl], y[:, sl] @ d, atol=1e-12)


def test_rotation_blocks_match_the_uncached_eigenbasis(rng):
    """The per-degree cached L_y eigenbasis gives the blocks the inline
    eigendecomposition gives, to the bit, and cannot be written through."""
    from mshoa.translation import _ly_eigenbasis

    def inline(n_max, theta, phi):
        blocks = []
        for n in range(n_max + 1):
            m = np.arange(-n, n)
            raise_op = np.diag(np.sqrt((n - m) * (n + m + 1.0)), -1)
            mu, v = np.linalg.eigh((raise_op - raise_op.T) / 2j)
            ry = (v * np.exp(1j * theta * mu)) @ v.conj().T
            blocks.append(ry * np.exp(1j * np.arange(-n, n + 1) * phi))
        return blocks

    for theta, phi in [(0.0, 0.0), (np.pi, 1.3), *zip(rng.uniform(0, np.pi, 3), rng.uniform(0, 2 * np.pi, 3))]:
        for cached, reference in zip(rotation_blocks(45, theta, phi), inline(45, theta, phi), strict=True):
            np.testing.assert_array_equal(cached, reference)
    mu, v = _ly_eigenbasis(3)
    with pytest.raises(ValueError):
        v[0, 0] = 1.0


def test_translation_metadata():
    t = sr_translation([0.0, 0.4, 0.3], 2.0, 3, 7)
    assert t.shape == (num_coeffs(7), num_coeffs(3))


def _cross_parity(matrix, n_src, n_dst):
    """The entries of a (L_dst, L_src) translation that couple n + m even to odd, as a flat array."""

    def odd(n):
        return (np.arange(num_coeffs(n)) - degrees_upto(n) ** 2) % 2  # n + m = l - n^2

    return matrix[odd(n_dst)[:, None] != odd(n_src)[None, :]]


@settings(max_examples=40, deadline=None)
@given(
    translate=st.sampled_from([rr_translation, sr_translation]),
    phi=st.floats(0.0, 2 * np.pi),
    kd=st.floats(0.5, 30.0),
    n_src=st.integers(0, 12),
    n_dst=st.integers(0, 12),
)
def test_in_plane_translations_keep_z_parity(translate, phi, kd, n_src, n_dst):
    """A displacement in the plane z = 0 commutes with z -> -z, which
    multiplies Y_n^m by (-1)^(n+m): it couples no even n + m to an odd one,
    which is what lets a planar grid's coupled system split in two."""
    k = 10.0
    t = kd / k * np.array([np.cos(phi), np.sin(phi), 0.0])
    matrix = translate(t, k, n_src, n_dst)
    assert np.max(np.abs(_cross_parity(matrix, n_src, n_dst)), initial=0.0) <= 1e-13 * np.max(np.abs(matrix))


@pytest.mark.parametrize("translate", [rr_translation, sr_translation])
def test_off_plane_translations_couple_the_parities(translate):
    matrix = translate([0.1, -0.05, 0.2], 10.0, 6, 6)
    assert np.max(np.abs(_cross_parity(matrix, 6, 6))) >= 0.1 * np.max(np.abs(matrix))
