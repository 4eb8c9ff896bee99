"""Special functions, spherical harmonics, and basis evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import factorial, lpmv, spherical_jn, spherical_yn

from mshoa.basis import (
    BasisDomainError,
    CoefficientVector,
    cart_to_sph,
    degrees_upto,
    norm_legendre_triangle,
    num_coeffs,
    regular_basis_matrix,
    singular_basis_matrix,
    sph_bessel_j_upto,
    sph_hankel1_upto,
    sph_harm_matrix,
)
from tests.oracles import basis_gradient_matrix, orders_upto, pack_index, sph_bessel_j, sph_hankel1, sph_harm

# Reference values computed with 30-digit arbitrary-precision arithmetic
# (half-integer Bessel functions and the normalized Legendre definition).
J2_AT_1 = 0.0620350520113739
DJ2_AT_1 = 0.115063522905635  # j_2'(1)
H1_AT_1 = 0.301168678939757 - 1.38177329067604j
Y11_AT_EQUATOR = -0.345494149471335
Y32_SPOT = -0.0840065624845168 + 0.115410152461118j  # Y_3^2(0.4, 1.1)
Y54_SPOT = 0.393428254475203 - 0.139875481080385j  # Y_5^4(2.0, 0.7)


def test_pack_unpack_bijection():
    degrees, orders = degrees_upto(64), orders_upto(64)
    l = 0
    for n in range(65):
        for m in range(-n, n + 1):
            assert pack_index(n, m) == l
            assert (degrees[l], orders[l]) == (n, m)
            l += 1
    assert num_coeffs(64) == l == degrees.size


def test_bessel_spot_values():
    assert sph_bessel_j(2, 1.0) == pytest.approx(J2_AT_1, rel=1e-12)
    assert sph_hankel1(1, 1.0) == pytest.approx(H1_AT_1, rel=1e-12)
    assert sph_hankel1_upto(2, 1.0, derivative=True)[2].real == pytest.approx(DJ2_AT_1, rel=1e-12)


def test_bessel_domain_errors():
    with pytest.raises(BasisDomainError):
        sph_hankel1(2, -1.0)
    with pytest.raises(BasisDomainError):
        sph_hankel1_upto(2, np.array([1.0, 0.0]))
    with pytest.raises(BasisDomainError):
        sph_bessel_j_upto(2, -1e-3)


RADIAL_ARGUMENTS = np.concatenate(
    [
        [0.0, 1e-8],
        np.geomspace(1e-8, 1.0, 60),
        np.linspace(1.0, 150.0, 2981),
        np.pi * np.arange(1, 48),  # the zeros of j_0
        np.arange(1.0, 101.0),  # x = n: the turning points
        np.arange(1.0, 101.0) * (1 - 1e-12),
        np.arange(1.0, 101.0) + 0.5,
    ]
)


def test_radial_functions_match_scipy_within_the_envelope():
    """Every order n <= 100 of j_n, y_n and their derivatives (j'_n as Re h'_n), at x from 0
    and 1e-8 up to 150, the zeros of j_0 and x ~ n included, against
    scipy.special, is within 1e-13 of the envelope sqrt(f_j^2 + f_y^2) at
    that (n, x) (of j'_n and y'_n for the derivatives): measured 1.4e-14 for
    j_n and 7.0e-14 for j'_n, both at n ~ x, where scipy's own error is that
    size (see test_radial_functions_at_the_turning_point_against_mpmath).
    Orders whose y_n overflows are left out, as is x = 0 for all but j_n."""
    x, n = RADIAL_ARGUMENTS, np.arange(101)[:, None]
    j = sph_bessel_j_upto(100, x)
    h, hd = sph_hankel1_upto(100, x[1:]), sph_hankel1_upto(100, x[1:], derivative=True)
    with np.errstate(over="ignore", invalid="ignore"):
        y, yd = spherical_yn(n, x[1:]), spherical_yn(n, x[1:], derivative=True)
        envelope, slope = np.hypot(spherical_jn(n, x[1:]), y), np.hypot(spherical_jn(n, x[1:], True), yd)
        finite = np.isfinite(envelope) & np.isfinite(slope)
    for ours, reference, scale in (
        (j[:, 1:], spherical_jn(n, x[1:]), envelope),
        (h.real, spherical_jn(n, x[1:]), envelope),
        (hd.real, spherical_jn(n, x[1:], True), slope),
        (h.imag, y, envelope),
        (hd.imag, yd, slope),
    ):
        with np.errstate(invalid="ignore"):  # inf - inf where y_n overflows, left out
            gap = np.abs(ours - reference)[finite] / scale[finite]
        assert np.max(gap) < 1e-13
    assert np.array_equal(j[:, 0], np.arange(101) == 0)  # j_n(0) = delta_n0


def test_radial_functions_at_the_turning_point_against_mpmath():
    """At x ~ n, where the upward recurrence hands over to the continued
    fraction, j_n and j'_n are within 1e-14 of the envelope of a 40-digit
    reference."""
    import mpmath as mp

    for n, x in ((81, 81.0), (85, 84.03273333333334), (45, 45.5), (45, 44.5), (100, 100.0)):
        with mp.workdps(40):
            j = lambda t: mp.sqrt(mp.pi / (2 * t)) * mp.besselj(n + mp.mpf(1) / 2, t)  # noqa: E731
            h = lambda t: mp.sqrt(mp.pi / (2 * t)) * mp.hankel1(n + mp.mpf(1) / 2, t)  # noqa: E731
            t = mp.mpf(x)
            reference = (float(j(t)), float(mp.diff(j, t)))
            envelope = (float(abs(h(t))), float(abs(mp.diff(h, t))))
        ours = (sph_bessel_j_upto(n, x)[n], sph_hankel1_upto(n, x, derivative=True)[n].real)
        for value, exact, scale in zip(ours, reference, envelope):
            assert abs(value - exact) < 1e-14 * scale


def test_radial_functions_at_one_argument_match_the_array_path(rng):
    """Each point of a mixed 3000-point array, zero, tiny, order-crossing and
    large arguments in random order, gets at every order the bits it gets
    alone. The array path sorts its arguments, so this pins that no point
    depends on its neighbours, and that one argument runs the same path."""
    special = np.array([0.0, 1e-8, 0.5, 1.0, np.pi, 31.9999, 32.0, 61.0, 100.3, 150.0])
    x = rng.permutation(np.concatenate([special, rng.uniform(0, 80, 1495), rng.exponential(5, 1495)]))
    j, dj = sph_bessel_j_upto(32, x), sph_hankel1_upto(32, special[1:].reshape(-1, 1), True).real[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # y_n overflows at 1e-8
        dh = sph_hankel1_upto(32, x[x > 0], True)
        alone = [sph_hankel1_upto(32, v, True) for v in x[x > 0]]
    assert all(np.array_equal(sph_bessel_j_upto(32, v), j[:, i]) for i, v in enumerate(x))
    assert all(np.array_equal(sph_hankel1_upto(32, v, True).real, dj[:, i]) for i, v in enumerate(special[1:]))
    assert all(np.array_equal(one, dh[:, i], equal_nan=True) for i, one in enumerate(alone))


def test_wronskian_identity():
    """j_n(x) y'_n(x) - j'_n(x) y_n(x) = 1/x^2 for all n, x, with y_n = Im h_n."""
    x = np.concatenate([np.linspace(0.1, 1, 40), np.linspace(1, 100, 200)])
    for n in range(0, 61):
        w = sph_bessel_j(n, x) * sph_hankel1(n, x, derivative=True).imag - sph_bessel_j(
            n, x, derivative=True
        ) * sph_hankel1(n, x).imag
        assert np.max(np.abs(w * x * x - 1.0)) < 1e-10


def test_harmonic_spot_values():
    assert sph_harm(1, 1, np.pi / 2, 0.0) == pytest.approx(Y11_AT_EQUATOR, rel=1e-12)
    assert sph_harm(3, 2, 0.4, 1.1) == pytest.approx(Y32_SPOT, rel=1e-12)
    assert sph_harm(5, 4, 2.0, 0.7) == pytest.approx(Y54_SPOT, rel=1e-12)
    # Y_0^0 is the constant 1/sqrt(4 pi)
    assert sph_harm(0, 0, 1.2, 3.4) == pytest.approx(1.0 / np.sqrt(4 * np.pi))


def test_harmonic_conjugation_symmetry(rng):
    theta = rng.uniform(0.05, np.pi - 0.05, size=20)
    phi = rng.uniform(0, 2 * np.pi, size=20)
    for n in range(6):
        for m in range(0, n + 1):
            lhs = sph_harm(n, -m, theta, phi)
            rhs = (-1.0) ** m * np.conj(sph_harm(n, m, theta, phi))
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_harmonic_orthonormality():
    """<Y_n^m, Y_n'^m'> = delta delta under exact product quadrature, n <= 10."""
    n_max = 10
    xg, wg = leggauss(n_max + 1)
    n_phi = 2 * n_max + 1
    phig = np.arange(n_phi) * 2 * np.pi / n_phi
    th, ph = np.meshgrid(np.arccos(xg), phig, indexing="ij")
    w = np.repeat(wg[:, None], n_phi, axis=1).ravel() * (2 * np.pi / n_phi)
    y = sph_harm_matrix(n_max, th.ravel(), ph.ravel())
    gram = (y.conj() * w[:, None]).T @ y
    assert np.max(np.abs(gram - np.eye(num_coeffs(n_max)))) < 1e-10


def test_norm_legendre_matches_factorial_form():
    x = np.linspace(-0.999, 0.999, 31)
    tri = norm_legendre_triangle(12, x)
    for n in range(13):
        for m in range(n + 1):
            norm = np.sqrt(
                (2 * n + 1) / (4 * np.pi) * factorial(n - m) / factorial(n + m)
            )
            ref = norm * lpmv(m, n, x)
            np.testing.assert_allclose(tri[n * (n + 1) // 2 + m], ref, atol=1e-12)


def test_norm_legendre_high_degree_normalization():
    """At n = 80 the recurrence keeps each row unit-norm on [-1, 1]."""
    xg, wg = leggauss(120)
    tri = norm_legendre_triangle(80, xg)
    for m in (0, 1, 40, 80):
        row = tri[80 * 81 // 2 + m]
        assert 2 * np.pi * np.sum(wg * row * row) == pytest.approx(1.0, rel=1e-10)


def _sph_harm_matrix_by_column(n_max, theta, phi):
    """The column-by-column loop sph_harm_matrix replaced: the reference for its vectorised form."""
    pbar = norm_legendre_triangle(n_max, np.cos(theta))
    expp = np.exp(1j * np.outer(np.arange(n_max + 1), phi))
    out = np.empty((theta.size, num_coeffs(n_max)), dtype=complex)
    for n in range(n_max + 1):
        base = n * (n + 1) // 2
        for m in range(0, n + 1):
            out[:, pack_index(n, m)] = pbar[base + m] * expp[m]
            if m > 0:
                neg = pbar[base + m] * np.conj(expp[m])
                out[:, pack_index(n, -m)] = -neg if m % 2 else neg
    return out


@pytest.mark.parametrize("n_max", [0, 1, 6, 45])
def test_sph_harm_matrix_is_bit_identical_to_the_column_loop(rng, n_max):
    theta = np.concatenate([[0.0, np.pi, np.pi / 2], rng.uniform(0, np.pi, size=61)])
    phi = np.concatenate([[0.0, 1.0, 2 * np.pi - 1e-9], rng.uniform(0, 2 * np.pi, size=61)])
    fast = sph_harm_matrix(n_max, theta, phi)
    assert fast.flags["C_CONTIGUOUS"]
    assert np.array_equal(fast, _sph_harm_matrix_by_column(n_max, theta, phi))


def test_sph_harm_matrix_agrees_with_scalar(rng):
    theta = rng.uniform(0.05, np.pi - 0.05, size=7)
    phi = rng.uniform(0, 2 * np.pi, size=7)
    mat = sph_harm_matrix(4, theta, phi)
    for n in range(5):
        for m in range(-n, n + 1):
            np.testing.assert_allclose(
                mat[:, pack_index(n, m)], sph_harm(n, m, theta, phi), atol=1e-14
            )


@settings(max_examples=50, deadline=None)
@given(
    r=st.floats(0.1, 10),
    theta=st.floats(1e-3, np.pi - 1e-3),
    phi=st.floats(0, 2 * np.pi - 1e-9),
)
def test_coordinate_roundtrip(r, theta, phi):
    p = r * np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    r2, t2, p2 = cart_to_sph(p)
    assert r2 == pytest.approx(r, rel=1e-12)
    assert t2 == pytest.approx(theta, abs=1e-9)
    assert np.mod(p2 - phi, 2 * np.pi) == pytest.approx(0.0, abs=1e-6) or np.mod(
        phi - p2, 2 * np.pi
    ) == pytest.approx(0.0, abs=1e-6)


def test_cart_to_sph_axis_convention():
    r, theta, phi = cart_to_sph(np.array([0.0, 0.0, 2.0]))
    assert (r, theta, phi) == (2.0, 0.0, 0.0)
    r, theta, phi = cart_to_sph(np.array([0.0, -1.0, 0.0]))
    assert theta == pytest.approx(np.pi / 2)
    assert phi == pytest.approx(3 * np.pi / 2)


def test_coefficient_vector_validation():
    cv = CoefficientVector(k=2.0, n_max=3, values=np.zeros(16))
    assert cv.values.shape == (16,)
    with pytest.raises(ValueError):
        CoefficientVector(k=2.0, n_max=2, values=np.zeros(5))
    with pytest.raises(ValueError):
        CoefficientVector(k=-1.0, n_max=0, values=np.zeros(1))


def test_basis_matrices_match_scalar_eval(rng):
    k = 3.0
    center = np.array([0.2, -0.1, 0.4])
    pts = center + rng.normal(size=(5, 3))
    reg = regular_basis_matrix(3, k, pts, center)
    sing = singular_basis_matrix(3, k, pts, center)
    for n in range(4):
        for m in range(-n, n + 1):
            for i, p in enumerate(pts):
                r, theta, phi = cart_to_sph(p - center)
                y = sph_harm(n, m, theta, phi)
                assert reg[i, pack_index(n, m)] == pytest.approx(
                    sph_bessel_j(n, k * r) * y, abs=1e-14
                )
                assert sing[i, pack_index(n, m)] == pytest.approx(
                    sph_hankel1(n, k * r) * y, abs=1e-14
                )


def test_regular_basis_at_center():
    at_center = regular_basis_matrix(3, 2.0, [[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0])[0]
    assert at_center[pack_index(0, 0)] == pytest.approx(1.0 / np.sqrt(4 * np.pi))
    assert not at_center[1:].any()
    with pytest.raises(BasisDomainError):
        singular_basis_matrix(2, 2.0, np.zeros((1, 3)), [0, 0, 0])


def test_gradient_matches_finite_differences(rng):
    k = 2.5
    pts = rng.normal(size=(4, 3)) + np.array([1.0, 1.0, 0.5])
    h = 1e-6
    for kind, mat in (
        ("regular", regular_basis_matrix),
        ("singular", singular_basis_matrix),
    ):
        grad = basis_gradient_matrix(kind, 4, k, pts, [0.0, 0.0, 0.0])
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            fd = (mat(4, k, pts + e, [0, 0, 0]) - mat(4, k, pts - e, [0, 0, 0])) / (
                2 * h
            )
            np.testing.assert_allclose(grad[:, :, ax], fd, atol=5e-9)


def test_gradient_rejects_degenerate_points():
    with pytest.raises(BasisDomainError):
        basis_gradient_matrix("regular", 2, 1.0, np.array([[0.0, 0.0, 1.0]]), [0, 0, 0])
    with pytest.raises(BasisDomainError):
        basis_gradient_matrix("regular", 2, 1.0, np.zeros((1, 3)), [0, 0, 0])
    with pytest.raises(ValueError):
        basis_gradient_matrix("other", 2, 1.0, np.array([[1.0, 0.0, 0.0]]), [0, 0, 0])
