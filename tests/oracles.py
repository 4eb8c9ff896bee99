"""Reference implementations the tests compare the library against.

No experiment runs these: each is the direct, one-value-at-a-time or
closed-form counterpart of something ``mshoa`` computes another way, or a
physical check (the rigid-boundary residual) that only the tests evaluate.
The coupled system is built whole, I - SR G with every S|R translation
built anew, and the mirror classes the library solves instead are given as
dense bases, each unknown's from its spheres' class weights on the
oracle's own pair-basis matrix, with reflections
fitted from the harmonics themselves, so a test can check that each class
is closed under the scene's reflections and that its system is the whole
system's projection.  The same pair-basis matrix checks the library's
in-place pair transform along any axis.  The library's translations are
in the pair basis; the references here take them to the standard order.
"""

from pathlib import Path

import numpy as np
from scipy.special import spherical_jn, spherical_yn

from mshoa.basis import (
    BasisDomainError,
    _to_pairs,
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
from mshoa.matio import _HEADER, DTYPE_COMPLEX128, MAGIC, VERSION
from mshoa.scatter import rigid_scatter_gain
from mshoa.scene import SceneError
from mshoa.translation import rr_translation, sr_translation


def sph_bessel_j(n, x, derivative: bool = False):
    """The library's spherical Bessel function j_n(x) (or its derivative, Re h'_n(x), at x > 0) at an
    order ``n``, or at an array of orders and one ``x``: one row of its all-orders evaluator."""
    if derivative:
        return sph_hankel1(n, x, derivative).real
    return sph_bessel_j_upto(int(np.max(n)), x)[n]


def sph_hankel1(n, x, derivative: bool = False):
    """The library's spherical Hankel function h_n = j_n + i y_n (or its derivative), ``n`` as in :func:`sph_bessel_j`."""
    return sph_hankel1_upto(int(np.max(n)), x, derivative)[n]


def pack_index(n: int, m: int) -> int:
    """Flat index l = n^2 + n + m of the (n, m) harmonic."""
    return n * n + n + m


def orders_upto(n_max: int) -> np.ndarray:
    """Array of length (n_max+1)^2 holding the order m of each flat index."""
    out = np.empty(num_coeffs(n_max), dtype=int)
    for n in range(n_max + 1):
        out[n * n : (n + 1) ** 2] = np.arange(-n, n + 1)
    return out


def sph_harm(n: int, m: int, theta, phi):
    """Orthonormal complex spherical harmonic Y_n^m(theta, phi), one (n, m) at a time.

    Negative orders follow the conjugation symmetry
    Y_n^{-m} = (-1)^m conj(Y_n^m).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    pbar = norm_legendre_triangle(n, np.cos(theta))[n * (n + 1) // 2 + ma]
    val = pbar * np.exp(1j * m * phi)
    if m < 0 and ma % 2:
        val = -val
    return val


def basis_gradient_matrix(kind: str, n_max: int, k: float, points: np.ndarray, center) -> np.ndarray:
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
        fp = spherical_jn(ns, kr, derivative=True) + 1j * spherical_yn(ns, kr, derivative=True)

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
    that = np.stack([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -st], axis=-1)
    phat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)

    fr = f[degs].T  # (P, L)
    fpr = fp[degs].T
    radial = (k * fpr * ymat)[:, :, None] * rhat[:, None, :]
    polar = (fr * dtheta / r[:, None])[:, :, None] * that[:, None, :]
    azim = (fr * ymat * (1j * ords[None, :]) / (r * st)[:, None])[:, :, None] * phat[:, None, :]
    return radial + polar + azim


def pairs_both_axes(matrix: np.ndarray, n_src: int, n_dst: int) -> np.ndarray:
    """A (L_dst, L_src) translation ``matrix`` with the pair change applied in place to both axes: it takes a
    standard-order matrix to the pair basis and, being its own inverse, a pair-basis one back."""
    _to_pairs(matrix.T, n_dst)
    return _to_pairs(matrix, n_src)


def standard_translation(translate, t, k: float, n_src: int, n_dst: int) -> np.ndarray:
    """The library's ``translate`` (``rr_translation`` or ``sr_translation``) in the standard (n, m) order on both sides."""
    return pairs_both_axes(translate(t, k, n_src, n_dst), n_src, n_dst)


def coupled_system_matrix(scene) -> np.ndarray:
    """The whole coupled system I - SR G for the stacked local fields c, as one dense array.

    Assembled block by block, every S|R translation built anew and taken to
    the standard order: block (s, t) is -SR(c_s - c_t) diag(G_t) and the
    diagonal blocks are the identity.  The library solves only its
    projections on the scene's mirror classes (:func:`mirror_class_bases`),
    W^T (I - SR G) W per class.
    """
    k, n, lf = scene.k, scene.n_fwd, num_coeffs(scene.n_fwd)
    gains = [rigid_scatter_gain(k, s.radius, n) for s in scene.spheres]
    return np.block(
        [
            [
                np.eye(lf) if a is b else -standard_translation(sr_translation, a.center - b.center, k, n, n) * gains[t][None, :]
                for t, b in enumerate(scene.spheres)
            ]
            for a in scene.spheres
        ]
    )


def reflection_matrix(n_max: int, axis: int) -> np.ndarray:
    """The (L, L) matrix M that reflects coefficients across the coordinate plane of ``axis``.

    A field with coefficients a about c, reflected (x -> P x), has
    coefficients M a about P c: M is fitted from Y(P u) = Y(u) M by least
    squares on 4L directions, so it holds no assumed sign rule.
    """
    dirs = np.random.default_rng(1).standard_normal((4 * num_coeffs(n_max), 3))
    flipped = dirs.copy()
    flipped[:, axis] *= -1.0
    y, y_flipped = (sph_harm_matrix(n_max, *cart_to_sph(d)[1:]) for d in (dirs, flipped))
    return np.linalg.lstsq(y, y_flipped, rcond=None)[0]


def pair_basis(n_max: int) -> np.ndarray:
    """The orthogonal matrix whose columns are the +-m pair basis, one entry at a time.

    Column (n, 0) is e_{n,0}; for m > 0, column (n, m) is (e_{n,m} + e_{n,-m}) / sqrt 2
    and column (n, -m) is (e_{n,m} - e_{n,-m}) / sqrt 2.
    """
    basis = np.zeros((num_coeffs(n_max), num_coeffs(n_max)))
    for n in range(n_max + 1):
        basis[pack_index(n, 0), pack_index(n, 0)] = 1.0
        for m in range(1, n + 1):
            plus, minus = pack_index(n, m), pack_index(n, -m)
            basis[[plus, minus, plus, minus], [plus, plus, minus, minus]] = np.array([1.0, 1.0, 1.0, -1.0]) / np.sqrt(2)
    return basis


def mirror_class_bases(scene, cls) -> tuple[np.ndarray, np.ndarray]:
    """A mirror class's bases as dense columns: of the stacked unknowns and of the incident coefficients.

    Unknown j of the class is the sum over its orbit's spheres of
    weights[j] times that sphere's pair-basis vector local[j], with
    (rows, local, weights) the sphere's entry of the class's ``members``;
    incident column j is the pair-basis vector incident[j].
    """
    lf = num_coeffs(scene.n_fwd)
    local_pairs = pair_basis(scene.n_fwd)
    unknowns = np.zeros((scene.num_spheres * lf, cls.size))
    for s, (rows, local, weights) in enumerate(cls.members):
        unknowns[s * lf : (s + 1) * lf, rows] = local_pairs[:, local] * weights
    return unknowns, pair_basis(scene.n_in)[:, cls.incident]


def local_incident_matrix(scene, n_build=None) -> np.ndarray:
    """Every sphere's R|R map to n_fwd in the standard order stacked, built at ``n_build`` (default n_fwd) and truncated."""
    n_build = scene.n_fwd if n_build is None else n_build
    lf = num_coeffs(scene.n_fwd)
    return np.vstack([standard_translation(rr_translation, s.center, scene.k, scene.n_in, n_build)[:lf] for s in scene.spheres])


def single_sphere_total_field(coeffs, radius: float, k: float, points: np.ndarray) -> np.ndarray:
    """Exact total field around one rigid sphere at the origin.

    p(r) = sum A_n^m [j_n(kr) - h_n(kr) j'_n(kR)/h'_n(kR)] Y_n^m for |r| >= R.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(points, axis=1)
    if np.any(r < radius * (1.0 - 1e-12)):
        raise SceneError("evaluation point inside the sphere")
    reg = regular_basis_matrix(coeffs.n_max, k, points, [0.0, 0.0, 0.0])
    sing = singular_basis_matrix(coeffs.n_max, k, points, [0.0, 0.0, 0.0])
    gain = rigid_scatter_gain(k, radius, coeffs.n_max)
    return reg @ coeffs.values + sing @ (gain * coeffs.values)


def eval_radial_derivative(scene, radiating, a_in, sphere_index: int, direction: np.ndarray) -> complex:
    """Normal derivative of the total field on a sphere surface point.

    ``radiating`` holds each sphere's radiating coefficients, one row per
    sphere, as ``forward_solve`` returns them.  Vanishes for a converged solve
    (rigid boundary condition).
    """
    direction = np.asarray(direction, dtype=float).reshape(3)
    direction = direction / np.linalg.norm(direction)
    sph = scene.spheres[sphere_index]
    point = (sph.center + sph.radius * direction)[None, :]
    k = scene.k
    grad = basis_gradient_matrix("regular", a_in.n_max, k, point, [0.0, 0.0, 0.0])[0]
    total = (a_in.values[:, None] * grad).sum(axis=0)
    for c, b in zip(scene.spheres, radiating):
        g = basis_gradient_matrix("singular", scene.n_fwd, k, point, c.center)[0]
        total = total + (b[:, None] * g).sum(axis=0)
    return complex(total @ direction)


def read_field_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read back a complex CSV grid; returns (values, header lines)."""
    header, rows = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line.strip():
            rows.append([complex(tok) for tok in line.split(",")])
    return np.array(rows, dtype=complex), header


def read_matrix(path) -> np.ndarray:
    """Read back a matrix file such as ``coefficients.bin``, asserting its magic, version, dtype tag and payload size."""
    data = Path(path).read_bytes()
    magic, version, dtype, rows, cols = _HEADER.unpack_from(data)
    assert (magic, version, dtype) == (MAGIC, VERSION, DTYPE_COMPLEX128), (magic, version, dtype)
    assert len(data) == _HEADER.size + 16 * rows * cols, (len(data), rows, cols)
    return np.frombuffer(data, dtype="<c16", offset=_HEADER.size).reshape(rows, cols).astype(complex)


def capture_warnings(caplog) -> list[str]:
    """The messages of a run's warnings that its capture check reads below the SDR threshold."""
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("the capture check reads")]
