"""Single- and multi-sphere rigid scattering: system assembly, solve, evaluation."""

from __future__ import annotations

import itertools
import logging
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .basis import (
    CoefficientVector,
    degrees_upto,
    num_coeffs,
    regular_basis_matrix,
    singular_basis_matrix,
    sph_bessel_j,
    sph_hankel1,
    sph_harm_matrix,
    cart_to_sph,
)
from .scene import RsmaSpec, SceneConfig, SceneError

log = logging.getLogger(__name__)

RESIDUAL_SAMPLES = 16  # capsules per sphere on which the coupled T_F is checked against the multipole sum
FORWARD_PARTS = ("translation", "solve", "capsule", "residual")  # the timed parts of a forward build
# T_F rows filled per step: a step's class products land in T_F through
# temporaries, and ones this small reuse free heap instead of growing it
FILL_ROWS = 64
SQRT_HALF = np.sqrt(0.5)


class SolverError(RuntimeError):
    """Dense solve failed or the system is numerically singular."""


@dataclass
class ScatterSolution:
    """Per-sphere radiating (B) coefficients of a coupled solve."""

    radiating: list[CoefficientVector]
    rcond: float


@dataclass
class ForwardOperator:
    """Dense map from incident coefficients to total pressure at all capsules."""

    scene: SceneConfig
    matrix: np.ndarray = field(repr=False)
    rcond: float | None = None  # of the coupled system solved to build it; None if none was
    capsule_residual: float | None = None  # sampled gap to the multipole sum; None if not built from c

    def apply(self, coeffs: CoefficientVector) -> np.ndarray:
        if coeffs.n_max != self.scene.n_in:
            raise ValueError(
                f"expected incident truncation {self.scene.n_in}, got {coeffs.n_max}"
            )
        return self.matrix @ coeffs.values


def surface_response_matrix(sphere: RsmaSpec, k: float, n_c: int) -> np.ndarray:
    """Capsule response to incident coefficients about the sphere center.

    Entry (q, l) is i / ((kR)^2 h'_n(kR)) * Y_n^m(capsule direction): the total
    surface pressure on a rigid sphere per unit incident coefficient.
    """
    kr = k * sphere.radius
    if kr <= 0:
        raise ValueError("kR must be positive")
    _, theta, phi = cart_to_sph(sphere.capsule_dirs)
    y = sph_harm_matrix(n_c, theta, phi)
    hp = sph_hankel1(np.arange(n_c + 1), kr, derivative=True)
    gain = 1j / (kr * kr * hp[degrees_upto(n_c)])
    y *= gain[None, :]
    return y


def rigid_scatter_gain(k: float, radius: float, n_c: int) -> np.ndarray:
    """Per-mode scattering gain -j'_n(ka)/h'_n(ka), repeated over orders."""
    ka = k * radius
    ratio = -sph_bessel_j(np.arange(n_c + 1), ka, derivative=True) / sph_hankel1(
        np.arange(n_c + 1), ka, derivative=True
    )
    return ratio[degrees_upto(n_c)]


def _scatter_gains(scene: SceneConfig) -> np.ndarray:
    """Every sphere's :func:`rigid_scatter_gain` at ``n_fwd``, one row per sphere."""
    return np.array([rigid_scatter_gain(scene.k, sph.radius, scene.n_fwd) for sph in scene.spheres])


def _to_pairs(a: np.ndarray, n_max: int, axis: int = -1) -> np.ndarray:
    """``a`` with its coefficient index ``axis`` taken to the +-m pair basis, in place; returns ``a``.

    The pair basis holds e_{n,0} and, for m > 0, (e_{n,m} + e_{n,-m}) / sqrt 2
    at index (n, m) and (e_{n,m} - e_{n,-m}) / sqrt 2 at index (n, -m).  The
    change of basis is real, symmetric and orthogonal, so it is its own
    inverse: applying it again takes pair coordinates back.  It runs one
    degree at a time on slices of a view with the coefficient axis first,
    so its only temporaries are one degree's sums and differences.
    """
    coefficients = np.moveaxis(a, axis, 0)
    for n in range(1, n_max + 1):  # m = 1..n at n^2 + n + m, and m = -1..-n below n^2 + n
        plus, minus = coefficients[n * n + n + 1 : (n + 1) ** 2], coefficients[n * n + n - 1 : n * n - 1 : -1]
        plus *= SQRT_HALF
        minus *= SQRT_HALF
        plus[...], minus[...] = plus + minus, plus - minus
    return a


def _reflection_signs(n_max: int) -> np.ndarray:
    """(3, L) signs of every pair-basis harmonic under the reflections x -> -x, y -> -y, z -> -z.

    In this package's convention Y_n^m(theta, pi - phi) = Y_n^-m,
    Y_n^m(theta, -phi) = (-1)^m Y_n^-m and Y_n^m(pi - theta, phi) =
    (-1)^(n+m) Y_n^m, so each reflection is diagonal in the pair basis: the
    x sign is + at (n, m >= 0) and - at (n, m < 0), the y sign is that times
    (-1)^m, and the z sign is (-1)^(n+m) (Gumerov & Duraiswami, 2004,
    section 3.2).
    """
    n = degrees_upto(n_max)
    m = np.arange(n.size) - n * n - n
    side = np.where(m < 0, -1, 1)
    return np.stack([side, np.where(m % 2, -side, side), np.where((n + m) % 2, -1, 1)])


def _mirror_orbits(scene: SceneConfig) -> tuple[list[int], list[list[tuple[int, list[int]]]]]:
    """The scene's mirror planes and its spheres' orbits under their reflections.

    A mirror plane is a coordinate plane through the expansion origin whose
    reflection maps the set of (center, radius) pairs onto itself exactly;
    coordinates compare with ``==``, so -0.0 equals 0.0.  Each orbit lists
    (sphere, the planes whose reflections take the orbit's first sphere to
    it), the first sphere first with none.
    """
    place = {(tuple(map(float, s.center)), s.radius): i for i, s in enumerate(scene.spheres)}

    def image(sphere, axes):
        center = [-x if axis in axes else float(x) for axis, x in enumerate(sphere.center)]
        return tuple(center), sphere.radius

    planes = [axis for axis in range(3) if all(image(s, [axis]) in place for s in scene.spheres)]
    orbits, placed = [], set()
    for r, sphere in enumerate(scene.spheres):
        if r in placed:
            continue
        orbit = {}
        for chosen in itertools.product((False, True), repeat=len(planes)):
            axes = [axis for axis, flip in zip(planes, chosen) if flip and sphere.center[axis] != 0.0]
            orbit.setdefault(place[image(sphere, axes)], axes)
        orbits.append(list(orbit.items()))
        placed.update(orbit)
    return planes, orbits


@dataclass(frozen=True)
class MirrorClass:
    """One independent block of the coupled system, in the pair basis.

    ``incident`` indexes the pair-basis incident coefficients whose signs
    under the scene's mirror planes are the class's.  ``members`` gives, per
    sphere, where its orbit's unknowns sit in the class system (``rows``),
    which of the sphere's pair-basis coefficients they are (``local``) and
    the class's sign at that sphere (``sign``): the class's basis vector for
    orbit coefficient j is the sum over the orbit's spheres of sign times
    flips[local[j]] times that sphere's pair-basis coefficient local[j],
    with ``flips`` the sphere's reflection signs from :func:`mirror_classes`.
    """

    incident: np.ndarray
    members: list  # per sphere: (rows, local, sign)
    size: int  # unknowns


def mirror_classes(scene: SceneConfig) -> tuple[list[MirrorClass], np.ndarray]:
    """The coupled system's independent blocks, one per sign pattern of the scene's mirror planes, and the flips.

    Every reflection in a mirror plane (see :func:`_mirror_orbits`) maps the
    scene onto itself, and in the per-sphere pair basis of :func:`_to_pairs`
    it acts on each harmonic as a sign (:func:`_reflection_signs`), so no
    S|R or R|R translation between the scene's points couples two different
    sign patterns.  With p mirror planes there are 2^p classes.  An orbit
    enters a class through the harmonics whose signs under the planes that
    fix its spheres are the class's, each as the signed, normalised sum over
    the orbit.  Sphere s's weight in it is its class sign, the product of
    the class's signs over the planes that take the orbit's first sphere to
    s, over sqrt(orbit size), times its flips: the product of those planes'
    harmonic signs, the same in every class.  These basis vectors are
    orthonormal, so each class system is unitarily equivalent to its block
    of I - SR G.  A scene without mirror planes has one class holding every
    index.  The flips are returned once for all classes, shape (sphere,
    (n, m)) at n_fwd, and every per-sphere operator is multiplied by its
    sphere's flips once before the class signs are applied.
    """
    planes, orbits = _mirror_orbits(scene)
    harmonic_signs = _reflection_signs(scene.n_fwd)
    flips = np.array([np.prod(harmonic_signs[axes], axis=0) for _, axes in sorted(itertools.chain(*orbits))])
    local_signs, incident_signs = harmonic_signs[planes], _reflection_signs(scene.n_in)[planes]
    classes = []
    for character in itertools.product((1, -1), repeat=len(planes)):
        signs = np.array(character, dtype=int).reshape(-1, 1)
        members, size = [None] * scene.num_spheres, 0
        for orbit in orbits:
            center = scene.spheres[orbit[0][0]].center
            fixed = [i for i, axis in enumerate(planes) if center[axis] == 0.0]
            local = np.flatnonzero(np.all(local_signs[fixed] == signs[fixed], axis=0))
            rows, size = slice(size, size + local.size), size + local.size
            for s, axes in orbit:
                sign = np.prod([character[planes.index(axis)] for axis in axes]) / np.sqrt(len(orbit))
                members[s] = (rows, local, sign)
        incident = np.flatnonzero(np.all(incident_signs == signs, axis=0))
        classes.append(MirrorClass(incident=incident, members=members, size=size))
    return classes, flips


def _class_arrays(shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Fortran-ordered complex arrays of ``shapes``, as views of one buffer.

    One large allocation goes back to the system when it is freed; as many
    mid-size ones, glibc keeps them resident, and a later stage's peak
    stacks on them.
    """
    sizes = [rows * columns for rows, columns in shapes]
    buffer, starts = np.empty(sum(sizes), dtype=complex), np.cumsum([0] + sizes)
    return [buffer[start : start + size].reshape(shape, order="F") for start, size, shape in zip(starts, sizes, shapes)]


def assemble_system_matrix(scene: SceneConfig) -> list[np.ndarray]:
    """Coupled block system (I - SR G) c = a_local for the field each sphere feels.

    c_s holds the local coefficients of the total field incident on sphere s
    (the incident wave plus every other sphere's scattered wave), and sphere
    s radiates b_s = G_s c_s with G_s = diag(rigid_scatter_gain).  Diagonal
    blocks are the identity; the (s, t) off-diagonal block is minus the
    singular-to-regular translation from sphere t to s with its columns
    scaled by G_t.  The system is returned projected on each
    :func:`mirror_classes` class, as one Fortran-ordered array per class, as
    LAPACK factors it in place: every sphere pair's block, taken to the pair
    basis and multiplied by the two spheres' flips, adds its class rows and
    columns, times the two class signs, to the block of the two spheres'
    orbits.  Each distinct pair of displacement c_s - c_t (equal bit for
    bit) and source radius is translated once, and serves every sphere pair
    that repeats it: a regular grid repeats its displacements.
    """
    from .translation import sr_translation

    k, n_fwd = scene.k, scene.n_fwd
    classes, flips = mirror_classes(scene)
    gains = _scatter_gains(scene)
    systems = _class_arrays([(cls.size, cls.size) for cls in classes])
    for system in systems:
        system[:] = 0.0
        np.fill_diagonal(system, 1.0)
    shared = {}  # (displacement bytes, source radius) -> the sphere pairs (s, t) it serves
    for s, sph_s in enumerate(scene.spheres):
        for t, sph_t in enumerate(scene.spheres):
            if s != t:
                shared.setdefault(((sph_s.center - sph_t.center).tobytes(), sph_t.radius), []).append((s, t))
    for pairs in shared.values():
        s, t = pairs[0]
        block = sr_translation(scene.spheres[s].center - scene.spheres[t].center, k, n_fwd, n_fwd)
        block *= -gains[t]
        _to_pairs(_to_pairs(block, n_fwd, axis=0), n_fwd, axis=1)
        for s, t in pairs:
            flipped = block * np.outer(flips[s], flips[t])
            for system, cls in zip(systems, classes):
                (rows, local, sign), (columns, source, source_sign) = cls.members[s], cls.members[t]
                system[rows, columns] += flipped[local][:, source] * (sign * source_sign)
    return systems


def _local_incident_block(scene: SceneConfig) -> list[np.ndarray]:
    """Every sphere's local incident map (its R|R translation) projected on
    each :func:`mirror_classes` class: one Fortran-ordered (class unknowns,
    class incident columns) block per class.  A mirror image's map is its
    orbit's first map with the signs of the reflection, so only each orbit's
    first sphere is translated, and its block rows are sqrt(orbit size)
    times that map's class rows and columns in the pair basis."""
    from .translation import rr_translation

    classes, _ = mirror_classes(scene)
    blocks = _class_arrays([(cls.size, cls.incident.size) for cls in classes])
    for orbit in _mirror_orbits(scene)[1]:
        first = orbit[0][0]
        matrix = rr_translation(scene.spheres[first].center, scene.k, scene.n_in, scene.n_fwd)
        _to_pairs(_to_pairs(matrix, scene.n_fwd, axis=0), scene.n_in, axis=1)
        for block, cls in zip(blocks, classes):
            rows, local, sign = cls.members[first]
            np.multiply(matrix[np.ix_(local, cls.incident)], len(orbit) * sign, out=block[rows])
    return blocks


def _solve_coupled(systems: list[np.ndarray], rhss: list[np.ndarray]) -> tuple[list[np.ndarray], float]:
    """Solve ``systems[c] @ x_c = rhss[c]`` for every class c: (the x_c, the 1-norm rcond estimate).

    The arrays belong to the caller and are overwritten: each system by its
    LU factors and each right-hand side by its solution, which is returned
    in its memory when it is a Fortran-ordered complex array.  No copy of
    either is made.  The rcond is that of the block-diagonal whole: its
    1-norm is the largest block's, ||M||_1 = max_c ||M_c||_1, and so is its
    inverse's, so rcond = 1 / (max_c ||M_c||_1 * max_c ||M_c^-1||_1), each
    ||M_c^-1||_1 being 1 / (rcond_c ||M_c||_1) from the block's estimate.
    An empty class has nothing to solve.
    """
    solutions, anorm, inverse_norm = [], 0.0, 0.0
    for system, rhs in zip(systems, rhss):
        if not len(system):
            solutions.append(rhs)
            continue
        lange = sla.get_lapack_funcs("lange", (system,))
        block_norm = lange("1", system)  # max column sum of |a_ij|, no |A| buffer
        # a NaN or inf entry makes a norm non-finite: the finiteness checks without a boolean copy of either array
        if not (np.isfinite(block_norm) and np.isfinite(lange("M", rhs.reshape(len(rhs), -1)))):
            raise SolverError("the coupled system or its right-hand side holds a non-finite entry")
        lu, piv = sla.lu_factor(system, overwrite_a=True, check_finite=False)
        gecon = sla.get_lapack_funcs("gecon", (lu,))
        rcond, info = gecon(lu, block_norm, norm="1")
        if info != 0 or not np.isfinite(rcond) or rcond == 0.0:
            raise SolverError(f"system matrix is numerically singular (rcond={rcond})")
        anorm, inverse_norm = max(anorm, block_norm), max(inverse_norm, 1.0 / (rcond * block_norm))
        solutions.append(sla.lu_solve((lu, piv), rhs, overwrite_b=True, check_finite=False))
    rcond = 1.0 / (anorm * inverse_norm)
    log.info("system blocks of size %s, rcond estimate %.3e", [len(system) for system in systems], rcond)
    return solutions, float(rcond)


@contextmanager
def _timed(parts: dict | None, name: str) -> Iterator[None]:
    """Log the seconds the block takes as forward part ``name``, and add them to ``parts[name]``."""
    start = time.perf_counter()
    yield
    seconds = time.perf_counter() - start
    if parts is not None:
        parts[name] = parts.get(name, 0.0) + seconds
    log.info("forward %s: %.3f s", name, seconds)


def forward_solve(scene: SceneConfig, a_in: CoefficientVector, _local=None, _parts=None) -> ScatterSolution:
    """Solve the coupled scattering problem for one incident expansion.

    The system is solved for the field each sphere feels, c, one
    :func:`mirror_classes` class at a time, against the class's incident
    coefficients in the pair basis; the radiating coefficients are b = G c.
    ``_local`` is the scene's :func:`_local_incident_block` when the caller
    has already built it, and is left as it is.  ``_parts`` gathers the
    seconds spent per forward part (see :data:`FORWARD_PARTS`).
    """
    if a_in.n_max != scene.n_in:
        raise ValueError(f"incident coefficients must be truncated at {scene.n_in}")
    classes, flips = mirror_classes(scene)
    with _timed(_parts, "translation"):
        blocks = _local_incident_block(scene) if _local is None else _local
        incident = _to_pairs(a_in.values.copy(), scene.n_in)
        a_local = [block @ incident[cls.incident] for block, cls in zip(blocks, classes)]
        del blocks
        systems = assemble_system_matrix(scene)
    with _timed(_parts, "solve"):
        c, rcond = _solve_coupled(systems, a_local)
        b = np.zeros((scene.num_spheres, num_coeffs(scene.n_fwd)), dtype=complex)  # one row per sphere
        for cls, c_class in zip(classes, c):
            for b_s, (rows, local, sign) in zip(b, cls.members):
                b_s[local] += sign * c_class[rows]
        b *= flips
        _to_pairs(b, scene.n_fwd)
        b *= _scatter_gains(scene)
    rad = [CoefficientVector(k=scene.k, n_max=scene.n_fwd, values=b_s) for b_s in b]
    return ScatterSolution(radiating=rad, rcond=rcond)


def _check_exterior(scene: SceneConfig, points: np.ndarray):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    for i, s in enumerate(scene.spheres):
        if np.any(np.linalg.norm(points - s.center[None, :], axis=1) < s.radius * (1 - 1e-12)):
            raise SceneError(f"evaluation point inside sphere {i}")
    return points


def eval_total_field(
    scene: SceneConfig,
    solution: ScatterSolution,
    a_in: CoefficientVector,
    points: np.ndarray,
) -> np.ndarray:
    """Total pressure (scattered contributions + incident) at exterior points."""
    points = _check_exterior(scene, points)
    k = scene.k
    out = regular_basis_matrix(a_in.n_max, k, points, [0.0, 0.0, 0.0]) @ a_in.values
    for sph, rad in zip(scene.spheres, solution.radiating):
        out = out + singular_basis_matrix(rad.n_max, k, points, sph.center) @ rad.values
    return out


def _multipole_field(scene: SceneConfig, classes: list, weights: np.ndarray, points: np.ndarray, c: list) -> np.ndarray:
    """The incident regular series plus every sphere's singular series at ``points``.

    Row p, column j is R(p) e_j + sum_t S_t(p) G_t c_t[:, j], for ``c`` the
    local fields of the incident basis held as the class blocks of
    ``classes`` (:func:`mirror_classes`) and ``weights`` each sphere's flips
    times its scattering gains G_t, by which its singular basis is scaled.
    An orbit's spheres share their class unknowns, so their bases, times
    their class signs, are summed before one product per orbit and class.
    """
    offsets = points[None, :, :] - np.array([s.center for s in scene.spheres])[:, None, :]  # (sphere, point, 3)
    singular = singular_basis_matrix(scene.n_fwd, scene.k, offsets.reshape(-1, 3), [0.0, 0.0, 0.0])
    singular = singular.reshape(*offsets.shape[:2], -1)
    _to_pairs(singular, scene.n_fwd)
    singular *= weights[:, None, :]
    out = np.zeros((len(points), num_coeffs(scene.n_in)), dtype=complex)  # pair-basis columns
    for orbit in _mirror_orbits(scene)[1]:
        for block, cls in zip(c, classes):
            rows, local, _ = cls.members[orbit[0][0]]
            summed = sum(singular[t][:, local] * cls.members[t][2] for t, _ in orbit)
            out[:, cls.incident] += summed @ block[rows]
    _to_pairs(out, scene.n_in)
    out += regular_basis_matrix(scene.n_in, scene.k, points, [0.0, 0.0, 0.0])
    return out


def _capsule_residual(scene: SceneConfig, classes: list, flips: np.ndarray, matrix: np.ndarray, c: list) -> float:
    """Max-abs gap of ``matrix`` to :func:`_multipole_field` of the local fields ``c`` over its max, on sampled capsules.

    The sample is RESIDUAL_SAMPLES capsules per sphere, a fixed stride
    through its Fibonacci order, checked one sphere at a time.  The gap is
    the capsule form's one approximation: the field a sphere feels is cut
    off at degree n_fwd.
    """
    weights, gap, top, start = flips * _scatter_gains(scene), 0.0, 0.0, 0
    for sphere in scene.spheres:
        rows = np.arange(0, sphere.num_capsules, -(-sphere.num_capsules // RESIDUAL_SAMPLES))
        reference = _multipole_field(scene, classes, weights, sphere.capsule_positions()[rows], c)
        gap = max(gap, np.max(np.abs(matrix[start + rows] - reference)))
        top = max(top, np.max(np.abs(reference)))
        start += sphere.num_capsules
    return float(gap / top)


def forward_operator(scene: SceneConfig, include_coupling: bool = True, _local=None, _parts=None) -> ForwardOperator:
    """Assemble the dense capsule-pressure response to every incident basis.

    Sphere s's capsule rows are its rigid-surface response times the local
    field it is given, Lambda_s c_s (Gumerov & Duraiswami, 2004, ch. 4).
    With coupling, c_s is the field it feels, solved for in place of the
    right-hand-side blocks, and a sample of the rows is checked against the
    multipole sum of the radiated c (``capsule_residual``); the class
    systems, those blocks and T_F are the only arrays of their size.
    Without coupling the solve is skipped and c_s is the incident field
    alone, a_s: each sphere in the incident wave by itself.  ``_local`` is
    the scene's :func:`_local_incident_block` when the caller has already
    built it; the coupled build overwrites it.  ``_parts`` gathers the
    seconds spent per forward part (see :data:`FORWARD_PARTS`).
    """
    rcond = residual = None
    with _timed(_parts, "translation"):
        classes, flips = mirror_classes(scene)
        c = _local_incident_block(scene) if _local is None else _local
        if include_coupling:
            systems = assemble_system_matrix(scene)
    if include_coupling:
        with _timed(_parts, "solve"):
            c, rcond = _solve_coupled(systems, c)
            del systems  # the LU factors: freed before T_F is allocated
    with _timed(_parts, "capsule"):
        matrix, start = np.empty((scene.total_capsules, num_coeffs(scene.n_in)), dtype=complex), 0
        for s, sphere in enumerate(scene.spheres):
            rows = matrix[start : start + sphere.num_capsules]
            response = _to_pairs(surface_response_matrix(sphere, scene.k, scene.n_fwd), scene.n_fwd)
            response *= flips[s]
            for first in range(0, sphere.num_capsules, FILL_ROWS):
                part, chunk = response[first : first + FILL_ROWS], rows[first : first + FILL_ROWS]
                for block, cls in zip(c, classes):  # their incident columns cover every column
                    class_rows, local, sign = cls.members[s]
                    chunk[:, cls.incident] = (part[:, local] * sign) @ block[class_rows]
                _to_pairs(chunk, scene.n_in)
            start += sphere.num_capsules
    if include_coupling:
        with _timed(_parts, "residual"):
            residual = _capsule_residual(scene, classes, flips, matrix, c)
    return ForwardOperator(scene=scene, matrix=matrix, rcond=rcond, capsule_residual=residual)
