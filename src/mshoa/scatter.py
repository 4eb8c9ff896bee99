"""Single- and multi-sphere rigid scattering: system assembly, solve, evaluation."""

from __future__ import annotations

import itertools
import logging
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .basis import (
    CoefficientVector,
    _to_pairs,
    degrees_upto,
    num_coeffs,
    regular_basis_matrix,
    singular_basis_matrix,
    sph_hankel1_upto,
    sph_harm_matrix,
    cart_to_sph,
)
from .scene import RsmaSpec, SceneConfig, SceneError
from .translation import rr_translation, sr_translation

log = logging.getLogger(__name__)

RESIDUAL_SAMPLES = 16  # capsules per sphere on which the capture is checked against the multipole sum
FORWARD_PARTS = ("translation", "solve", "capsule", "residual")  # the timed parts of a forward build


class SolverError(RuntimeError):
    """Dense solve failed or the system is numerically singular."""


@dataclass
class ForwardOperator:
    """The map T_F from incident coefficients to total pressure at all capsules, held as its factors.

    In the +-m pair basis the field each sphere feels is block-diagonal by
    class of ``mirror``, the symmetry its build found, so T_F = Lambda_hat
    (+)_k C_k, and no dense T_F is held.  ``c`` holds the class blocks C_k:
    the local fields of each class's incident pair-basis columns (MSHOA's
    coupled solution, or Single's local incident maps).  ``responses`` holds
    one surface response in the pair basis per distinct (radius, capsule
    layout); sphere s's Lambda_hat_s is ``responses[kinds[s]]``, so spheres
    that share a response are served by one matrix product.  The model's own
    column basis is the incident pair basis in class order: the columns of
    the first class's ``incident``, then the next class's, and so on;
    :meth:`to_standard` takes coefficients from it to the standard (n, m)
    order.  :attr:`matrix` fills T_F in the standard order on demand.
    """

    scene: SceneConfig
    mirror: Mirror = field(repr=False)  # the classes and orbits of mirror_classes
    c: list[np.ndarray] = field(repr=False)  # per class: (class unknowns, class incident columns), Fortran-ordered
    responses: list[np.ndarray] = field(repr=False)  # per distinct (radius, capsule layout): (capsules, (n_fwd+1)^2)
    kinds: list[int] = field(repr=False)  # per sphere: the index of its response
    rcond: float | None = None  # of the coupled system solved to build it or its capture
    capture: np.ndarray | None = field(default=None, repr=False)  # the scene's capsule pressures, Lambda_s (c a)_s
    capsule_residual: float | None = None  # the capture's sampled gap to the multipole sum

    @property
    def shape(self) -> tuple[int, int]:
        """(capsules, (n_in+1)^2), the shape of T_F."""
        return self.scene.total_capsules, num_coeffs(self.scene.n_in)

    @property
    def matrix(self) -> np.ndarray:
        """T_F in the standard (n, m) order, filled one sphere's capsule rows at a time."""
        matrix = np.empty(self.shape, dtype=complex)
        for s, capsules in enumerate(self._rows):
            out, response = matrix[capsules], self.responses[self.kinds[s]]
            for block, cls in zip(self.c, self.mirror.classes):  # their incident columns cover every column
                rows, local, weights = cls.members[s]
                out[:, cls.incident] = (response[:, local] * weights) @ block[rows]
            _to_pairs(out, self.scene.n_in)
        return matrix

    @cached_property
    def _rows(self) -> list[slice]:
        """Each sphere's capsule rows."""
        return _spans(sphere.num_capsules for sphere in self.scene.spheres)

    @cached_property
    def columns(self) -> list[slice]:
        """Each class's columns in the model's column basis."""
        return _spans(cls.incident.size for cls in self.mirror.classes)

    def _shared(self) -> Iterator[tuple[np.ndarray, list[int]]]:
        """Per distinct response: it and the spheres that share it."""
        for kind, response in enumerate(self.responses):
            yield response, [s for s, other in enumerate(self.kinds) if other == kind]

    def pressures(self, felt: list[np.ndarray]) -> np.ndarray:
        """Capsule pressures Lambda_hat_s u_s of the fields u the spheres feel, given as one class vector per class.

        The spheres that share a response take one matrix product, with their
        u_s as its columns.
        """
        u = _on_spheres(self.scene, self.mirror, felt)
        out, rows = np.empty(self.shape[0], dtype=complex), self._rows
        for response, spheres in self._shared():
            for s, column in zip(spheres, (response @ u[spheres].T).T):
                out[rows[s]] = column
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """T_F^H y in the model's column basis (see the class notes).

        Per sphere v_s = R^H y_s for its response R, one matrix product per
        shared response; class k then gathers the weighted v_s of its rows
        (:func:`_on_classes`) and applies C_k^H.
        """
        v, rows = np.empty((self.scene.num_spheres, num_coeffs(self.scene.n_fwd)), dtype=complex), self._rows
        for response, spheres in self._shared():
            v[spheres] = (np.stack([y[rows[s]] for s in spheres]).conj() @ response).conj()
        return np.concatenate([(w.conj() @ block).conj() for w, block in zip(_on_classes(self.mirror, v), self.c)])

    def normal(self, x: np.ndarray) -> np.ndarray:
        """T_F^H T_F x in the model's column basis, through the factors: C_k x_k, then the pressures and their adjoint."""
        return self.adjoint(self.pressures([block @ x[columns] for block, columns in zip(self.c, self.columns)]))

    def to_standard(self, x: np.ndarray) -> np.ndarray:
        """Model-basis coefficients ``x`` (see the class notes) in the standard (n, m) order."""
        out = np.empty_like(x)
        out[np.concatenate([cls.incident for cls in self.mirror.classes])] = x
        return _to_pairs(out, self.scene.n_in)

    def gram(self) -> np.ndarray:
        """conj(F F^H) for F = T_F, the dual side's Gram (the encoder solves the primal side by CG): the upper
        triangle of one Fortran-ordered array, whose lower triangle is scratch.

        F F^H = Lambda_hat B Lambda_hat^H, where block (s, t) of B, the Gram of
        the spheres' local fields, sums over classes C_k[r] C_k[r']^H times the
        outer product of the two spheres' weights, at the harmonics loc_k(s) x
        loc_k(t), with (r, loc, weights) = ``members[s]`` and r' the rows of t;
        their shared responses R give R B_st R^H.  Spheres of one orbit share
        their class rows, so each pair of orbits forms its C_k[r] C_k[r']^H
        once, for every sphere pair it holds, and no whole C_k C_k^H is held.
        Only the sphere blocks s <= t are formed, and T_F is not held.
        """
        capsules, rows, classes = self.shape[0], self._rows, self.mirror.classes
        gram = np.zeros((capsules, capsules), dtype=complex, order="F")
        felt = np.empty((num_coeffs(self.scene.n_fwd),) * 2, dtype=complex)  # block (s, t) of B
        for first, second in itertools.product(self.mirror.orbits, repeat=2):
            pairs = [(s, t) for s in first for t in second if s <= t]
            if not pairs:
                continue
            crossed = [block[cls.members[first[0]][0]] @ block[cls.members[second[0]][0]].conj().T for block, cls in zip(self.c, classes)]
            for s, t in pairs:
                felt[:] = 0.0
                for cross, cls in zip(crossed, classes):
                    (_, local_s, weights_s), (_, local_t, weights_t) = cls.members[s], cls.members[t]
                    felt[np.ix_(local_s, local_t)] += cross * np.outer(weights_s, weights_t)
                x = self.responses[self.kinds[s]] @ felt
                np.matmul(np.conjugate(x, out=x), self.responses[self.kinds[t]].T, out=gram[rows[s], rows[t]])
        return gram

    def class_grams(self) -> list[np.ndarray]:
        """The diagonal blocks G_kk of T_F^H T_F in the model's column basis, one per class, as Fortran-ordered views of one buffer.

        G_kk = C_k^H Y with Y stacking, on each orbit's class rows r, M(o)
        C_k[r], where M(o) sums over the orbit's spheres s H[loc, loc] times
        the outer product of the sphere's weights with themselves, H = R^H R
        the Gram of the sphere's response R, and (r, loc, weights) =
        ``members[s]``.  The blocks between classes are not formed.
        """
        hermitian = [response.conj().T @ response for response in self.responses]
        grams = _class_arrays([(block.shape[1],) * 2 for block in self.c])
        for gram, block, cls in zip(grams, self.c, self.mirror.classes):
            y = np.empty_like(block)
            for orbit in self.mirror.orbits:
                rows, local, _ = cls.members[orbit[0]]
                m = sum(hermitian[self.kinds[s]][np.ix_(local, local)] * np.outer(cls.members[s][2], cls.members[s][2]) for s in orbit)
                np.matmul(m, block[rows], out=y[rows])
            np.matmul(block.conj().T, y, out=gram)
        return grams


def _spans(sizes) -> list[slice]:
    """Consecutive slices of the given sizes, from 0."""
    bounds = np.cumsum([0, *sizes])
    return [slice(first, last) for first, last in zip(bounds, bounds[1:])]


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
    hp = sph_hankel1_upto(n_c, kr, derivative=True)
    gain = 1j / (kr * kr * hp[degrees_upto(n_c)])
    y *= gain[None, :]
    return y


def rigid_scatter_gain(k: float, radius, n_c: int) -> np.ndarray:
    """Per-mode scattering gain -j'_n(ka)/h'_n(ka) = -Re h'_n(ka)/h'_n(ka), repeated over orders; a column per radius of an array."""
    hp = sph_hankel1_upto(n_c, k * np.asarray(radius, dtype=float), derivative=True)
    return (-hp.real / hp)[degrees_upto(n_c)]


def _scatter_gains(scene: SceneConfig) -> np.ndarray:
    """Every sphere's :func:`rigid_scatter_gain` at ``n_fwd``, one row per sphere."""
    return rigid_scatter_gain(scene.k, [sph.radius for sph in scene.spheres], scene.n_fwd).T


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
    the sphere's weight at each of them (``weights``): the class's basis
    vector for orbit coefficient j is the sum over the orbit's spheres of
    weights[j] times that sphere's pair-basis coefficient local[j].
    """

    incident: np.ndarray
    members: list  # per sphere: (rows, local, weights)
    size: int  # unknowns


@dataclass(frozen=True)
class Mirror:
    """The scene's mirror symmetry, which :func:`mirror_classes` finds once per forward build for every step."""

    classes: list[MirrorClass]  # the coupled system's independent blocks
    orbits: list[list[int]]  # each orbit's spheres, its first sphere first


def mirror_classes(scene: SceneConfig) -> Mirror:
    """The scene's symmetry: the coupled system's blocks, one per sign pattern of its mirror planes, and its orbits.

    Every reflection in a mirror plane (see :func:`_mirror_orbits`) maps the
    scene onto itself, and in the per-sphere pair basis of :func:`_to_pairs`
    it acts on each harmonic as a sign (:func:`_reflection_signs`), so no
    S|R or R|R translation between the scene's points couples two different
    sign patterns.  With p mirror planes there are 2^p classes.  An orbit
    enters a class through the harmonics whose signs under the planes that
    fix its spheres are the class's, each as the signed, normalised sum over
    the orbit.  Sphere s's weight at a harmonic is its class sign, the
    product of the class's signs over the planes that take the orbit's first
    sphere to s, over sqrt(orbit size), times the product of those planes'
    signs at the harmonic; an orbit's first sphere takes no plane, so its
    weights are its class sign.  These basis vectors are orthonormal, so
    each class system is unitarily equivalent to its block of I - SR G.  A
    scene without mirror planes has one class holding every index.
    """
    planes, orbits = _mirror_orbits(scene)
    harmonic_signs = _reflection_signs(scene.n_fwd)
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
                members[s] = (rows, local, sign * np.prod(harmonic_signs[axes][:, local], axis=0))
        incident = np.flatnonzero(np.all(incident_signs == signs, axis=0))
        classes.append(MirrorClass(incident=incident, members=members, size=size))
    return Mirror(classes, [[s for s, _ in orbit] for orbit in orbits])


def _class_arrays(shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Fortran-ordered complex arrays of ``shapes``, as views of one buffer.

    One large allocation goes back to the system when it is freed; as many
    mid-size ones, glibc keeps them resident, and a later stage's peak
    stacks on them.
    """
    sizes = [rows * columns for rows, columns in shapes]
    buffer, starts = np.empty(sum(sizes), dtype=complex), np.cumsum([0] + sizes)
    return [buffer[start : start + size].reshape(shape, order="F") for start, size, shape in zip(starts, sizes, shapes)]


def assemble_system_matrix(scene: SceneConfig, mirror: Mirror) -> list[np.ndarray]:
    """Coupled block system (I - SR G) c = a_local for the field each sphere feels.

    c_s holds the local coefficients of the total field incident on sphere s
    (the incident wave plus every other sphere's scattered wave), and sphere
    s radiates b_s = G_s c_s with G_s = diag(rigid_scatter_gain).  Diagonal
    blocks are the identity; the (s, t) off-diagonal block is minus the
    singular-to-regular translation from sphere t to s with its columns
    scaled by G_t.  The system is returned projected on each class of
    ``mirror`` (:func:`mirror_classes`), as one Fortran-ordered array per
    class, as LAPACK factors it in place: every sphere pair's block, built
    in the pair basis, adds its class rows and columns, times the outer
    product of the two spheres' weights, to the block of the two spheres'
    orbits.  Each distinct pair of displacement c_s - c_t (equal bit for
    bit) and source radius is translated once, and serves every sphere pair
    that repeats it: a regular grid repeats its displacements.
    """
    k, n_fwd = scene.k, scene.n_fwd
    gains = _scatter_gains(scene)
    systems = _class_arrays([(cls.size, cls.size) for cls in mirror.classes])
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
        block *= -gains[t]  # constant over each degree's orders, so the pair basis keeps it a column scale
        for s, t in pairs:
            for system, cls in zip(systems, mirror.classes):
                (rows, local, weights), (columns, source, source_weights) = cls.members[s], cls.members[t]
                system[rows, columns] += block[np.ix_(local, source)] * np.outer(weights, source_weights)
    return systems


def _local_incident_block(scene: SceneConfig, mirror: Mirror) -> list[np.ndarray]:
    """Every sphere's local incident map (its R|R translation) projected on
    each class of ``mirror``: one Fortran-ordered (class unknowns, class
    incident columns) block per class.  A mirror image's map is its orbit's
    first map with the signs of the reflection, so only each orbit's first
    sphere is translated, and its block rows are that map's class rows and
    columns in the pair basis times orbit size times the sphere's weights,
    all 1/sqrt(orbit size): sqrt(orbit size) times the map."""
    blocks = _class_arrays([(cls.size, cls.incident.size) for cls in mirror.classes])
    for orbit in mirror.orbits:
        first = orbit[0]
        matrix = rr_translation(scene.spheres[first].center, scene.k, scene.n_in, scene.n_fwd)
        for block, cls in zip(blocks, mirror.classes):
            rows, local, weights = cls.members[first]
            np.multiply(matrix[np.ix_(local, cls.incident)], (len(orbit) * weights)[:, None], out=block[rows])
    return blocks


def _apply_blocks(blocks: list[np.ndarray], mirror: Mirror, coeffs: CoefficientVector, n_in: int) -> list[np.ndarray]:
    """C_k a_k per class: the class block times the class's incident pair-basis
    coefficients of ``coeffs``; from a ForwardOperator's ``c``, the class
    vectors of the fields it gives the spheres in the incident field ``coeffs``."""
    if coeffs.n_max != n_in:
        raise ValueError(f"expected incident truncation {n_in}, got {coeffs.n_max}")
    incident = _to_pairs(np.array(coeffs.values, dtype=complex), n_in)
    return [block @ incident[cls.incident] for block, cls in zip(blocks, mirror.classes)]


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
        block_norm = _one_norm(system)
        # a NaN or inf entry makes the norm, or an extreme of the float view, non-finite: no boolean copy is made;
        # a class with no incident columns has an empty right-hand side, whose extremes are the initial 0
        floats = np.ravel(rhs, order="K").view(float)
        if not (np.isfinite(block_norm) and np.isfinite(floats.max(initial=0.0)) and np.isfinite(floats.min(initial=0.0))):
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


def _one_norm(system: np.ndarray) -> float:
    """||system||_1, the largest column sum of |a_ij|, 64 columns at a time, so that no
    |a_ij| buffer of the system's size is made; a NaN or inf entry makes it non-finite."""
    return float(np.max([np.abs(system[:, j : j + 64]).sum(axis=0).max() for j in range(0, system.shape[1], 64)]))


def _on_spheres(scene: SceneConfig, mirror: Mirror, vectors: list) -> np.ndarray:
    """Per-sphere pair-basis coefficients, one row per sphere, from one class vector per class.

    Each sphere's row gathers, at its class harmonics ``local``, its weights
    times the class vector's ``rows``.  Class vectors meet sphere rows only
    here and in :func:`_on_classes`.
    """
    out = np.zeros((scene.num_spheres, num_coeffs(scene.n_fwd)), dtype=complex)
    for cls, vector in zip(mirror.classes, vectors):
        for out_s, (rows, local, weights) in zip(out, cls.members):
            out_s[local] += weights * vector[rows]
    return out


def _on_classes(mirror: Mirror, v: np.ndarray) -> list[np.ndarray]:
    """One class vector per class from per-sphere pair-basis rows ``v``: the transpose of :func:`_on_spheres`."""
    out = [np.zeros(cls.size, dtype=complex) for cls in mirror.classes]
    for w, cls in zip(out, mirror.classes):
        for v_s, (rows, local, weights) in zip(v, cls.members):
            w[rows] += weights * v_s[local]
    return out


def _radiating(scene: SceneConfig, mirror: Mirror, vectors: list) -> np.ndarray:
    """Every sphere's radiating coefficients b_s = G_s c_s in the standard order, one row per sphere.

    ``vectors`` holds one class vector per class of the fields c the spheres
    feel (:func:`_on_spheres`).
    """
    b = _on_spheres(scene, mirror, vectors)
    _to_pairs(b, scene.n_fwd)
    b *= _scatter_gains(scene)
    return b


@contextmanager
def _timed(parts: dict | None, name: str) -> Iterator[None]:
    """Add the seconds the block takes to ``parts[name]``; ``run_experiment`` logs each part's total once."""
    start = time.perf_counter()
    yield
    if parts is not None:
        parts[name] = parts.get(name, 0.0) + time.perf_counter() - start


def _solve_felt(scene: SceneConfig, mirror: Mirror, local: list[np.ndarray], parts: dict | None = None) -> tuple[list[np.ndarray], float]:
    """The fields the spheres feel, c, per class, and the rcond: the class
    systems of :func:`assemble_system_matrix` solved against the local
    incident fields ``local`` (class blocks or class vectors), which the
    solution overwrites (:func:`_solve_coupled`)."""
    with _timed(parts, "translation"):
        systems = assemble_system_matrix(scene, mirror)
    with _timed(parts, "solve"):
        return _solve_coupled(systems, local)


def forward_solve(scene: SceneConfig, a_in: CoefficientVector, _parts=None) -> tuple[np.ndarray, float, Mirror]:
    """Solve the coupled scattering problem for one incident expansion: (radiating, rcond, mirror).

    The system is solved for the field each sphere feels, c, one
    :func:`mirror_classes` class at a time, against the class's incident
    coefficients in the pair basis; the radiating coefficients are b = G c,
    returned as one (n_fwd+1)^2 row per sphere in the standard order, with
    the system's rcond (:func:`_solve_coupled`) and the symmetry whose
    classes it was solved in.  No surface response is built.  ``_parts`` gathers the seconds spent per forward part (see
    :data:`FORWARD_PARTS`).
    """
    mirror = mirror_classes(scene)
    with _timed(_parts, "translation"):
        a_local = _apply_blocks(_local_incident_block(scene, mirror), mirror, a_in, scene.n_in)
    c, rcond = _solve_felt(scene, mirror, a_local, _parts)
    with _timed(_parts, "solve"):
        return _radiating(scene, mirror, c), rcond, mirror


def eval_total_field(
    scene: SceneConfig,
    radiating: np.ndarray,
    a_in: CoefficientVector,
    points: np.ndarray,
) -> np.ndarray:
    """Total pressure at exterior points: the incident series ``a_in`` plus every sphere's radiating series.

    ``radiating`` holds sphere s's b_s about its center in row s, (n_fwd+1)^2
    coefficients in the standard order, as :func:`forward_solve` returns it.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    for i, s in enumerate(scene.spheres):
        inside = s.radius - 1e-12 * (s.radius + np.abs(s.center).max())  # a capsule is rounded at the center's scale
        if np.any(np.linalg.norm(points - s.center[None, :], axis=1) < inside):
            raise SceneError(f"evaluation point inside sphere {i}")
    total = regular_basis_matrix(a_in.n_max, scene.k, points, [0.0, 0.0, 0.0]) @ a_in.values
    for sph, b_s in zip(scene.spheres, radiating):
        total = total + singular_basis_matrix(scene.n_fwd, scene.k, points, sph.center) @ b_s
    return total


def _capsule_residual(op: ForwardOperator, felt: list[np.ndarray], a_in: CoefficientVector) -> float:
    """Max-abs gap of the capture Lambda_s (c a)_s to the multipole sum it stands for, over the sum's max.

    a is the scene's incident field ``a_in`` and ``felt`` holds c a, one
    class vector per class; b = G (c a) radiates from it (:func:`_radiating`),
    and :func:`eval_total_field` sums R a + sum_t S_t b_t at RESIDUAL_SAMPLES
    capsules per sphere, a fixed stride through its Fibonacci order.  The
    gap is what the capsule form approximates: the field a sphere feels is
    cut off at degree n_fwd, and the incident series about the origin is
    read where it may not converge.
    """
    scene = op.scene
    b = _radiating(scene, op.mirror, felt)
    rows = np.concatenate([np.arange(r.start, r.stop, -(-(r.stop - r.start) // RESIDUAL_SAMPLES)) for r in op._rows])
    reference = eval_total_field(scene, b, a_in, scene.capsule_positions()[rows])
    return float(np.max(np.abs(op.capture[rows] - reference)) / np.max(np.abs(reference)))


def forward_operator(scene: SceneConfig, include_coupling: bool = True, _parts=None) -> ForwardOperator:
    """The capsule-pressure response to every incident basis, T_F, as its factors, and the scene's capture.

    Sphere s's capsule rows are its rigid-surface response times the local
    field it is given, Lambda_s c_s (Gumerov & Duraiswami, 2004, ch. 4).
    With coupling, c_s is the field it feels, solved for in place of the
    right-hand-side blocks; the class systems and those blocks are the only
    arrays of their size, and no array of T_F's shape is made.  Without
    coupling the solve is skipped and c_s is the incident field alone, a_s:
    each sphere in the incident wave by itself.  Either way ``capture`` is
    what the capsules record with every sphere present, the responses times
    c a for the scene's incident field a, and ``capsule_residual`` checks it
    (:func:`_capsule_residual`).  With coupling c a is the solved blocks
    times a; without, one coupled vector solve against the a_s gives it,
    before the responses are built, so the class systems and the responses
    are never held together.  ``_parts`` gathers the seconds spent per
    forward part (see :data:`FORWARD_PARTS`).
    """
    with _timed(_parts, "translation"):
        mirror = mirror_classes(scene)
        c = _local_incident_block(scene, mirror)
    a_in = scene.incident_coeffs()
    if include_coupling:
        c, rcond = _solve_felt(scene, mirror, c, _parts)
        felt = _apply_blocks(c, mirror, a_in, scene.n_in)
    else:
        felt, rcond = _solve_felt(scene, mirror, _apply_blocks(c, mirror, a_in, scene.n_in), _parts)
    with _timed(_parts, "capsule"):
        responses, kinds, shared = [], [], {}  # shared: (radius, capsule layout) -> index into responses
        for sphere in scene.spheres:
            key = (sphere.radius, sphere.capsule_dirs.tobytes())
            if key not in shared:
                shared[key] = len(responses)
                responses.append(_to_pairs(surface_response_matrix(sphere, scene.k, scene.n_fwd), scene.n_fwd))
            kinds.append(shared[key])
        op = ForwardOperator(scene=scene, mirror=mirror, c=c, responses=responses, kinds=kinds, rcond=rcond)
        op.capture = op.pressures(felt)
    with _timed(_parts, "residual"):
        op.capsule_residual = _capsule_residual(op, felt, a_in)
    return op
