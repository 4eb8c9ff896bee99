"""Single- and multi-sphere rigid scattering: system assembly, solve, evaluation."""

from __future__ import annotations

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
# T_F rows per class product: a product lands in T_F's class columns through a
# temporary, and one this small reuses free heap instead of growing it
FILL_ROWS = 64


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
    """Every sphere's :func:`rigid_scatter_gain` at ``n_fwd``, stacked as the system's unknowns are."""
    return np.concatenate([rigid_scatter_gain(scene.k, sph.radius, scene.n_fwd) for sph in scene.spheres])


def parity_classes(scene: SceneConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """The independent blocks of the coupled system, as (local, incident) index pairs.

    ``local`` indexes one sphere's coefficients at n_fwd, ``incident`` the
    global incident coefficients at n_in.  When every sphere center lies in
    the plane z = 0, which holds the expansion origin, the reflection
    z -> -z maps the scene onto itself and multiplies Y_n^m by (-1)^(n+m),
    so no S|R or R|R translation between those points couples even and odd
    n + m (Gumerov & Duraiswami, 2004, section 3.2): class 0 holds the
    indices with n + m even, class 1 those with n + m odd.  Any other scene
    has one class holding every index.
    """
    if any(sph.center[2] != 0.0 for sph in scene.spheres):
        return [(np.arange(num_coeffs(scene.n_fwd)), np.arange(num_coeffs(scene.n_in)))]
    # n + m = l - n^2 at flat index l = n^2 + n + m
    odd = [(np.arange(num_coeffs(n)) - degrees_upto(n) ** 2) % 2 == 1 for n in (scene.n_fwd, scene.n_in)]
    return [tuple(np.flatnonzero(o == parity) for o in odd) for parity in (False, True)]


def assemble_system_matrix(scene: SceneConfig) -> list[np.ndarray]:
    """Coupled block system (I - SR G) c = a_local for the field each sphere feels.

    c_s holds the local coefficients of the total field incident on sphere s
    (the incident wave plus every other sphere's scattered wave), and sphere
    s radiates b_s = G_s c_s with G_s = diag(rigid_scatter_gain).  Diagonal
    blocks are the identity; the (s, t) off-diagonal block is minus the
    singular-to-regular translation from sphere t to s with its columns
    scaled by G_t.  The system is returned as one Fortran-ordered array per
    :func:`parity_classes` class, as LAPACK factors it in place: class c's
    system holds the rows and columns ``local`` of every block.  Each
    distinct pair of displacement c_s - c_t (equal bit for bit) and source
    radius is translated once, and its class sub-blocks are copied to every
    sphere pair that repeats it: a regular grid repeats its displacements.
    """
    from .translation import sr_translation

    k, n_fwd = scene.k, scene.n_fwd
    lf = num_coeffs(n_fwd)
    gains = _scatter_gains(scene)
    locals_ = [local for local, _ in parity_classes(scene)]
    systems = [np.eye(scene.num_spheres * local.size, dtype=complex, order="F") for local in locals_]
    built = {}  # (displacement bytes, source radius) -> the class blocks already holding it
    for s, sph_s in enumerate(scene.spheres):
        for t, sph_t in enumerate(scene.spheres):
            if s == t:
                continue
            blocks = [
                system[s * local.size : (s + 1) * local.size, t * local.size : (t + 1) * local.size]
                for system, local in zip(systems, locals_)
            ]
            shift = sph_s.center - sph_t.center
            key = (shift.tobytes(), sph_t.radius)
            if key in built:
                for block, done in zip(blocks, built[key]):
                    block[:] = done
            else:
                sr = sr_translation(shift, k, n_fwd, n_fwd)
                column_gains = -gains[t * lf : (t + 1) * lf]
                for block, local in zip(blocks, locals_):
                    np.multiply(sr[np.ix_(local, local)], column_gains[local], out=block)
                built[key] = blocks
    return systems


def _local_incident_matrices(scene: SceneConfig) -> Iterator[np.ndarray]:
    """Per-sphere (L_fwd x L_in) maps from global to truncated local coefficients, built as consumed."""
    from .translation import rr_translation

    return (rr_translation(sph.center, scene.k, scene.n_in, scene.n_fwd) for sph in scene.spheres)


def _local_incident_block(scene: SceneConfig) -> list[np.ndarray]:
    """Every sphere's local incident map (its R|R translation), one Fortran-ordered
    (spheres x |local|, |incident|) block per :func:`parity_classes` class
    holding each sphere's rows ``local`` and columns ``incident``, filled one
    sphere at a time."""
    classes = parity_classes(scene)
    blocks = [
        np.empty((scene.num_spheres * local.size, incident.size), dtype=complex, order="F")
        for local, incident in classes
    ]
    for s, matrix in enumerate(_local_incident_matrices(scene)):
        for block, (local, incident) in zip(blocks, classes):
            block[s * local.size : (s + 1) * local.size] = matrix[np.ix_(local, incident)]
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
    """
    solutions, anorm, inverse_norm = [], 0.0, 0.0
    for system, rhs in zip(systems, rhss):
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
    :func:`parity_classes` class at a time; the radiating coefficients are
    b = G c.  ``_local`` is the scene's :func:`_local_incident_block` when
    the caller has already built it; otherwise each sphere's map is built,
    applied and dropped in turn.  ``_parts`` gathers the seconds spent per
    forward part (see :data:`FORWARD_PARTS`).
    """
    if a_in.n_max != scene.n_in:
        raise ValueError(f"incident coefficients must be truncated at {scene.n_in}")
    classes = parity_classes(scene)
    with _timed(_parts, "translation"):
        if _local is None:
            per_sphere = [m @ a_in.values for m in _local_incident_matrices(scene)]
            a_local = [np.concatenate([v[local] for v in per_sphere]) for local, _ in classes]
        else:
            a_local = [block @ a_in.values[incident] for block, (_, incident) in zip(_local, classes)]
        systems = assemble_system_matrix(scene)
    with _timed(_parts, "solve"):
        c, rcond = _solve_coupled(systems, a_local)
        b = _scatter_gains(scene).reshape(scene.num_spheres, -1)  # one row per sphere
        for (local, _), c_class in zip(classes, c):
            b[:, local] *= c_class.reshape(scene.num_spheres, -1)
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


def _multipole_field(scene: SceneConfig, points: np.ndarray, blocks: list, singular) -> np.ndarray:
    """The incident regular series plus every sphere's singular series at ``points``.

    Row p, column j is R(p) e_j + sum_t S_t(p) b_t[:, j], with ``blocks``
    holding the stacked radiating coefficients b of each incident basis e_j
    per :func:`parity_classes` class (class c's block gives the columns
    ``incident`` and the rows ``local`` of every sphere).  ``singular``
    gives each sphere's S_t at ``points`` in turn; when those are scaled by
    the gains, ``blocks`` may hold the local fields c, with b = gains * c,
    so no copy of c is made.  The sum runs one source sphere at a time.
    """
    classes = parity_classes(scene)
    scattered = [np.zeros((len(points), incident.size), dtype=complex) for _, incident in classes]
    for t, basis in enumerate(singular):
        for field, block, (local, _) in zip(scattered, blocks, classes):
            field += basis[:, local] @ block[t * local.size : (t + 1) * local.size]
    out = regular_basis_matrix(scene.n_in, scene.k, points, [0.0, 0.0, 0.0])
    for field, (_, incident) in zip(scattered, classes):
        out[:, incident] += field
    return out


def _capsule_residual(scene: SceneConfig, matrix: np.ndarray, c: list, gains: np.ndarray) -> float:
    """Max-abs gap of ``matrix`` to :func:`_multipole_field` of ``c`` over its max, on sampled capsules.

    The sample is RESIDUAL_SAMPLES capsules per sphere, a fixed stride
    through its Fibonacci order, checked one sphere at a time.  Every
    sphere's singular basis at a sample comes from one evaluation at the
    sample's offsets from all the centers, so a sphere's check evaluates
    two bases, not one per sphere plus one.  The gap is the capsule form's
    one approximation: the field a sphere feels is cut off at degree n_fwd.
    """
    centers = np.array([s.center for s in scene.spheres])
    gains = gains.reshape(len(centers), 1, -1)
    gap, top, start = 0.0, 0.0, 0
    for sphere in scene.spheres:
        rows = np.arange(0, sphere.num_capsules, -(-sphere.num_capsules // RESIDUAL_SAMPLES))
        points = sphere.capsule_positions()[rows]
        offsets = (points[None, :, :] - centers[:, None, :]).reshape(-1, 3)
        singular = singular_basis_matrix(scene.n_fwd, scene.k, offsets, [0.0, 0.0, 0.0])
        singular = singular.reshape(len(centers), len(rows), -1)  # sphere, capsule, (n, m)
        singular *= gains
        reference = _multipole_field(scene, points, c, singular)
        gap = max(gap, np.max(np.abs(matrix[start + rows] - reference)))
        top = max(top, np.max(np.abs(reference)))
        start += sphere.num_capsules
    return float(gap / top)


def forward_operator(
    scene: SceneConfig, include_coupling: bool = True, _local=None, _parts=None
) -> ForwardOperator:
    """Assemble the dense capsule-pressure response to every incident basis.

    Every sphere's local incident map (its R|R translation) fills its rows of
    one right-hand-side block per :func:`parity_classes` class, which the
    coupled solve overwrites with the field each sphere feels, c, so the
    class systems, those blocks and T_F are the only arrays of their size.
    Sphere s's capsule rows of T_F are then its rigid-surface response times
    c_s, ``surface_response_matrix`` at n_fwd (Gumerov & Duraiswami, 2004,
    ch. 4), class by class into the class's columns, and a sample of them is
    checked against the full multipole sum (``capsule_residual``).  Without
    coupling each sphere scatters its local incident field alone: its
    T-matrix (the diagonal ``rigid_scatter_gain``) times its local incident
    coefficients, with no system to solve, and T_F is the incident regular
    series plus every sphere's singular series at the capsules.
    ``_local`` is the scene's :func:`_local_incident_block` when the caller
    has already built it; it is overwritten.  ``_parts`` gathers the seconds
    spent per forward part (see :data:`FORWARD_PARTS`).
    """
    k, n_fwd = scene.k, scene.n_fwd
    with _timed(_parts, "translation"):
        classes, gains = parity_classes(scene), _scatter_gains(scene)
        blocks = _local_incident_block(scene) if _local is None else _local
        systems = assemble_system_matrix(scene) if include_coupling else None
    with _timed(_parts, "solve"):
        if include_coupling:
            blocks, rcond = _solve_coupled(systems, blocks)  # c
        else:  # b = G a_local
            rcond = None
            for block, (local, _) in zip(blocks, classes):
                block *= gains.reshape(scene.num_spheres, -1)[:, local].reshape(-1, 1)
        del systems  # the LU factors: freed before T_F is allocated
    with _timed(_parts, "capsule"):
        matrix = np.empty((scene.total_capsules, num_coeffs(scene.n_in)), dtype=complex)
        start = 0
        for s, sphere in enumerate(scene.spheres):
            rows = slice(start, start + sphere.num_capsules)
            if include_coupling:
                response = surface_response_matrix(sphere, k, n_fwd)
                for block, (local, incident) in zip(blocks, classes):
                    response_class, c_class = response[:, local], block[s * local.size : (s + 1) * local.size]
                    for first in range(0, sphere.num_capsules, FILL_ROWS):
                        part = slice(first, first + FILL_ROWS)
                        matrix[rows][part, incident] = response_class[part] @ c_class
            else:
                points = sphere.capsule_positions()
                singular = (singular_basis_matrix(n_fwd, k, points, t.center) for t in scene.spheres)
                matrix[rows] = _multipole_field(scene, points, blocks, singular)
            start = rows.stop
    residual = None
    if include_coupling:
        with _timed(_parts, "residual"):
            residual = _capsule_residual(scene, matrix, blocks, gains)
    return ForwardOperator(scene=scene, matrix=matrix, rcond=rcond, capsule_residual=residual)
