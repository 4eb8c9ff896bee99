"""Single- and multi-sphere rigid scattering: system assembly, solve, evaluation."""

from __future__ import annotations

import logging
from collections.abc import Iterator
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


def assemble_system_matrix(scene: SceneConfig) -> np.ndarray:
    """Coupled block system (I - SR G) c = a_local for the field each sphere feels.

    c_s holds the local coefficients of the total field incident on sphere s
    (the incident wave plus every other sphere's scattered wave), and sphere
    s radiates b_s = G_s c_s with G_s = diag(rigid_scatter_gain).  Diagonal
    blocks are the identity; the (s, t) off-diagonal block is minus the
    singular-to-regular translation from sphere t to s with its columns
    scaled by G_t.  The system is one Fortran-ordered array, as LAPACK
    factors it in place, and each distinct pair of displacement c_s - c_t
    (equal bit for bit) and source radius is built once: a regular grid
    repeats its displacements.
    """
    from .translation import sr_translation

    k, n_fwd = scene.k, scene.n_fwd
    lf = num_coeffs(n_fwd)
    gains = _scatter_gains(scene)
    out = np.zeros((gains.size, gains.size), dtype=complex, order="F")
    out[np.diag_indices(gains.size)] = 1.0
    built = {}  # (displacement bytes, source radius) -> the block already holding it
    for s, sph_s in enumerate(scene.spheres):
        for t, sph_t in enumerate(scene.spheres):
            if s == t:
                continue
            block = out[s * lf : (s + 1) * lf, t * lf : (t + 1) * lf]
            shift = sph_s.center - sph_t.center
            key = (shift.tobytes(), sph_t.radius)
            if key in built:
                block[:] = built[key]
            else:
                np.multiply(sr_translation(shift, k, n_fwd, n_fwd), -gains[t * lf : (t + 1) * lf], out=block)
                built[key] = block
    return out


def _local_incident_matrices(scene: SceneConfig) -> Iterator[np.ndarray]:
    """Per-sphere (L_fwd x L_in) maps from global to truncated local coefficients, built as consumed."""
    from .translation import rr_translation

    return (rr_translation(sph.center, scene.k, scene.n_in, scene.n_fwd) for sph in scene.spheres)


def _local_incident_block(scene: SceneConfig) -> np.ndarray:
    """Every sphere's local incident map (its R|R translation) in its rows of one
    Fortran-ordered (spheres x L_fwd, L_in) block, filled one sphere at a time."""
    lf = num_coeffs(scene.n_fwd)
    block = np.empty((scene.num_spheres * lf, num_coeffs(scene.n_in)), dtype=complex, order="F")
    for s, local in enumerate(_local_incident_matrices(scene)):
        block[s * lf : (s + 1) * lf] = local
    return block


def _solve_coupled(system: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``system @ x = rhs``: (x, the 1-norm rcond estimate of ``system``).

    Both arrays belong to the caller and are overwritten: ``system`` by its LU
    factors and ``rhs`` by the solution, which is returned in its memory when
    it is a Fortran-ordered complex array.  No copy of either is made.
    """
    lange = sla.get_lapack_funcs("lange", (system,))
    anorm = lange("1", system)  # max column sum of |a_ij|, no |A| buffer
    # a NaN or inf entry makes a norm non-finite: the finiteness checks without a boolean copy of either array
    if not (np.isfinite(anorm) and np.isfinite(lange("M", rhs.reshape(len(rhs), -1)))):
        raise SolverError("the coupled system or its right-hand side holds a non-finite entry")
    lu, piv = sla.lu_factor(system, overwrite_a=True, check_finite=False)
    gecon = sla.get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond == 0.0:
        raise SolverError(f"system matrix is numerically singular (rcond={rcond})")
    log.info("system matrix size %d, rcond estimate %.3e", lu.shape[0], rcond)
    return sla.lu_solve((lu, piv), rhs, overwrite_b=True, check_finite=False), float(rcond)


def forward_solve(scene: SceneConfig, a_in: CoefficientVector, _local=None) -> ScatterSolution:
    """Solve the coupled scattering problem for one incident expansion.

    The system is solved for the field each sphere feels, c; the radiating
    coefficients are b = G c.  ``_local`` is the scene's
    :func:`_local_incident_block` when the caller has already built it;
    otherwise each sphere's map is built, applied and dropped in turn.
    """
    if a_in.n_max != scene.n_in:
        raise ValueError(f"incident coefficients must be truncated at {scene.n_in}")
    if _local is None:
        a_local = np.concatenate([m @ a_in.values for m in _local_incident_matrices(scene)])
    else:
        a_local = _local @ a_in.values
    c_all, rcond = _solve_coupled(assemble_system_matrix(scene), a_local)
    b_all = _scatter_gains(scene) * c_all
    rad = [
        CoefficientVector(k=scene.k, n_max=scene.n_fwd, values=b)
        for b in np.split(b_all, scene.num_spheres)
    ]
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


def _multipole_field(scene: SceneConfig, points: np.ndarray, coeffs: np.ndarray, gains=None) -> np.ndarray:
    """The incident regular series plus every sphere's singular series at ``points``.

    Row p, column j is R(p) e_j + sum_t S_t(p) b_t[:, j] with ``coeffs``
    holding the stacked radiating coefficients b of each incident basis
    e_j, or, when ``gains`` are given, the local fields c with b = gains * c
    (the singular bases are scaled instead, so no copy of c is made).
    """
    k = scene.k
    singular = np.hstack([singular_basis_matrix(scene.n_fwd, k, points, sph.center) for sph in scene.spheres])
    if gains is not None:
        singular *= gains
    out = regular_basis_matrix(scene.n_in, k, points, [0.0, 0.0, 0.0])
    out += singular @ coeffs
    return out


def _capsule_residual(scene: SceneConfig, matrix: np.ndarray, c_all: np.ndarray, gains: np.ndarray) -> float:
    """Max-abs gap of ``matrix`` to :func:`_multipole_field` of ``c_all`` over its max, on sampled capsules.

    The sample is RESIDUAL_SAMPLES capsules per sphere, a fixed stride
    through its Fibonacci order, checked one sphere at a time.  The gap is
    the capsule form's one approximation: the field a sphere feels is cut
    off at degree n_fwd.
    """
    gap, top, start = 0.0, 0.0, 0
    for sphere in scene.spheres:
        rows = np.arange(0, sphere.num_capsules, -(-sphere.num_capsules // RESIDUAL_SAMPLES))
        reference = _multipole_field(scene, sphere.capsule_positions()[rows], c_all, gains)
        gap = max(gap, np.max(np.abs(matrix[start + rows] - reference)))
        top = max(top, np.max(np.abs(reference)))
        start += sphere.num_capsules
    return float(gap / top)


def forward_operator(scene: SceneConfig, include_coupling: bool = True, _local=None) -> ForwardOperator:
    """Assemble the dense capsule-pressure response to every incident basis.

    Every sphere's local incident map (its R|R translation) fills its rows of
    one (spheres x L_fwd, L_in) block, which the coupled solve overwrites
    with the field each sphere feels, c, so the system, that block and T_F
    are the only arrays of their size.  Sphere s's capsule rows of T_F are
    then its rigid-surface response times c_s, ``surface_response_matrix``
    at n_fwd (Gumerov & Duraiswami, 2004, ch. 4), and a sample of them is
    checked against the full multipole sum (``capsule_residual``).  Without
    coupling each sphere scatters its local incident field alone: its
    T-matrix (the diagonal ``rigid_scatter_gain``) times its local incident
    coefficients, with no system to solve, and T_F is the incident regular
    series plus every sphere's singular series at the capsules.
    ``_local`` is the scene's :func:`_local_incident_block` when the caller
    has already built it; it is overwritten.
    """
    k, n_fwd = scene.k, scene.n_fwd
    block = _local_incident_block(scene) if _local is None else _local
    gains = _scatter_gains(scene)
    if include_coupling:
        block, rcond = _solve_coupled(assemble_system_matrix(scene), block)  # c
    else:
        block, rcond = np.multiply(gains[:, None], block, out=block), None  # b = G a_local
    matrix = np.empty((scene.total_capsules, block.shape[1]), dtype=complex)
    lf, start = num_coeffs(n_fwd), 0
    for s, sphere in enumerate(scene.spheres):
        rows = slice(start, start + sphere.num_capsules)
        if include_coupling:
            np.matmul(surface_response_matrix(sphere, k, n_fwd), block[s * lf : (s + 1) * lf], out=matrix[rows])
        else:
            matrix[rows] = _multipole_field(scene, sphere.capsule_positions(), block)
        start = rows.stop
    residual = _capsule_residual(scene, matrix, block, gains) if include_coupling else None
    return ForwardOperator(scene=scene, matrix=matrix, rcond=rcond, capsule_residual=residual)
