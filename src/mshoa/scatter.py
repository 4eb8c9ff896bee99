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
    return y * gain[None, :]


def rigid_scatter_gain(k: float, radius: float, n_c: int) -> np.ndarray:
    """Per-mode scattering gain -j'_n(ka)/h'_n(ka), repeated over orders."""
    ka = k * radius
    ratio = -sph_bessel_j(np.arange(n_c + 1), ka, derivative=True) / sph_hankel1(
        np.arange(n_c + 1), ka, derivative=True
    )
    return ratio[degrees_upto(n_c)]


def assemble_system_matrix(scene: SceneConfig) -> np.ndarray:
    """Coupled block system relating local incident to radiating coefficients, A' = S B'.

    Diagonal blocks are diag(-h'_n(ka_s)/j'_n(ka_s)); the (s, t) off-diagonal
    block is minus the singular-to-regular translation from sphere t to s.
    The system is one Fortran-ordered array, as LAPACK factors it in place,
    and each distinct displacement c_s - c_t (equal bit for bit) is translated
    once: a regular grid repeats its displacements.
    """
    from .translation import sr_translation

    k = scene.k
    n_fwd = scene.n_fwd
    lf = num_coeffs(n_fwd)
    ns = scene.num_spheres
    out = np.zeros((ns * lf, ns * lf), dtype=complex, order="F")
    built = {}  # displacement bytes -> the block already holding its translation
    for s, sph_s in enumerate(scene.spheres):
        for t, sph_t in enumerate(scene.spheres):
            block = out[s * lf : (s + 1) * lf, t * lf : (t + 1) * lf]
            if s == t:
                block[np.diag_indices(lf)] = 1.0 / rigid_scatter_gain(k, sph_s.radius, n_fwd)
                continue
            shift = sph_s.center - sph_t.center
            key = shift.tobytes()
            if key in built:
                block[:] = built[key]
            else:
                block[:] = -sr_translation(shift, k, n_fwd, n_fwd)
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
    anorm = sla.get_lapack_funcs("lange", (system,))("1", system)  # max column sum of |a_ij|, no |A| buffer
    try:
        lu, piv = sla.lu_factor(system, overwrite_a=True)
    except Exception as exc:  # LAPACK failures surface as generic errors
        raise SolverError(f"LU factorization of the system matrix failed: {exc}")
    gecon = sla.get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond == 0.0:
        raise SolverError(f"system matrix is numerically singular (rcond={rcond})")
    log.info("system matrix size %d, rcond estimate %.3e", lu.shape[0], rcond)
    return sla.lu_solve((lu, piv), rhs, overwrite_b=True), float(rcond)


def forward_solve(scene: SceneConfig, a_in: CoefficientVector, _local=None) -> ScatterSolution:
    """Solve the coupled scattering problem for one incident expansion.

    ``_local`` is the scene's :func:`_local_incident_block` when the caller
    has already built it; otherwise each sphere's map is built, applied and
    dropped in turn.
    """
    if a_in.n_max != scene.n_in:
        raise ValueError(f"incident coefficients must be truncated at {scene.n_in}")
    if _local is None:
        a_local = np.concatenate([m @ a_in.values for m in _local_incident_matrices(scene)])
    else:
        a_local = _local @ a_in.values
    b_all, rcond = _solve_coupled(assemble_system_matrix(scene), a_local)
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


def forward_operator(scene: SceneConfig, include_coupling: bool = True, _local=None) -> ForwardOperator:
    """Assemble the dense capsule-pressure response to every incident basis.

    Every sphere's local incident map (its R|R translation) fills its rows of
    one (spheres x L_fwd, L_in) block, which the coupled solve overwrites
    with the radiating coefficients, so the system, that block and T_F are
    the only arrays of their size.  T_F is then filled one sphere's capsules
    at a time: the incident regular basis plus the singular bases of every
    sphere at those capsules times the radiating coefficients.  Without
    coupling each sphere scatters its local incident field alone: its
    T-matrix (the diagonal ``rigid_scatter_gain``) times its local incident
    coefficients, with no system to solve (Gumerov & Duraiswami, 2004, ch. 4).
    ``_local`` is the scene's :func:`_local_incident_block` when the caller
    has already built it; it is overwritten.
    """
    k, n_fwd = scene.k, scene.n_fwd
    b_all = _local_incident_block(scene) if _local is None else _local
    if include_coupling:
        b_all, rcond = _solve_coupled(assemble_system_matrix(scene), b_all)
    else:
        gains = np.concatenate([rigid_scatter_gain(k, sph.radius, n_fwd) for sph in scene.spheres])
        b_all, rcond = np.multiply(gains[:, None], b_all, out=b_all), None
    matrix = np.empty((scene.total_capsules, b_all.shape[1]), dtype=complex)
    start = 0
    for sphere in scene.spheres:
        caps = sphere.capsule_positions()
        rows = slice(start, start + len(caps))
        singular = np.hstack([singular_basis_matrix(n_fwd, k, caps, sph.center) for sph in scene.spheres])
        matrix[rows] = regular_basis_matrix(scene.n_in, k, caps, [0.0, 0.0, 0.0])
        matrix[rows] += singular @ b_all
        start = rows.stop
    return ForwardOperator(scene=scene, matrix=matrix, rcond=rcond)
