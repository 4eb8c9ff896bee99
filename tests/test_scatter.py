"""Rigid multi-sphere scattering: system assembly, solves, field evaluation."""

import numpy as np
import pytest

from mshoa.basis import num_coeffs, regular_basis_matrix, sph_bessel_j, sph_hankel1
from mshoa.scene import IncidentSource, RsmaSpec, SceneConfig, SceneError
from mshoa.scatter import (
    assemble_system_matrix,
    eval_total_field,
    forward_operator,
    forward_solve,
    rigid_scatter_gain,
    surface_response_matrix,
)
from tests.conftest import random_unit_vectors
from tests.oracles import eval_radial_derivative, single_sphere_total_field


def _scene(centers, radius=0.08, caps=20, freq=2000.0, n_in=12, n_fwd=8, **kw):
    return SceneConfig(
        spheres=[RsmaSpec.fibonacci(c, radius, caps) for c in centers],
        source=kw.pop("source", IncidentSource(kind="plane_wave", direction=[0.3, -0.2, 0.9])),
        frequency=freq,
        n_in=n_in,
        n_fwd=n_fwd,
        **kw,
    )


def test_rigid_scatter_gain_values():
    k, a = 10.0, 0.1
    gain = rigid_scatter_gain(k, a, 2)
    for n, l in ((0, 0), (1, 2), (2, 6)):
        expected = -sph_bessel_j(n, k * a, derivative=True) / sph_hankel1(
            n, k * a, derivative=True
        )
        assert gain[l] == pytest.approx(expected, rel=1e-14)


def test_surface_response_collapses_radial_sum():
    """On the rigid sphere surface the total per-mode radial factor
    j_n(kR) - h_n(kR) j'_n(kR)/h'_n(kR) collapses (by the Wronskian) to
    i/((kR)^2 h'_n(kR)), which is what the response matrix encodes."""
    sphere = RsmaSpec.fibonacci([0.0, 0.0, 0.0], 0.08, 40)
    k = 2 * np.pi * 2000 / 343.0
    kr = k * sphere.radius
    resp = surface_response_matrix(sphere, k, 8)
    from mshoa.basis import cart_to_sph, degrees_upto, sph_harm_matrix

    _, th, ph = cart_to_sph(sphere.capsule_dirs)
    y = sph_harm_matrix(8, th, ph)
    ns = degrees_upto(8)
    radial = sph_bessel_j(ns, kr) + rigid_scatter_gain(k, sphere.radius, 8) * (
        sph_hankel1(ns, kr)
    )
    np.testing.assert_allclose(resp, y * radial[None, :], atol=1e-12)


def test_single_sphere_pipeline_matches_closed_form(rng):
    """The full coupled solve with one sphere equals the analytic rigid-sphere
    total field."""
    scene = _scene([[0.0, 0.0, 0.0]], n_in=14, n_fwd=14)
    a_in = scene.incident_coeffs()
    sol = forward_solve(scene, a_in)
    pts = 0.3 * random_unit_vectors(rng, 30)
    total = eval_total_field(scene, sol, a_in, pts)
    ref = single_sphere_total_field(a_in, scene.spheres[0].radius, scene.k, pts)
    assert np.max(np.abs(total - ref)) / np.max(np.abs(ref)) < 1e-12


def test_forward_solve_linearity(rng):
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]])
    a1 = scene.incident_coeffs()
    v2 = rng.normal(size=a1.values.size) + 1j * rng.normal(size=a1.values.size)
    from mshoa.basis import CoefficientVector

    a2 = CoefficientVector(k=scene.k, n_max=scene.n_in, values=v2)
    alpha = 0.7 - 1.3j
    combo = CoefficientVector(
        k=scene.k, n_max=scene.n_in, values=a1.values + alpha * v2
    )
    s1, s2, sc = (forward_solve(scene, a) for a in (a1, a2, combo))
    for b1, b2, bc in zip(s1.radiating, s2.radiating, sc.radiating):
        np.testing.assert_allclose(
            bc.values, b1.values + alpha * b2.values, atol=1e-12
        )


def test_rigid_boundary_condition(rng):
    """The normal derivative of the total field vanishes on each sphere."""
    scene = _scene(
        [[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], freq=2000.0, n_in=20, n_fwd=16
    )
    a_in = scene.incident_coeffs()
    sol = forward_solve(scene, a_in)
    k = scene.k
    # scale: the incident field's radial derivative is O(k)
    dirs = random_unit_vectors(rng, 8)
    for s in range(2):
        for d in dirs:
            if abs(d[2]) > 0.97:
                continue  # gradient evaluation excludes the polar axis
            dn = eval_radial_derivative(scene, sol, a_in, s, d)
            assert abs(dn) / k < 1e-6


def test_boundary_residual_converges_with_truncation(rng):
    dirs = random_unit_vectors(rng, 6)
    dirs = dirs[np.abs(dirs[:, 2]) < 0.95]
    residuals = []
    for n_fwd in (4, 8, 12):
        scene = _scene(
            [[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], n_in=18, n_fwd=n_fwd
        )
        a_in = scene.incident_coeffs()
        sol = forward_solve(scene, a_in)
        worst = max(
            abs(eval_radial_derivative(scene, sol, a_in, s, d)) / scene.k
            for s in range(2)
            for d in dirs
        )
        residuals.append(worst)
    assert residuals[0] > residuals[1] > residuals[2]


def test_widely_separated_spheres_decouple():
    """At 100 m separation and low frequency the coupled solution reduces to
    the uncoupled one."""
    scene = _scene(
        [[0.0, -50.0, 0.0], [0.0, 50.0, 0.0]], freq=20.0, n_in=6, n_fwd=4
    )
    coupled = forward_operator(scene, include_coupling=True).matrix
    uncoupled = forward_operator(scene, include_coupling=False).matrix
    rel = np.linalg.norm(coupled - uncoupled) / np.linalg.norm(uncoupled)
    assert rel < 1e-6


def _reference_operator(scene, system, a_local):
    """Capsule pressures per incident basis from a dense solve of ``system``."""
    import scipy.linalg as sla

    from mshoa.basis import singular_basis_matrix

    b_all = sla.solve(system, a_local)
    caps = scene.capsule_positions()
    sing = np.hstack(
        [singular_basis_matrix(scene.n_fwd, scene.k, caps, s.center) for s in scene.spheres]
    )
    return sing @ b_all + regular_basis_matrix(scene.n_in, scene.k, caps, [0.0, 0.0, 0.0])


def test_uncoupled_operator_matches_the_diagonal_system_solve():
    """Each sphere's T-matrix times its local incident coefficients gives the
    operator that solving the block-diagonal system diag(1/gain) B = A gives."""
    from mshoa.translation import rr_translation

    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]])
    k = scene.k
    a_local = np.vstack(
        [rr_translation(s.center, k, scene.n_in, scene.n_fwd) for s in scene.spheres]
    )
    system = np.diag(
        np.concatenate([1.0 / rigid_scatter_gain(k, s.radius, scene.n_fwd) for s in scene.spheres])
    )
    reference = _reference_operator(scene, system, a_local)
    op = forward_operator(scene, include_coupling=False)
    assert np.max(np.abs(op.matrix - reference)) / np.max(np.abs(reference)) <= 1e-13
    assert op.rcond is None  # no system was solved
    assert forward_operator(scene).rcond > 0


def _reference_coupled_operator(scene, a_local):
    """Lambda_s c_s per sphere, c from a dense solve of (I - SR G) c = a_local.

    The system is assembled here block by block, every S|R translation built
    anew and its columns scaled by the source sphere's gains.
    """
    import scipy.linalg as sla

    from mshoa.translation import sr_translation

    k, n, lf = scene.k, scene.n_fwd, num_coeffs(scene.n_fwd)
    gains = [rigid_scatter_gain(k, s.radius, n) for s in scene.spheres]
    system = np.block(
        [
            [
                np.eye(lf) if a is b else -sr_translation(a.center - b.center, k, n, n) * gains[t][None, :]
                for t, b in enumerate(scene.spheres)
            ]
            for a in scene.spheres
        ]
    )
    c = np.split(sla.solve(system, a_local), scene.num_spheres)
    return np.vstack([surface_response_matrix(s, k, n) @ c_s for s, c_s in zip(scene.spheres, c)])


def _local_incident(scene, n_build=None):
    """Every sphere's R|R map to n_fwd, built at ``n_build`` (default n_fwd) and truncated."""
    from mshoa.translation import rr_translation

    n_build = scene.n_fwd if n_build is None else n_build
    lf = num_coeffs(scene.n_fwd)
    return np.vstack([rr_translation(s.center, scene.k, scene.n_in, n_build)[:lf] for s in scene.spheres])


def _rel_gap(matrix, reference):
    return np.max(np.abs(matrix - reference)) / np.max(np.abs(reference))


def test_forward_operator_matches_solve_route():
    """T_F is each sphere's surface response times the field it feels, Lambda_s c_s:
    the in-place build equals a dense solve assembled in the test, and applying
    T_F equals Lambda_s b_s / G_s from the vector solve (two independent routes)."""
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], caps=14)
    op = forward_operator(scene)
    assert _rel_gap(op.matrix, _reference_coupled_operator(scene, _local_incident(scene))) <= 1e-13
    a_in = scene.incident_coeffs()
    sol = forward_solve(scene, a_in)
    via_solve = np.concatenate(
        [
            surface_response_matrix(s, scene.k, scene.n_fwd) @ (b.values / rigid_scatter_gain(scene.k, s.radius, scene.n_fwd))
            for s, b in zip(scene.spheres, sol.radiating)
        ]
    )
    assert _rel_gap(op.apply(a_in), via_solve) <= 1e-13


def test_local_incident_at_forward_degree_matches_truncated_build():
    """Building each sphere's R|R at n_fwd gives the operator that building it
    at n_in and keeping the first (n_fwd+1)^2 rows gives."""
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], n_in=16, n_fwd=12)
    reference = _reference_coupled_operator(scene, _local_incident(scene, n_build=scene.n_in))
    assert _rel_gap(forward_operator(scene).matrix, reference) <= 1e-13


def test_capsule_form_converges_to_the_multipole_sum():
    """The capsule form cuts the field each sphere feels off at n_fwd; its gap to
    the eval_total_field oracle at the capsules shrinks as n_fwd rises."""
    gaps = []
    for n_fwd in (4, 8, 12):
        scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], n_in=18, n_fwd=n_fwd)
        a_in = scene.incident_coeffs()
        op = forward_operator(scene)
        oracle = eval_total_field(scene, forward_solve(scene, a_in), a_in, scene.capsule_positions())
        gaps.append(_rel_gap(op.apply(a_in), oracle))
    assert gaps[0] > gaps[1] > gaps[2]


def test_eval_rejects_interior_points():
    scene = _scene([[0.0, 0.0, 0.0]])
    a_in = scene.incident_coeffs()
    sol = forward_solve(scene, a_in)
    with pytest.raises(SceneError):
        eval_total_field(scene, sol, a_in, np.array([[0.0, 0.0, 0.01]]))


def test_forward_operator_shape_and_guards():
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], caps=10)
    op = forward_operator(scene)
    assert op.matrix.shape == (20, num_coeffs(scene.n_in))
    from mshoa.basis import CoefficientVector

    bad = CoefficientVector(k=scene.k, n_max=scene.n_in + 1, values=np.zeros(num_coeffs(scene.n_in + 1)))
    with pytest.raises(ValueError):
        op.apply(bad)


def _grid4(**kw):
    """A 2 x 2 planar grid: 12 ordered sphere pairs over 8 distinct displacements."""
    return _scene([[x, y, 0.0] for x in (-0.125, 0.125) for y in (-0.125, 0.125)], **kw)


def test_forward_operator_holds_one_system_one_block_and_t_f():
    """The coupled build's traced peak fits in the system, the right-hand-side
    block and T_F: the LU factors, the solution and T_F's capsule stage reuse
    or outlive none of them."""
    import tracemalloc

    scene = _grid4(caps=80, n_in=12, n_fwd=10)
    forward_operator(scene)  # fill the translation caches outside the trace
    unknowns, incident = scene.num_spheres * num_coeffs(scene.n_fwd), num_coeffs(scene.n_in)
    budget = 16 * (unknowns * unknowns + unknowns * incident + scene.total_capsules * incident)
    tracemalloc.start()
    try:
        forward_operator(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def _assert_column_scaled_system(scene, system, sr):
    """Unit diagonal; block (s, t) is -SR(c_s - c_t) diag(G_t), equal bit for bit."""
    lf, n = num_coeffs(scene.n_fwd), scene.n_fwd
    np.testing.assert_array_equal(np.diag(system), np.ones(scene.num_spheres * lf))
    for s, a in enumerate(scene.spheres):
        for t, b in enumerate(scene.spheres):
            block = system[s * lf : (s + 1) * lf, t * lf : (t + 1) * lf]
            if s == t:
                np.testing.assert_array_equal(block, np.eye(lf))
            else:
                gain = rigid_scatter_gain(scene.k, b.radius, n)
                np.testing.assert_array_equal(block, sr(a.center - b.center, scene.k, n, n) * -gain[None, :])


def _count_sr(monkeypatch):
    """Record the displacement of every S|R translation built."""
    from mshoa import translation

    shifts = []
    sr = translation.sr_translation

    def counting_sr(t, *args):
        shifts.append(tuple(t))
        return sr(t, *args)

    monkeypatch.setattr(translation, "sr_translation", counting_sr)
    return shifts, sr


def test_system_translates_each_distinct_displacement_once(monkeypatch):
    shifts, sr = _count_sr(monkeypatch)
    scene = _grid4(n_fwd=4)
    system = assemble_system_matrix(scene)
    assert len(shifts) == len(set(shifts)) == 8
    monkeypatch.undo()
    _assert_column_scaled_system(scene, system, sr)


def test_system_reuses_a_displacement_only_from_a_source_of_equal_radius(monkeypatch):
    """In a row of three spheres each displacement of 0.25 recurs.  Its columns
    carry the source's gains: -0.25 y (sources 1 and 2, both 0.06) is built
    once, +0.25 y (sources 0 and 1, radii 0.08 and 0.06) twice."""
    shifts, sr = _count_sr(monkeypatch)
    radii = (0.08, 0.06, 0.06)
    scene = SceneConfig(
        spheres=[RsmaSpec.fibonacci([0.0, 0.25 * (i - 1), 0.0], r, 20) for i, r in enumerate(radii)],
        source=IncidentSource(kind="plane_wave", direction=[0.3, -0.2, 0.9]),
        frequency=2000.0,
        n_in=8,
        n_fwd=4,
    )
    system = assemble_system_matrix(scene)
    assert len(shifts) == 5 and len(set(shifts)) == 4
    monkeypatch.undo()
    _assert_column_scaled_system(scene, system, sr)


@pytest.mark.filterwarnings("ignore:Diagonal number:scipy.linalg.LinAlgWarning")  # the exactly singular case
def test_coupled_solve_rejects_non_finite_and_singular_systems():
    from mshoa.scatter import SolverError, _solve_coupled

    def solve(system, rhs):
        return _solve_coupled(np.asfortranarray(system, dtype=complex), np.asfortranarray(rhs, dtype=complex))

    x, rcond = solve(2 * np.eye(3), np.ones((3, 2)))
    np.testing.assert_array_equal(x, 0.5 * np.ones((3, 2)))
    assert rcond == 1.0
    for system, rhs in (
        (np.diag([1.0, np.nan, 1.0]), np.ones(3)),
        (np.diag([1.0, np.inf, 1.0]), np.ones(3)),
        (np.eye(3), np.array([1.0, np.nan, 1.0])),
        (np.eye(3), np.array([[1.0, 1.0], [1.0, 1.0], [np.inf, 1.0]])),
        (np.ones((3, 3)), np.ones(3)),
    ):
        with pytest.raises(SolverError):
            solve(system, rhs)
