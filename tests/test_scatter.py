"""Rigid multi-sphere scattering: system assembly, solves, field evaluation."""

import numpy as np
import pytest

from mshoa.basis import _to_pairs, num_coeffs
from mshoa.scene import IncidentSource, RsmaSpec, SceneConfig, SceneError
from mshoa.scatter import (
    _apply_blocks,
    _radiating,
    assemble_system_matrix,
    eval_total_field,
    forward_operator,
    forward_solve,
    mirror_classes,
    rigid_scatter_gain,
    surface_response_matrix,
)
from tests.conftest import random_unit_vectors
from tests.oracles import (
    coupled_system_matrix,
    eval_radial_derivative,
    local_incident_matrix,
    mirror_class_bases,
    pair_basis,
    reflection_matrix,
    single_sphere_total_field,
    sph_bessel_j,
    sph_hankel1,
)


def _scene(centers, radius=0.08, caps=20, freq=2000.0, n_in=12, n_fwd=8, **kw):
    return SceneConfig(
        spheres=[RsmaSpec.fibonacci(c, r, caps) for c, r in zip(centers, np.broadcast_to(radius, len(centers)))],
        source=kw.pop("source", IncidentSource(kind="plane_wave", direction=[0.3, -0.2, 0.9])),
        frequency=freq,
        n_in=n_in,
        n_fwd=n_fwd,
        **kw,
    )


_GRID4 = [[x, y, 0.0] for x in (-0.125, 0.125) for y in (-0.125, 0.125)]


@pytest.mark.parametrize("n_max", [0, 1, 16, 45])
@pytest.mark.parametrize(
    "leading, trailing, axis",
    [((), (), 0), ((), (7,), 0), ((5,), (), 1), ((3, 4), (), -1)],
    ids=["vector", "2d_axis0", "2d_axis1", "3d_last"],
)
def test_pair_transform_matches_the_dense_pair_basis(rng, n_max, leading, trailing, axis):
    """The in-place pair transform, on a view that puts any axis last, is the
    oracle's pair-basis matrix applied along that axis, returns the array it
    was given, and is its own inverse."""
    a = rng.standard_normal((*leading, num_coeffs(n_max), *trailing)) * (1 + 0.5j)
    expected = np.moveaxis(np.tensordot(pair_basis(n_max), np.moveaxis(a, axis, 0), axes=1), 0, axis)
    pairs = a.copy()
    view = np.moveaxis(pairs, axis, -1)
    assert _to_pairs(view, n_max) is view
    np.testing.assert_allclose(pairs, expected, rtol=0, atol=2e-15 * np.max(np.abs(a)))
    _to_pairs(view, n_max)
    np.testing.assert_allclose(pairs, a, rtol=0, atol=2e-15 * np.max(np.abs(a)))


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
    radiating = forward_solve(scene, a_in)[0]
    pts = 0.3 * random_unit_vectors(rng, 30)
    total = eval_total_field(scene, radiating, a_in, pts)
    ref = single_sphere_total_field(a_in, scene.spheres[0].radius, scene.k, pts)
    assert np.max(np.abs(total - ref)) / np.max(np.abs(ref)) < 1e-12


def test_a_small_spheres_own_capsules_are_not_inside_it():
    """Capsules of a sphere of radius 1e-9 at |center| = 0.125 are rounded
    by ~1e-17 m, far more than 1e-12 of the radius: they still pass the
    inside check, and a point at half the radius still fails it."""
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], radius=1e-9, caps=162, n_in=4, n_fwd=2)
    a_in = scene.incident_coeffs()
    radiating = forward_solve(scene, a_in)[0]
    for sphere in scene.spheres:
        assert np.isfinite(eval_total_field(scene, radiating, a_in, sphere.capsule_positions())).all()
    with pytest.raises(SceneError, match="inside sphere 1"):
        eval_total_field(scene, radiating, a_in, scene.spheres[1].center + [0.5e-9, 0.0, 0.0])


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
    b1, b2, bc = (forward_solve(scene, a)[0] for a in (a1, a2, combo))
    assert b1.shape == (2, num_coeffs(scene.n_fwd))
    np.testing.assert_allclose(bc, b1 + alpha * b2, atol=1e-12)


def test_rigid_boundary_condition(rng):
    """The normal derivative of the total field vanishes on each sphere."""
    scene = _scene(
        [[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], freq=2000.0, n_in=20, n_fwd=16
    )
    a_in = scene.incident_coeffs()
    radiating = forward_solve(scene, a_in)[0]
    k = scene.k
    # scale: the incident field's radial derivative is O(k)
    dirs = random_unit_vectors(rng, 8)
    for s in range(2):
        for d in dirs:
            if abs(d[2]) > 0.97:
                continue  # gradient evaluation excludes the polar axis
            dn = eval_radial_derivative(scene, radiating, a_in, s, d)
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
        radiating = forward_solve(scene, a_in)[0]
        worst = max(
            abs(eval_radial_derivative(scene, radiating, a_in, s, d)) / scene.k
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


@pytest.mark.parametrize(
    "centers, count",
    [
        ([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], 8),
        ([[0.0, -0.125, 0.0], [0.05, 0.125, 0.05]], 1),
        (_GRID4, 8),
    ],
    ids=["pair", "lifted_pair", "grid4"],
)
def test_uncoupled_operator_is_each_surface_response_times_its_incident_field(centers, count):
    """Without coupling each sphere is alone in the incident wave: its capsule
    rows are Lambda_s a_s, the surface response times its local incident
    coefficients, however many mirror classes the scene splits into."""
    scene = _scene(centers, caps=14)
    assert len(mirror_classes(scene).classes) == count
    a_local = np.split(local_incident_matrix(scene), scene.num_spheres)
    reference = np.vstack([surface_response_matrix(s, scene.k, scene.n_fwd) @ a_s for s, a_s in zip(scene.spheres, a_local)])
    op = forward_operator(scene, include_coupling=False)
    assert _rel_gap(op.matrix, reference) <= 1e-13
    assert op.rcond == forward_operator(scene).rcond > 0  # its capture solves the coupled system


@pytest.mark.parametrize(
    "centers",
    [[[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], _GRID4, [[0.0, -0.125, 0.0], [0.05, 0.125, 0.05]]],
    ids=["pair", "grid4", "no_plane"],
)
def test_single_capture_is_the_coupled_capture(centers):
    """Single's uncoupled operator records the capture MSHOA's coupled one
    encodes: one coupled vector solve against its local incident fields
    gives c a, and its responses times c a equal T_F a to 1e-13 of the
    largest entry.  The two solve one system, so their rcond is equal, and
    their residual checks agree."""
    source = IncidentSource(kind="monopole", position=[5.0, 5.0, 5.0])
    scene = _scene(centers, caps=40, freq=1000.0, n_in=8, n_fwd=5, source=source)
    single, coupled = forward_operator(scene, include_coupling=False), forward_operator(scene)
    assert _rel_gap(single.capture, coupled.matrix @ scene.incident_coeffs().values) <= 1e-13
    assert single.rcond == coupled.rcond
    assert single.capsule_residual == pytest.approx(coupled.capsule_residual, rel=1e-6)


def _reference_coupled_operator(scene, a_local):
    """Lambda_s c_s per sphere, c from a dense solve of the whole (I - SR G) c = a_local."""
    import scipy.linalg as sla

    c = np.split(sla.solve(coupled_system_matrix(scene), a_local), scene.num_spheres)
    return np.vstack([surface_response_matrix(s, scene.k, scene.n_fwd) @ c_s for s, c_s in zip(scene.spheres, c)])


def _rel_gap(matrix, reference):
    return np.max(np.abs(matrix - reference)) / np.max(np.abs(reference))


def test_forward_operator_matches_solve_route():
    """T_F is each sphere's surface response times the field it feels, Lambda_s c_s:
    the in-place build equals a dense solve assembled in the test, and applying
    T_F equals Lambda_s b_s / G_s from the vector solve (two independent routes)."""
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], caps=14)
    op = forward_operator(scene)
    assert _rel_gap(op.matrix, _reference_coupled_operator(scene, local_incident_matrix(scene))) <= 1e-13
    a_in = scene.incident_coeffs()
    radiating = forward_solve(scene, a_in)[0]
    via_solve = np.concatenate(
        [
            surface_response_matrix(s, scene.k, scene.n_fwd) @ (b / rigid_scatter_gain(scene.k, s.radius, scene.n_fwd))
            for s, b in zip(scene.spheres, radiating)
        ]
    )
    assert _rel_gap(op.capture, via_solve) <= 1e-13


def test_local_incident_at_forward_degree_matches_truncated_build():
    """Building each sphere's R|R at n_fwd gives the operator that building it
    at n_in and keeping the first (n_fwd+1)^2 rows gives."""
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], n_in=16, n_fwd=12)
    reference = _reference_coupled_operator(scene, local_incident_matrix(scene, n_build=scene.n_in))
    assert _rel_gap(forward_operator(scene).matrix, reference) <= 1e-13


def test_capsule_form_converges_to_the_multipole_sum():
    """The capsule form cuts the field each sphere feels off at n_fwd; its gap to
    the eval_total_field oracle at the capsules shrinks as n_fwd rises."""
    gaps = []
    for n_fwd in (4, 8, 12):
        scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], n_in=18, n_fwd=n_fwd)
        a_in = scene.incident_coeffs()
        op = forward_operator(scene)
        oracle = eval_total_field(scene, forward_solve(scene, a_in)[0], a_in, scene.capsule_positions())
        gaps.append(_rel_gap(op.capture, oracle))
    assert gaps[0] > gaps[1] > gaps[2]


def test_eval_rejects_interior_points():
    scene = _scene([[0.0, 0.0, 0.0]])
    a_in = scene.incident_coeffs()
    radiating = forward_solve(scene, a_in)[0]
    with pytest.raises(SceneError):
        eval_total_field(scene, radiating, a_in, np.array([[0.0, 0.0, 0.01]]))


def test_coupled_build_with_a_class_of_no_incident_harmonics():
    """Two spheres on the x-axis at n_in = n_fwd = 1: the class odd in x and y
    has the local harmonic (1, 1) but no incident one, so its right-hand side
    is (size, 0).  The coupled build solves it as empty and matches the dense
    reference."""
    scene = _scene([[-0.125, 0.0, 0.0], [0.125, 0.0, 0.0]], caps=10, n_in=1, n_fwd=1)
    assert any(cls.size and not len(cls.incident) for cls in mirror_classes(scene).classes)
    op = forward_operator(scene, include_coupling=True)
    assert _rel_gap(op.matrix, _reference_coupled_operator(scene, local_incident_matrix(scene))) <= 1e-13


def test_forward_operator_shape_and_guards():
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], caps=10)
    op = forward_operator(scene)
    assert op.matrix.shape == (20, num_coeffs(scene.n_in))
    from mshoa.basis import CoefficientVector

    bad = CoefficientVector(k=scene.k, n_max=scene.n_in + 1, values=np.zeros(num_coeffs(scene.n_in + 1)))
    with pytest.raises(ValueError):
        forward_solve(scene, bad)


@pytest.mark.parametrize("build", ["coupled", "uncoupled", "vector"])
def test_a_build_finds_its_symmetry_once(monkeypatch, build):
    """A forward build finds the scene's mirror orbits once and hands them to
    every step: the coupled and uncoupled ``forward_operator``, followed by
    its Gram and class Grams, and ``forward_solve``."""
    from mshoa import scatter

    calls, orbits = [], scatter._mirror_orbits

    def counting_orbits(scene):
        calls.append(scene)
        return orbits(scene)

    monkeypatch.setattr(scatter, "_mirror_orbits", counting_orbits)
    scene = _grid4(caps=6, n_in=4, n_fwd=3)
    if build == "vector":
        forward_solve(scene, scene.incident_coeffs())
    else:
        op = forward_operator(scene, include_coupling=build == "coupled")
        op.gram()
        op.class_grams()
    assert len(calls) == 1


def _grid4(**kw):
    """A 2 x 2 planar grid: 12 ordered sphere pairs over 8 distinct displacements."""
    return _scene(_GRID4, **kw)


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


def _projected_systems(scene):
    """The oracle's whole I - SR G projected on each mirror class's dense basis, W^T (I - SR G) W."""
    whole = coupled_system_matrix(scene)
    mirror = mirror_classes(scene)
    bases = [mirror_class_bases(scene, cls, mirror.flips)[0] for cls in mirror.classes]
    return [w.T @ whole @ w for w in bases], whole, bases


def _assert_projected_system(scene, systems):
    """The classes split the unknowns and the incident coefficients into
    orthonormal sets on which each mirror plane's reflection is one sign, the
    same for both, so the whole system couples no two classes; and each class
    system is the whole I - SR G projected on its class."""
    projected, whole, bases = _projected_systems(scene)
    unknowns = np.hstack(bases)
    np.testing.assert_allclose(unknowns.T @ unknowns, np.eye(len(whole)), atol=1e-15)
    mirror = mirror_classes(scene)
    assert sum(cls.incident.size for cls in mirror.classes) == num_coeffs(scene.n_in)
    lf, place = num_coeffs(scene.n_fwd), {tuple(s.center): i for i, s in enumerate(scene.spheres)}
    for axis in range(3):
        images = [place.get(tuple(np.where(np.arange(3) == axis, -1, 1) * s.center)) for s in scene.spheres]
        if None in images or any(scene.spheres[i].radius != s.radius for i, s in zip(images, scene.spheres)):
            continue  # not a mirror plane of the scene
        local, incident = reflection_matrix(scene.n_fwd, axis), reflection_matrix(scene.n_in, axis)
        reflect = np.zeros((len(whole), len(whole)), dtype=complex)
        for s, image in enumerate(images):
            reflect[image * lf : (image + 1) * lf, s * lf : (s + 1) * lf] = local
        for w, cls in zip(bases, mirror.classes):
            u = mirror_class_bases(scene, cls, mirror.flips)[1]
            sign = 1.0 if np.allclose(reflect @ w, w, atol=1e-12) else -1.0
            np.testing.assert_allclose(reflect @ w, sign * w, atol=1e-12)
            np.testing.assert_allclose(incident @ u, sign * u, atol=1e-12)
    for system, reference in zip(systems, projected, strict=True):
        assert system.flags.f_contiguous
        assert _rel_gap(system, reference) <= 1e-13
    coupling = unknowns.T @ whole @ unknowns
    sizes = np.cumsum([0] + [len(system) for system in systems])
    for first, last in zip(sizes, sizes[1:]):
        coupling[first:last, first:last] = 0.0
    assert np.max(np.abs(coupling), initial=0.0) <= 1e-13 * np.max(np.abs(whole))


def _count_sr(monkeypatch):
    """Record the displacement of every S|R translation built."""
    from mshoa import scatter

    shifts = []
    sr = scatter.sr_translation

    def counting_sr(t, *args):
        shifts.append(tuple(t))
        return sr(t, *args)

    monkeypatch.setattr(scatter, "sr_translation", counting_sr)
    return shifts


def test_system_translates_each_distinct_displacement_once(monkeypatch):
    shifts = _count_sr(monkeypatch)
    scene = _grid4(n_fwd=4)
    systems = assemble_system_matrix(scene, mirror_classes(scene))
    assert len(shifts) == len(set(shifts)) == 8
    monkeypatch.undo()
    # one orbit of four spheres, each fixed only by z -> -z: half of its 25 harmonics per class
    assert [len(system) for system in systems] == [15, 10] * 4
    _assert_projected_system(scene, systems)


def test_system_reuses_a_displacement_only_from_a_source_of_equal_radius(monkeypatch):
    """In a row of three spheres each displacement of 0.25 recurs.  Its columns
    carry the source's gains: -0.25 y (sources 1 and 2, both 0.06) is built
    once, +0.25 y (sources 0 and 1, radii 0.08 and 0.06) twice."""
    shifts = _count_sr(monkeypatch)
    radii = (0.08, 0.06, 0.06)
    scene = SceneConfig(
        spheres=[RsmaSpec.fibonacci([0.0, 0.25 * (i - 1), 0.0], r, 20) for i, r in enumerate(radii)],
        source=IncidentSource(kind="plane_wave", direction=[0.3, -0.2, 0.9]),
        frequency=2000.0,
        n_in=8,
        n_fwd=4,
    )
    systems = assemble_system_matrix(scene, mirror_classes(scene))
    assert len(shifts) == 5 and len(set(shifts)) == 4
    monkeypatch.undo()
    _assert_projected_system(scene, systems)


@pytest.mark.filterwarnings("ignore:Diagonal number:scipy.linalg.LinAlgWarning")  # the exactly singular case
def test_coupled_solve_rejects_non_finite_and_singular_systems():
    from mshoa.scatter import SolverError, _solve_coupled

    def solve(system, rhs):
        system, rhs = (np.asfortranarray(a, dtype=complex) for a in (system, rhs))
        (x,), rcond = _solve_coupled([system], [rhs])
        return x, rcond

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
    with pytest.raises(SolverError):  # every class is checked, not only the first
        _solve_coupled(
            [np.eye(2, dtype=complex, order="F"), np.diag([1.0, np.nan]).astype(complex, order="F")],
            [np.ones(2, dtype=complex), np.ones(2, dtype=complex)],
        )


_MIRROR_SCENES = {  # centers, radius or radii, number of mirror classes
    # all three planes: one orbit of four spheres
    "planar": (_GRID4, 0.08, 8),
    # only y -> -y: a mirrored pair and a sphere on the plane, all off z = 0
    "one_plane": ([[0.0, -0.2, 0.1], [0.0, 0.2, 0.1], [0.15, 0.0, 0.3]], 0.08, 2),
    # a grid in the plane y = 0, off z = 0 yet split by all three planes; -0.0 equals 0.0
    "xz_grid": ([[x, np.copysign(0.0, x), z] for x in (-0.125, 0.125) for z in (-0.125, 0.125)], 0.08, 8),
    # the pair's y mirror fails on the radii: x and z, which fix both spheres, remain
    "unequal_radii": ([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], [0.08, 0.06], 4),
    # one center 1 ulp off the y mirror: x and z remain
    "ulp_off": ([[0.0, -0.125, 0.0], [0.0, np.nextafter(0.125, 1.0), 0.0]], 0.08, 4),
    # one sphere 0.05 off the plane: no mirror plane, one class
    "lifted": (_GRID4[:3] + [[0.125, 0.125, 0.05]], 0.08, 1),
}


@pytest.mark.parametrize("name", list(_MIRROR_SCENES))
def test_parity_split_matches_the_whole_system(name):
    """However many mirror planes a scene has, the coupled systems are the
    whole system's projections on its mirror classes, and T_F, the vector
    solve and the rcond match dense solves of the whole and of its
    projection: the rcond combines dense estimates of the oracle's class
    systems, and bounds the exact one of their block-diagonal whole."""
    import scipy.linalg as sla

    centers, radius, count = _MIRROR_SCENES[name]
    scene = _scene(centers, radius=radius, caps=14, n_in=8, n_fwd=4)
    assert len(mirror_classes(scene).classes) == count
    _assert_projected_system(scene, assemble_system_matrix(scene, mirror_classes(scene)))
    whole = coupled_system_matrix(scene)
    a_local = local_incident_matrix(scene)
    op = forward_operator(scene)
    assert _rel_gap(op.matrix, _reference_coupled_operator(scene, a_local)) <= 1e-13

    a_in = scene.incident_coeffs()
    gains = np.concatenate([rigid_scatter_gain(scene.k, s.radius, scene.n_fwd) for s in scene.spheres])
    b_ref = gains * sla.solve(whole, a_local @ a_in.values)
    b = forward_solve(scene, a_in)[0].ravel()
    assert _rel_gap(b, b_ref) <= 1e-13

    # the block-diagonal whole's 1-norm and its inverse's are the largest class's
    projected = _projected_systems(scene)[0]
    norms = [np.linalg.norm(system, 1) for system in projected]
    inverse_norms = []
    for system, norm in zip(projected, norms):
        rcond, info = sla.get_lapack_funcs("gecon", (system,))(sla.lu_factor(system)[0], norm, norm="1")
        assert info == 0
        inverse_norms.append(1.0 / (rcond * norm))
    assert op.rcond == pytest.approx(1.0 / (max(norms) * max(inverse_norms)), rel=1e-10)
    exact = 1.0 / (max(norms) * max(np.linalg.norm(np.linalg.inv(system), 1) for system in projected))
    assert op.rcond >= exact * (1.0 - 1e-12)  # an estimate of ||M^-1||_1 never exceeds it


_MODEL_SCENES = {  # centers, number of mirror classes
    "three_planes": (_GRID4, 8),
    "one_plane": (_MIRROR_SCENES["one_plane"][0], 2),
    "no_plane": ([[0.0, -0.125, 0.0], [0.05, 0.125, 0.05]], 1),  # the lifted pair
    "lone": ([[0.0, 0.0, 0.0]], 8),  # one orbit of one sphere, fixed by every plane
}


@pytest.mark.parametrize("name", list(_MODEL_SCENES))
def test_radiating_from_the_class_blocks_is_the_solved_b(rng, name):
    """The one radiate step, fed the operator's solved class blocks times an
    incident vector a, gives the per-sphere b = G c of the vector solve and of
    a dense solve of the whole (I - SR G) c = a_local, to 1e-13 of the largest
    entry, with 3, 1 and 0 mirror planes and on a lone sphere."""
    import scipy.linalg as sla

    from mshoa.basis import CoefficientVector

    centers, count = _MODEL_SCENES[name]
    scene = _scene(centers, caps=14, n_in=8, n_fwd=6)
    op = forward_operator(scene)
    assert len(op.mirror.classes) == count
    a_in = CoefficientVector(k=scene.k, n_max=scene.n_in, values=rng.standard_normal((num_coeffs(scene.n_in), 2)) @ [1, 1j])
    b = _radiating(scene, op.mirror, _apply_blocks(op.c, op.mirror, a_in, scene.n_in))
    assert b.shape == (scene.num_spheres, num_coeffs(scene.n_fwd))
    gains = np.concatenate([rigid_scatter_gain(scene.k, s.radius, scene.n_fwd) for s in scene.spheres])
    dense = gains * sla.solve(coupled_system_matrix(scene), local_incident_matrix(scene) @ a_in.values)
    assert _rel_gap(b, forward_solve(scene, a_in)[0]) <= 1e-13
    assert _rel_gap(b.ravel(), dense) <= 1e-13


@pytest.mark.parametrize("coupling", [True, False], ids=["MSHOA", "Single"])
@pytest.mark.parametrize("caps", [60, 6], ids=["primal", "dual"])
@pytest.mark.parametrize("name", list(_MODEL_SCENES))
def test_factors_give_the_gram_adjoint_and_capture_of_the_filled_matrix(rng, name, caps, coupling):
    """T_F's factors give the encoder what the filled T_F gives, to 1e-13 of
    the largest entry: T_F^H y in the model's column basis, whose columns
    to_standard maps onto the standard order; T_F^H T_F x, and the diagonal
    class blocks of T_F^H T_F, each class's columns with themselves; on the
    dual side the conjugated Gram T_F T_F^H (upper triangle, Fortran-ordered),
    which the primal side does not form; and T_F a, the pressures of the
    fields the blocks give the spheres; the coupled build's capture is that
    T_F a."""
    from scipy.linalg.blas import zherk

    centers, count = _MODEL_SCENES[name]
    scene = _scene(centers, caps=caps, n_in=6, n_fwd=4)
    op = forward_operator(scene, include_coupling=coupling)
    assert len(op.mirror.classes) == count
    f = op.matrix
    assert f.shape == op.shape
    q, size = f.shape
    dual = q < size
    assert dual == (caps == 6)
    columns = np.column_stack([op.to_standard(e) for e in np.eye(size, dtype=complex)])
    np.testing.assert_allclose(columns.T @ columns, np.eye(size), atol=1e-15)  # a real orthogonal change of basis
    model = f @ columns  # T_F in the model's column basis
    y = rng.standard_normal((q, 2)) @ [1, 1j]
    assert _rel_gap(op.adjoint(y), model.conj().T @ y) <= 1e-13
    normal = model.conj().T @ model
    x = rng.standard_normal((size, 2)) @ [1, 1j]
    assert _rel_gap(op.normal(x), normal @ x) <= 1e-13
    blocks = op.class_grams()
    assert [len(block) for block in blocks] == [cls.incident.size for cls in op.mirror.classes]
    for block, span in zip(blocks, op.columns):
        assert block.flags.f_contiguous
        assert np.max(np.abs(block - normal[span, span])) <= 1e-13 * np.max(np.abs(normal))
    if dual:
        gram = op.gram()
        assert gram.flags.f_contiguous and gram.shape == (q, q)
        upper = np.triu_indices(q)
        assert _rel_gap(gram[upper], zherk(1.0, model.T, trans=2)[upper]) <= 1e-13
    a_in = scene.incident_coeffs()
    assert _rel_gap(op.pressures(_apply_blocks(op.c, op.mirror, a_in, scene.n_in)), f @ a_in.values) <= 1e-13
    if coupling:
        assert _rel_gap(op.capture, f @ a_in.values) <= 1e-13
