"""Geometry, capsule layouts, and incident source expansions."""

import numpy as np
import pytest

from mshoa.basis import regular_basis_matrix
from mshoa.scene import (
    IncidentSource,
    RsmaSpec,
    SceneConfig,
    SceneError,
    fibonacci_grid,
    layout_cartesian,
    monopole_coeffs,
    plane_wave_coeffs,
    recommended_forward_truncation,
)
from tests.conftest import random_unit_vectors


def test_fibonacci_grid_properties():
    pts = fibonacci_grid(252)
    assert pts.shape == (252, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)
    # near-uniform coverage: the centroid sits close to the origin
    assert np.linalg.norm(pts.mean(axis=0)) < 0.01
    # pairwise distinct
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 0.05
    assert pts[0, 2] == pytest.approx(1.0 - 1.0 / 252)
    with pytest.raises(ValueError):
        fibonacci_grid(0)


def test_rsma_spec_validation():
    s = RsmaSpec.fibonacci([0.0, 1.0, 0.0], 0.08, 162)
    assert s.num_capsules == 162
    caps = s.capsule_positions()
    np.testing.assert_allclose(
        np.linalg.norm(caps - s.center[None, :], axis=1), 0.08, atol=1e-14
    )
    with pytest.raises(SceneError):
        RsmaSpec.fibonacci([0, 0, 0], -0.1, 10)
    with pytest.raises(SceneError):
        RsmaSpec(center=[0, 0, 0], radius=0.1, capsule_dirs=np.array([[2.0, 0, 0]]))
    dirs = fibonacci_grid(12)
    for twins in (np.vstack([dirs, dirs[5]]), np.array([[1.0, 0.0, 0.0], [1.0, -0.0, 0.0]])):  # -0.0 == 0.0
        with pytest.raises(SceneError, match="distinct"):
            RsmaSpec(center=[0, 0, 0], radius=0.1, capsule_dirs=twins)


def test_many_capsules_need_no_pairwise_arrays():
    """100 000 capsules are checked for coincidences in far less memory than
    the 8e10 bytes of their pairwise distances."""
    import tracemalloc

    tracemalloc.start()
    try:
        spec = RsmaSpec.fibonacci([0, 0, 0], 0.1, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.num_capsules == 100_000
    assert peak < 50e6


def test_plane_wave_expansion_matches_direct_field(rng):
    k = 6.0
    for khat in random_unit_vectors(rng, 3):
        cv = plane_wave_coeffs(khat, k, 28)
        pts = 0.5 * random_unit_vectors(rng, 20) * rng.uniform(0.1, 1, (20, 1))
        series = regular_basis_matrix(28, k, pts, np.zeros(3)) @ cv.values
        direct = np.exp(1j * k * pts @ khat)
        np.testing.assert_allclose(series, direct, atol=1e-11)


def test_monopole_expansion_matches_direct_field(rng):
    k = 4.0
    pos = np.array([1.5, -0.8, 1.1])
    amp = 2.0 - 0.5j
    cv = monopole_coeffs(pos, amp, k, 35)
    src = IncidentSource(kind="monopole", position=pos, amplitude=amp)
    pts = 0.4 * random_unit_vectors(rng, 20)
    series = regular_basis_matrix(35, k, pts, np.zeros(3)) @ cv.values
    np.testing.assert_allclose(series, src.field_at(k, pts), atol=1e-11)


def test_source_recentered_expansions(rng):
    """coefficients(center=c) must reproduce the same physical field near c."""
    k = 5.0
    center = np.array([0.3, 0.6, -0.2])
    pts = center + 0.2 * random_unit_vectors(rng, 10)
    for src in (
        IncidentSource(kind="plane_wave", direction=[1.0, 2.0, -0.5]),
        IncidentSource(kind="monopole", position=[4.0, 4.0, 4.0]),
    ):
        cv = src.coefficients(k, 25, center=center)
        series = regular_basis_matrix(25, k, pts, center) @ cv.values
        np.testing.assert_allclose(series, src.field_at(k, pts), atol=1e-10)


def test_monopole_far_field_approaches_plane_wave():
    """At 1000 wavelengths range the monopole locally resembles a plane wave."""
    k = 2.0
    r0 = 1000.0 * 2 * np.pi / k
    pos = np.array([0.0, 0.0, r0])
    mono = monopole_coeffs(pos, 1.0, k, 6).values
    mono = mono / mono[0]
    plane = plane_wave_coeffs([0.0, 0.0, -1.0], k, 6).values
    plane = plane / plane[0]
    # the asymptotic hankel correction scales like n(n+1)/(2 k r0) per mode
    np.testing.assert_allclose(mono, plane, atol=2e-2)


def test_source_validation():
    with pytest.raises(SceneError):
        IncidentSource(kind="plane_wave")
    with pytest.raises(SceneError):
        IncidentSource(kind="monopole", position=[0.0, 0.0, 0.0])
    with pytest.raises(SceneError):
        IncidentSource(kind="dipole", position=[1.0, 0.0, 0.0])
    src = IncidentSource(kind="monopole", position=[1.0, 0.0, 0.0])
    with pytest.raises(SceneError):
        src.field_at(2.0, np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(SceneError, match="nonzero"):
        IncidentSource(kind="plane_wave", direction=[0.0, -0.0, 0.0])


@pytest.mark.parametrize(
    "direction, along",
    [
        ([1e308, 1e308, 0.0], [1.0, 1.0, 0.0]),  # its norm overflows
        ([1e-200, 1e-200, 0.0], [1.0, 1.0, 0.0]),  # its norm underflows to 0
        ([3e-160, 4e-160, 0.0], [0.6, 0.8, 0.0]),  # its squares are subnormal
        ([0.6, 0.8, 0.0], [0.6, 0.8, 0.0]),
        ([5e-324, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ],
    ids=["huge", "tiny", "subnormal_squares", "unit", "smallest"],
)
def test_plane_wave_direction_is_normalised_at_any_scale(direction, along):
    """A finite nonzero direction becomes the unit vector along it, whatever its magnitude."""
    unit = IncidentSource(kind="plane_wave", direction=direction).direction
    assert abs(np.linalg.norm(unit) - 1.0) <= 1e-15
    np.testing.assert_allclose(unit, np.array(along) / np.linalg.norm(along), rtol=0, atol=1e-15)


def test_cartesian_layout_positions():
    centers = layout_cartesian(2, 2, 0.25, "xy")
    assert centers.shape == (4, 3)
    assert sorted(map(tuple, centers[:, :2])) == [
        (-0.125, -0.125),
        (-0.125, 0.125),
        (0.125, -0.125),
        (0.125, 0.125),
    ]
    assert not centers[:, 2].any()
    with pytest.raises(SceneError):
        layout_cartesian(1, 1, 0.25, "ab")


def test_recommended_forward_truncation():
    # floor(e * k * a)
    assert recommended_forward_truncation(36.62, 0.08) == int(
        np.floor(np.e * 36.62 * 0.08)
    )
    assert recommended_forward_truncation(1.0, 0.01) == 0


def _two_sphere_scene(**kw):
    args = dict(
        spheres=[
            RsmaSpec.fibonacci([0.0, -0.125, 0.0], 0.08, 20),
            RsmaSpec.fibonacci([0.0, 0.125, 0.0], 0.08, 20),
        ],
        source=IncidentSource(kind="plane_wave", direction=[0.0, 0.0, 1.0]),
        frequency=2000.0,
        n_in=10,
        n_fwd=6,
    )
    args.update(kw)
    return SceneConfig(**args)


def test_scene_validation():
    scene = _two_sphere_scene()
    assert scene.num_spheres == 2
    assert scene.total_capsules == 40
    assert scene.k == pytest.approx(2 * np.pi * 2000 / 343.0)
    with pytest.raises(SceneError):
        _two_sphere_scene(
            spheres=[
                RsmaSpec.fibonacci([0, 0, 0], 0.08, 8),
                RsmaSpec.fibonacci([0, 0.1, 0], 0.08, 8),
            ]
        )
    with pytest.raises(SceneError):
        _two_sphere_scene(n_in=5, n_fwd=8)
    with pytest.raises(SceneError):
        _two_sphere_scene(
            source=IncidentSource(kind="monopole", position=[0.0, 0.125, 0.05])
        )
    with pytest.raises(SceneError):
        _two_sphere_scene(frequency=-10.0)


def test_scene_queries():
    scene = _two_sphere_scene()
    caps = scene.capsule_positions()
    assert caps.shape == (40, 3)
    cv = scene.incident_coeffs()
    assert cv.n_max == scene.n_in
