"""Field grids, SDR maps, sweet-spot area, and hyperparameter searches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mshoa.fields as fields_module
from mshoa.basis import (
    CoefficientVector,
    num_coeffs,
    real_table_layout,
    regular_basis_matrix,
    regular_real_table,
    triangle_indices,
)
from mshoa.fields import (
    CHUNK_TABLE_ENTRIES,
    SDR_CAP_DB,
    SDR_FLOOR_DB,
    FieldGrid,
    GridSpec,
    ground_truth_field,
    reconstruct_field,
    regularization_search,
    sdr_map,
    sphere_mask,
)
from mshoa.scene import IncidentSource, RsmaSpec


def _grid(res=0.1, extent=(1.0, 1.0)):
    return GridSpec(plane="xy", extent=extent, resolution=res)


def test_grid_spec_geometry():
    spec = GridSpec(plane="xy", extent=(2.0, 1.0), resolution=0.5, center=(1.0, 0.0))
    assert spec.shape == (2, 4)
    assert spec.pixel_area == 0.25
    pts = spec.points()
    assert pts.shape == (8, 3)
    # first pixel center: lower-left + half a pixel
    np.testing.assert_allclose(pts[0], [0.25, -0.25, 0.0])
    np.testing.assert_allclose(pts[-1], [1.75, 0.25, 0.0])
    assert not pts[:, 2].any()


def test_grid_spec_planes_and_offset():
    spec = GridSpec(plane="yz", extent=(1.0, 1.0), resolution=0.5, normal_offset=0.7)
    pts = spec.points()
    np.testing.assert_allclose(pts[:, 0], 0.7)
    with pytest.raises(ValueError):
        GridSpec(plane="qq")
    with pytest.raises(ValueError):
        GridSpec(resolution=-1.0)


def test_field_grid_shape_checked():
    with pytest.raises(ValueError):
        FieldGrid(spec=_grid(), values=np.zeros((3, 3)))


def test_sdr_trivial_cases():
    spec = _grid()
    truth = FieldGrid(spec=spec, values=np.full(spec.shape, 1.0 + 1.0j))
    exact = sdr_map(truth, truth)
    assert np.all(exact.sdr_map == SDR_CAP_DB)
    assert exact.ssa == pytest.approx(1.0)

    zero = FieldGrid(spec=spec, values=np.zeros(spec.shape, complex))
    r = sdr_map(zero, truth)
    np.testing.assert_allclose(r.sdr_map, 0.0, atol=1e-12)
    assert r.ssa == 0.0

    scaled = FieldGrid(spec=spec, values=truth.values * (1 + 1e-3))
    r = sdr_map(scaled, truth)
    np.testing.assert_allclose(r.sdr_map, 60.0, atol=1e-9)

    # zero truth with nonzero estimate floors out
    r = sdr_map(truth, zero)
    assert np.all(r.sdr_map == SDR_FLOOR_DB)


def test_sdr_scale_invariance(rng):
    spec = _grid()
    t = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    e = t + 0.01 * (rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
    r1 = sdr_map(FieldGrid(spec=spec, values=e), FieldGrid(spec=spec, values=t))
    c = 3.7 - 1.2j
    r2 = sdr_map(
        FieldGrid(spec=spec, values=c * e), FieldGrid(spec=spec, values=c * t)
    )
    np.testing.assert_allclose(r1.sdr_map, r2.sdr_map, atol=1e-9)


def test_ssa_monotone_in_threshold(rng):
    spec = _grid()
    t = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    e = t * (1 + rng.uniform(1e-5, 1e-1, size=spec.shape))
    truth = FieldGrid(spec=spec, values=t)
    est = FieldGrid(spec=spec, values=e)
    areas = [sdr_map(est, truth, threshold=th).ssa for th in (10, 30, 50, 70)]
    assert all(a >= b for a, b in zip(areas, areas[1:]))
    assert areas[0] > areas[-1]


def test_mask_excludes_pixels():
    spec = _grid()
    truth = FieldGrid(spec=spec, values=np.ones(spec.shape, complex))
    mask = np.zeros(spec.shape, bool)
    mask[:5] = True
    r = sdr_map(truth, truth, mask=mask)
    assert r.ssa == pytest.approx((mask.size - mask.sum()) * spec.pixel_area)
    with pytest.raises(ValueError):
        sdr_map(truth, truth, mask=np.zeros((2, 2), bool))


_SDR_SPEC = GridSpec(plane="xy", extent=(1.0, 0.6), resolution=0.2)  # 3 x 5 pixels
_FINITE = st.complex_numbers(allow_nan=False, allow_infinity=False)  # any magnitude, up to the float maximum


def _sdr_field(elements=_FINITE):
    return hnp.arrays(complex, _SDR_SPEC.shape, elements=elements)


def _sdr(estimate, truth, **kw):
    return sdr_map(FieldGrid(spec=_SDR_SPEC, values=estimate), FieldGrid(spec=_SDR_SPEC, values=truth), **kw)


@settings(max_examples=60, deadline=None)
@given(
    magnitude=st.floats(1e-290, 1e300),
    phase=st.floats(-np.pi, np.pi),
    relative_error=st.sampled_from([1e-3, 1e-6, -1e-3]),
)
def test_sdr_reads_the_relative_error_at_any_magnitude(magnitude, phase, relative_error):
    """A relative error e reads -20 log10 |e| dB whatever the field's size:
    no squared magnitude overflows to the floor or underflows to the cap."""
    truth = np.full(_SDR_SPEC.shape, magnitude * np.exp(1j * phase))
    expected = -20.0 * np.log10(abs(relative_error))
    np.testing.assert_allclose(_sdr(truth * (1 + relative_error), truth).sdr_map, expected, atol=1e-6)


def test_sdr_of_a_field_beyond_the_square_range():
    """|p|^2 of a 1e200 field overflows; its 0.1 % error still reads 60 dB."""
    report = _sdr(np.full(_SDR_SPEC.shape, 1.001e200), np.full(_SDR_SPEC.shape, 1e200))
    np.testing.assert_allclose(report.sdr_map, 60.0, atol=1e-9)
    assert report.ssa == _SDR_SPEC.shape[0] * _SDR_SPEC.shape[1] * _SDR_SPEC.pixel_area


@settings(max_examples=60, deadline=None)
@given(truth=_sdr_field())
def test_exact_estimate_gets_the_cap(truth):
    """err == 0 reads +150 dB at every pixel, a zero truth included."""
    assert np.all(_sdr(truth.copy(), truth).sdr_map == SDR_CAP_DB)


@settings(max_examples=60, deadline=None)
@given(
    estimate=_sdr_field(st.complex_numbers()),
    truth=st.sampled_from([0.0, np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0.0, np.nan)]),
)
def test_zero_or_non_finite_truth_gets_the_floor(estimate, truth):
    """A truth of zero (against a non-zero estimate, however small) or a non-finite truth reads -300 dB."""
    if truth == 0.0:
        estimate = np.where(estimate == 0.0, 1.0, estimate)
    assert np.all(_sdr(estimate, np.full(_SDR_SPEC.shape, truth)).sdr_map == SDR_FLOOR_DB)


@settings(max_examples=60, deadline=None)
@given(
    truth=_sdr_field(),
    estimate=_sdr_field(),
    mask=hnp.arrays(bool, _SDR_SPEC.shape),
    thresholds=st.lists(st.floats(-300.0, 150.0), min_size=2, max_size=4),
)
def test_ssa_counts_unmasked_pixels_above_the_threshold(truth, estimate, mask, thresholds):
    """SSA is the count of unmasked pixels above the threshold times the pixel
    area; what a masked pixel holds never counts; SSA never rises with the threshold."""
    areas = []
    for threshold in sorted(thresholds):
        report = _sdr(estimate, truth, mask=mask, threshold=threshold)
        assert np.all((SDR_FLOOR_DB <= report.sdr_map) & (report.sdr_map <= SDR_CAP_DB))
        assert report.ssa == np.count_nonzero((report.sdr_map > threshold) & ~mask) * _SDR_SPEC.pixel_area
        assert _sdr(np.where(mask, truth, estimate), truth, mask=mask, threshold=threshold).ssa == report.ssa
        areas.append(report.ssa)
    assert areas == sorted(areas, reverse=True)


def test_sphere_mask_marks_interior():
    spec = _grid(res=0.05)
    sphere = RsmaSpec.fibonacci([0.0, 0.0, 0.0], 0.2, 8)
    mask = sphere_mask(spec, [sphere])
    pts = spec.points()
    inside = (np.linalg.norm(pts, axis=1) < 0.2).reshape(spec.shape)
    np.testing.assert_array_equal(mask, inside)
    assert mask.any() and not mask.all()


def test_sphere_mask_peak_memory_stays_near_the_centres():
    """On a 1000 x 1000 grid the mask's traced peak stays within 32 B per pixel:
    the centres take 24, and the distance tests run in chunks."""
    import tracemalloc

    spec = _grid(res=0.002, extent=(2.0, 2.0))
    spheres = [RsmaSpec.fibonacci([0.0, y, 0.0], 0.08, 12) for y in (-0.125, 0.125)]
    tracemalloc.start()
    try:
        mask = sphere_mask(spec, spheres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.shape == (1000, 1000) and mask.any()
    assert peak <= 32 * mask.size


def test_chunked_sphere_mask_matches_one_pass(monkeypatch):
    """Chunks that split the grid anywhere give the one-pass ``norm(...) < radius`` mask, bit for bit."""
    spec = _grid(res=0.05)
    spheres = [RsmaSpec.fibonacci([0.1 * x, -0.05, 0.0], 0.2, 8) for x in (-1, 2)]
    pts = spec.points()
    expected = np.zeros(len(pts), dtype=bool)
    for sphere in spheres:
        expected |= np.linalg.norm(pts - sphere.center[None, :], axis=1) < sphere.radius
    monkeypatch.setattr(fields_module, "DISTANCE_CHUNK", 7)
    np.testing.assert_array_equal(sphere_mask(spec, spheres), expected.reshape(spec.shape))


def test_reconstruct_chunking_consistent(rng, monkeypatch):
    spec = _grid(res=0.07)
    k = 9.0
    cv = CoefficientVector(
        k=k, n_max=4, values=rng.normal(size=25) + 1j * rng.normal(size=25)
    )
    a = reconstruct_field(cv, spec)
    monkeypatch.setattr(fields_module, "CHUNK_PIXELS", 7)
    b = reconstruct_field(cv, spec)
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("n_max, pixels", [(25, 4096), (45, 1358), (55, 916)])
def test_reconstruct_chunk_tables_stay_within_budget(rng, monkeypatch, n_max, pixels):
    """High degrees evaluate fewer pixels per chunk, so no chunk's real table
    holds more than CHUNK_TABLE_ENTRIES entries.  A chunk is sized for
    (n_max+1)^2 live rows, a cosine row per (n, m) and a sine row per m > 0:
    every row of a table off the plane through the center.  On that plane
    the odd n + m rows drop, and (n_max+1)(n_max+2)/2 rows are left.  The
    expansion center sits off the window center on both axes, so that no
    pixel has a mirror image and every pixel is tabled."""
    shapes = []

    def recording_table(n, k, pts, center, layout):
        table = real_table(n, k, pts, center, layout)
        rows = layout.rows
        assert table.shape == (rows.size, len(pts))
        shapes.append(table.shape)
        return table

    real_table = fields_module.regular_real_table
    monkeypatch.setattr(fields_module, "regular_real_table", recording_table)
    cv = CoefficientVector(k=9.0, n_max=n_max, values=rng.normal(size=(n_max + 1) ** 2) + 0j)
    center = (0.01, -0.01, 0.0)
    for normal_offset, live in [(0.0, (n_max + 1) * (n_max + 2) // 2), (0.15, (n_max + 1) ** 2)]:
        spec = GridSpec(plane="xy", extent=(1.5, 1.2), resolution=0.02, normal_offset=normal_offset)  # 4500 pixels
        shapes.clear()
        reconstruct_field(cv, spec, center)
        assert shapes[0][1] == pixels and sum(columns for _, columns in shapes) == 4500
        assert max(rows * columns for rows, columns in shapes) <= CHUNK_TABLE_ENTRIES
        assert {rows for rows, _ in shapes} == {live}
    shapes.clear()
    monkeypatch.setattr(fields_module, "CHUNK_PIXELS", 500)
    reconstruct_field(cv, spec, center)
    assert max(columns for _, columns in shapes) == 500


def test_ground_truth_is_direct_evaluation():
    spec = _grid()
    src = IncidentSource(kind="plane_wave", direction=[0.0, 0.0, 1.0])
    g = ground_truth_field(src, 5.0, spec)
    np.testing.assert_allclose(g.values, 1.0)  # z = 0 plane


def test_block_reconstructs_each_column(rng, monkeypatch):
    spec = _grid(res=0.07)
    k = 9.0
    block = CoefficientVector(
        k=k, n_max=4, values=rng.normal(size=(25, 3)) + 1j * rng.normal(size=(25, 3))
    )
    monkeypatch.setattr(fields_module, "CHUNK_PIXELS", 7)
    fields = reconstruct_field(block, spec)
    assert len(fields) == 3
    for j, grid in enumerate(fields):
        single = reconstruct_field(block.column(j), spec)
        err = np.linalg.norm(grid.values - single.values) / np.linalg.norm(single.values)
        assert err <= 1e-12


def test_zero_padded_column_is_the_lower_degree_field(rng):
    spec = _grid(res=0.07)
    k = 9.0
    center = (0.1, -0.2, 0.0)
    low = CoefficientVector(k=k, n_max=2, values=rng.normal(size=9) + 1j * rng.normal(size=9))
    padded = np.zeros((36, 2), complex)
    padded[:9, 0] = low.values
    padded[:, 1] = rng.normal(size=36)
    fields = reconstruct_field(CoefficientVector(k=k, n_max=5, values=padded), spec, center)
    reference = reconstruct_field(low, spec, center).values
    err = np.linalg.norm(fields[0].values - reference) / np.linalg.norm(reference)
    assert err <= 1e-12


# an xy grid through the expansion center, which sits off the origin as HOA's does
_THROUGH_CENTER = GridSpec(plane="xy", extent=(1.0, 0.8), resolution=0.05, normal_offset=0.05)
_OFF_ORIGIN_CENTER = (0.1, 0.125, 0.05)
_XZ_GRID = GridSpec(plane="xz", extent=(1.1, 1.3), resolution=0.1, center=(0.3, -0.2), normal_offset=0.15)


def _record_tables(monkeypatch):
    """Every (layout, pixel count) that reconstruct_field tables, as it tables them."""
    tables, real_table = [], fields_module.regular_real_table

    def recording_table(n, k, pts, center, layout):
        tables.append((layout, len(pts)))
        return real_table(n, k, pts, center, layout)

    monkeypatch.setattr(fields_module, "regular_real_table", recording_table)
    return tables


def _assert_matches_the_complex_basis(rng, spec, center, n_max, columns):
    """reconstruct_field of random coefficients against regular_basis_matrix @ c, to 1e-12."""
    shape = (n_max + 1) ** 2 if columns is None else ((n_max + 1) ** 2, columns)
    coeffs = CoefficientVector(k=9.0, n_max=n_max, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    fields = reconstruct_field(coeffs, spec, center=center)
    fields = [fields] if columns is None else fields
    reference = regular_basis_matrix(n_max, 9.0, spec.points(), center)
    reference = reference @ coeffs.values.reshape(len(coeffs.values), -1)
    assert len(fields) == reference.shape[1]
    for grid, expected in zip(fields, reference.T):
        err = np.linalg.norm(grid.values.ravel() - expected) / np.linalg.norm(expected)
        assert err <= 1e-12


@pytest.mark.parametrize("n_max", [0, 3, 14])
@pytest.mark.parametrize("columns", [None, 4], ids=["vector", "block"])
def test_reconstruct_matches_the_complex_basis(rng, monkeypatch, n_max, columns):
    """The real Legendre-Bessel table reproduces regular_basis_matrix @ c.

    The xz-plane grid has 11 x 13 = 143 pixels (not a multiple of the chunk),
    and the expansion center is one pixel center, off the origin: a column of
    pixels lies on the z axis through it, above, below and at the center.
    """
    pts = _XZ_GRID.points()
    center = pts[6 * 11 + 5]
    on_axis = ~(pts - center)[:, :2].any(axis=1)
    assert set(np.sign(pts[on_axis, 2] - center[2])) == {-1.0, 0.0, 1.0}
    monkeypatch.setattr(fields_module, "CHUNK_PIXELS", 16)
    _assert_matches_the_complex_basis(rng, _XZ_GRID, center, n_max, columns)


@pytest.mark.parametrize("columns", [None, 4], ids=["vector", "block"])
def test_reconstruct_through_the_center_matches_the_complex_basis(rng, monkeypatch, columns):
    """With the odd n + m rows left out, the pass still reproduces
    regular_basis_matrix @ c, whose cos theta is cos(arctan2(rho, z)), not 0."""
    monkeypatch.setattr(fields_module, "CHUNK_PIXELS", 50)
    _assert_matches_the_complex_basis(rng, _THROUGH_CENTER, _OFF_ORIGIN_CENTER, 14, columns)


_MIRROR_CENTER = (0.1, -0.2, 0.3)


@pytest.mark.parametrize("plane", ["xy", "xz", "yz"])
@pytest.mark.parametrize("centered", [(True, False), (False, True), (True, True), (False, False)], ids=["u", "v", "uv", "none"])
@pytest.mark.parametrize("extent", [(0.9, 0.7), (1.0, 0.8)], ids=["odd", "even"])
@pytest.mark.parametrize("normal", [0.0, 0.15], ids=["through_center", "off_center"])
@pytest.mark.parametrize("columns", [None, 3], ids=["vector", "block"])
def test_reconstruct_by_mirror_orbit_matches_the_complex_basis(rng, monkeypatch, plane, centered, extent, normal, columns):
    """A window centered on the expansion center along u, v, both or neither
    tables one pixel per orbit of its reflections, a middle row or column of
    an odd count included once, and reproduces regular_basis_matrix @ c on
    every plane, through the center or off it, at a nonzero normal_offset."""
    u, v, n = fields_module._PLANE_AXES[plane]
    window = tuple(_MIRROR_CENTER[axis] + (0.0 if on else 0.037) for axis, on in zip((u, v), centered))
    spec = GridSpec(plane=plane, extent=extent, resolution=0.1, center=window, normal_offset=_MIRROR_CENTER[n] + normal)
    tables = _record_tables(monkeypatch)
    monkeypatch.setattr(fields_module, "CHUNK_PIXELS", 16)
    _assert_matches_the_complex_basis(rng, spec, _MIRROR_CENTER, 8, columns)
    rows, cols = spec.shape
    assert sum(pixels for _, pixels in tables) == (-(-cols // 2) if centered[0] else cols) * (-(-rows // 2) if centered[1] else rows)
    mirror, _ = fields_module._pixel_orbits(spec, np.array(_MIRROR_CENTER))
    assert mirror == tuple(axis for axis, on in zip((v, u), centered[::-1]) if on)


def test_a_window_of_part_pixels_is_not_mirrored(rng, monkeypatch):
    """Centered on the expansion center, a window 9.5 pixels wide holds 9
    pixels that are not symmetric about it: only its height is mirrored."""
    spec = GridSpec(plane="xy", extent=(0.95, 0.7), resolution=0.1, center=_MIRROR_CENTER[:2], normal_offset=0.3)
    tables = _record_tables(monkeypatch)
    _assert_matches_the_complex_basis(rng, spec, _MIRROR_CENTER, 8, None)
    assert [pixels for _, pixels in tables] == [9 * 4]
    assert fields_module._pixel_orbits(spec, np.array(_MIRROR_CENTER))[0] == (1,)


def test_a_centered_window_tables_one_pixel_per_orbit(rng, monkeypatch):
    """75 x 60 pixels centered on the expansion center: ceil(75/2) ceil(60/2) = 1140 are tabled."""
    tables = _record_tables(monkeypatch)
    spec = GridSpec(plane="xy", extent=(0.75, 0.6), resolution=0.01)
    reconstruct_field(CoefficientVector(k=9.0, n_max=4, values=rng.normal(size=(25, 2)) + 0j), spec)
    assert sum(pixels for _, pixels in tables) == 1140


@pytest.mark.parametrize(
    "spec, center, odd_rows_drop",
    [
        (_THROUGH_CENTER, _OFF_ORIGIN_CENTER, True),
        (GridSpec(plane="xy", extent=(1.0, 0.8), resolution=0.05, normal_offset=0.15), _OFF_ORIGIN_CENTER, False),
        (_XZ_GRID, _XZ_GRID.points()[6 * 11 + 5], False),
    ],
    ids=["through_center", "offset_plane", "xz_grid"],
)
def test_real_table_drops_exactly_the_rows_that_vanish(monkeypatch, spec, center, odd_rows_drop):
    """On a plane through the center cos theta is exactly 0, where Pbar_n^m
    is exactly 0 for odd n + m: those rows, and no others, are left out.  On
    any other plane no row is.  A sine row is kept for every kept m > 0."""
    n_max = 8
    tables = _record_tables(monkeypatch)
    reconstruct_field(CoefficientVector(k=9.0, n_max=n_max, values=np.ones(num_coeffs(n_max))), spec, center)
    n, m = triangle_indices(n_max)
    kept = np.flatnonzero((n + m) % 2 == 0) if odd_rows_drop else np.arange(n.size)
    for layout, _ in tables:
        np.testing.assert_array_equal(np.sort(layout.rows), np.concatenate([kept, n.size + kept[m[kept] > 0]]))


@pytest.mark.parametrize("mirror", [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
def test_each_sign_class_is_one_block_of_rows(rng, mirror):
    """At a point reflected about the center in each axis of ``mirror``, every
    table row of class c is the row at the point itself times -1 for each
    bit of c set, and the classes hold every row."""
    n_max, center = 9, np.array([0.1, -0.2, 0.3])
    layout = real_table_layout(n_max, mirror)
    points = center + rng.uniform(-0.5, 0.5, size=(20, 3))
    table = regular_real_table(n_max, 9.0, points, center, layout)
    assert layout.bounds[-1] == table.shape[0] == (n_max + 1) ** 2
    for bit, axis in enumerate(mirror):
        reflected = points.copy()
        reflected[:, axis] = 2 * center[axis] - points[:, axis]
        image = regular_real_table(n_max, 9.0, reflected, center, layout)
        for c, (low, high) in enumerate(zip(layout.bounds, layout.bounds[1:])):
            np.testing.assert_allclose(image[low:high], (-1) ** (c >> bit & 1) * table[low:high], rtol=1e-12, atol=1e-14)


def _tie_scene(columns):
    """A truth field and a block whose columns are exact (1), zero (0) or halved (0.5)."""
    spec = _grid(res=0.1)
    k = 9.0
    exact = np.zeros(9, complex)
    exact[0] = 1.0  # j_0(kr): nonzero on this grid
    truth = reconstruct_field(CoefficientVector(k=k, n_max=2, values=exact), spec)
    block = CoefficientVector(k=k, n_max=2, values=np.outer(exact, columns))
    return block, truth


def test_regularization_search_prefers_larger_tie():
    # sigma candidates come largest first, so a tie keeps the larger value
    block, truth = _tie_scene([0.0, 1.0, 1.0])
    result = regularization_search([3.0, 2.0, 1.0], block, truth)
    assert (result.chosen, result.index) == (2.0, 1)
    assert result.ssa == [0.0, result.report.ssa, result.report.ssa]
    assert result.report.ssa == pytest.approx(1.0)  # every pixel of the 1 m^2 window
    assert not result.at_edge
    with pytest.raises(ValueError):
        regularization_search([], block, truth)
    with pytest.raises(ValueError):
        regularization_search([3.0, 2.0], block, truth)  # one column per candidate


def test_regularization_search_prefers_smaller_truncation_tie():
    # truncation candidates come smallest first, so a tie keeps the smaller n_c
    block, truth = _tie_scene([0.5, 1.0, 1.0, 0.0])
    result = regularization_search(range(1, 5), block, truth)
    assert (result.chosen, result.index) == (2, 1)
    assert result.ssa[1] == result.ssa[2] > result.ssa[0] == result.ssa[3] == 0.0


def test_search_flags_a_winner_at_the_edge():
    block, truth = _tie_scene([1.0, 0.5, 0.0])
    assert regularization_search([3.0, 2.0, 1.0], block, truth).at_edge
    single, truth = _tie_scene([1.0])
    assert not regularization_search([1.0], single, truth).at_edge
