"""Field grids, SDR maps, sweet-spot area, and hyperparameter searches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mshoa.fields as fields_module
from mshoa.basis import CoefficientVector, regular_basis_matrix
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
_FINITE = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


def _sdr_field(elements=_FINITE):
    return hnp.arrays(complex, _SDR_SPEC.shape, elements=elements)


def _sdr(estimate, truth, **kw):
    return sdr_map(FieldGrid(spec=_SDR_SPEC, values=estimate), FieldGrid(spec=_SDR_SPEC, values=truth), **kw)


@settings(max_examples=60, deadline=None)
@given(truth=_sdr_field(st.complex_numbers(allow_nan=False, allow_infinity=False)))
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


def test_reconstruct_chunking_consistent(rng, monkeypatch):
    spec = _grid(res=0.07)
    k = 9.0
    cv = CoefficientVector(
        k=k, n_max=4, values=rng.normal(size=25) + 1j * rng.normal(size=25)
    )
    a = reconstruct_field(cv, k, spec)
    monkeypatch.setattr(fields_module, "CHUNK_PIXELS", 7)
    b = reconstruct_field(cv, k, spec)
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("n_max, pixels", [(25, 4096), (45, 1329), (55, 900)])
def test_reconstruct_chunk_tables_stay_within_budget(rng, monkeypatch, n_max, pixels):
    """High degrees evaluate fewer pixels per chunk, so no chunk's real table
    holds more entries than a 4096-pixel chunk at degree 25."""
    chunks = []

    def recording_table(n, k, pts, center):
        chunks.append(len(pts))
        return real_table(n, k, pts, center)

    real_table = fields_module.regular_real_table
    monkeypatch.setattr(fields_module, "regular_real_table", recording_table)
    spec = GridSpec(plane="xy", extent=(1.5, 1.2), resolution=0.02)  # 4500 pixels
    cv = CoefficientVector(k=9.0, n_max=n_max, values=rng.normal(size=(n_max + 1) ** 2) + 0j)
    reconstruct_field(cv, 9.0, spec)
    assert chunks[0] == pixels and sum(chunks) == 4500
    assert max(chunks) * (n_max + 1) * (n_max + 2) <= CHUNK_TABLE_ENTRIES
    chunks.clear()
    monkeypatch.setattr(fields_module, "CHUNK_PIXELS", 500)
    reconstruct_field(cv, 9.0, spec)
    assert max(chunks) == 500


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
    fields = reconstruct_field(block, k, spec)
    assert len(fields) == 3
    for j, grid in enumerate(fields):
        single = reconstruct_field(block.column(j), k, spec)
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
    fields = reconstruct_field(CoefficientVector(k=k, n_max=5, values=padded), k, spec, center)
    reference = reconstruct_field(low, k, spec, center).values
    err = np.linalg.norm(fields[0].values - reference) / np.linalg.norm(reference)
    assert err <= 1e-12


@pytest.mark.parametrize("n_max", [0, 3, 14])
@pytest.mark.parametrize("columns", [None, 4], ids=["vector", "block"])
def test_reconstruct_matches_the_complex_basis(rng, monkeypatch, n_max, columns):
    """The real Legendre-Bessel table reproduces regular_basis_matrix @ c.

    The xz-plane grid has 11 x 13 = 143 pixels (not a multiple of the chunk),
    and the expansion center is one pixel center, off the origin: a column of
    pixels lies on the z axis through it, above, below and at the center.
    """
    spec = GridSpec(plane="xz", extent=(1.1, 1.3), resolution=0.1, center=(0.3, -0.2), normal_offset=0.15)
    pts = spec.points()
    center = pts[6 * 11 + 5]
    on_axis = ~(pts - center)[:, :2].any(axis=1)
    assert set(np.sign(pts[on_axis, 2] - center[2])) == {-1.0, 0.0, 1.0}
    shape = (n_max + 1) ** 2 if columns is None else ((n_max + 1) ** 2, columns)
    coeffs = CoefficientVector(k=9.0, n_max=n_max, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    monkeypatch.setattr(fields_module, "CHUNK_PIXELS", 16)
    fields = reconstruct_field(coeffs, 9.0, spec, center=center)
    fields = [fields] if columns is None else fields
    reference = regular_basis_matrix(n_max, 9.0, pts, center) @ coeffs.values.reshape(len(coeffs.values), -1)
    assert len(fields) == reference.shape[1]
    for grid, expected in zip(fields, reference.T):
        err = np.linalg.norm(grid.values.ravel() - expected) / np.linalg.norm(expected)
        assert err <= 1e-12


def _tie_scene(columns):
    """A truth field and a block whose columns are exact (1), zero (0) or halved (0.5)."""
    spec = _grid(res=0.1)
    k = 9.0
    exact = np.zeros(9, complex)
    exact[0] = 1.0  # j_0(kr): nonzero on this grid
    truth = reconstruct_field(CoefficientVector(k=k, n_max=2, values=exact), k, spec)
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
