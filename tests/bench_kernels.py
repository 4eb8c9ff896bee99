"""Layer microbenchmarks for the σ search's and the forward build's kernels (pytest-benchmark).

    PYTHONPATH=src python -m pytest tests/bench_kernels.py --benchmark-only

The file name does not match ``test_*.py``, so the test suite does not
collect it; name it on the command line.  Set ``OPENBLAS_NUM_THREADS=1`` (or
its equivalent) to compare figures with the benchmark, which runs one BLAS
thread.  Shapes follow the benchmark workloads: ``sweep_linear2`` encodes
324 capsules into (25+1)² = 676 coefficients on a 100 x 100 pixel grid, and
``forward_planar9`` 2268 capsules into (45+1)² = 2116, with an R|R
translation from degree 45 to 16 per sphere, S|R translations from degree
16 to 16 between spheres and a 9 x 289 = 2601-unknown coupled system, at
4 kHz; ``hoa_search_linear2`` writes 200 x 200 pixel grids.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.blas import zherk

from mshoa.basis import (
    CoefficientVector,
    _to_pairs,
    norm_legendre_triangle,
    num_coeffs,
    real_table_layout,
    regular_real_table,
    sph_harm_matrix,
)
from mshoa.config import load_config
from mshoa.encode import DenseModel, Encoder, hoa_encoder, mshoa_encoder
from mshoa.fields import FieldGrid, GridSpec, reconstruct_field
from mshoa.matio import write_field_csv
from mshoa.runner import _Encoding, _truncation_block
from mshoa.scatter import (
    _apply_blocks,
    _capsule_residual,
    _solve_coupled,
    assemble_system_matrix,
    forward_operator,
    mirror_classes,
)
from mshoa.scene import RsmaSpec
from mshoa.translation import _coaxial_matrix, rotation_blocks, rr_translation, sr_translation

K = 2 * np.pi * 2000 / 343.0
GRID = GridSpec(plane="xy", extent=(2.0, 2.0), resolution=0.02)  # 10,000 pixels


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def planar9_shaped():
    return _complex(np.random.default_rng(0), (2268, num_coeffs(45)))


def test_gram_zherk(benchmark, planar9_shaped):
    f = planar9_shaped
    benchmark(lambda: zherk(1.0, f.T, trans=0))  # conj(FᴴF), upper triangle, as the encoder forms it


def test_gram_gemm(benchmark, planar9_shaped):
    f = planar9_shaped
    benchmark(lambda: f.conj().T @ f)


@pytest.fixture(scope="module")
def planar9_operator():
    return forward_operator(load_config(Path(__file__).parents[1] / "configs" / "cartesian9_mshoa.yaml").scene)


def test_normal_product(benchmark, planar9_operator):
    """``forward_planar9``'s product T_FᴴT_F x through its factors, one CG step's
    work: the eight C_k x_k, the capsule pressures of the nine spheres' shared
    response in one GEMM, their adjoint, and the eight C_kᴴ."""
    op = planar9_operator
    benchmark(op.normal, _complex(np.random.default_rng(1), op.shape[1]))


def test_cg_solve(benchmark, planar9_operator):
    """One σ candidate of ``forward_planar9``, at its fixed σ = 1e-8 ‖T_F‖₂²: T_Fᴴp,
    the eight class blocks G_kk + σI factored, and the block-Jacobi CG from
    zero; the class blocks already formed."""
    op = planar9_operator
    enc = mshoa_encoder(op)
    sigma = 1e-8 * enc.scale
    enc.apply(op.capture, sigmas=[sigma])
    benchmark(enc.apply, op.capture, sigmas=[sigma])


def test_sigma_solve(benchmark):
    """One σ candidate of a 676-coefficient dense encoder on 324 capsules, solved
    on its dual side, its Gram already formed."""
    rng = np.random.default_rng(1)
    enc = Encoder(forward=DenseModel(_complex(rng, (324, num_coeffs(25)))), k=K)
    sigma = 1e-8 * enc.scale
    p = _complex(rng, 324)
    benchmark(enc.apply, p, sigmas=[sigma])


@pytest.mark.parametrize("config", ["scaled_linear2_mshoa", "cartesian9_mshoa"], ids=["dual_324", "factored_cartesian9"])
def test_sigma_grid_scale(benchmark, config):
    """The unit of a σ grid, ‖F‖₂², by Lanczos: on ``sweep_linear2``'s scene,
    324 capsules for 676 coefficients, through ``zhemv`` on its 324² dual Gram
    (formed beforehand), and on ``cartesian9``'s primal side through the
    product FᴴF x of its factors."""
    enc = mshoa_encoder(forward_operator(load_config(Path(__file__).parents[1] / "configs" / f"{config}.yaml").scene))
    enc._normal()
    benchmark(lambda: enc.scale)


def test_hoa_search(benchmark):
    """``hoa_search_linear2``'s encode stage: n_c 1..14 at σ = 0 on one
    162-capsule array, each candidate an encoder of a view of the degree-14
    surface response's leading columns, solved by its pseudo-inverse."""
    sphere = RsmaSpec.fibonacci([0.0, 0.125, 0.0], 0.08, 162)
    encoding = _Encoding(hoa_encoder(sphere, K, 14), _complex(np.random.default_rng(9), 162), n_cs=list(range(1, 15)))
    benchmark(_truncation_block, encoding, 0.0)


@pytest.mark.parametrize(
    "n_max, columns, spec, center",
    [
        (25, 9, GRID, (0.0, 0.0, 0.0)),
        (45, 1, GRID, (0.0, 0.0, 0.0)),
        (14, 14, GridSpec(plane="xy", extent=(2.0, 2.0), resolution=0.01), (0.0, 0.125, 0.0)),
        (14, 14, GridSpec(plane="xz", extent=(1.1, 1.3), resolution=0.01, center=(0.3, -0.2), normal_offset=0.15),
         (0.0, 0.0, 0.0)),
    ],
    ids=["sweep_25x9", "planar9_45x1", "hoa_14x14", "off_center_plane_14x14"],
)
def test_reconstruct_field(benchmark, n_max, columns, spec, center):
    """The σ search's block, the final pass at degree 45, HOA's n_c block about
    its off-origin center (all three on a plane through the center, where the
    odd n + m rows drop), and a plane off the center, where no row drops and
    nearly every pixel has its own cos θ.  The first two windows are
    centered on the expansion center along both axes, so a quarter of their
    pixels are tabled, HOA's along x, so half are, and the last along
    neither."""
    rng = np.random.default_rng(2)
    coeffs = CoefficientVector(k=K, n_max=n_max, values=_complex(rng, (num_coeffs(n_max), columns)))
    benchmark(reconstruct_field, coeffs, spec, center)


def test_regular_real_table(benchmark):
    """The radial–Legendre table at degree 45 on a 64 x 64 patch of the
    plane through the center (4096 pixels): its spherical Bessel functions,
    every order at each point's kr by one recurrence, its Legendre rows at
    the one cos θ, gathered to the points, and the cos m φ / sin m φ runs."""
    u = np.linspace(0.05, 1.0, 64)
    points = np.stack(np.meshgrid(u, u, [0.0], indexing="ij"), axis=-1).reshape(-1, 3)
    benchmark(regular_real_table, 45, K, points, (0.0, 0.0, 0.0), real_table_layout(45, through_center=True))


def test_sph_harm_matrix(benchmark):
    rng = np.random.default_rng(3)
    theta, phi = rng.uniform(0, np.pi, 4096), rng.uniform(0, 2 * np.pi, 4096)
    benchmark(sph_harm_matrix, 45, theta, phi)


@pytest.mark.parametrize(
    "kind, dist, n_src, n_dst", [("RR", 0.354, 45, 16), ("SR", 0.25, 16, 16)], ids=["rr_45_16", "sr_16_16"]
)
def test_coaxial_matrix(benchmark, kind, dist, n_src, n_dst):
    """One coaxial translation block of ``forward_planar9`` (unrotated),
    its radial functions (orders 0..61 of j_n or h_n at one kd) included."""
    benchmark(_coaxial_matrix, kind, dist, 2 * np.pi * 4000 / 343.0, n_src, n_dst)


@pytest.mark.parametrize(
    "translate, t, n_src, n_dst",
    [(rr_translation, [0.25, 0.25, 0.0], 45, 16), (sr_translation, [0.25, 0.0, 0.0], 16, 16)],
    ids=["rr_45_16", "sr_16_16"],
)
def test_translation(benchmark, translate, t, n_src, n_dst):
    """One whole translation of ``forward_planar9`` in the pair basis: a corner
    sphere's R|R map from the origin, and the S|R block between grid
    neighbours 0.25 m apart.  The coaxial recurrence writes the source
    columns already rotated; the rows take one matmul per degree."""
    benchmark(translate, t, 2 * np.pi * 4000 / 343.0, n_src, n_dst)


def test_forward_matrix(benchmark):
    """``cartesian9``'s T_F filled from its factors, as an export writes it:
    per sphere, the (252 x class harmonics) @ (class rows x class incident
    columns) products of the eight classes, then the pair transform of its
    252 x 2116 rows."""
    op = forward_operator(load_config(Path(__file__).parents[1] / "configs" / "cartesian9_mshoa.yaml").scene)
    benchmark(lambda: op.matrix)


MIRROR8 = [(360, 276), (316, 276), (342, 276), (308, 253), (342, 276), (308, 253), (333, 253), (292, 253)]


@pytest.mark.parametrize(
    "shapes",
    [[(2601, 2116)], [(1377, 1081), (1224, 1035)], MIRROR8],
    ids=["one", "two_blocks", "mirror8"],
)
def test_coupled_solve(benchmark, shapes):
    """``forward_planar9``'s coupled solve, 2601 unknowns against 2116 incident
    columns: as one system, as its two z-parity classes, or as the eight
    classes of its x, y and z mirror planes, which the build solves.  LU
    factor and multi-right-hand-side solve, both in place on fresh arrays
    each round."""
    rng = np.random.default_rng(7)

    def fresh():
        systems = [np.asfortranarray(np.eye(n) + 0.01 * _complex(rng, (n, n))) for n, _ in shapes]
        return (systems, [np.asfortranarray(_complex(rng, shape)) for shape in shapes]), {}

    benchmark.pedantic(_solve_coupled, setup=fresh, rounds=3)


def test_to_pairs(benchmark):
    """The pair transform of ``forward_planar9``'s degree-45 incident columns,
    in place, on one sphere's rows of T_F."""
    a = _complex(np.random.default_rng(8), (252, num_coeffs(45)))
    benchmark(_to_pairs, a, 45)


def test_assemble_system_matrix(benchmark):
    """``forward_planar9``'s eight mirror-class systems: 24 distinct S|R
    builds in the pair basis and the projection of its 72 sphere pairs."""
    scene = load_config(Path(__file__).parents[1] / "configs" / "cartesian9_mshoa.yaml").scene
    benchmark(assemble_system_matrix, scene, mirror_classes(scene))


def test_capsule_residual(benchmark):
    """The capture check on ``cartesian9``'s eight classes (n_fwd 16, n_in 45):
    the capture from the class vectors of c a, the radiate step, and
    eval_total_field at 16 capsules of each of the 9 spheres."""
    scene = load_config(Path(__file__).parents[1] / "configs" / "cartesian9_mshoa.yaml").scene
    op = forward_operator(scene)
    a_in = scene.incident_coeffs()
    felt = _apply_blocks(op.c, op.mirror, a_in, scene.n_in)
    benchmark(_capsule_residual, op, felt, a_in)


@pytest.mark.parametrize("points", [252, 4096], ids=["capsules", "pixel_chunk"])
def test_norm_legendre_triangle(benchmark, points):
    x = np.random.default_rng(6).uniform(-1.0, 1.0, points)
    benchmark(norm_legendre_triangle, 45, x)


def test_rotation_blocks(benchmark):
    """The 46 Wigner-D blocks of one degree-45 translation (L_y eigenbases cached after the first round)."""
    benchmark(rotation_blocks, 45, 0.7, 1.9)


def test_write_field_csv(benchmark, tmp_path):
    spec = GridSpec(plane="xy", extent=(2.0, 2.0), resolution=0.01)
    grid = FieldGrid(spec=spec, values=_complex(np.random.default_rng(4), spec.shape))
    benchmark(write_field_csv, tmp_path / "field.csv", grid, "0123456789abcdef")
