"""Layer microbenchmarks for the σ search's and the forward build's kernels (pytest-benchmark).

    PYTHONPATH=src python -m pytest tests/bench_kernels.py --benchmark-only

The file name does not match ``test_*.py``, so the test suite does not
collect it; name it on the command line.  Set ``OPENBLAS_NUM_THREADS=1`` (or
its equivalent) to compare figures with the benchmark, which runs one BLAS
thread.  Shapes follow the benchmark workloads: ``sweep_linear2`` encodes
324 capsules into (25+1)² = 676 coefficients on a 100 x 100 pixel grid, and
``forward_planar9`` 2268 capsules into (45+1)² = 2116, with an R|R
translation from degree 45 to 16 per sphere and S|R translations from degree
16 to 16 between spheres, at 4 kHz; ``hoa_search_linear2`` writes
200 x 200 pixel grids.
"""

import numpy as np
import pytest
from scipy.linalg.blas import zherk

from mshoa.basis import CoefficientVector, norm_legendre_triangle, num_coeffs, sph_harm_matrix
from mshoa.encode import Encoder
from mshoa.fields import FieldGrid, GridSpec, reconstruct_field
from mshoa.matio import write_field_csv
from mshoa.scatter import surface_response_matrix
from mshoa.scene import RsmaSpec
from mshoa.translation import _coaxial_matrix, rotation_blocks

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


@pytest.mark.parametrize("capsules", [324, 1000], ids=["dual", "primal"])
def test_sigma_solve(benchmark, capsules):
    """One σ candidate of a 676-coefficient encoder, its Gram already formed."""
    rng = np.random.default_rng(1)
    enc = Encoder(forward=_complex(rng, (capsules, num_coeffs(25))), k=K)
    sigma = 1e-8 * enc.scale
    p = _complex(rng, capsules)
    benchmark(enc.apply, p, sigmas=[sigma])


@pytest.mark.parametrize("n_max, columns", [(25, 9), (45, 1)])
def test_reconstruct_field(benchmark, n_max, columns):
    rng = np.random.default_rng(2)
    coeffs = CoefficientVector(k=K, n_max=n_max, values=_complex(rng, (num_coeffs(n_max), columns)))
    benchmark(reconstruct_field, coeffs, K, GRID)


def test_sph_harm_matrix(benchmark):
    rng = np.random.default_rng(3)
    theta, phi = rng.uniform(0, np.pi, 4096), rng.uniform(0, 2 * np.pi, 4096)
    benchmark(sph_harm_matrix, 45, theta, phi)


@pytest.mark.parametrize(
    "kind, dist, n_src, n_dst", [("RR", 0.354, 45, 16), ("SR", 0.25, 16, 16)], ids=["rr_45_16", "sr_16_16"]
)
def test_coaxial_matrix(benchmark, kind, dist, n_src, n_dst):
    """One coaxial translation block of ``forward_planar9`` (before its rotation)."""
    benchmark(_coaxial_matrix, kind, dist, 2 * np.pi * 4000 / 343.0, n_src, n_dst)


def test_capsule_block(benchmark):
    """One sphere's rows of the coupled T_F, Lambda_s @ c_s: (252 x 289) @ (289 x 2116)."""
    rng = np.random.default_rng(5)
    lam = surface_response_matrix(RsmaSpec.fibonacci([0.0, 0.0, 0.0], 0.08, 252), 2 * np.pi * 4000 / 343.0, 16)
    c = np.asfortranarray(_complex(rng, (9 * num_coeffs(16), num_coeffs(45))))  # the solved block, 9 spheres
    out = np.empty((252, num_coeffs(45)), dtype=complex)
    benchmark(np.matmul, lam, c[num_coeffs(16) : 2 * num_coeffs(16)], out=out)


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
