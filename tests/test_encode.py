"""Ridge-regression encoders."""

import numpy as np
import pytest

from mshoa.basis import num_coeffs
from mshoa.encode import EncoderError, hoa_encoder, mshoa_encoder
from mshoa.scatter import forward_operator, surface_response_matrix
from mshoa.scene import IncidentSource, RsmaSpec, SceneConfig


def _sphere(caps=162):
    return RsmaSpec.fibonacci([0.0, 0.0, 0.0], 0.08, caps)


def _scene(centers, caps=40, n_in=8, n_fwd=6):
    return SceneConfig(
        spheres=[RsmaSpec.fibonacci(c, 0.08, caps) for c in centers],
        source=IncidentSource(kind="plane_wave", direction=[0.0, 0.0, 1.0]),
        frequency=1000.0,
        n_in=n_in,
        n_fwd=n_fwd,
    )


def test_unregularized_encoder_inverts_response():
    """With plenty of capsules and sigma = 0, E @ Lambda = I."""
    sphere = _sphere(162)
    k = 2 * np.pi * 1000 / 343.0
    enc = hoa_encoder(sphere, k, 6, sigma=0.0)
    lam = surface_response_matrix(sphere, k, 6)
    prod = enc.matrix @ lam
    assert np.max(np.abs(prod - np.eye(num_coeffs(6)))) < 1e-8


def test_ridge_solution_stationarity(rng):
    """x = E p satisfies the normal equations F^H (F x - p) + sigma x = 0."""
    sphere = _sphere(100)
    k = 2 * np.pi * 2000 / 343.0
    lam = surface_response_matrix(sphere, k, 7)
    sigma = 1e-4 * np.linalg.norm(lam, 2) ** 2
    enc = hoa_encoder(sphere, k, 7, sigma=sigma)
    p = rng.normal(size=100) + 1j * rng.normal(size=100)
    x = enc.apply(p).values
    grad = lam.conj().T @ (lam @ x - p) + sigma * x
    assert np.linalg.norm(grad) / np.linalg.norm(lam.conj().T @ p) < 1e-10


def test_shrinkage_is_monotone_in_sigma(rng):
    sphere = _sphere(100)
    k = 2 * np.pi * 2000 / 343.0
    scale = np.linalg.norm(surface_response_matrix(sphere, k, 7), 2) ** 2
    p = rng.normal(size=100) + 1j * rng.normal(size=100)
    norms = [
        np.linalg.norm(hoa_encoder(sphere, k, 7, sigma=scale * f).apply(p).values)
        for f in (1e-8, 1e-4, 1e-1, 1e1, 1e3)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    # strong regularization shrinks the estimate essentially to zero
    assert norms[-1] < 1e-3 * norms[0]


def test_single_equals_mshoa_for_one_sphere():
    scene = _scene([[0.0, 0.0, 0.0]])
    full = mshoa_encoder(forward_operator(scene, include_coupling=True), 1e-6)
    single = mshoa_encoder(forward_operator(scene, include_coupling=False), 1e-6)
    assert full.kind == "MSHOA"
    assert single.kind == "Single"
    np.testing.assert_allclose(full.matrix, single.matrix, atol=1e-13)


def test_encoder_metadata_and_apply(rng):
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]])
    enc = mshoa_encoder(forward_operator(scene), 1e-8)
    assert enc.n_out == scene.n_in
    assert enc.k == pytest.approx(scene.k)
    p = rng.normal(size=80) + 1j * rng.normal(size=80)
    cv = enc.apply(p)
    assert cv.n_max == scene.n_in
    assert cv.values.shape == (num_coeffs(scene.n_in),)


def test_encoder_input_length_checked():
    sphere = _sphere(50)
    enc = hoa_encoder(sphere, 10.0, 4, sigma=1e-6)
    with pytest.raises(ValueError):
        enc.apply(np.zeros(49))


def test_negative_sigma_rejected():
    sphere = _sphere(50)
    with pytest.raises(ValueError):
        hoa_encoder(sphere, 10.0, 4, sigma=-1.0)


def test_underdetermined_encoder_warns(caplog):
    import logging

    sphere = _sphere(10)
    with caplog.at_level(logging.WARNING, logger="mshoa.encode"):
        hoa_encoder(sphere, 10.0, 5, sigma=1e-6)
    assert any("underdetermined" in r.message for r in caplog.records)
