"""Ridge-regression encoders."""

import numpy as np
import pytest

from mshoa.basis import num_coeffs
from mshoa.encode import Encoder, EncoderError, hoa_encoder, mshoa_encoder
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
    prod = np.column_stack([enc.apply(column).values for column in lam.T])  # E @ Lambda
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
    np.testing.assert_allclose(_encoder_matrix(full), _encoder_matrix(single), atol=1e-13)


def _encoder_matrix(enc):
    """The capsules-to-coefficients map E, one column per unit capsule pressure."""
    return np.column_stack([enc.apply(unit).values for unit in np.eye(enc.forward.shape[0])])


def test_shared_gram_matches_normal_equations(rng):
    """One Gram for every sigma reproduces (F^H F + sigma I)^-1 F^H p, and pinv(F) p at 0."""
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], caps=60)
    forward = forward_operator(scene)
    f = forward.matrix
    enc = mshoa_encoder(forward)
    assert enc.scale == pytest.approx(np.linalg.norm(f, 2) ** 2, rel=1e-12)
    lone = Encoder(kind="HOA", forward=f[:, :1], k=scene.k, n_out=0)  # too small for ARPACK
    assert lone.scale == pytest.approx(np.linalg.norm(f[:, 0]) ** 2, rel=1e-12)
    p = rng.normal(size=120) + 1j * rng.normal(size=120)
    sigmas = enc.scale * np.array([1e2, 1e-1, 1e-4, 1e-6, 0.0])
    block = enc.apply(p, sigmas=sigmas)
    assert block.values.shape == (num_coeffs(scene.n_in), sigmas.size)
    for column, sigma in zip(block.values.T, sigmas):
        if sigma:
            gram = f.conj().T @ f + sigma * np.eye(f.shape[1])
            reference = np.linalg.solve(gram, f.conj().T @ p)
        else:
            reference = np.linalg.pinv(f) @ p
        assert np.linalg.norm(column - reference) <= 1e-8 * np.linalg.norm(reference)


def test_truncation_candidates_match_lower_degree_encoders(rng):
    """A degree-n column of the n_c_max encoder is the degree-n encoder, zero-padded."""
    sphere = _sphere(100)
    k = 2 * np.pi * 2000 / 343.0
    p = rng.normal(size=100) + 1j * rng.normal(size=100)
    for sigma in (0.0, 1e-6):
        block = hoa_encoder(sphere, k, 11, sigma).apply(p, n_outs=[2, 7, 11]).values
        for column, n_c in zip(block.T, (2, 7, 11)):
            alone = hoa_encoder(sphere, k, n_c, sigma).apply(p).values
            np.testing.assert_allclose(column[: alone.size], alone, rtol=0, atol=1e-12 * np.abs(alone).max())
            assert not column[alone.size :].any()


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
