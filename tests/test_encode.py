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
    enc = hoa_encoder(sphere, k, 6)
    lam = surface_response_matrix(sphere, k, 6)
    prod = np.column_stack([enc.apply(column, sigmas=0.0).values[:, 0] for column in lam.T])  # E @ Lambda
    assert np.max(np.abs(prod - np.eye(num_coeffs(6)))) < 1e-8


def test_ridge_solution_stationarity(rng):
    """x = E p satisfies the normal equations F^H (F x - p) + sigma x = 0."""
    sphere = _sphere(100)
    k = 2 * np.pi * 2000 / 343.0
    lam = surface_response_matrix(sphere, k, 7)
    sigma = 1e-4 * np.linalg.norm(lam, 2) ** 2
    enc = hoa_encoder(sphere, k, 7)
    p = rng.normal(size=100) + 1j * rng.normal(size=100)
    x = enc.apply(p, sigmas=sigma).values[:, 0]
    grad = lam.conj().T @ (lam @ x - p) + sigma * x
    assert np.linalg.norm(grad) / np.linalg.norm(lam.conj().T @ p) < 1e-10


def test_shrinkage_is_monotone_in_sigma(rng):
    sphere = _sphere(100)
    k = 2 * np.pi * 2000 / 343.0
    scale = np.linalg.norm(surface_response_matrix(sphere, k, 7), 2) ** 2
    p = rng.normal(size=100) + 1j * rng.normal(size=100)
    norms = [
        np.linalg.norm(hoa_encoder(sphere, k, 7).apply(p, sigmas=scale * f).values)
        for f in (1e-8, 1e-4, 1e-1, 1e1, 1e3)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    # strong regularization shrinks the estimate essentially to zero
    assert norms[-1] < 1e-3 * norms[0]


def test_single_equals_mshoa_for_one_sphere():
    """A lone sphere at the origin feels the incident field alone (c = a), so
    with n_in = n_fwd both operators are its surface response Lambda: MSHOA's
    as Lambda c, Single's as the regular plus the scattered series."""
    scene = _scene([[0.0, 0.0, 0.0]], n_in=6, n_fwd=6)
    lam = surface_response_matrix(scene.spheres[0], scene.k, 6)
    full = forward_operator(scene, include_coupling=True)
    single = forward_operator(scene, include_coupling=False)
    for model in (full, single):
        assert np.max(np.abs(model.matrix - lam)) <= 1e-13 * np.max(np.abs(lam))
    e_full, e_single = (_encoder_matrix(mshoa_encoder(m), 1e-6) for m in (full, single))
    assert np.max(np.abs(e_full - e_single)) <= 1e-9 * np.max(np.abs(e_full))


def _encoder_matrix(enc, sigma):
    """The capsules-to-coefficients map E, one column per unit capsule pressure."""
    return np.column_stack([enc.apply(unit, sigmas=sigma).values[:, 0] for unit in np.eye(enc.forward.shape[0])])


def _count_grams(monkeypatch):
    """Record the shape of every Gram an encoder forms."""
    from mshoa import encode

    shapes = []
    herk = encode.zherk

    def counting_herk(*args, **kwargs):
        gram = herk(*args, **kwargs)
        shapes.append(gram.shape)
        return gram

    monkeypatch.setattr(encode, "zherk", counting_herk)
    return shapes


def test_shared_gram_matches_normal_equations(rng, monkeypatch):
    """One Gram for every sigma reproduces (F^H F + sigma I)^-1 F^H p, and pinv(F) p at 0.

    With 2 x 60 capsules F has more rows than its 81 columns and is solved
    through F^H F; with 2 x 30 it has fewer, and is solved through F F^H.
    """
    grams = _count_grams(monkeypatch)
    for caps in (60, 30):
        scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], caps=caps)
        forward = forward_operator(scene)
        f = forward.matrix
        q, size = f.shape
        grams.clear()
        enc = mshoa_encoder(forward)
        assert enc.scale == pytest.approx(np.linalg.norm(f, 2) ** 2, rel=1e-12)
        p = rng.normal(size=q) + 1j * rng.normal(size=q)
        factors = np.array([1e2, 1e-1, 1e-4, 1e-6, 1e-8, 0.0])
        block = enc.apply(p, sigmas=enc.scale * factors)
        assert block.values.shape == (num_coeffs(scene.n_in), factors.size)
        assert grams == [(min(q, size),) * 2]  # the scale's Gram, on the smaller side, serves every sigma
        for column, factor in zip(block.values.T, factors):
            sigma = factor * enc.scale
            if sigma:
                gram = f.conj().T @ f + sigma * np.eye(size)
                reference = np.linalg.solve(gram, f.conj().T @ p)
            else:
                reference = np.linalg.pinv(f) @ p
            err = np.linalg.norm(column - reference) / np.linalg.norm(reference)
            # at 1e-8 the normal-equations reference itself carries ~cond * eps error
            assert err <= (1e-8 if factor == 0 or factor >= 1e-6 else 1e-7)
    lone = Encoder(forward=f[:, :1], k=scene.k)  # too small for ARPACK
    assert lone.scale == pytest.approx(np.linalg.norm(f[:, 0]) ** 2, rel=1e-12)


def test_unregularized_encoder_forms_no_gram(rng, monkeypatch):
    grams = _count_grams(monkeypatch)
    sphere = _sphere(100)
    p = rng.normal(size=100) + 1j * rng.normal(size=100)
    hoa_encoder(sphere, 2 * np.pi * 2000 / 343.0, 11).apply(p, sigmas=0.0, n_outs=[2, 7, 11])
    assert grams == []


def test_truncation_candidates_match_lower_degree_encoders(rng, monkeypatch):
    """A degree-n column of the n_c_max encoder is the degree-n encoder, zero-padded.

    With 100 capsules the degree-11 candidate (144 coefficients) is solved on
    the dual side and the lower ones on the primal side, whose one Gram is
    formed at the largest primal degree, 7 (64 coefficients).
    """
    sphere = _sphere(100)
    k = 2 * np.pi * 2000 / 343.0
    p = rng.normal(size=100) + 1j * rng.normal(size=100)
    scale = np.linalg.norm(surface_response_matrix(sphere, k, 11), 2) ** 2
    grams = _count_grams(monkeypatch)
    for sigma in (0.0, 1e-6, 1e-4 * scale):
        grams.clear()
        block = hoa_encoder(sphere, k, 11).apply(p, sigmas=sigma, n_outs=[2, 7, 11]).values
        assert sorted(grams) == ([] if sigma == 0 else [(64, 64), (100, 100)])
        for column, n_c in zip(block.T, (2, 7, 11)):
            alone = hoa_encoder(sphere, k, n_c).apply(p, sigmas=sigma).values[:, 0]
            np.testing.assert_allclose(column[: alone.size], alone, rtol=0, atol=1e-12 * np.abs(alone).max())
            assert not column[alone.size :].any()


def test_encoder_metadata_and_apply(rng):
    scene = _scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]])
    enc = mshoa_encoder(forward_operator(scene))
    assert enc.n_out == scene.n_in
    assert enc.k == pytest.approx(scene.k)
    p = rng.normal(size=80) + 1j * rng.normal(size=80)
    cv = enc.apply(p, sigmas=[1e-8])
    assert cv.n_max == scene.n_in
    assert cv.values.shape == (num_coeffs(scene.n_in), 1)


def test_encoder_input_length_checked():
    sphere = _sphere(50)
    enc = hoa_encoder(sphere, 10.0, 4)
    with pytest.raises(ValueError):
        enc.apply(np.zeros(49), sigmas=1e-6)


def test_negative_sigma_rejected():
    sphere = _sphere(50)
    with pytest.raises(ValueError):
        hoa_encoder(sphere, 10.0, 4).apply(np.zeros(50), sigmas=-1.0)


def test_underdetermined_encoder_warns(caplog):
    import logging

    sphere = _sphere(10)
    with caplog.at_level(logging.WARNING, logger="mshoa.encode"):
        hoa_encoder(sphere, 10.0, 5)
    assert any("underdetermined" in r.message for r in caplog.records)


def test_failed_pseudo_inverse_is_an_encoder_error():
    """Above degree ~160 at kR = 1.47, h'_n(kR) overflows, the response holds
    nan and the σ = 0 SVD cannot converge: an EncoderError, not a LinAlgError."""
    sphere = RsmaSpec.fibonacci([0.0, 0.125, 0.0], 0.08, 40)
    k = 2 * np.pi * 1000 / 343.0
    p = np.ones(sphere.num_capsules, complex)
    with np.errstate(invalid="ignore", over="ignore"):
        encoder = hoa_encoder(sphere, k, 200)
        with pytest.raises(EncoderError, match="pseudo-inverse"):
            encoder.apply(p, sigmas=0.0)
