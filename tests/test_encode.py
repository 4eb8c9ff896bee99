"""Ridge-regression encoders."""

import numpy as np
import pytest

from mshoa.basis import num_coeffs
from mshoa.encode import DenseModel, Encoder, EncoderError, hoa_encoder, largest_eigenvalue, mshoa_encoder
from mshoa.scatter import ForwardOperator, forward_operator, surface_response_matrix
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
    """A lone sphere feels the incident field alone (c = a_s), so Single's
    Lambda a_s and MSHOA's Lambda c are one operator, bit for bit, at the
    origin and off it; at the origin with n_in = n_fwd both are its surface
    response Lambda."""
    for center in ([0.0, 0.0, 0.0], [0.03, -0.02, 0.05]):
        scene = _scene([center], n_in=6, n_fwd=6)
        full = forward_operator(scene, include_coupling=True)
        single = forward_operator(scene, include_coupling=False)
        assert np.array_equal(full.matrix, single.matrix)
    scene = _scene([[0.0, 0.0, 0.0]], n_in=6, n_fwd=6)
    lam = surface_response_matrix(scene.spheres[0], scene.k, 6)
    assert np.max(np.abs(forward_operator(scene).matrix - lam)) <= 1e-13 * np.max(np.abs(lam))


def _count_grams(monkeypatch):
    """Record the shape of every Gram an encoder forms: a dense model's (by ``zherk``) or from T_F's factors."""
    from mshoa import encode

    shapes = []

    def counting(form):
        def gram(*args, **kwargs):
            out = form(*args, **kwargs)
            shapes.append(out.shape)
            return out

        return gram

    monkeypatch.setattr(encode, "zherk", counting(encode.zherk))
    monkeypatch.setattr(ForwardOperator, "gram", counting(ForwardOperator.gram))
    return shapes


def test_shared_gram_matches_normal_equations(rng, monkeypatch):
    """One encoder for every sigma reproduces (F^H F + sigma I)^-1 F^H p, and pinv(F) p at 0.

    With 2 x 60 capsules F has more rows than its 81 columns and is solved
    through F^H F by CG on its factors, which forms no Gram; with 2 x 30 it
    has fewer, and is solved through F F^H, whose one Gram serves every sigma.
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
        assert grams == ([] if q >= size else [(q, q)])  # the scale's dual Gram serves every sigma
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
    lone = Encoder(forward=DenseModel(f[:, :1]), k=scene.k)  # a 1 x 1 Gram on the primal side
    assert lone.scale == pytest.approx(np.linalg.norm(f[:, 0]) ** 2, rel=1e-12)


@pytest.mark.parametrize("size", [1, 2, 3, 50])
def test_lanczos_finds_the_largest_eigenvalue(rng, size):
    """Lanczos on a Hermitian positive semidefinite matrix of any size, and on
    a rank-1 one, whose Krylov space is invariant after two steps (a third
    sees only rounding), gives eigvalsh's largest eigenvalue to 1e-14."""
    a = rng.standard_normal((size, size + 2)) + 1j * rng.standard_normal((size, size + 2))
    u = a[:, :1]
    for matrix in (a @ a.conj().T, u @ u.conj().T):
        steps = []
        top = largest_eigenvalue(lambda v: steps.append(v) or matrix @ v, size)
        assert top == pytest.approx(np.linalg.eigvalsh(matrix)[-1], rel=1e-14)
        assert len(steps) <= size
    assert len(steps) <= 3  # the rank-1 matrix
    assert largest_eigenvalue(lambda v: 0.0 * v, 4) == 0.0


def test_lanczos_finds_a_clustered_top_within_its_cap(rng):
    """A spectrum piled up at the top, sqrt density on [0, 1) with the top
    pair 1e-10 apart, is the hard case for the stopping rule: at size 300 it
    takes about 200 steps, inside LANCZOS_MAX_STEPS, and still finds 1."""
    size = 300
    q = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))[0]
    spectrum = 0.999 * np.sqrt(np.arange(size) / size)
    spectrum[-2:] = 1 - 1e-10, 1.0
    matrix = (q * spectrum) @ q.conj().T
    steps = []
    top = largest_eigenvalue(lambda v: steps.append(v) or matrix @ v, size)
    assert top == pytest.approx(1.0, rel=1e-14)
    assert 100 < len(steps) < size


def test_lanczos_past_its_cap_is_an_encoder_error(monkeypatch):
    from mshoa import encode

    monkeypatch.setattr(encode, "LANCZOS_MAX_STEPS", 2)
    with pytest.raises(EncoderError, match="Lanczos"):
        largest_eigenvalue(lambda v: np.arange(10.0) * v, 10)


def test_dense_primal_model_forms_its_right_hand_side_once(rng, monkeypatch):
    """A dense model with more capsules than coefficients (2 x 60 capsules,
    81 coefficients, TINY_PRIMAL's shape) forms F^H p once per apply, for all
    three of its sigmas, and each column still solves the normal equations."""
    f = forward_operator(_scene([[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]], caps=60)).matrix
    assert f.shape == (120, 81)
    calls, adjoint = [], DenseModel.adjoint
    monkeypatch.setattr(DenseModel, "adjoint", lambda self, y: calls.append(len(y)) or adjoint(self, y))
    enc = Encoder(forward=DenseModel(f), k=1.0)
    p = rng.normal(size=len(f)) + 1j * rng.normal(size=len(f))
    sigmas = enc.scale * np.array([1e-2, 1e-4, 1e-6])
    block = enc.apply(p, sigmas)
    assert calls == [len(f)]
    for column, sigma in zip(block.values.T, sigmas):
        reference = np.linalg.solve(f.conj().T @ f + sigma * np.eye(f.shape[1]), f.conj().T @ p)
        assert np.linalg.norm(column - reference) <= 1e-8 * np.linalg.norm(reference)


def test_unregularized_encoder_forms_no_gram(rng, monkeypatch):
    grams = _count_grams(monkeypatch)
    sphere = _sphere(100)
    p = rng.normal(size=100) + 1j * rng.normal(size=100)
    for n_c in (2, 7, 11):
        hoa_encoder(sphere, 2 * np.pi * 2000 / 343.0, n_c).apply(p, sigmas=0.0)
    assert grams == []


def test_truncation_candidates_match_lower_degree_encoders(rng):
    """An encoder of a view of the degree-11 encoder's response, its first
    (n+1)^2 columns, is the degree-n encoder, bit for bit: on the primal side
    (n = 2, 7 on 100 capsules) and on the dual side (n = 11, 144 coefficients)."""
    sphere = _sphere(100)
    k = 2 * np.pi * 2000 / 343.0
    p = rng.normal(size=100) + 1j * rng.normal(size=100)
    response = hoa_encoder(sphere, k, 11).forward.matrix
    scale = np.linalg.norm(response, 2) ** 2
    for sigma in (0.0, 1e-6, 1e-4 * scale):
        for n_c in (2, 7, 11):
            view = Encoder(forward=DenseModel(response[:, : num_coeffs(n_c)]), k=k)
            assert view.n_out == n_c
            alone = hoa_encoder(sphere, k, n_c).apply(p, sigmas=sigma).values
            assert np.array_equal(view.apply(p, sigmas=sigma).values, alone)


@pytest.mark.parametrize("coupling", [True, False], ids=["MSHOA", "Single"])
@pytest.mark.parametrize("caps", [60, 6], ids=["primal", "dual"])
@pytest.mark.parametrize(
    "centers",
    [[[x, y, 0.0] for x in (-0.125, 0.125) for y in (-0.125, 0.125)], [[0.0, -0.125, 0.0], [0.05, 0.125, 0.05]]],
    ids=["three_planes", "no_plane"],
)
def test_factored_encoder_matches_the_dense_encoder(rng, centers, caps, coupling):
    """The encoder of T_F's factors and the encoder of the filled T_F agree at
    every point of a 9-point sigma grid: scale to 1e-13, and each solution to
    1e-14 times max(1, scale / sigma), the roundoff of normal equations whose
    condition number is at most scale / sigma."""
    op = forward_operator(_scene(centers, caps=caps, n_in=6, n_fwd=4), include_coupling=coupling)
    factored, dense = mshoa_encoder(op), Encoder(forward=DenseModel(op.matrix), k=op.scene.k)
    assert factored.scale == pytest.approx(dense.scale, rel=1e-13)
    sigmas = dense.scale * np.logspace(-8, 2, 9)
    p = rng.standard_normal((op.shape[0], 2)) @ [1, 1j]
    ours, reference = factored.apply(p, sigmas).values, dense.apply(p, sigmas).values
    for column, expected, sigma in zip(ours.T, reference.T, sigmas):
        gap = np.max(np.abs(column - expected)) / np.max(np.abs(expected))
        assert gap <= 1e-14 * max(1.0, dense.scale / sigma)


@pytest.mark.parametrize("caps", [400, 30], ids=["primal", "dual"])
def test_sigma_search_holds_less_than_one_gram(caps):
    """A 9-point sigma search of a mirror-symmetric scene, the scale included,
    stays within a traced peak below the bytes of one n x n Gram (169
    columns): the primal side (3 x 3 arrays of 400 capsules) forms only the
    diagonal class blocks of F^H F, an eighth of it, and the dual side (a pair
    of 30) only the 60 x 60 Gram of F F^H."""
    import tracemalloc

    from mshoa.scene import layout_cartesian

    centers = layout_cartesian(3, 3, 0.25) if caps == 400 else [[0.0, -0.125, 0.0], [0.0, 0.125, 0.0]]
    op = forward_operator(_scene(centers, caps=caps, n_in=12, n_fwd=6))
    assert (op.shape[0] >= op.shape[1]) == (caps == 400)
    mshoa_encoder(op).scale  # import the eigensolver outside the trace
    tracemalloc.start()
    try:
        encoder = mshoa_encoder(op)
        encoder.apply(op.capture, sigmas=encoder.scale * np.logspace(0, -8, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * op.shape[1] ** 2


@pytest.mark.parametrize("caps", [60, 30], ids=["primal", "dual"])
def test_sigma_search_reruns_bit_for_bit(rng, caps):
    """A sigma search run again, on the same operator or a rebuilt one, gives
    the same scale and the same coefficients to the last bit."""
    scene = _scene([[x, y, 0.0] for x in (-0.125, 0.125) for y in (-0.125, 0.125)], caps=caps)
    p = rng.standard_normal((scene.total_capsules, 2)) @ [1, 1j]
    runs = []
    for op in (forward_operator(scene),) * 2 + (forward_operator(scene),):
        encoder = mshoa_encoder(op)
        runs.append((encoder.scale, encoder.apply(p, sigmas=encoder.scale * np.logspace(0, -8, 9)).values))
    assert all(scale == runs[0][0] and np.array_equal(values, runs[0][1]) for scale, values in runs)


@pytest.mark.parametrize("method", ["MSHOA", "Single"])
def test_grid_encoding_holds_less_than_t_f(method):
    """A primal scene of many capsules (a 3 x 3 grid of 400 each, 3600 rows
    against 169 columns) builds its operator, its capture, its encoder and
    one solve within a traced peak below the bytes of T_F alone: no array of
    T_F's shape is made."""
    import tracemalloc

    from mshoa import runner
    from mshoa.config import ExperimentConfig
    from mshoa.scene import layout_cartesian

    scene = _scene(layout_cartesian(3, 3, 0.25), caps=400, n_in=12, n_fwd=6)
    cfg = ExperimentConfig(scene=scene, method=method, sigma=1e-8)
    runner._grid_encoding(cfg)  # fill the translation caches outside the trace
    tracemalloc.start()
    try:
        encoding = runner._grid_encoding(cfg)
        encoding.encoder.apply(encoding.pressures, sigmas=cfg.sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * scene.total_capsules * num_coeffs(scene.n_in)


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
