"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Criteria 5 and 6 run at reduced scale as the CI gate; the corresponding
full-scale experiments are available as slow-marked tests at the bottom
(run them with ``pytest -m slow``).
"""

import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from mshoa.basis import (
    num_coeffs,
    regular_basis_matrix,
    singular_basis_matrix,
    sph_harm_matrix,
)
from mshoa.config import load_config
from mshoa.encode import hoa_encoder
from mshoa.fields import (
    GridSpec,
    ground_truth_field,
    reconstruct_field,
    sdr_map,
    sphere_mask,
)
from mshoa.runner import run_experiment
from mshoa.scatter import (
    eval_total_field,
    forward_operator,
    forward_solve,
    surface_response_matrix,
)
from mshoa.scene import IncidentSource, RsmaSpec, SceneConfig, plane_wave_coeffs
from mshoa.translation import rr_translation, sr_translation
from tests.oracles import (
    capture_warnings,
    eval_radial_derivative,
    read_field_csv,
    single_sphere_total_field,
    sph_bessel_j,
    sph_hankel1,
    standard_translation,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _verdict(num: int, desc: str, ok: bool):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------
# 1. special functions
# ---------------------------------------------------------------------------

def test_criterion_1_special_functions():
    ok = True
    # orthonormality up to n = 10 under exact product quadrature
    n_max = 10
    xg, wg = leggauss(n_max + 1)
    n_phi = 2 * n_max + 1
    phig = np.arange(n_phi) * 2 * np.pi / n_phi
    th, ph = np.meshgrid(np.arccos(xg), phig, indexing="ij")
    w = np.repeat(wg[:, None], n_phi, axis=1).ravel() * (2 * np.pi / n_phi)
    y = sph_harm_matrix(n_max, th.ravel(), ph.ravel())
    gram = (y.conj() * w[:, None]).T @ y
    ok &= np.max(np.abs(gram - np.eye(num_coeffs(n_max)))) < 1e-10

    # Wronskian for n <= 60, x in [0.1, 100]
    x = np.concatenate([np.linspace(0.1, 1, 50), np.linspace(1, 100, 250)])
    for n in range(61):
        wron = sph_bessel_j(n, x) * sph_hankel1(n, x, derivative=True).imag - (
            sph_bessel_j(n, x, derivative=True) * sph_hankel1(n, x).imag
        )
        ok &= np.max(np.abs(wron * x * x - 1.0)) < 1e-10

    # closed-form spot values to 9 significant digits
    ok &= abs(sph_bessel_j(2, 1.0) / 0.0620350520113739 - 1) < 1e-9
    ok &= abs(sph_hankel1(1, 1.0) / (0.301168678939757 - 1.38177329067604j) - 1) < 1e-9
    ok &= abs(sph_harm_matrix(1, np.pi / 2, 0.0)[0, 3] / -0.345494149471335 - 1) < 1e-9  # Y_1^1
    _verdict(1, "special-function suite (orthonormality, Wronskian, spot values)", ok)


# ---------------------------------------------------------------------------
# 2. translation oracle
# ---------------------------------------------------------------------------

def test_criterion_2_translation_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(20):
        k = rng.uniform(2.0, 12.0)
        t = rng.normal(size=3)
        t *= rng.uniform(0.6, 1.5) / np.linalg.norm(t)
        dirs = rng.normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if i % 2 == 0:
            # regular route: plane-wave expansion translated to a new origin
            khat = rng.normal(size=3)
            khat /= np.linalg.norm(khat)
            a = plane_wave_coeffs(khat, k, 36).values
            moved = standard_translation(rr_translation, t, k, 36, 36) @ a
            pts = t + 0.08 * dirs * rng.uniform(0.3, 1.0, (50, 1))
            direct = np.exp(1j * k * pts @ khat)
            series = regular_basis_matrix(36, k, pts, t) @ moved
        else:
            # singular route: radiating expansion re-read inside the valid ball
            n_src = 8
            a = rng.normal(size=num_coeffs(n_src)) + 1j * rng.normal(
                size=num_coeffs(n_src)
            )
            local = standard_translation(sr_translation, t, k, n_src, 30) @ a
            pts = t + 0.2 * np.linalg.norm(t) * dirs
            direct = singular_basis_matrix(n_src, k, pts, np.zeros(3)) @ a
            series = regular_basis_matrix(30, k, pts, t) @ local
        worst = max(worst, np.max(np.abs(series - direct)) / np.max(np.abs(direct)))

    ident = rr_translation(np.zeros(3), 3.0, 12, 12)
    exact_identity = np.array_equal(ident, np.eye(num_coeffs(12)))
    _verdict(
        2,
        f"translation oracle (20 random configs, worst rel err {worst:.2e}; "
        "zero-shift identity exact)",
        worst < 1e-8 and exact_identity,
    )


# ---------------------------------------------------------------------------
# 3. forward-solver physics
# ---------------------------------------------------------------------------

def test_criterion_3_forward_physics():
    rng = np.random.default_rng(7)
    src = IncidentSource(kind="plane_wave", direction=[0.3, -0.2, 0.9])

    # (a) one sphere: coupled pipeline equals the analytic total field
    lone = SceneConfig(
        spheres=[RsmaSpec.fibonacci([0.0, 0.0, 0.0], 0.08, 20)],
        source=src,
        frequency=2000.0,
        n_in=16,
        n_fwd=16,
    )
    a_in = lone.incident_coeffs()
    radiating = forward_solve(lone, a_in)[0]
    dirs = rng.normal(size=(30, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = 0.3 * dirs
    total = eval_total_field(lone, radiating, a_in, pts)
    ref = single_sphere_total_field(a_in, 0.08, lone.k, pts)
    err_a = np.max(np.abs(total - ref)) / np.max(np.abs(ref))

    # (b) two spheres at 25 cm, 2 kHz: boundary residual converges with the
    # forward truncation and ends below 1e-6
    surf_dirs = dirs[np.abs(dirs[:, 2]) < 0.95][:8]
    residuals = []
    for n_fwd in (6, 10, 14, 18):
        scene = SceneConfig(
            spheres=[
                RsmaSpec.fibonacci([0.0, -0.125, 0.0], 0.08, 20),
                RsmaSpec.fibonacci([0.0, 0.125, 0.0], 0.08, 20),
            ],
            source=src,
            frequency=2000.0,
            n_in=20,
            n_fwd=n_fwd,
        )
        ai = scene.incident_coeffs()
        radiating = forward_solve(scene, ai)[0]
        residuals.append(
            max(
                abs(eval_radial_derivative(scene, radiating, ai, sp, d)) / scene.k
                for sp in range(2)
                for d in surf_dirs
            )
        )
    converging = all(a > b for a, b in zip(residuals, residuals[1:]))

    # (c) spheres 100 m apart behave as if uncoupled (low frequency, where the
    # residual coupling strength (ka)^3 / (kd) is below the tolerance)
    far = SceneConfig(
        spheres=[
            RsmaSpec.fibonacci([0.0, -50.0, 0.0], 0.08, 20),
            RsmaSpec.fibonacci([0.0, 50.0, 0.0], 0.08, 20),
        ],
        source=src,
        frequency=20.0,
        n_in=6,
        n_fwd=4,
    )
    coupled = forward_operator(far, include_coupling=True).matrix
    uncoupled = forward_operator(far, include_coupling=False).matrix
    err_c = np.linalg.norm(coupled - uncoupled) / np.linalg.norm(uncoupled)

    _verdict(
        3,
        f"forward physics (single-sphere err {err_a:.2e}; boundary residuals "
        f"{' > '.join(f'{r:.1e}' for r in residuals)}; decoupling err {err_c:.2e})",
        err_a < 1e-9 and converging and residuals[-1] < 1e-6 and err_c < 1e-6,
    )


# ---------------------------------------------------------------------------
# 4. encoder round trip
# ---------------------------------------------------------------------------

def test_criterion_4_encoder_round_trip():
    sphere = RsmaSpec.fibonacci([0.0, 0.0, 0.0], 0.08, 252)
    src = IncidentSource(kind="plane_wave", direction=[0.0, 1.0, 0.2])
    spec = GridSpec(plane="xy", extent=(2.0, 2.0), resolution=0.01)
    mask = sphere_mask(spec, [sphere])

    ssa = {}
    center_sdr = {}
    for f in (1000.0, 4000.0, 8000.0):
        k = 2 * np.pi * f / 343.0
        truth = ground_truth_field(src, k, spec)
        n_ref = 14 + max(12, int(np.ceil(np.e * k * sphere.radius)))
        a_ref = src.coefficients(k, n_ref)
        pressures = surface_response_matrix(sphere, k, n_ref) @ a_ref.values
        best = None
        for n_c in range(1, 15):  # truncation chosen per frequency independently
            lam = surface_response_matrix(sphere, k, n_c)
            sigma = 1e-8 * np.linalg.norm(lam, 2) ** 2
            enc = hoa_encoder(sphere, k, n_c)
            coeffs = enc.apply(pressures, sigmas=[sigma]).column(0)
            est = reconstruct_field(coeffs, spec)
            rep = sdr_map(est, truth, mask=mask)
            if best is None or rep.ssa > best[0].ssa:
                best = (rep, coeffs)
        rep, coeffs = best
        ssa[f] = rep.ssa
        origin = np.zeros((1, 3))
        est0 = (regular_basis_matrix(coeffs.n_max, k, origin, np.zeros(3)) @ coeffs.values)[0]
        true0 = src.field_at(k, origin)[0]
        center_sdr[f] = 10 * np.log10(abs(true0) ** 2 / abs(est0 - true0) ** 2)

    ok = (
        center_sdr[1000.0] > 50.0
        and ssa[1000.0] > 0
        and ssa[1000.0] > ssa[4000.0] > ssa[8000.0]
    )
    _verdict(
        4,
        "encoder round trip (center SDR {:.1f} dB at 1 kHz; SSA {:.4f} > {:.4f} "
        "> {:.4f} m^2 for 1/4/8 kHz)".format(
            center_sdr[1000.0], ssa[1000.0], ssa[4000.0], ssa[8000.0]
        ),
        ok,
    )


# ---------------------------------------------------------------------------
# 5. linear grid: method ordering (reduced-scale CI gate)
# ---------------------------------------------------------------------------

def test_criterion_5_linear_grid_ordering(tmp_path):
    t0 = time.time()
    summaries = {}
    reports = {}
    for name in ("mshoa", "single", "hoa"):
        cfg = load_config(f"{CONFIG_DIR}/scaled_linear2_{name}.yaml")
        summaries[name] = run_experiment(cfg, tmp_path / name)
        sdr, _ = read_field_csv(tmp_path / name / "sdr_map.csv")
        reports[name] = (cfg, sdr.real)
    elapsed = time.time() - t0

    s_ms = summaries["mshoa"].ssa
    s_si = summaries["single"].ssa
    s_ho = summaries["hoa"].ssa

    # reconstruction must also reach into the gap between the two arrays
    cfg, sdr = reports["mshoa"]
    pts = cfg.grid.points()
    gap = (np.abs(pts[:, 1]) < 0.045) & (np.abs(pts[:, 0]) < 0.2)
    gap_hit = np.any(sdr.ravel()[gap] > cfg.threshold_db)

    ok = s_ms > s_si and s_ms > s_ho and gap_hit and elapsed < 120.0
    _verdict(
        5,
        f"linear grid ordering (SSA: coupled {s_ms:.4f} > uncoupled {s_si:.4f}, "
        f"coupled {s_ms:.4f} > single-array {s_ho:.4f} m^2; gap covered; "
        f"{elapsed:.0f} s)",
        ok,
    )


# ---------------------------------------------------------------------------
# 6. planar grid: sweet-spot expansion (reduced-scale CI gate)
# ---------------------------------------------------------------------------

def test_criterion_6_cartesian_grid_ordering(tmp_path):
    s_ms = run_experiment(
        load_config(f"{CONFIG_DIR}/scaled_cartesian4_mshoa.yaml"), tmp_path / "m"
    ).ssa
    s_si = run_experiment(
        load_config(f"{CONFIG_DIR}/scaled_cartesian4_single.yaml"), tmp_path / "s"
    ).ssa
    _verdict(
        6,
        f"planar grid sweet-spot expansion (SSA coupled {s_ms:.4f} > "
        f"uncoupled {s_si:.4f} m^2)",
        s_ms > s_si,
    )


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    cfg = load_config(f"{CONFIG_DIR}/scaled_linear2_hoa.yaml")
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in ("ground_truth.csv", "estimated.csv", "sdr_map.csv")
    )
    _verdict(7, "bit-identical output grids across reruns", identical)


# ---------------------------------------------------------------------------
# full-scale variants (slow; the reduced-scale tests above gate CI)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_full_scale_linear_grid_ordering(tmp_path, caplog):
    summaries = {}
    for name in ("mshoa", "single", "hoa"):
        cfg = load_config(f"{CONFIG_DIR}/linear6_{name}.yaml")
        summaries[name] = run_experiment(cfg, tmp_path / name)
    s_ms, s_si, s_ho = (summaries[n].ssa for n in ("mshoa", "single", "hoa"))
    assert s_ms > s_si
    assert s_ms > s_ho
    assert not capture_warnings(caplog)

    sdr, _ = read_field_csv(tmp_path / "mshoa" / "sdr_map.csv")
    cfg = load_config(f"{CONFIG_DIR}/linear6_mshoa.yaml")
    pts = cfg.grid.points()
    good = sdr.real.ravel() > cfg.threshold_db
    # above-threshold pixels in every gap between adjacent arrays, spanning the
    # grid axis
    centers = np.arange(-0.625, 0.626, 0.25)
    for lo, hi in zip(centers[:-1], centers[1:]):
        gap = (
            (pts[:, 1] > lo + 0.08)
            & (pts[:, 1] < hi - 0.08)
            & (np.abs(pts[:, 0]) < 0.2)
        )
        assert np.any(good & gap)


@pytest.mark.slow
def test_full_scale_cartesian_grid_ordering(tmp_path, caplog):
    s_ms = run_experiment(
        load_config(f"{CONFIG_DIR}/cartesian9_mshoa.yaml"), tmp_path / "m"
    ).ssa
    s_si = run_experiment(
        load_config(f"{CONFIG_DIR}/cartesian9_single.yaml"), tmp_path / "s"
    ).ssa
    assert s_ms > s_si
    assert not capture_warnings(caplog)
