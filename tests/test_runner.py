"""End-to-end experiment runs, output artifacts, determinism, and the CLI."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mshoa.basis import CoefficientVector, num_coeffs
from mshoa.cli import main
from mshoa.config import load_config, validate_config
from mshoa.fields import ground_truth_field, reconstruct_field, sdr_map, sphere_mask
from mshoa.runner import run_experiment
from tests.oracles import capture_warnings, read_field_csv, read_matrix
from tests.test_config import NON_FINITE

TINY = """
scene:
  layout: {type: linear, count: 2, spacing: 0.25, axis: y}
  radius: 0.08
  capsules: 40
  source: {kind: monopole, position: [5, 5, 5]}
  frequency: 1000
  n_in: 8
  n_fwd: 5
method: MSHOA
sigma: 1e-9
grid: {plane: xy, extent: [0.8, 0.8], resolution: 0.05}
"""

TINY_HOA = TINY.replace("method: MSHOA\nsigma: 1e-9", "method: HOA\nhoa: {n_c: 4}")
TINY_SINGLE = TINY.replace("method: MSHOA", "method: Single")
TINY_PRIMAL = TINY.replace("capsules: 40", "capsules: 60")  # 120 capsules for 81 coefficients: solved by CG

LONE_HOA = """
scene:
  spheres: [{center: [0, 0, 0], radius: 0.08, capsules: 162}]
  source: {kind: plane_wave, direction: [0, 1, 0]}
  frequency: 1000
  n_in: 8
method: HOA
sigma: 1e-9
hoa: {n_c_min: 1, n_c_max: 8}
grid: {plane: xy, extent: [1, 1], resolution: 0.02}
"""


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_run_writes_all_artifacts(tmp_path):
    cfg = validate_config(TINY)
    out = tmp_path / "out"
    summary = run_experiment(cfg, out, dump_coeffs=True)
    names = {p.name for p in out.iterdir()}
    assert names == {
        "ground_truth.csv",
        "estimated.csv",
        "sdr_map.csv",
        "summary.json",
        "coefficients.bin",
    }
    assert summary.method == "MSHOA"
    assert summary.sigma == 1e-9
    assert summary.ssa >= 0
    assert summary.config_hash == cfg.config_hash
    meta = json.loads((out / "summary.json").read_text())
    assert meta["ssa"] == summary.ssa
    assert meta["config_hash"] == cfg.config_hash
    assert "threads" not in meta
    coeffs = read_matrix(out / "coefficients.bin")
    assert coeffs.shape == (1, (cfg.scene.n_in + 1) ** 2)
    grid, header = read_field_csv(out / "estimated.csv")
    assert grid.shape == cfg.grid.shape
    assert f"config={cfg.config_hash}" in header[2]


def test_csv_grids_read_back_to_the_fields_they_record(tmp_path):
    """Whatever the cell format, each CSV grid of a run reads back to the
    float64 bits of its field: ``estimated.csv`` to the reconstruction of the
    dumped coefficients, ``ground_truth.csv`` to the incident field and
    ``sdr_map.csv`` to the SDR map of the two."""
    cfg = validate_config(TINY)
    out = tmp_path / "out"
    run_experiment(cfg, out, dump_coeffs=True)
    scene = cfg.scene
    coeffs = CoefficientVector(k=scene.k, n_max=scene.n_in, values=read_matrix(out / "coefficients.bin")[0])
    estimated = reconstruct_field(coeffs, cfg.grid)
    truth = ground_truth_field(scene.source, scene.k, cfg.grid)
    report = sdr_map(estimated, truth, sphere_mask(cfg.grid, scene.spheres), cfg.threshold_db)
    grids = {"estimated.csv": estimated.values, "ground_truth.csv": truth.values, "sdr_map.csv": report.sdr_map}
    for name, values in grids.items():
        assert np.array_equal(read_field_csv(out / name)[0], values), name


def test_hoa_run_selects_truncation(tmp_path):
    cfg = validate_config(TINY_HOA)
    summary = run_experiment(cfg, tmp_path / "out")
    assert summary.method == "HOA"
    assert summary.n_c == 4
    searched = validate_config(TINY_HOA.replace("hoa: {n_c: 4}", "hoa: {n_c_max: 5}"))
    s2 = run_experiment(searched, tmp_path / "out2")
    assert 1 <= s2.n_c <= 5
    assert s2.ssa >= summary.ssa or s2.n_c != 4


def test_hoa_run_searches_lone_sphere_truncation(tmp_path):
    searched = run_experiment(validate_config(LONE_HOA), tmp_path / "searched")
    assert 1 <= searched.n_c <= 8
    assert searched.ssa > 0
    # the chosen truncation is at least as good as the extremes of the range
    for n_c in (1, 8):
        fixed = validate_config(LONE_HOA.replace("n_c_min: 1, n_c_max: 8", f"n_c: {n_c}"))
        assert searched.ssa >= run_experiment(fixed, tmp_path / str(n_c)).ssa


def _data_rows(path):
    return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("sigma", [0.0, 1e-6])
def test_hoa_truncation_search_matches_fixed_truncation_runs(tmp_path, monkeypatch, sigma):
    """Every candidate of an n_c range is what a run at that fixed n_c dumps:
    bit for bit at sigma = 0 (the pseudo-inverse), within 1e-12 relative at
    sigma > 0, where n_c 1..5 (at most 36 coefficients) are solved on the
    primal side of the 40-capsule array and n_c 6, 7 on the dual side.  The
    chosen n_c's estimated.csv holds the fixed run's data rows."""
    from mshoa import runner

    blocks, search = [], runner.regularization_search

    def recording_search(candidates, block, *args, **kwargs):
        blocks.append(block.values.copy())
        return search(candidates, block, *args, **kwargs)

    text = TINY_HOA.replace("hoa: {n_c: 4}", f"sigma: {sigma}\nhoa: {{n_c_min: 1, n_c_max: 7}}")
    monkeypatch.setattr(runner, "regularization_search", recording_search)
    searched = run_experiment(validate_config(text), tmp_path / "range")
    monkeypatch.undo()
    for j, n_c in enumerate(range(1, 8)):
        out = tmp_path / str(n_c)
        run_experiment(validate_config(text.replace("n_c_min: 1, n_c_max: 7", f"n_c: {n_c}")), out, dump_coeffs=True)
        fixed, column = read_matrix(out / "coefficients.bin")[0], blocks[0][:, j]
        if sigma == 0.0:
            assert np.array_equal(column[: fixed.size], fixed)
        else:
            assert np.max(np.abs(column[: fixed.size] - fixed)) <= 1e-12 * np.max(np.abs(fixed))
        assert not column[fixed.size :].any()
    chosen = tmp_path / str(searched.n_c)
    assert _data_rows(tmp_path / "range" / "estimated.csv") == _data_rows(chosen / "estimated.csv")


def test_hoa_truncation_search_holds_one_gram_at_a_time():
    """A sigma > 0 range n_c 1..14 on a 162-capsule array peaks, traced, no
    higher than its largest degree run alone, plus the block of 14 columns:
    each candidate's Gram (162^2 on the dual side, up to 144^2 on the primal
    side) is dropped before the next one is formed, and none is costlier
    than n_c 14, since each reads its leading columns of the column-major
    response in place: a copy of n_c 13's 162 x 196 columns would be larger
    than its Gram."""
    import tracemalloc

    from mshoa import runner
    from mshoa.encode import hoa_encoder
    from mshoa.scene import RsmaSpec

    sphere = RsmaSpec.fibonacci([0.0, 0.125, 0.0], 0.08, 162)
    k = 2 * np.pi * 2000 / 343.0
    pressures = np.random.default_rng(0).standard_normal((162, 2)) @ [1, 1j]
    encoder = hoa_encoder(sphere, k, 14)

    def peak(n_cs):
        tracemalloc.start()
        try:
            runner._truncation_block(runner._Encoding(encoder, pressures, n_cs=n_cs), 1e-6)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    largest = peak([14])
    assert max(peak([n_c]) for n_c in range(1, 14)) <= largest
    assert peak(list(range(1, 15))) <= largest + 16 * num_coeffs(14) * 14 + 16 * 1024


def test_determinism_across_reruns(tmp_path):
    cfg = validate_config(TINY)
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, a)
    run_experiment(cfg, b)
    fa, fb = _artifacts(a), _artifacts(b)
    for name in ("ground_truth.csv", "estimated.csv", "sdr_map.csv"):
        assert fa[name] == fb[name]


SCALED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("scaled_*.yaml"))


@pytest.mark.parametrize("config", SCALED_CONFIGS, ids=[path.stem for path in SCALED_CONFIGS])
def test_factored_encoder_chooses_what_the_dense_encoder_chooses(tmp_path, monkeypatch, caplog, config):
    """On every reduced-scale config, the encoder of T_F's factors and the
    encoder of the filled T_F choose the same sigma index or n_c from the same
    SSA curve, and the chosen sigma differs by roundoff in ||T_F||_2^2.  No
    config's capture check warns."""
    from mshoa import runner
    from mshoa.encode import DenseModel, Encoder

    cfg = load_config(config)
    factored = run_experiment(cfg, tmp_path / "factored")
    assert not capture_warnings(caplog)
    monkeypatch.setattr(runner, "mshoa_encoder", lambda op: Encoder(forward=DenseModel(op.matrix), k=op.scene.k))
    dense = run_experiment(cfg, tmp_path / "dense")
    assert factored.search["index"] == dense.search["index"] and factored.n_c == dense.n_c
    assert factored.search["ssa"] == dense.search["ssa"] and factored.ssa == dense.ssa
    assert factored.sigma == pytest.approx(dense.sigma, rel=1e-12)


def test_capture_check_below_the_threshold_warns(tmp_path, caplog):
    """A capture whose check, -20 log10 capsule_residual, is below the run's
    threshold_db is logged as a warning that quotes that figure, and the run
    still completes with SSA 0: scaled_linear2_mshoa at 20 Hz reads well
    above 1.  Its exact value is rounding noise, since the check sums h_n(kr)
    terms of order 1e31 at kr ~ 0.03: perturbing j_n and y_n by 1e-15 relative
    moves it between about 15 and 355, so it is not pinned.  TINY reads 3.4e-4
    (69 dB, above its 30 dB) and stays silent, and so does HOA, which has no
    such check."""
    text = (Path(__file__).resolve().parent.parent / "configs" / "scaled_linear2_mshoa.yaml").read_text()
    low = validate_config(text.replace("frequency: 2000", "frequency: 20"))
    summary = run_experiment(low, tmp_path / "low")
    assert summary.capsule_residual > 1 and summary.ssa == 0.0
    (warning,) = capture_warnings(caplog)
    assert f"{-20 * np.log10(summary.capsule_residual):.1f} dB" in warning and "30 dB" in warning
    assert [r.levelname for r in caplog.records if r.getMessage() == warning] == ["WARNING"]
    caplog.clear()
    quiet = run_experiment(validate_config(TINY), tmp_path / "tiny")
    assert 1e-4 < quiet.capsule_residual < 10 ** (-quiet.threshold_db / 20)
    run_experiment(validate_config(TINY_HOA), tmp_path / "hoa")
    assert not capture_warnings(caplog)


def test_single_run_builds_only_the_uncoupled_operator(tmp_path, monkeypatch):
    from mshoa import runner

    calls = {"forward_operator": [], "forward_solve": 0}
    build, solve = runner.forward_operator, runner.forward_solve

    def counting_build(scene, include_coupling=True, **shared):
        calls["forward_operator"].append(include_coupling)
        return build(scene, include_coupling=include_coupling, **shared)

    def counting_solve(scene, a_in, **shared):
        calls["forward_solve"] += 1
        return solve(scene, a_in, **shared)

    monkeypatch.setattr(runner, "forward_operator", counting_build)
    monkeypatch.setattr(runner, "forward_solve", counting_solve)
    run_experiment(validate_config(TINY_SINGLE), tmp_path / "out")
    assert calls == {"forward_operator": [False], "forward_solve": 0}


@pytest.mark.parametrize("config", [TINY, TINY_SINGLE, TINY_HOA], ids=["MSHOA", "Single", "HOA"])
def test_a_run_finds_the_mirror_symmetry_once(tmp_path, monkeypatch, config):
    """The forward build's mirror classes also give summary.json its
    system_blocks: a run finds the scene's mirror orbits once."""
    from mshoa import scatter

    calls, orbits = [], scatter._mirror_orbits

    def counting_orbits(scene):
        calls.append(scene)
        return orbits(scene)

    monkeypatch.setattr(scatter, "_mirror_orbits", counting_orbits)
    summary = run_experiment(validate_config(config), tmp_path / "out")
    assert len(calls) == 1 and summary.system_blocks == [12, 9, 12, 9, 9, 6, 9, 6]


def test_single_run_builds_each_local_translation_once(tmp_path, monkeypatch):
    """The uncoupled operator and the capture share one R|R per orbit of
    mirrored spheres: the pair is one orbit, so only its first sphere's
    R|R is built."""
    from mshoa import scatter

    built = []
    rr = scatter.rr_translation

    def counting_rr(t, *args):
        built.append(tuple(t))
        return rr(t, *args)

    monkeypatch.setattr(scatter, "rr_translation", counting_rr)
    cfg = validate_config(TINY_SINGLE)
    run_experiment(cfg, tmp_path / "out")
    assert built == [tuple(cfg.scene.spheres[0].center)]


def test_single_encoding_holds_no_more_than_the_coupled_build():
    """A Single encoding (the capture's coupled vector solve, then the
    uncoupled operator) fits in the traced peak of the coupled T_F build of the
    same scene: one system, one local incident block, which the operator
    scales in place, and T_F.  Neither the system nor the block is copied."""
    import tracemalloc

    from mshoa import runner
    from mshoa.scatter import forward_operator

    cfg = validate_config(
        TINY_SINGLE.replace(
            "layout: {type: linear, count: 2, spacing: 0.25, axis: y}",
            "layout: {type: cartesian, rows: 2, cols: 2, spacing: 0.25, plane: xy}",
        )
        .replace("capsules: 40", "capsules: 80")
        .replace("n_in: 8\n  n_fwd: 5", "n_in: 12\n  n_fwd: 10")
    )
    peaks = []
    for build in (lambda: forward_operator(cfg.scene), lambda: runner._grid_encoding(cfg)):
        build()  # fill the translation caches outside the trace
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    coupled, single = peaks
    assert single <= 1.05 * coupled


def test_encoder_is_released_before_the_pixel_search(tmp_path, monkeypatch):
    """Nothing holds the encoder, and with it T_F and its Gram, once it has solved."""
    import weakref

    from mshoa import runner

    refs, alive = [], []
    build, search = runner.mshoa_encoder, runner.regularization_search

    def tracked_build(*args, **kwargs):
        encoder = build(*args, **kwargs)
        refs.append(weakref.ref(encoder))
        return encoder

    def probing_search(*args, **kwargs):
        alive.append(refs[0]() is not None)
        return search(*args, **kwargs)

    monkeypatch.setattr(runner, "mshoa_encoder", tracked_build)
    monkeypatch.setattr(runner, "regularization_search", probing_search)
    run_experiment(validate_config(TINY.replace("sigma: 1e-9", "sigma_search: {points: 3}")), tmp_path / "out")
    assert alive == [False]


def test_system_rcond_is_the_coupled_system_of_every_method(tmp_path):
    mshoa = run_experiment(validate_config(TINY), tmp_path / "mshoa").system_rcond
    assert mshoa > 0
    assert run_experiment(validate_config(TINY_SINGLE), tmp_path / "single").system_rcond == mshoa
    assert run_experiment(validate_config(TINY_HOA), tmp_path / "hoa").system_rcond == mshoa
    # a lone array's HOA capture solves no system
    assert run_experiment(validate_config(LONE_HOA), tmp_path / "lone").system_rcond is None


def test_capsule_residual_recomputed_from_the_multipole_sum(tmp_path):
    """summary.json's capsule_residual is the max-abs gap, over the max, between
    the capture MSHOA and Single encode, Lambda_s (c a)_s, and the regular plus
    singular series R a + sum_t S_t G_t (c a)_t it stands for, at up to 16
    capsules of each sphere, a stride through its Fibonacci order; here c a
    comes from a dense solve.  HOA and lone-array HOA read no capture off
    T_F's factors, and report null."""
    import scipy.linalg as sla

    from mshoa.basis import regular_basis_matrix, singular_basis_matrix
    from mshoa.scatter import rigid_scatter_gain, surface_response_matrix
    from tests.oracles import coupled_system_matrix, local_incident_matrix

    cfg = validate_config(TINY)
    scene = cfg.scene
    k, n, a = scene.k, scene.n_fwd, scene.incident_coeffs().values
    c = np.split(sla.solve(coupled_system_matrix(scene), local_incident_matrix(scene) @ a), scene.num_spheres)
    worst, top = 0.0, 0.0
    for sphere, c_s in zip(scene.spheres, c):
        rows = np.arange(0, sphere.num_capsules, int(np.ceil(sphere.num_capsules / 16)))
        assert len(rows) <= 16
        caps = sphere.capsule_positions()[rows]
        capture = surface_response_matrix(sphere, k, n)[rows] @ c_s
        total = regular_basis_matrix(scene.n_in, k, caps, [0.0, 0.0, 0.0]) @ a
        for other, c_t in zip(scene.spheres, c):
            total += singular_basis_matrix(n, k, caps, other.center) @ (rigid_scatter_gain(k, other.radius, n) * c_t)
        worst, top = max(worst, np.max(np.abs(capture - total))), max(top, np.max(np.abs(total)))
    run_experiment(cfg, tmp_path / "mshoa")
    run_experiment(validate_config(TINY_SINGLE), tmp_path / "single")
    for name in ("mshoa", "single"):
        reported = json.loads((tmp_path / name / "summary.json").read_text())["capsule_residual"]
        assert 0 < reported == pytest.approx(worst / top, rel=1e-6)
    for i, text in enumerate((TINY_HOA, LONE_HOA)):
        out = tmp_path / f"other{i}"
        run_experiment(validate_config(text), out)
        assert json.loads((out / "summary.json").read_text())["capsule_residual"] is None


def test_capsule_residual_sees_a_diverging_incident_series():
    """The check reads the source: the same T_F, checked against a monopole
    inside the pair's enclosing radius, where the incident series about the
    origin diverges on the spheres, reports a gap over 100 times the gap
    against a distant one (0.29 against 4.3e-4 at n_in 12).  The scene is
    built directly, as the configuration rejects that source."""
    from dataclasses import replace

    from mshoa.scatter import _apply_blocks, _capsule_residual, forward_operator
    from mshoa.scene import IncidentSource

    scene = replace(validate_config(TINY).scene, n_in=12)
    far, near = (replace(scene, source=IncidentSource(kind="monopole", position=[0.0, 0.0, z])) for z in (3.0, 0.15))
    op = forward_operator(far)
    residuals = []
    for s in (far, near):
        a_in = s.incident_coeffs()
        felt = _apply_blocks(op.c, op.mirror, a_in, s.n_in)
        residuals.append(_capsule_residual(replace(op, scene=s, capture=op.pressures(felt)), felt, a_in))
    assert op.capsule_residual == residuals[0]
    assert residuals[1] > 100 * op.capsule_residual


def test_plane_wave_amplitude_scales_truth_and_capture_not_the_ssa(tmp_path):
    plane = TINY.replace("kind: monopole, position: [5, 5, 5]", "kind: plane_wave, direction: [1, 1, 0.5]")
    loud = plane.replace("direction: [1, 1, 0.5]", "direction: [1, 1, 0.5], amplitude: 5")
    runs = {}
    for name, text in (("unit", plane), ("loud", loud)):
        cfg = validate_config(text)
        summary = run_experiment(cfg, tmp_path / name, dump_coeffs=True)
        capture = cfg.scene.source.field_at(cfg.scene.k, cfg.scene.capsule_positions())
        truth, _ = read_field_csv(tmp_path / name / "ground_truth.csv")
        coeffs = read_matrix(tmp_path / name / "coefficients.bin")
        runs[name] = summary, cfg.scene.incident_coeffs().values, capture, truth, coeffs
    (unit, a1, p1, t1, x1), (loud, a5, p5, t5, x5) = runs["unit"], runs["loud"]
    np.testing.assert_allclose(a5, 5 * a1, rtol=1e-15)
    np.testing.assert_allclose(p5, 5 * p1, rtol=1e-15)
    np.testing.assert_allclose(t5, 5 * t1, rtol=1e-15)
    np.testing.assert_allclose(x5, 5 * x1, rtol=1e-9)
    assert loud.ssa == unit.ssa and unit.ssa > 0


def test_cli_validate_and_run(tmp_path):
    runner = CliRunner()
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(TINY)

    res = runner.invoke(main, ["validate", str(cfg_path)])
    assert res.exit_code == 0
    assert "ok: MSHOA, 2 spheres" in res.output

    res = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert "MSHOA @ 1000 Hz" in res.output
    assert "threads" not in json.loads((tmp_path / "out" / "summary.json").read_text())


def test_cli_rejects_bad_config(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.yaml"
    bad.write_text(TINY.replace("method: MSHOA", "method: NOPE"))
    res = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "config error" in res.output

    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 2

    # a malformed value is a config error too, not a traceback, and nothing is run
    grid = "grid: {plane: xy, extent: [0.8, 0.8], resolution: 0.05}"
    for text, word in [
        (TINY_HOA.replace("n_c: 4", "n_c: -1"), "n_c"),
        (TINY_HOA.replace("n_c: 4", "n_c: 4, n_c_max: 6"), "n_c"),
        (TINY.replace(grid, "grid: {extent: [2]}"), "extent"),
        (TINY.replace(grid, "grid: {extent: [2, 2, 7]}"), "extent"),
        (TINY.replace(grid, "grid: {center: [0.5]}"), "center"),
        (TINY.replace(grid, "grid: {extent: [2, 2], resolution: 5}"), "pixel"),
        (TINY.replace("capsules: 40", "capsules: 0"), "capsule"),
        (TINY.replace("capsules: 40", "capsules: 10000000000"), "capsule"),
        (TINY.replace("axis: y", "axis: [1]"), "axis"),
        (TINY.replace("type: linear, count: 2", "type: cartesian, rows: 2, cols: 1").replace("axis: y", "plane: [1]"), "plane"),
        (TINY + "output: out\n", "output"),
        # sdr_map clips every pixel to [-300, 150] dB: no pixel exceeds 150, and every one exceeds -300.5
        (TINY + "threshold_db: 150\n", "threshold_db"),
        (TINY + "threshold_db: 1e300\n", "threshold_db"),
        (TINY + "threshold_db: -300.5\n", "threshold_db"),
        # a monopole whose distance from the origin overflows a double
        (TINY.replace("position: [5, 5, 5]", "position: [1.0e+300, 0, 0]"), "too far"),
        # a sphere centre, or two spheres' gap, whose distance overflows: the spheres are named, not the monopole
        (LONE_HOA.replace("[{center: [0, 0, 0]", "[{center: [1.0e+200, 0, 0]"), "sphere 0's center"),
        (LONE_HOA.replace("[{center: [0, 0, 0]", "[{center: [1.0e+300, 0, 0]"), "sphere 0's center"),
        (LONE_HOA.replace("[{center: [0, 0, 0]", "[{center: [1.0e+154, 0, 0], radius: 0.08, capsules: 162}, "
                          "{center: [-1.0e+154, 0, 0]"), "too far apart"),
        (TINY.replace("capsules: 40", "capsules: true"), "capsules"),
        # a setting the run would never read: HOA's on another method, the other source kind's geometry
        (TINY + "hoa: {n_c: 3}\n", "'hoa' configures method HOA only, not MSHOA"),
        (TINY_SINGLE + "hoa: {}\n", "'hoa' configures method HOA only, not Single"),
        (TINY.replace("position: [5, 5, 5]", "position: [5, 5, 5], direction: [0, 0, 1]"), "has no direction"),
        (TINY.replace("kind: monopole, position: [5, 5, 5]", "kind: plane_wave, direction: [0, 0, 1], position: [5, 5, 5]"),
         "has no position"),
        # sizes no run could allocate, and wavenumbers a run cannot divide by
        (TINY.replace("n_in: 8", "n_in: 1.0e+20"), "n_in 100,000,000,000,000,000,000 is more than the 1,000 allowed"),
        (TINY.replace("n_in: 8", "n_in: 1.0e+300"), "n_in"),
        (TINY.replace("n_in: 8", f"n_in: {10**30}"), "n_in"),
        (TINY.replace("sigma: 1e-9", "sigma_search: {points: 1.0e+20}"), "points must be from 1 to 1,000"),
        (TINY.replace("count: 2", "count: 1.0e+20"), "layout of 100,000,000,000,000,000,000 spheres"),
        (TINY_HOA.replace("n_c: 4", "n_c_max: 1.0e+20"), "hoa.n_c_max 100,000,000,000,000,000,000"),
        (LONE_HOA.replace("frequency: 1000", "frequency: 1.0e+20"), "hoa.n_c_max 8 takes HOA's array to degree"),
        (TINY.replace("frequency: 1000", "frequency: 5.0e-324"), "wavenumber"),
        (TINY.replace("n_fwd: 5", "sound_speed: 5.0e-324"), "wavenumber"),
        (TINY.replace("frequency: 1000", "frequency: 1.0e+300"), "(ka)² overflows"),
        (LONE_HOA.replace("radius: 0.08", "radius: 5.0e-324"), "too small"),  # y_0 overflows with no warning
        (TINY.replace(grid, "grid: {extent: [0.8, 0.8], resolution: 0.05, center: [1.0e+300, 0]}"), "far corner"),
    ]:
        bad.write_text(text)
        out = tmp_path / "out-malformed"
        for command in (["validate", str(bad)], ["run", str(bad), "--out", str(out)]):
            res = runner.invoke(main, command)
            assert res.exit_code == 2, (text, res.output)
            assert "config error" in res.output and word in res.output
        assert not out.exists()

    # a monopole on a pixel centre, (0.5, 0.5) on an 11 x 11 grid of 0.1 m pixels: the true field is infinite there
    bad.write_text(TINY.replace("[5, 5, 5]", "[0.5, 0.5, 0]").replace(
        "extent: [0.8, 0.8], resolution: 0.05", "extent: [1.1, 1.1], resolution: 0.1"))
    out = tmp_path / "out-on-pixel"
    for command in (["validate", str(bad)], ["run", str(bad), "--out", str(out)]):
        res = runner.invoke(main, command)
        assert res.exit_code == 2, res.output
        assert "config error" in res.output and "pixel (row 10, column 10)" in res.output
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--import-forward", "--export-forward"])
def test_cli_rejects_a_removed_forward_option(tmp_path, flag):
    """A stale script's --import-forward or --export-forward, options no run
    takes, is a usage error (exit 2) with no traceback: no output directory is
    made, the named file is left as it was, and ``run --help`` lists neither."""
    runner = CliRunner()
    cfg_path, matrix, out = tmp_path / "cfg.yaml", tmp_path / "x.bin", tmp_path / "out-stale"
    cfg_path.write_text(TINY)
    matrix.write_bytes(b"an existing file")
    res = runner.invoke(main, ["run", str(cfg_path), "--out", str(out), flag, str(matrix)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    assert "No such option" in res.output and flag in res.output
    assert not out.exists() and matrix.read_bytes() == b"an existing file"
    usage = runner.invoke(main, ["run", "--help"])
    assert usage.exit_code == 0 and "--dump-coeffs" in usage.output and flag not in usage.output


@pytest.mark.parametrize("field", NON_FINITE)
def test_cli_run_rejects_a_non_finite_vector(tmp_path, field):
    """A NaN or inf sphere center, source position or direction exits 2 with a
    config error, not 1 with a traceback or 0 with NaN grids."""
    bad, out = tmp_path / "bad.yaml", tmp_path / "out"
    bad.write_text(NON_FINITE[field])
    res = CliRunner().invoke(main, ["run", str(bad), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    assert "config error" in res.output and f"{field} must be finite" in res.output
    assert not out.exists()


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path):
    bad, out = tmp_path / "bad.yaml", tmp_path / "out"
    bad.write_bytes(b"\xff\xfe\x00garbage")
    for command in (["validate", str(bad)], ["run", str(bad), "--out", str(out)]):
        res = CliRunner().invoke(main, command)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
        assert res.output.startswith("config error:") and str(bad) in res.output and "UTF-8" in res.output
    assert not out.exists()


def test_cli_unwritable_output_exits_4(tmp_path, monkeypatch):
    """An --out that names a file is a runtime error naming the path (exit 4),
    found before the forward build, and no summary is written."""
    import mshoa.runner

    builds = []
    monkeypatch.setattr(mshoa.runner, "forward_operator", lambda *args, **kwargs: builds.append(args))
    cfg_path, taken = tmp_path / "cfg.yaml", tmp_path / "taken"
    cfg_path.write_text(TINY)
    taken.write_text("a file, not a directory")
    res = CliRunner().invoke(main, ["run", str(cfg_path), "--out", str(taken)])
    assert res.exit_code == 4, res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    assert res.output.startswith("runtime error:") and str(taken) in res.output
    assert taken.read_text() == "a file, not a directory" and builds == []


def test_cli_run_rejects_a_grid_inside_the_spheres(tmp_path):
    """A grid whose every pixel lies inside a sphere has no field to score: the
    configuration is invalid, so validate and run both exit 2 with a config
    error, and run before any stage runs or any file is written."""
    bad, out = tmp_path / "bad.yaml", tmp_path / "out"
    grid = "grid: {plane: xy, extent: [0.8, 0.8], resolution: 0.05}"
    bad.write_text(TINY.replace(grid, "grid: {extent: [0.04, 0.04], resolution: 0.01, center: [0, 0.125]}"))
    for command in (["validate", str(bad)], ["run", str(bad), "--out", str(out)]):
        res = CliRunner().invoke(main, command)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
        assert res.output.startswith("config error:") and "inside a sphere" in res.output
    assert not out.exists()


def test_cli_rejects_a_monopole_inside_the_arrays_enclosing_radius(tmp_path):
    """The incident series about the origin converges only for |r| < |source|.
    A monopole at (0, 0, 0.15) lies outside both spheres of the pair but
    inside their enclosing radius, 0.125 + 0.08 m: for every method, validate
    and run exit 2 with a config error, and run writes nothing.  HOA on a lone
    array expands about its own centre, so it takes that source; MSHOA on the
    same lone array does not."""
    source = "source: {kind: monopole, position: [0, 0, 0.15]}"
    near = {name: text.replace("source: {kind: monopole, position: [5, 5, 5]}", source) for name, text in
            (("MSHOA", TINY), ("Single", TINY_SINGLE), ("HOA", TINY_HOA))}
    lone_hoa = LONE_HOA.replace("center: [0, 0, 0]", "center: [0, 0.125, 0]").replace(
        "source: {kind: plane_wave, direction: [0, 1, 0]}", source
    )
    near["lone MSHOA"] = lone_hoa.replace("method: HOA", "method: MSHOA").replace("hoa: {n_c_min: 1, n_c_max: 8}\n", "")
    bad, out = tmp_path / "bad.yaml", tmp_path / "out"
    for name, text in near.items():
        bad.write_text(text)
        for command in (["validate", str(bad)], ["run", str(bad), "--out", str(out)]):
            res = CliRunner().invoke(main, command)
            assert res.exit_code == 2, (name, res.output)
            assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
            assert res.output.startswith("config error:") and "enclosing radius" in res.output
        assert not out.exists()
    bad.write_text(lone_hoa)
    res = CliRunner().invoke(main, ["validate", str(bad)])
    assert res.exit_code == 0 and res.output.startswith("ok: HOA, 1 spheres"), res.output


def test_cli_rejects_a_silent_source(tmp_path):
    """A source of amplitude 0 leaves truth and estimate both 0, so every pixel
    would sit at the SDR cap and the capture check would divide 0 by 0: for a
    monopole and a plane wave, amplitude 0 and [0, 0] make validate and run
    exit 2 with a config error, and run writes nothing."""
    plane = TINY.replace("kind: monopole, position: [5, 5, 5]", "kind: plane_wave, direction: [1, 1, 0.5]")
    bad, out = tmp_path / "bad.yaml", tmp_path / "out"
    for text in (TINY, plane):
        for amplitude in ("0", "[0, 0]"):
            bad.write_text(text.replace("]}\n  frequency", f"], amplitude: {amplitude}}}\n  frequency"))
            assert "amplitude" in bad.read_text()
            for command in (["validate", str(bad)], ["run", str(bad), "--out", str(out)]):
                res = CliRunner().invoke(main, command)
                assert res.exit_code == 2, res.output
                assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
                assert res.output.startswith("config error:") and "amplitude must be nonzero" in res.output
            assert not out.exists()


def test_cli_runs_spheres_far_smaller_than_their_spacing(tmp_path):
    """Spheres of radius 1e-9 m scatter next to nothing; their capsules, rounded at the
    scale of the 0.125 m centres, are still on the spheres, so validate and run exit 0."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(TINY.replace("radius: 0.08", "radius: 1.0e-9"))
    for command in (["validate", str(cfg_path)], ["run", str(cfg_path), "--out", str(tmp_path / "out")]):
        res = CliRunner().invoke(main, command)
        assert res.exit_code == 0, res.output


@pytest.mark.parametrize(
    "text",
    [
        TINY.replace("radius: 0.08", "radius: 1.0e-40").replace("n_fwd: 5", "n_fwd: 8"),
        TINY_HOA.replace("radius: 0.08", "radius: 1.0e-40").replace("n_c: 4", "n_c: 8"),
        LONE_HOA.replace("radius: 0.08", "radius: 5.5e-22"),  # n_c_max 8 is finite, the reference degree 20 is not
    ],
    ids=["n_fwd", "hoa_n_c", "lone_hoa_reference"],
)
def test_cli_rejects_a_sphere_too_small_for_its_degrees(tmp_path, text):
    """A radius at which h'_n(ka) overflows a double at a degree the run divides
    by is a config error naming the radius and ka, from validate and run alike,
    with no numpy warning on the way."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    for command in (["validate", str(bad)], ["run", str(bad), "--out", str(tmp_path / "out")]):
        res = CliRunner().invoke(main, command)
        assert res.exit_code == 2, res.output
        assert "config error" in res.output and "too small" in res.output and "ka = " in res.output
    assert not (tmp_path / "out").exists()


def test_cli_runtime_failures_exit_4(tmp_path, monkeypatch):
    from mshoa import encode

    runner = CliRunner()
    cfg_path = tmp_path / "cfg.yaml"
    # the σ = 0 pseudo-inverse of a response holding nan fails, and so does the σ > 0 Cholesky
    # factorisation of its Gram (an h'_n that overflows is a config error, found before the run)
    respond = encode.surface_response_matrix

    def respond_nan(*args):
        response = respond(*args)
        response[0, -1] = np.nan
        return response

    monkeypatch.setattr(encode, "surface_response_matrix", respond_nan)
    for sigma, message in (("", "pseudo-inverse"), ("sigma: 1e-6\n", "factorisation failed")):
        cfg_path.write_text(TINY_HOA.replace("hoa: {n_c: 4}", f"{sigma}hoa: {{n_c_min: 1, n_c_max: 4}}"))
        res = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "nan")])
        assert res.exit_code == 4, res.output
        assert "runtime error" in res.output and message in res.output
        assert not (tmp_path / "nan" / "summary.json").exists()

    # a scene too large for memory (allocating for real would need tens of GiB)
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 54.5 GiB")

    monkeypatch.setattr("mshoa.cli.run_experiment", out_of_memory)
    cfg_path.write_text(TINY)
    res = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "oom")])
    assert res.exit_code == 4, res.output
    assert "out of memory" in res.output and "54.5 GiB" in res.output

    # the checks of a grid near MAX_PIXELS build 2.4 GB of pixel centres: validate too exits 4, with no traceback
    monkeypatch.setattr("mshoa.fields.GridSpec.points", out_of_memory)
    for command in (["validate", str(cfg_path)], ["run", str(cfg_path), "--out", str(tmp_path / "oom-grid")]):
        res = runner.invoke(main, command)
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit) and "out of memory" in res.output and "54.5 GiB" in res.output
    assert not (tmp_path / "oom-grid").exists()


def test_cli_solver_failure_exits_3(tmp_path, monkeypatch):
    """A class system holding a NaN is a SolverError, which the CLI reports as a solver error, exit 3."""
    from mshoa import scatter

    assemble = scatter.assemble_system_matrix

    def assemble_nan(*args):
        systems = assemble(*args)
        systems[0][0, -1] = np.nan
        return systems

    monkeypatch.setattr(scatter, "assemble_system_matrix", assemble_nan)
    cfg_path, out = tmp_path / "cfg.yaml", tmp_path / "out"
    cfg_path.write_text(TINY)
    res = CliRunner().invoke(main, ["run", str(cfg_path), "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "solver error" in res.output and "Traceback" not in res.output
    assert not (out / "summary.json").exists()


def test_cg_past_its_cap_exits_4(tmp_path, monkeypatch):
    """A CG solve that has not met its stopping rule within CG_MAX_ITERATIONS
    is an EncoderError, which the CLI reports as a runtime error, exit 4."""
    from mshoa import encode
    from mshoa.scatter import forward_operator

    cfg = validate_config(TINY_PRIMAL)
    op = forward_operator(cfg.scene)
    encoder = encode.mshoa_encoder(op)
    encoder.apply(op.capture, sigmas=cfg.sigma)
    assert encoder.cg[0]["iterations"] > 1
    monkeypatch.setattr(encode, "CG_MAX_ITERATIONS", 1)
    with pytest.raises(encode.EncoderError, match="CG did not reach"):
        encode.mshoa_encoder(op).apply(op.capture, sigmas=cfg.sigma)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(TINY_PRIMAL)
    res = CliRunner().invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "capped")])
    assert res.exit_code == 4, res.output
    assert "runtime error" in res.output and "CG did not reach" in res.output
    assert not (tmp_path / "capped" / "summary.json").exists()


def test_lanczos_past_its_cap_exits_4(tmp_path, monkeypatch):
    """A sigma search whose scale has not met Lanczos's stopping rule within
    LANCZOS_MAX_STEPS is an EncoderError: the CLI reports a runtime error, exit 4."""
    from mshoa import encode

    monkeypatch.setattr(encode, "LANCZOS_MAX_STEPS", 1)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(TINY.replace("sigma: 1e-9", "sigma_search: {points: 3}"))
    res = CliRunner().invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "capped")])
    assert res.exit_code == 4, res.output
    assert "runtime error" in res.output and "Lanczos did not" in res.output and "Traceback" not in res.output
    assert not (tmp_path / "capped" / "summary.json").exists()


def test_a_run_loads_no_scipy_special_or_sparse(tmp_path):
    """Importing mshoa and running a sigma search loads only scipy.linalg
    of scipy: neither scipy.special (~23 ms to import) nor scipy.sparse
    (~12 ms, for ARPACK) is in sys.modules afterwards."""
    import os
    import subprocess
    import sys

    search = TINY.replace("sigma: 1e-9", "sigma_search: {points: 3}")
    script = f"""
import sys
import mshoa
from mshoa.config import validate_config
from mshoa.runner import run_experiment
run_experiment(validate_config({search!r}), {str(tmp_path / "out")!r})
print(sorted(m for m in sys.modules if m.startswith(("scipy.special", "scipy.sparse"))))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "summary.json").exists()


def test_summary_reports_each_cg_solve(tmp_path, caplog):
    """summary.json gives each candidate's CG iterations and final relative
    residual, in search order, and -v logs them; a run whose encoder solves
    no CG (the dual side, HOA) writes null."""
    import logging

    from mshoa.encode import CG_TOL

    with caplog.at_level(logging.INFO, logger="mshoa"):
        run_experiment(validate_config(TINY_PRIMAL.replace("sigma: 1e-9", "sigma_search: {points: 3}")), tmp_path / "primal")
    cg = json.loads((tmp_path / "primal" / "summary.json").read_text())["cg"]
    assert len(cg) == 3 and all(solve["iterations"] >= 1 and 0 <= solve["residual"] <= CG_TOL for solve in cg)
    logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("CG at sigma")]
    assert [int(message.split(": ")[1].split()[0]) for message in logged] == [solve["iterations"] for solve in cg]
    for text, name in ((TINY, "dual"), (TINY_HOA, "hoa")):
        run_experiment(validate_config(text), tmp_path / name)
        assert json.loads((tmp_path / name / "summary.json").read_text())["cg"] is None


def test_summary_reports_field_statistics(tmp_path):
    cfg = validate_config(TINY)
    summary = run_experiment(cfg, tmp_path / "out")
    assert np.isfinite(summary.max_sdr_db)
    assert summary.max_sdr_db >= summary.mean_sdr_db
    assert summary.wall_time_s > 0
    meta = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert list(meta["stages"]) == ["forward", "encode", "search", "output"]
    assert all(seconds >= 0 for seconds in meta["stages"].values())
    assert sum(meta["stages"].values()) == pytest.approx(meta["wall_time_s"], rel=0.05)
    peaks = meta["peak_rss_mb"]
    assert list(peaks) == ["forward", "encode", "search", "output"]
    assert 0 < peaks["forward"] <= peaks["encode"] <= peaks["search"] <= peaks["output"]
    assert summary.system_rcond is None or summary.system_rcond > 0


def test_summary_reports_the_forward_parts_and_system_blocks(tmp_path, caplog):
    """forward_parts splits the forward stage into its spans, which -v logs, and
    system_blocks holds the sizes of the coupled systems solved: one per
    mirror class, eight for a pair mirrored across one coordinate plane and
    lying on the other two, none for a lone array."""
    import logging

    with caplog.at_level(logging.INFO, logger="mshoa"):
        run_experiment(validate_config(TINY), tmp_path / "tiny")
    meta = json.loads((tmp_path / "tiny" / "summary.json").read_text())
    parts = meta["forward_parts"]
    assert list(parts) == ["translation", "solve", "capsule", "residual"]
    assert all(seconds > 0 for seconds in parts.values())
    assert 0.5 * meta["stages"]["forward"] <= sum(parts.values()) <= meta["stages"]["forward"]
    logged = {r.getMessage().split(":")[0] for r in caplog.records if r.getMessage().startswith("forward ")}
    assert logged == {f"forward {name}" for name in parts}
    # the pair is one orbit under y -> -y, and x -> -x and z -> -z fix each sphere: its 36
    # harmonics at n_fwd 5 split by their x and z signs into 12 / 9 / 9 / 6, once per y sign
    assert meta["system_blocks"] == [12, 9, 12, 9, 9, 6, 9, 6]
    off_plane = run_experiment(validate_config(TINY.replace("axis: y", "axis: z")), tmp_path / "z")
    assert off_plane.system_blocks == [12, 12, 9, 9, 9, 9, 6, 6]  # split by x and y signs, once per z sign
    hoa = run_experiment(validate_config(TINY_HOA), tmp_path / "hoa")
    assert hoa.system_blocks == meta["system_blocks"] and hoa.forward_parts["residual"] == 0.0
    lone = run_experiment(validate_config(LONE_HOA), tmp_path / "lone")
    assert lone.system_blocks is None and lone.forward_parts["solve"] == 0.0


def test_summary_reports_the_encode_parts(tmp_path, caplog):
    """encode_parts splits the encode stage into the Gram build, the sigma
    grid's scale and the candidate solves, which -v logs; a fixed sigma
    spends nothing on the scale."""
    import logging

    with caplog.at_level(logging.INFO, logger="mshoa"):
        run_experiment(validate_config(TINY.replace("sigma: 1e-9", "sigma_search: {points: 3}")), tmp_path / "search")
    meta = json.loads((tmp_path / "search" / "summary.json").read_text())
    parts = meta["encode_parts"]
    assert list(parts) == ["gram", "scale", "solves"]
    assert all(seconds > 0 for seconds in parts.values())
    assert 0.5 * meta["stages"]["encode"] <= sum(parts.values()) <= meta["stages"]["encode"]
    logged = {r.getMessage().split(":")[0] for r in caplog.records if r.getMessage().startswith("encode ")}
    assert logged == {f"encode {name}" for name in parts}
    fixed = run_experiment(validate_config(TINY), tmp_path / "fixed").encode_parts
    assert fixed["scale"] == 0.0 and fixed["gram"] > 0 and fixed["solves"] > 0


def test_verbose_logs_each_part_once_under_its_module(tmp_path, caplog):
    """-v logs one line per forward and encode part, with the total summary.json
    records for it (at the printed precision): HOA's vector solve and its
    capsule reads enter the solve and capsule parts more than once, and its
    n_c search runs an encoder per candidate.  Forward parts log under
    mshoa.scatter and encode parts under mshoa.encode."""
    import logging

    with caplog.at_level(logging.INFO, logger="mshoa"):
        summary = run_experiment(load_config(SCALED_CONFIGS[0].with_name("scaled_linear2_hoa.yaml")), tmp_path / "out")
    for stage, logger, parts in (("forward", "mshoa.scatter", summary.forward_parts), ("encode", "mshoa.encode", summary.encode_parts)):
        logged = [(r.name, r.getMessage()) for r in caplog.records if r.getMessage().startswith(f"{stage} ")]
        assert logged == [(logger, f"{stage} {name}: {seconds:.3f} s") for name, seconds in parts.items()]


def test_verbose_logs_every_stage(tmp_path, caplog):
    """-v logs one line per stage, in order, with the seconds summary.json
    records for it (at the printed precision) and the peak RSS so far."""
    import logging
    import re

    from mshoa.runner import STAGES

    with caplog.at_level(logging.INFO, logger="mshoa"):
        summary = run_experiment(validate_config(TINY), tmp_path / "out")
    logged = [re.fullmatch(r"stage (\w+): ([\d.]+) s, peak RSS ([\d.]+) MB", r.getMessage()) for r in caplog.records]
    logged = [match.groups() for match in logged if match]
    assert [name for name, _, _ in logged] == list(STAGES)
    for name, seconds, peak in logged:
        assert seconds == f"{summary.stages[name]:.3f}"
        assert peak == f"{summary.peak_rss_mb[name]:.1f}"


def test_summary_records_the_search_curve(tmp_path):
    cfg = validate_config(TINY.replace("sigma: 1e-9", "sigma_search: {points: 9}"))
    summary = run_experiment(cfg, tmp_path / "out")
    search = json.loads((tmp_path / "out" / "summary.json").read_text())["search"]
    assert search == summary.search
    assert len(search["candidates"]) == len(search["ssa"]) == 9
    assert search["candidates"] == sorted(search["candidates"], reverse=True)
    assert max(search["ssa"]) == summary.ssa == search["ssa"][search["index"]]
    assert search["candidates"][search["index"]] == summary.sigma
    assert search["at_edge"] == (search["index"] in (0, 8))
    # a fixed value is a one-candidate search, never at an edge
    fixed = run_experiment(validate_config(TINY_HOA), tmp_path / "hoa").search
    assert fixed == {"candidates": [4], "ssa": [fixed["ssa"][0]], "index": 0, "at_edge": False}
