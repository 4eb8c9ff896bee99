"""End-to-end experiment runs, output artifacts, determinism, and the CLI."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from mshoa.cli import main
from mshoa.config import validate_config
from mshoa.matio import export_matrix, import_matrix
from mshoa.runner import run_experiment
from tests.oracles import read_field_csv

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
    coeffs = import_matrix(out / "coefficients.bin")
    assert coeffs.shape == (1, (cfg.scene.n_in + 1) ** 2)
    grid, header = read_field_csv(out / "estimated.csv")
    assert grid.shape == cfg.grid.shape
    assert f"config={cfg.config_hash}" in header[2]


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


def test_determinism_across_reruns(tmp_path):
    cfg = validate_config(TINY)
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, a)
    run_experiment(cfg, b)
    fa, fb = _artifacts(a), _artifacts(b)
    for name in ("ground_truth.csv", "estimated.csv", "sdr_map.csv"):
        assert fa[name] == fb[name]


def test_forward_export_import_reuse(tmp_path):
    cfg = validate_config(TINY)
    mat_path = tmp_path / "forward.bin"
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    run_experiment(cfg, out1, export_forward=mat_path)
    assert mat_path.exists()
    run_experiment(cfg, out2, import_forward=mat_path)
    assert _artifacts(out1)["sdr_map.csv"] == _artifacts(out2)["sdr_map.csv"]


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
    assert calls == {"forward_operator": [False], "forward_solve": 1}


def test_single_run_builds_each_local_translation_once(tmp_path, monkeypatch):
    """The uncoupled operator and the capture share one R|R per sphere."""
    from mshoa import translation

    built = []
    rr = translation.rr_translation

    def counting_rr(t, *args):
        built.append(tuple(t))
        return rr(t, *args)

    monkeypatch.setattr(translation, "rr_translation", counting_rr)
    cfg = validate_config(TINY_SINGLE)
    run_experiment(cfg, tmp_path / "out")
    assert sorted(built) == sorted(tuple(s.center) for s in cfg.scene.spheres)


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
    for build in (lambda: forward_operator(cfg.scene), lambda: runner._grid_encoding(cfg, None, None)):
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
    T_F = Lambda_s c_s and the regular plus singular series at up to 16
    capsules of each sphere, a stride through its Fibonacci order.  Only MSHOA
    builds T_F from c: the other methods and an imported T_F report null."""
    import scipy.linalg as sla

    from mshoa.basis import regular_basis_matrix, singular_basis_matrix
    from mshoa.scatter import (
        _local_incident_block,
        assemble_system_matrix,
        rigid_scatter_gain,
        surface_response_matrix,
    )

    cfg = validate_config(TINY)
    run_experiment(cfg, tmp_path / "mshoa", export_forward=tmp_path / "forward.bin")
    reported = json.loads((tmp_path / "mshoa" / "summary.json").read_text())["capsule_residual"]
    scene = cfg.scene
    k, n = scene.k, scene.n_fwd
    c = np.split(sla.solve(assemble_system_matrix(scene), _local_incident_block(scene)), scene.num_spheres)
    worst, top = 0.0, 0.0
    for sphere, c_s in zip(scene.spheres, c):
        rows = np.arange(0, sphere.num_capsules, int(np.ceil(sphere.num_capsules / 16)))
        assert len(rows) <= 16
        caps = sphere.capsule_positions()[rows]
        t_f = surface_response_matrix(sphere, k, n)[rows] @ c_s
        total = regular_basis_matrix(scene.n_in, k, caps, [0.0, 0.0, 0.0])
        for other, c_t in zip(scene.spheres, c):
            b_t = rigid_scatter_gain(k, other.radius, n)[:, None] * c_t
            total += singular_basis_matrix(n, k, caps, other.center) @ b_t
        worst, top = max(worst, np.max(np.abs(t_f - total))), max(top, np.max(np.abs(total)))
    assert 0 < reported == pytest.approx(worst / top, rel=1e-6)
    imported = run_experiment(cfg, tmp_path / "imported", import_forward=tmp_path / "forward.bin")
    assert imported.capsule_residual is None
    for i, text in enumerate((TINY_SINGLE, TINY_HOA, LONE_HOA)):
        out = tmp_path / f"other{i}"
        run_experiment(validate_config(text), out)
        assert json.loads((out / "summary.json").read_text())["capsule_residual"] is None


def test_plane_wave_amplitude_scales_truth_and_capture_not_the_ssa(tmp_path):
    plane = TINY.replace("kind: monopole, position: [5, 5, 5]", "kind: plane_wave, direction: [1, 1, 0.5]")
    loud = plane.replace("direction: [1, 1, 0.5]", "direction: [1, 1, 0.5], amplitude: 5")
    runs = {}
    for name, text in (("unit", plane), ("loud", loud)):
        cfg = validate_config(text)
        summary = run_experiment(cfg, tmp_path / name, dump_coeffs=True)
        capture = cfg.scene.source.field_at(cfg.scene.k, cfg.scene.capsule_positions())
        truth, _ = read_field_csv(tmp_path / name / "ground_truth.csv")
        coeffs = import_matrix(tmp_path / name / "coefficients.bin")
        runs[name] = summary, cfg.scene.incident_coeffs().values, capture, truth, coeffs
    (unit, a1, p1, t1, x1), (loud, a5, p5, t5, x5) = runs["unit"], runs["loud"]
    np.testing.assert_allclose(a5, 5 * a1, rtol=1e-15)
    np.testing.assert_allclose(p5, 5 * p1, rtol=1e-15)
    np.testing.assert_allclose(t5, 5 * t1, rtol=1e-15)
    np.testing.assert_allclose(x5, 5 * x1, rtol=1e-9)
    assert loud.ssa == unit.ssa and unit.ssa > 0


@pytest.mark.parametrize("text", [TINY_HOA, TINY_SINGLE], ids=["HOA", "Single"])
def test_forward_export_import_is_mshoa_only(tmp_path, text):
    runner = CliRunner()
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(text)
    matrix = tmp_path / "forward.bin"
    export_matrix(matrix, np.ones((80, 81), complex))  # TINY's T_F shape
    for flag, path in (("--export-forward", tmp_path / "new.bin"), ("--import-forward", matrix)):
        out = tmp_path / flag.strip("-")
        res = runner.invoke(main, ["run", str(cfg_path), "--out", str(out), flag, str(path)])
        assert res.exit_code == 2, res.output
        assert "config error" in res.output
        assert not (out / "summary.json").exists()
    assert not (tmp_path / "new.bin").exists()


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
    ]:
        bad.write_text(text)
        out = tmp_path / "out-malformed"
        for command in (["validate", str(bad)], ["run", str(bad), "--out", str(out)]):
            res = runner.invoke(main, command)
            assert res.exit_code == 2, (text, res.output)
            assert "config error" in res.output and word in res.output
        assert not (out / "summary.json").exists()


def test_cli_bad_forward_file(tmp_path):
    runner = CliRunner()
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(TINY)
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"not a matrix file at all")
    # TINY needs 80 capsules x 81 incident coefficients
    too_few_cols, too_few_rows = tmp_path / "80x10.bin", tmp_path / "70x81.bin"
    export_matrix(too_few_cols, np.ones((80, 10), complex))
    export_matrix(too_few_rows, np.ones((70, 81), complex))
    for bad in (garbage, too_few_cols, too_few_rows):
        out = tmp_path / bad.stem
        res = runner.invoke(
            main,
            ["run", str(cfg_path), "--out", str(out), "--import-forward", str(bad)],
        )
        assert res.exit_code == 4, res.output
        assert "runtime error" in res.output
        assert not (out / "summary.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from the overflowed radial functions
def test_cli_runtime_failures_exit_4(tmp_path, monkeypatch):
    runner = CliRunner()
    cfg_path = tmp_path / "cfg.yaml"
    # degree 200 at kR = 1.47 overflows h'_n: the σ = 0 pseudo-inverse of a response holding nan fails
    cfg_path.write_text(TINY_HOA.replace("hoa: {n_c: 4}", "hoa: {n_c_min: 1, n_c_max: 200}"))
    res = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "nan")])
    assert res.exit_code == 4, res.output
    assert "runtime error" in res.output and "pseudo-inverse" in res.output
    assert not (tmp_path / "nan" / "summary.json").exists()

    # a scene too large for memory (allocating for real would need tens of GiB)
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 54.5 GiB")

    monkeypatch.setattr("mshoa.cli.run_experiment", out_of_memory)
    cfg_path.write_text(TINY)
    res = runner.invoke(main, ["run", str(cfg_path), "--out", str(tmp_path / "oom")])
    assert res.exit_code == 4, res.output
    assert "out of memory" in res.output and "54.5 GiB" in res.output


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
