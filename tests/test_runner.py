"""End-to-end experiment runs, output artifacts, determinism, and the CLI."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from mshoa.cli import main
from mshoa.config import validate_config
from mshoa.matio import export_matrix, import_matrix, read_field_csv
from mshoa.runner import run_experiment

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
    assert meta["threads"] is None
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


def test_determinism_across_thread_hints(tmp_path):
    cfg = validate_config(TINY)
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, a, threads=1)
    run_experiment(cfg, b, threads=8)
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


def test_cli_validate_and_run(tmp_path):
    runner = CliRunner()
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(TINY)

    res = runner.invoke(main, ["validate", str(cfg_path)])
    assert res.exit_code == 0
    assert "ok: MSHOA, 2 spheres" in res.output

    res = runner.invoke(
        main, ["run", str(cfg_path), "--out", str(tmp_path / "out"), "--threads", "2"]
    )
    assert res.exit_code == 0, res.output
    assert "MSHOA @ 1000 Hz" in res.output
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["threads"] == 2


def test_cli_rejects_bad_config(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.yaml"
    bad.write_text(TINY.replace("method: MSHOA", "method: NOPE"))
    res = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "config error" in res.output

    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 2

    # a malformed value is a config error too, not a traceback
    bad.write_text(TINY_HOA.replace("n_c: 4", "n_c: -1"))
    res = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "config error" in res.output and "n_c" in res.output


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


def test_summary_reports_field_statistics(tmp_path):
    cfg = validate_config(TINY)
    summary = run_experiment(cfg, tmp_path / "out")
    assert np.isfinite(summary.max_sdr_db)
    assert summary.max_sdr_db >= summary.mean_sdr_db
    assert summary.wall_time_s > 0
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
