"""Tests for the benchmark's own code: workloads, span wrappers, output check.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from check import check_run, pixel_mask, sphere_centers  # noqa: E402
from workloads import MIRRORS, SOURCE, WORKLOADS, make_config, source_position  # noqa: E402

from mshoa.config import parse_config  # noqa: E402
from mshoa.fields import sphere_mask  # noqa: E402
from mshoa.runner import run_experiment  # noqa: E402

TINY = {
    "scene": {
        "layout": {"type": "linear", "count": 2, "spacing": 0.25, "axis": "y"},
        "radius": 0.08,
        "capsules": 40,
        "source": {"kind": "monopole", "position": [5, 5, 5]},
        "frequency": 1000,
        "n_in": 8,
        "n_fwd": 5,
    },
    "method": "MSHOA",
    "sigma": 1e-9,
    "grid": {"plane": "xy", "extent": [0.8, 0.8], "resolution": 0.05},
}
TINY_SEARCH = {"sigma_grid": [1e-9], "n_c_range": None}


def _committed(name):
    return yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())


def test_config_is_a_function_of_the_seed():
    for workload in WORKLOADS:
        for seed in (0, 3, 11):
            assert make_config(workload, seed) == make_config(workload, seed)
            parse_config(make_config(workload, seed))


def test_seed_zero_gives_the_committed_scenes():
    assert make_config("sweep_linear2", 0) == _committed("scaled_linear2_mshoa")
    assert make_config("hoa_search_linear2", 0)["scene"] == _committed("scaled_linear2_hoa")["scene"]
    planar = make_config("forward_planar9", 0)
    assert planar["scene"] == _committed("cartesian9_mshoa")["scene"]
    assert "sigma_search" not in planar


def test_seeds_move_only_the_source_at_fixed_range():
    images = {tuple(source_position(seed)) for seed in range(MIRRORS)}
    assert len(images) == MIRRORS
    for seed in range(2 * MIRRORS):
        assert math.isclose(np.linalg.norm(source_position(seed)), np.linalg.norm(SOURCE))
        cfg = make_config("forward_planar9", seed)
        cfg["scene"].pop("source")
        ref = make_config("forward_planar9", 0)
        ref["scene"].pop("source")
        assert cfg == ref


def test_hoa_encodes_the_mirror_image_of_the_seed_zero_array():
    home = sphere_centers(make_config("hoa_search_linear2", 0)["scene"])[0]
    for seed in range(MIRRORS):
        raw = make_config("hoa_search_linear2", seed)
        flip = np.sign(source_position(seed)) * np.sign(SOURCE)
        center = sphere_centers(raw["scene"])[raw["hoa"]["sphere_index"]]
        np.testing.assert_array_equal(center, home * flip)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_check_geometry_matches_the_library(workload):
    raw = make_config(workload, 0)
    cfg = parse_config(raw)
    centers = sphere_centers(raw["scene"])
    np.testing.assert_array_equal(centers, np.array([s.center for s in cfg.scene.spheres]))
    mask = pixel_mask(raw["grid"], centers, raw["scene"]["radius"])
    np.testing.assert_array_equal(mask, sphere_mask(cfg.grid, cfg.scene.spheres))


@pytest.fixture
def tiny_run(tmp_path):
    out = tmp_path / "out"
    run_experiment(parse_config(TINY), out)
    return out


def test_check_accepts_a_clean_run(tiny_run):
    assert check_run(tiny_run, TINY, TINY_SEARCH, None) == []


def _rewrite_sdr(out, edit):
    path = out / "sdr_map.csv"
    lines = path.read_text().splitlines()
    cells = lines[3 + 8].split(",")
    cells[8] = edit(float(cells[8]))
    lines[3 + 8] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "edit",
    [lambda v: "nan", lambda v: "151", lambda v: repr(v + 1.0), lambda v: "oops"],
    ids=["non-finite", "out-of-range", "shifted", "unparseable"],
)
def test_check_rejects_a_corrupted_sdr_map(tiny_run, edit):
    _rewrite_sdr(tiny_run, edit)
    assert check_run(tiny_run, TINY, TINY_SEARCH, None)


def test_check_rejects_an_sdr_map_that_changes_the_ssa(tiny_run):
    _rewrite_sdr(tiny_run, lambda v: "10" if v > 30 else "100")
    assert any("SSA from sdr_map.csv" in p for p in check_run(tiny_run, TINY, TINY_SEARCH, None))


def test_check_compares_with_the_reference(tiny_run):
    ssa = json.loads((tiny_run / "summary.json").read_text())["ssa"]
    pixel = TINY["grid"]["resolution"] ** 2
    assert check_run(tiny_run, TINY, TINY_SEARCH, {"ssa": ssa + pixel, "sigma": 1e-9, "n_c": None}) == []
    for ref in (
        {"ssa": ssa + 2 * pixel, "sigma": 1e-9, "n_c": None},
        {"ssa": ssa, "sigma": 2e-9, "n_c": None},
        {"ssa": ssa, "sigma": 1e-9, "n_c": 4},
    ):
        assert any("reference" in p for p in check_run(tiny_run, TINY, TINY_SEARCH, ref))


def test_check_rejects_sigma_off_the_grid(tiny_run):
    assert check_run(tiny_run, TINY, {"sigma_grid": [1e-8, 1e-7], "n_c_range": None}, None)


def test_traced_worker_counts_calls_through_from_imported_names(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text(json.dumps(TINY))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(config), str(tmp_path / "out"), "--trace"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    spans = report["trace"]["spans"]
    # runner binds these through "from .fields import ..."
    assert spans["fields.reconstruct_field"]["calls"] == 2  # scored, then final
    assert spans["fields.sdr_map"]["calls"] == 1
    # scatter and fields bind basis functions through from-imports
    assert spans["basis.singular_basis_matrix"]["calls"] >= 2
    assert spans["basis.regular_basis_matrix"]["calls"] >= 1
    assert spans["basis.sph_harm_matrix"]["calls"] >= 3
    assert spans["config.load_config"]["calls"] == 1
    assert spans["runner.run_experiment"]["calls"] == 1
    assert spans["scatter.forward_solve"]["calls"] == 0
    # self time never exceeds inclusive time, and the layers cover the run
    assert all(s["self_s"] <= s["s"] + 1e-9 for s in spans.values())
    top = report["trace"]["top"]
    covered = sum(top.values()) + spans["runner.run_experiment"]["self_s"]
    assert covered == pytest.approx(report["run_s"], rel=0.05)
    counters = report["trace"]["counters"]
    assert counters["basis_entries"] == 2 * 16 * 16 * 9**2
    assert spans["translation.sr_translation"]["calls"] == 2 and counters["sr_distinct"] == 1
    assert counters["bytes_written"] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_linear2", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
