"""YAML configuration parsing, validation, and hashing."""

import numpy as np
import pytest

from mshoa.config import (
    ConfigError,
    hash_config,
    parse_config,
    validate_config,
)

MINIMAL = """
scene:
  layout: {type: linear, count: 2, spacing: 0.25, axis: y}
  radius: 0.08
  capsules: 32
  source: {kind: plane_wave, direction: [0, 0, 1]}
  frequency: 2000
  n_in: 10
method: MSHOA
"""


def test_minimal_config_defaults():
    cfg = validate_config(MINIMAL)
    assert cfg.method == "MSHOA"
    assert cfg.scene.sound_speed == 343.0
    assert cfg.threshold_db == 30.0
    assert cfg.grid.plane == "xy" and cfg.grid.resolution == 0.005
    # n_fwd defaults to floor(e k a), capped by n_in
    k = 2 * np.pi * 2000 / 343.0
    assert cfg.scene.n_fwd == min(10, int(np.floor(np.e * k * 0.08)))
    # grid-search regularization is the default for the coupled methods
    assert cfg.sigma is None and cfg.sigma_search is not None
    assert cfg.sigma_search.points == 21


def test_explicit_spheres_and_monopole():
    cfg = validate_config(
        """
scene:
  spheres:
    - {center: [0, -0.125, 0], radius: 0.08, capsules: 16}
    - {center: [0, 0.125, 0], radius: 0.08, capsules: 16}
  source: {kind: monopole, position: [10, 10, 10], amplitude: [2.0, -0.5]}
  frequency: 1000
  n_in: 8
  n_fwd: 5
method: Single
sigma: 1e-6
grid: {plane: yz, extent: [1, 2], resolution: 0.01, center: [0.1, -0.2], normal_offset: 0.3}
threshold_db: 25
"""
    )
    assert cfg.scene.num_spheres == 2
    assert cfg.scene.source.amplitude == 2.0 - 0.5j
    assert cfg.sigma == 1e-6 and cfg.sigma_search is None
    assert cfg.grid.plane == "yz" and cfg.grid.normal_offset == 0.3
    assert cfg.threshold_db == 25.0


def test_hoa_defaults_to_unregularized():
    cfg = validate_config(MINIMAL.replace("method: MSHOA", "method: HOA"))
    assert cfg.sigma == 0.0 and cfg.sigma_search is None
    assert cfg.hoa.n_c is None and cfg.hoa.n_c_max == 14


def test_config_rejections():
    for patch, msg in [
        (("method: MSHOA", "method: QUANTUM"), "method"),
        (("count: 2", "count: 0"), "geometry"),
        (("spacing: 0.25", "spacing: 0.1"), "spacing"),
        (("n_in: 10", "n_in: 3\n  n_fwd: 7"), "truncation"),
        (("frequency: 2000", "frequency: -5"), "scene"),
    ]:
        with pytest.raises(ConfigError, match=msg):
            validate_config(MINIMAL.replace(*patch))
    with pytest.raises(ConfigError):
        validate_config("just a string")
    with pytest.raises(ConfigError):
        validate_config("scene: {source: {kind: plane_wave}}")
    with pytest.raises(ConfigError, match="parse"):
        validate_config("scene: [unclosed")
    with pytest.raises(ConfigError, match="sigma"):
        validate_config(MINIMAL + "sigma: 1e-6\nsigma_search: {points: 5}\n")
    with pytest.raises(ConfigError, match="sigma"):
        validate_config(MINIMAL + "sigma: -1.0\n")
    with pytest.raises(ConfigError, match="sigma"):
        validate_config(
            MINIMAL.replace("method: MSHOA", "method: HOA") + "sigma_search: {points: 5}\n"
        )
    with pytest.raises(ConfigError, match="sphere_index"):
        validate_config(MINIMAL + "hoa: {sphere_index: 5}\n")
    for text, msg in [
        # malformed values
        (MINIMAL + "hoa: {n_c_min: 5, n_c_max: 3}\n", "n_c_min"),
        (MINIMAL + "hoa: {n_c: -1}\n", "n_c"),
        (MINIMAL + "hoa: {n_c: 2.7}\n", "n_c"),
        (MINIMAL + "hoa: {sphere_index: 1.5}\n", "sphere_index"),
        (MINIMAL + "sigma_search: {min_factor: 0}\n", "factor"),
        (MINIMAL + "sigma_search: {min_factor: -1e-8}\n", "factor"),
        (MINIMAL + "sigma_search: 5\n", "sigma_search"),
        (MINIMAL + "sigma: abc\n", "sigma"),
        (MINIMAL + "sigma: .nan\n", "sigma"),
        (MINIMAL + "threshold_db: abc\n", "threshold_db"),
        (MINIMAL.replace("frequency: 2000", "frequency: abc"), "frequency"),
        (MINIMAL.replace("capsules: 32", "capsules: 16.5"), "capsules"),
        (MINIMAL.replace("direction: [0, 0, 1]", "position: [5, 5, 5], amplitude: abc").replace(
            "plane_wave", "monopole"), "amplitude"),
        (MINIMAL.replace("direction: [0, 0, 1]", "position: [5, 5, 5], amplitude: [1, 2, 3]").replace(
            "plane_wave", "monopole"), "amplitude"),
        (MINIMAL.replace("layout: {type: linear, count: 2, spacing: 0.25, axis: y}", "spheres: 5"), "spheres"),
        (MINIMAL.replace("type: linear", "type: hexagonal"), "type"),
        # a layout takes the keys of its own type only
        (MINIMAL.replace("axis: y", "axis: y, rows: 3"), "'rows'"),
        (MINIMAL.replace("layout: {type: linear, count: 2, spacing: 0.25, axis: y}",
                         "layout: {type: cartesian, rows: 2, cols: 2, spacing: 0.25, count: 4}"), "'count'"),
        # unknown keys, misspelt or retired, at every level
        (MINIMAL + "sigma_serch: {points: 3}\n", "sigma_serch"),
        (MINIMAL + "incident_eval: translated\n", "incident_eval"),
        (MINIMAL.replace("n_in: 10", "n_in: 10\n  n_rr_assembly: 4"), "n_rr_assembly"),
        (MINIMAL.replace("axis: y", "axis: y, spacng: 1"), "spacng"),
        (MINIMAL.replace("direction: [0, 0, 1]", "direction: [0, 0, 1], phase: 1"), "phase"),
        (
            MINIMAL.replace(
                "layout: {type: linear, count: 2, spacing: 0.25, axis: y}",
                "spheres: [{center: [0, 0, 0], radius: 0.08, capsule: 8}]",
            ),
            "capsule",
        ),
        (MINIMAL + "grid: {plain: xz}\n", "plain"),
        (MINIMAL + "sigma_search: {points: 3, max: 10}\n", "'max'"),
        (MINIMAL + "hoa: {nc: 3}\n", "'nc'"),
    ]:
        with pytest.raises(ConfigError, match=msg):
            validate_config(text)
    # output paths and the threads hint stay accepted (hash_config ignores them)
    validate_config(MINIMAL + "output: out\nthreads: 2\n")


def test_spheres_and_layout_are_exclusive():
    bad = MINIMAL.replace(
        "layout: {type: linear, count: 2, spacing: 0.25, axis: y}",
        "layout: {type: linear, count: 2, spacing: 0.25, axis: y}\n"
        "  spheres: [{center: [0, 0, 0], radius: 0.08, capsules: 8}]",
    )
    with pytest.raises(ConfigError, match="either"):
        validate_config(bad)


def test_monopole_inside_sphere_rejected():
    with pytest.raises(ConfigError, match="inside"):
        validate_config(
            MINIMAL.replace(
                "source: {kind: plane_wave, direction: [0, 0, 1]}",
                "source: {kind: monopole, position: [0.0, 0.125, 0.02]}",
            )
        )


def test_hash_ignores_output_and_threads():
    raw = {"scene": {"frequency": 2000}, "method": "MSHOA"}
    h = hash_config(raw)
    assert h == hash_config({**raw, "output": "/somewhere", "threads": 8})
    assert h != hash_config({**raw, "method": "Single"})
    assert len(h) == 16


def test_hash_is_stable_under_equivalent_numerics():
    # YAML may read 2000 as int or float; the hash must not care
    a = {"scene": {"frequency": 2000}}
    b = {"scene": {"frequency": 2000.0}}
    assert hash_config(a) == hash_config(b)


def test_parse_config_requires_mapping():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_load_config_roundtrip(tmp_path):
    from mshoa.config import load_config

    p = tmp_path / "cfg.yaml"
    p.write_text(MINIMAL)
    cfg = load_config(p)
    assert cfg.config_hash == validate_config(MINIMAL).config_hash
