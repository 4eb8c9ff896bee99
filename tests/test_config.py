"""YAML configuration parsing, validation, and hashing."""

from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mshoa.config import (
    ConfigError,
    hash_config,
    parse_config,
    validate_config,
)
from mshoa.fields import MAX_PIXELS

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
    assert (cfg.hoa.n_c_min, cfg.hoa.n_c_max) == (1, 14)
    # the encoded array defaults to the one nearest the origin (the first of a tie)
    assert cfg.hoa.sphere_index == 0
    off_centre = validate_config(
        MINIMAL.replace(
            "layout: {type: linear, count: 2, spacing: 0.25, axis: y}",
            "spheres: [{center: [0, 1, 0], radius: 0.08, capsules: 8}, {center: [0, 0.5, 0], radius: 0.08, capsules: 8}]",
        )
        .replace("  radius: 0.08\n  capsules: 32\n", "")
        .replace("method: MSHOA", "method: HOA")
    )
    assert off_centre.hoa.sphere_index == 1
    # a fixed truncation is the one-degree range
    fixed = validate_config(MINIMAL.replace("method: MSHOA", "method: HOA") + "hoa: {n_c: 6}\n")
    assert (fixed.hoa.n_c_min, fixed.hoa.n_c_max) == (6, 6)


def test_config_rejections():
    for patch, msg in [
        (("method: MSHOA", "method: QUANTUM"), "method"),
        (("count: 2", "count: 0"), "geometry"),
        (("axis: y", "axis: w"), "axis"),
        (("capsules: 32", "capsules: 0"), "capsule"),
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
    layout = "layout: {type: linear, count: 2, spacing: 0.25, axis: y}"
    for text, msg in [
        # malformed values
        (MINIMAL + "hoa: {n_c_min: 5, n_c_max: 3}\n", "n_c_min"),
        (MINIMAL + "hoa: {n_c: -1}\n", "n_c"),
        (MINIMAL + "hoa: {n_c: 2.7}\n", "n_c"),
        (MINIMAL + "hoa: {n_c: 3, n_c_max: 5}\n", "n_c"),
        (MINIMAL + "hoa: {n_c: 3, n_c_min: 2}\n", "n_c"),
        (MINIMAL + "hoa: {sphere_index: 1.5}\n", "sphere_index"),
        (MINIMAL + "sigma_search: {points: 0}\n", "points"),
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
        # grid values: exact 2-vectors of finite numbers, at least one pixel per axis, at most MAX_PIXELS
        (MINIMAL + "grid: {extent: [2]}\n", "extent"),
        (MINIMAL + "grid: {extent: [2, 2, 7]}\n", "extent"),
        (MINIMAL + "grid: {extent: 2}\n", "extent"),
        (MINIMAL + "grid: {extent: [2, .inf]}\n", "extent"),
        (MINIMAL + "grid: {center: [0.5]}\n", "center"),
        (MINIMAL + "grid: {center: [0, abc]}\n", "center"),
        (MINIMAL + "grid: {extent: [2, 2], resolution: 5}\n", "pixel"),
        (MINIMAL + "grid: {extent: [2, 2], resolution: 1e-320}\n", "pixel"),
        (MINIMAL + "grid: {extent: [200000, 200000], resolution: 0.02}\n", "100,000,000,000,000 pixels"),
        (MINIMAL + "grid: {resolution: abc}\n", "resolution"),
        (MINIMAL + "grid: {normal_offset: [1]}\n", "normal_offset"),
        (MINIMAL + "sigma_search: {points: 3, max: 10}\n", "'max'"),
        (MINIMAL + "hoa: {nc: 3}\n", "'nc'"),
        (MINIMAL + "threads: 2\n", "'threads'"),
        (MINIMAL + "output: out\n", "'output'"),
        # values of the wrong type, not only of the wrong value
        (MINIMAL.replace("axis: y", "axis: [1]"), "axis"),
        (MINIMAL.replace(layout, "layout: {type: cartesian, rows: 2, cols: 1, spacing: 0.25, plane: [1]}"), "plane"),
        (MINIMAL.replace(layout, "layout: {type: [1], count: 2, spacing: 0.25}"), "type"),
        (MINIMAL.replace("method: MSHOA", "method: [1]"), "method"),
        # YAML's true, which Python would take as 1
        (MINIMAL.replace("n_in: 10", "n_in: true"), "n_in must be a finite number, got True"),
        (MINIMAL.replace("capsules: 32", "capsules: true"), "capsules must be a finite number, got True"),
        (MINIMAL.replace("kind: plane_wave, direction: [0, 0, 1]", "kind: monopole, position: [true, 0, 0]"),
         r"position must be a 3-vector, got \[True"),
        (MINIMAL.replace("direction: [0, 0, 1]", "direction: [0, 0, 1], amplitude: true"), "amplitude must be a finite"),
        (MINIMAL + "grid: {plane: [1]}\n", "plane"),
        (MINIMAL.replace(layout, "spheres: [{center: [0, 0, 0], radius: 0.08, capsules: 0}]").replace(
            "  radius: 0.08\n  capsules: 32\n", ""), "capsule"),
        # at most MAX_CAPSULES capsules per sphere, from a layout or given per sphere
        (MINIMAL.replace("capsules: 32", "capsules: 10000000000"), "10,000,000,000 points"),
        (MINIMAL.replace(layout, "spheres: [{center: [0, 0, 0], radius: 0.08, capsules: 10000000000}]").replace(
            "  radius: 0.08\n  capsules: 32\n", ""), "10,000,000,000 points"),
        # a layout needs the scene's radius and capsules, and explicit spheres take their own
        (MINIMAL.replace("  radius: 0.08\n", ""), "radius"),
        (MINIMAL.replace(layout, "spheres: [{center: [0, 0, 0], radius: 0.08, capsules: 8}]"), "layout"),
    ]:
        with pytest.raises(ConfigError, match=msg):
            validate_config(text)


_GRID_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.floats(), st.integers(-3, 3), st.text(max_size=2), st.none()), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(["plane", "extent", "resolution", "center", "normal_offset"]), _GRID_VALUES))
def test_any_grid_parses_to_pixels_or_is_a_config_error(grid):
    """A grid mapping either gives at least one pixel per axis and at most MAX_PIXELS
    in all, or is a ConfigError, never another exception."""
    raw = {**yaml.safe_load(MINIMAL), "grid": grid}
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert min(cfg.grid.shape) >= 1 and cfg.grid.shape[0] * cfg.grid.shape[1] <= MAX_PIXELS


NON_FINITE = {  # a NaN or infinite 3-vector, by the field that holds it
    "center": MINIMAL.replace(
        "layout: {type: linear, count: 2, spacing: 0.25, axis: y}",
        "spheres: [{center: [0, .nan, 0], radius: 0.08, capsules: 8}]",
    ).replace("  radius: 0.08\n  capsules: 32\n", ""),
    "position": MINIMAL.replace("kind: plane_wave, direction: [0, 0, 1]", "kind: monopole, position: [.nan, 5, 5]"),
    "direction": MINIMAL.replace("direction: [0, 0, 1]", "direction: [.inf, 0, 1]"),
}


@pytest.mark.parametrize("field", NON_FINITE)
def test_non_finite_vectors_are_config_errors(field):
    """A sphere center, monopole position or plane-wave direction holding NaN or
    inf is rejected; the direction before it is normalised, which would turn
    an inf into NaN."""
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        validate_config(NON_FINITE[field])


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


def test_hash_distinguishes_experiments():
    raw = {"scene": {"frequency": 2000}, "method": "MSHOA"}
    h = hash_config(raw)
    assert h == hash_config(dict(reversed(raw.items())))
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


def test_committed_configs_validate():
    paths = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))
    assert len(paths) == 10
    for path in paths:
        validate_config(path.read_text())


def _parsed(cfg) -> dict:
    """Every parsed setting of ``cfg``, arrays as bytes so that signed zeros count."""
    scene, source = cfg.scene, cfg.scene.source
    return {
        "spheres": [(s.center.tobytes(), s.radius, s.capsule_dirs.tobytes()) for s in scene.spheres],
        "source": (source.kind, *(None if v is None else v.tobytes() for v in (source.direction, source.position)),
                   source.amplitude),
        "scene": (scene.frequency, scene.sound_speed, scene.n_in, scene.n_fwd),
        "rest": (cfg.method, cfg.grid, cfg.threshold_db, cfg.sigma, cfg.sigma_search, cfg.hoa),
    }


def test_spelled_out_defaults_parse_equal_to_the_bare_config():
    """Each default lives on the type it configures: spelling it out changes nothing."""
    k = 2 * np.pi * 2000 / 343.0
    n_fwd = min(10, int(np.floor(np.e * k * 0.08)))
    spelled = MINIMAL.replace("n_in: 10", f"n_in: 10\n  n_fwd: {n_fwd}\n  sound_speed: 343") + (
        "grid: {plane: xy, extent: [2.0, 2.0], resolution: 0.005, center: [0.0, 0.0], normal_offset: 0}\n"
        "threshold_db: 30\n"
        "sigma_search: {points: 21, min_factor: 1e-8, max_factor: 1e2}\n"
        "hoa: {sphere_index: 0, n_c_min: 1, n_c_max: 14}\n"
    )
    bare = MINIMAL.replace(", axis: y", "").replace("method: MSHOA\n", "")
    reference = _parsed(validate_config(MINIMAL))
    assert _parsed(validate_config(spelled)) == reference
    assert _parsed(validate_config(bare)) == reference
    hoa = MINIMAL.replace("method: MSHOA", "method: HOA")
    assert _parsed(validate_config(hoa + "sigma: 0\n")) == _parsed(validate_config(hoa))
    monopole = MINIMAL.replace("plane_wave, direction: [0, 0, 1]", "monopole, position: [5, 5, 5]")
    assert _parsed(validate_config(monopole.replace("5, 5]", "5, 5], amplitude: [1, 0]"))) == _parsed(
        validate_config(monopole)
    )
    grid = "layout: {type: cartesian, rows: 2, cols: 3, spacing: 0.25}"
    cartesian = MINIMAL.replace("layout: {type: linear, count: 2, spacing: 0.25, axis: y}", grid)
    assert _parsed(validate_config(cartesian.replace("0.25}", "0.25, plane: xy}"))) == _parsed(
        validate_config(cartesian)
    )


def test_linear_layout_is_a_one_row_grid():
    """A linear layout is ``count`` origin-centred spheres along its axis, the other coordinates +0."""
    for axis in "xyz":
        for count in (1, 2, 5):
            cfg = validate_config(MINIMAL.replace("count: 2", f"count: {count}").replace("axis: y", f"axis: {axis}"))
            centers = np.array([s.center for s in cfg.scene.spheres])
            along = "xyz".index(axis)
            np.testing.assert_array_equal(centers[:, along], (np.arange(count) - (count - 1) / 2) * 0.25)
            across = np.delete(centers, along, axis=1)
            assert not across.any() and not np.signbit(across).any()
