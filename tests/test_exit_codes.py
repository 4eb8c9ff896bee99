"""The CLI's exit-code contract, fuzzed: a malformed setting is exit 2 from both commands, never a traceback.

Each example mutates one or two settings of a tiny configuration, one per
method, or adds a key the configuration lacks, and runs ``mshoa validate``
and ``mshoa run`` on it in-process.  Every value lies beyond a bound or below
a floor rather than at a large valid size, so no example starts a long run.
"""

import copy
import math
import tempfile
from pathlib import Path

import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mshoa.cli import main

_TINY = {"frequency": 1000, "n_in": 4, "n_fwd": 2}
_GRID = {"plane": "xy", "extent": [0.8, 0.8], "resolution": 0.2}  # 4 x 4 pixels
BASES = {  # 2 spheres of 12 capsules each; between them they hold every settable key but hoa.n_c
    "MSHOA": {
        "scene": {"layout": {"type": "linear", "count": 2, "spacing": 0.25, "axis": "y"}, "radius": 0.08,
                  "capsules": 12, "source": {"kind": "monopole", "position": [5, 5, 5]}, **_TINY},
        "method": "MSHOA",
        "sigma_search": {"points": 2, "min_factor": 1e-8, "max_factor": 1e2},
        "grid": _GRID,
    },
    "Single": {
        "scene": {"layout": {"type": "cartesian", "rows": 1, "cols": 2, "spacing": 0.25, "plane": "xy"},
                  "radius": 0.08, "capsules": 12, "sound_speed": 343,
                  "source": {"kind": "plane_wave", "direction": [0, 1, 0], "amplitude": [1, 0.5]}, **_TINY},
        "method": "Single",
        "sigma": 1e-9,
        "threshold_db": 30,
        "grid": {**_GRID, "center": [0, 0], "normal_offset": 0},
    },
    "HOA": {
        "scene": {"spheres": [{"center": [0, -0.125, 0], "radius": 0.08, "capsules": 12},
                              {"center": [0, 0.125, 0], "radius": 0.08, "capsules": 12}],
                  "source": {"kind": "monopole", "position": [5, 5, 5]}, **_TINY},
        "method": "HOA",
        "sigma": 0,
        "hoa": {"sphere_index": 0, "n_c_min": 1, "n_c_max": 2},
        "grid": _GRID,
    },
}
# Keys a base may lack: HOA's settings on any method, and either source kind's geometry on the other.
ADDED = [("hoa",), ("hoa", "n_c"), ("scene", "source", "direction"), ("scene", "source", "position")]
VALUES = [1e300, -1e300, 1e-300, 5e-324, 1e20, 10**30, 0, -1, math.nan, math.inf, -math.inf, True, "abc", [], {}, None]


def _paths(node, prefix=()):
    """The path of every value below ``node``: mappings' values and lists' items, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _set(raw: dict, path: tuple, value) -> None:
    """``value`` at ``path``, making a missing mapping on the way; nothing if a value on the way holds no key."""
    node = raw
    try:
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
        node[path[-1]] = value
    except TypeError:  # an earlier mutation left a number, a string or a list where a mapping was
        pass


@st.composite
def mutated_configs(draw) -> dict:
    raw = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 2))):
        _set(raw, draw(st.sampled_from([*_paths(raw), *ADDED])), copy.deepcopy(draw(st.sampled_from(VALUES))))
    return raw


def _invoke(args: list) -> int:
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), (args[0], res.exception, res.output)
    assert "Traceback" not in res.output, res.output
    assert res.exit_code in (0, 2, 3, 4), (args[0], res.exit_code, res.output)
    return res.exit_code


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_every_outcome_is_an_exit_code_of_the_contract(raw):
    """Exit 0, 2, 3 or 4 with no traceback from both commands; ``validate``
    exits 2 whenever ``run`` does, and such a run leaves no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.yaml", Path(tmp) / "out"
        config.write_text(yaml.safe_dump(raw))
        validated = _invoke(["validate", str(config)])
        ran = _invoke(["run", str(config), "--out", str(out)])
        if ran == 2:
            assert validated == 2, raw
            assert not out.exists(), raw
