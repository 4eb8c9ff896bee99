"""Benchmark workloads: experiment configurations generated from a seed.

Problem sizes are fixed per workload, so cost does not depend on the seed.
The seed moves only the monopole source, among the eight mirror images of
(10, 10, 10) across the coordinate planes, and for HOA the encoded array,
which mirrors with it.  Every scene below is symmetric under those
reflections (sphere centres and pixel grid alike), so each image has the
same range, the same angles to the arrays and the same work, and the
sweet-spot area changes only through the capsule layout, which is not
mirror-symmetric.  Seed 0 reproduces the committed source.  Because a seed
maps onto one of eight scenes, every seed has a stored reference result.
"""

from __future__ import annotations

import copy

MIRRORS = 8
SOURCE = (10.0, 10.0, 10.0)

_LINEAR2 = {
    "layout": {"type": "linear", "count": 2, "spacing": 0.25, "axis": "y"},
    "radius": 0.08,
    "capsules": 162,
    "frequency": 2000,
    "n_in": 25,
    "n_fwd": 12,
}

_PLANAR9 = {
    "layout": {"type": "cartesian", "rows": 3, "cols": 3, "spacing": 0.25, "plane": "xy"},
    "radius": 0.08,
    "capsules": 252,
    "frequency": 4000,
    "n_in": 45,
    "n_fwd": 16,
}

# The sigma the 9-point search of configs/cartesian9_mshoa.yaml picks at seed
# 0: the lower grid edge, 1e-8 * ||T_F||_2^2.  T_F does not depend on the
# source, so the value holds for every seed.
PLANAR9_SIGMA = 2.4475141388942664e-08

_GRID = {"plane": "xy", "extent": [2, 2], "resolution": 0.02}

WORKLOADS = {
    "sweep_linear2": {
        "scene": _LINEAR2,
        "method": "MSHOA",
        "sigma_search": {"points": 9},
        "grid": _GRID,
    },
    "forward_planar9": {
        "scene": _PLANAR9,
        "method": "MSHOA",
        "sigma": PLANAR9_SIGMA,
        "grid": _GRID,
    },
    "hoa_search_linear2": {
        "scene": _LINEAR2,
        "method": "HOA",
        "hoa": {"n_c_min": 1, "n_c_max": 14},
        "grid": {**_GRID, "resolution": 0.01},
    },
}


def mirror_index(seed: int) -> int:
    """Which of the eight source images a seed selects."""
    return seed % MIRRORS


def source_position(seed: int) -> list[float]:
    """Monopole position for ``seed``: bit i of the mirror index flips axis i."""
    mirror = mirror_index(seed)
    return [-c if mirror >> axis & 1 else c for axis, c in enumerate(SOURCE)]


def make_config(workload: str, seed: int) -> dict:
    """The experiment configuration (YAML mapping) of ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    raw = copy.deepcopy(WORKLOADS[workload])
    raw["scene"]["source"] = {"kind": "monopole", "position": source_position(seed)}
    if raw["method"] == "HOA":
        # HOA encodes one array, so mirror it with the source: sphere 1 of the
        # linear pair is sphere 0's image across the y = 0 plane.
        raw["hoa"]["sphere_index"] = mirror_index(seed) >> 1 & 1
    return raw
