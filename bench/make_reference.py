"""Record the reference results that ``check.py`` compares every run against.

    python3 bench/make_reference.py [WORKLOAD ...]

For each workload (default: all), runs each of the eight seed images once in
a fresh worker and stores its SSA, sigma and n_c, together with the search
grid the chosen sigma / n_c must lie on, in ``reference.json``.  Run it only
when a change is meant to alter the results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from run import REFERENCE, SRC, WORK, launch
from workloads import MIRRORS, WORKLOADS, make_config


def search_space(raw: dict) -> dict:
    """The candidates the runner searches: sigma grid, and n_c range for HOA."""
    if raw["method"] == "HOA":
        hoa = raw["hoa"]
        return {"sigma_grid": [float(raw.get("sigma", 0.0))], "n_c_range": [hoa["n_c_min"], hoa["n_c_max"]]}
    if "sigma" in raw:
        return {"sigma_grid": [float(raw["sigma"])], "n_c_range": None}
    sys.path.insert(0, str(SRC))
    from mshoa import forward_operator
    from mshoa.config import parse_config

    cfg = parse_config(raw)
    scale = np.linalg.norm(forward_operator(cfg.scene).matrix, 2) ** 2
    s = cfg.sigma_search
    grid = scale * np.logspace(np.log10(s.min_factor), np.log10(s.max_factor), s.points)
    return {"sigma_grid": [float(g) for g in grid], "n_c_range": None}


def main(names: list[str]) -> int:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or sorted(WORKLOADS):
        entry = search_space(make_config(name, 0))
        entry["mirrors"] = {}
        work = WORK / name
        work.mkdir(parents=True, exist_ok=True)
        for mirror in range(MIRRORS):
            config = work / f"reference{mirror}.yaml"
            config.write_text(json.dumps(make_config(name, mirror)) + "\n")
            summary = launch(config, work / "out", [], timeout=600.0)["summary"]
            entry["mirrors"][str(mirror)] = summary
            print(name, mirror, summary, flush=True)
        data[name] = entry
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
