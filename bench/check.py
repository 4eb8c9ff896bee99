"""Output check for one benchmark run, independent of the ``mshoa`` package.

A run passes when its artifacts parse, the SDR map is finite and in range,
agrees with the two field grids and reproduces the sweet-spot area reported
in ``summary.json``, the chosen sigma / truncation lies on the search grid,
and SSA, sigma and truncation match the reference recorded for the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SDR_RANGE_DB = (-300.0, 150.0)
DEFAULT_THRESHOLD_DB = 30.0
SIGMA_RTOL = 1e-9
# A reference SSA matches when it differs by at most one pixel.
SSA_REFERENCE_PIXELS = 1


def sphere_centers(scene: dict) -> np.ndarray:
    """Sphere centres of a ``linear`` or ``cartesian`` layout, origin-centred."""
    layout = scene["layout"]
    spacing = float(layout["spacing"])
    if layout["type"] == "linear":
        count = int(layout["count"])
        centers = np.zeros((count, 3))
        axis = "xyz".index(layout.get("axis", "y"))
        centers[:, axis] = (np.arange(count) - (count - 1) / 2.0) * spacing
        return centers
    rows, cols = int(layout["rows"]), int(layout["cols"])
    plane = layout.get("plane", "xy")
    u = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    v = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    uu, vv = np.meshgrid(u, v, indexing="xy")
    centers = np.zeros((rows * cols, 3))
    centers[:, "xyz".index(plane[0])] = uu.ravel()
    centers[:, "xyz".index(plane[1])] = vv.ravel()
    return centers


def pixel_mask(grid: dict, centers: np.ndarray, radius: float) -> np.ndarray:
    """Pixels strictly inside a sphere, shape (rows, cols), for an origin-centred xy grid."""
    if grid.get("plane", "xy") != "xy" or tuple(grid.get("center", (0.0, 0.0))) != (0.0, 0.0):
        raise ValueError("only origin-centred xy grids are supported")
    res = float(grid["resolution"])
    width, height = (float(e) for e in grid["extent"])
    rows, cols = int(round(height / res)), int(round(width / res))
    u = -width / 2.0 + (np.arange(cols) + 0.5) * res
    v = -height / 2.0 + (np.arange(rows) + 0.5) * res
    uu, vv = np.meshgrid(u, v, indexing="xy")
    pts = np.stack([uu.ravel(), vv.ravel(), np.full(uu.size, float(grid.get("normal_offset", 0.0)))], axis=1)
    inside = np.zeros(pts.shape[0], dtype=bool)
    for c in centers:
        inside |= np.linalg.norm(pts - c[None, :], axis=1) < radius
    return inside.reshape(rows, cols)


def read_grid(path: Path, dtype) -> tuple[np.ndarray, list[str]]:
    """A CSV grid with ``#`` header lines; complex entries read as ``re+imj``."""
    header, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line.strip():
            rows.append([dtype(tok) for tok in line.split(",")])
    return np.array(rows, dtype=dtype), header


def sdr_db(estimated: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-pixel SDR with the library's cap, floor and exact-match convention."""
    sig = np.abs(truth) ** 2
    err = np.abs(estimated - truth) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        sdr = 10.0 * np.log10(sig / err)
    sdr = np.where(err == 0.0, SDR_RANGE_DB[1], sdr)
    return np.clip(np.nan_to_num(sdr, nan=SDR_RANGE_DB[0]), *SDR_RANGE_DB)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SIGMA_RTOL * max(abs(a), abs(b))


def check_run(out_dir, raw: dict, search: dict, reference: dict | None) -> list[str]:
    """Problems found in the artifacts of one run of configuration ``raw``.

    ``search`` holds the candidate ``sigma_grid`` and, for HOA, the
    ``n_c_range``; ``reference`` the recorded ``ssa``, ``sigma`` and ``n_c``.
    An empty list means the run passed.
    """
    out = Path(out_dir)
    try:
        summary = json.loads((out / "summary.json").read_text())
        ssa, sigma, n_c, chash = (summary[k] for k in ("ssa", "sigma", "n_c", "config_hash"))
        truth, h_truth = read_grid(out / "ground_truth.csv", complex)
        estimated, h_est = read_grid(out / "estimated.csv", complex)
        sdr, h_sdr = read_grid(out / "sdr_map.csv", float)
    except (OSError, ValueError, KeyError) as exc:
        return [f"artifacts do not parse: {exc!r}"]

    grid, scene = raw["grid"], raw["scene"]
    mask = pixel_mask(grid, sphere_centers(scene), float(scene["radius"]))
    problems = []
    for name, values, header in (
        ("ground_truth.csv", truth, h_truth),
        ("estimated.csv", estimated, h_est),
        ("sdr_map.csv", sdr, h_sdr),
    ):
        if values.shape != mask.shape:
            problems.append(f"{name} has shape {values.shape}, expected {mask.shape}")
        if f"# config={chash}" not in header:
            problems.append(f"{name} header does not carry config hash {chash}")
    if problems:
        return problems

    if not np.all(np.isfinite(sdr)):
        problems.append("sdr_map.csv holds non-finite values")
    elif sdr.min() < SDR_RANGE_DB[0] or sdr.max() > SDR_RANGE_DB[1]:
        problems.append(f"sdr_map.csv leaves {SDR_RANGE_DB} dB: [{sdr.min()}, {sdr.max()}]")
    if not np.allclose(sdr, sdr_db(estimated, truth), rtol=0.0, atol=1e-6):
        problems.append("sdr_map.csv disagrees with the SDR of estimated.csv against ground_truth.csv")

    pixel = float(grid["resolution"]) ** 2
    threshold = float(raw.get("threshold_db", DEFAULT_THRESHOLD_DB))
    recomputed = float(((sdr > threshold) & ~mask).sum()) * pixel
    if abs(recomputed - ssa) > 0.5 * pixel:
        problems.append(f"SSA from sdr_map.csv is {recomputed}, summary.json says {ssa}")

    if sigma is None or not any(_close(sigma, g) if g else sigma == 0.0 for g in search["sigma_grid"]):
        problems.append(f"chosen sigma {sigma} is not on the search grid")
    n_c_range = search.get("n_c_range")
    if n_c_range is None:
        if n_c is not None:
            problems.append(f"unexpected truncation n_c={n_c}")
    elif n_c is None or not n_c_range[0] <= n_c <= n_c_range[1]:
        problems.append(f"chosen n_c={n_c} outside {n_c_range}")

    if reference is not None:
        if abs(ssa - reference["ssa"]) > (SSA_REFERENCE_PIXELS + 0.5) * pixel:
            problems.append(f"SSA {ssa} differs from the reference {reference['ssa']}")
        ref_sigma = reference["sigma"]
        if sigma is None or not (_close(sigma, ref_sigma) if ref_sigma else sigma == 0.0):
            problems.append(f"sigma {sigma} differs from the reference {ref_sigma}")
        if n_c != reference["n_c"]:
            problems.append(f"n_c {n_c} differs from the reference {reference['n_c']}")
    return problems
