"""End-to-end experiment execution and output writing."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .basis import num_coeffs
from .config import ExperimentConfig
from .encode import hoa_encoder, mshoa_encoder
from .fields import (
    ground_truth_field,
    reconstruct_field,
    regularization_search,
    sdr_map,
    sphere_mask,
)
from .matio import (
    MatrixFormatError,
    export_matrix,
    import_matrix,
    write_field_csv,
    write_real_csv,
)
from .scatter import (
    ForwardOperator,
    eval_total_field,
    forward_operator,
    forward_solve,
    surface_response_matrix,
)

log = logging.getLogger(__name__)


@dataclass
class RunSummary:
    method: str
    frequency: float
    n_in: int
    n_fwd: int
    n_c: int | None
    sigma: float | None
    ssa: float
    threshold_db: float
    max_sdr_db: float
    mean_sdr_db: float
    wall_time_s: float
    system_rcond: float | None
    config_hash: str
    threads: int | None


def _hoa_run(cfg: ExperimentConfig):
    """Conventional encoding of one array's capsules within the full scene.

    The capsule pressures are the physical capture (all spheres present, full
    multiple scattering); the encoder models only the chosen sphere.
    """
    scene = cfg.scene
    k = scene.k
    if cfg.hoa.sphere_index is not None:
        idx = cfg.hoa.sphere_index
    else:
        idx = int(
            np.argmin([np.linalg.norm(s.center) for s in scene.spheres])
        )
    sphere = scene.spheres[idx]
    truth = ground_truth_field(scene.source, k, cfg.grid)
    mask = sphere_mask(cfg.grid, scene.spheres)

    if scene.num_spheres == 1:
        # lone array: use a generous reference expansion for the capture
        n_ref = cfg.hoa.n_c_max + max(12, int(np.ceil(np.e * k * sphere.radius)))
        a_ref = scene.source.coefficients(k, n_ref, center=sphere.center)
        pressures = surface_response_matrix(sphere, k, n_ref) @ a_ref.values
    else:
        a_in = scene.incident_coeffs()
        sol = forward_solve(scene, a_in)
        pressures = eval_total_field(scene, sol, a_in, sphere.capsule_positions())

    def build(n_c):
        coeffs = hoa_encoder(sphere, k, n_c, cfg.sigma).apply(pressures)
        return coeffs, reconstruct_field(coeffs, k, cfg.grid, center=sphere.center)

    def evaluate(built):
        return sdr_map(built[1], truth, mask=mask, threshold=cfg.threshold_db)

    if cfg.hoa.n_c is not None:
        candidates = [cfg.hoa.n_c]
    else:
        candidates = range(cfg.hoa.n_c_min, cfg.hoa.n_c_max + 1)  # ties go to the smaller n_c
    n_c, (coeffs, estimated), report = regularization_search(candidates, build, evaluate)
    return truth, estimated, report, coeffs, cfg.sigma, n_c, None


def _grid_run(cfg: ExperimentConfig, forward: ForwardOperator):
    """Single-scattering or full multiple-scattering encoding of the true capture."""
    scene = cfg.scene
    k = scene.k
    truth = ground_truth_field(scene.source, k, cfg.grid)
    mask = sphere_mask(cfg.grid, scene.spheres)
    a_in = scene.incident_coeffs()
    pressures = forward.apply(a_in)

    if cfg.method == "Single":
        model = forward_operator(scene, include_coupling=False)
    else:
        model = forward

    def build(sigma):
        return mshoa_encoder(model, sigma).apply(pressures)

    def evaluate(coeffs):
        est = reconstruct_field(coeffs, k, cfg.grid)
        return sdr_map(est, truth, mask=mask, threshold=cfg.threshold_db)

    if cfg.sigma is not None:
        candidates = [cfg.sigma]
    else:
        search = cfg.sigma_search
        scale = np.linalg.norm(model.matrix, 2) ** 2
        grid = scale * np.logspace(
            np.log10(search.min_factor), np.log10(search.max_factor), search.points
        )
        candidates = sorted(grid, reverse=True)  # ties go to the larger, more stable sigma
    sigma, coeffs, report = regularization_search(candidates, build, evaluate)
    estimated = reconstruct_field(coeffs, k, cfg.grid)
    return truth, estimated, report, coeffs, float(sigma), None, model.rcond


def _import_forward(cfg: ExperimentConfig, path) -> ForwardOperator:
    """A previously exported forward operator, checked against the scene's shape."""
    matrix = import_matrix(path)
    expected = (cfg.scene.total_capsules, num_coeffs(cfg.scene.n_in))
    if matrix.shape != expected:
        raise MatrixFormatError(
            f"{path}: forward matrix has shape {matrix.shape}, the scene needs "
            f"{expected} (capsules x incident coefficients)"
        )
    return ForwardOperator(scene=cfg.scene, matrix=matrix, include_coupling=True)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir,
    threads: int | None = None,
    export_forward=None,
    import_forward=None,
    dump_coeffs: bool = False,
) -> RunSummary:
    """Run one configured experiment and write all output artifacts.

    The ``threads`` hint is written to ``summary.json`` but does not influence
    any numeric path, so identical configurations produce bit-identical grids.
    """
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash

    if cfg.method == "HOA":
        truth, estimated, report, coeffs, sigma, n_c, rcond = _hoa_run(cfg)
    else:
        if import_forward is not None:
            forward = _import_forward(cfg, import_forward)
        else:
            forward = forward_operator(cfg.scene, include_coupling=True)
        if export_forward is not None:
            export_matrix(export_forward, forward.matrix)
        truth, estimated, report, coeffs, sigma, n_c, rcond = _grid_run(cfg, forward)

    write_field_csv(out / "ground_truth.csv", truth, chash)
    write_field_csv(out / "estimated.csv", estimated, chash)
    write_real_csv(out / "sdr_map.csv", report.sdr_map, cfg.grid, chash)
    if dump_coeffs:
        export_matrix(out / "coefficients.bin", coeffs.values[None, :])

    unmasked = report.sdr_map if report.mask is None else report.sdr_map[~report.mask]
    summary = RunSummary(
        method=cfg.method,
        frequency=cfg.scene.frequency,
        n_in=cfg.scene.n_in,
        n_fwd=cfg.scene.n_fwd,
        n_c=n_c,
        sigma=sigma,
        ssa=report.ssa,
        threshold_db=cfg.threshold_db,
        max_sdr_db=float(unmasked.max()),
        mean_sdr_db=float(unmasked.mean()),
        wall_time_s=time.perf_counter() - t0,
        system_rcond=None if rcond is None or not np.isfinite(rcond) else float(rcond),
        config_hash=chash,
        threads=threads,
    )
    (out / "summary.json").write_text(json.dumps(asdict(summary), indent=2) + "\n")
    log.info(
        "%s @ %.0f Hz: SSA %.4f m^2 (threshold %.0f dB)",
        cfg.method,
        cfg.scene.frequency,
        report.ssa,
        cfg.threshold_db,
    )
    return summary
