"""End-to-end experiment execution and output writing."""

from __future__ import annotations

import json
import logging
import resource
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .basis import num_coeffs
from .config import ConfigError, ExperimentConfig
from .encode import Encoder, hoa_encoder, mshoa_encoder
from .fields import (
    ground_truth_field,
    reconstruct_field,
    regularization_search,
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
    _local_incident_block,
    eval_total_field,
    forward_operator,
    forward_solve,
    surface_response_matrix,
)

log = logging.getLogger(__name__)

STAGES = ("forward", "encode", "search", "output")  # the steps of a run, timed in summary.json


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
    stages: dict  # seconds spent in each of STAGES; they add up to wall_time_s
    peak_rss_mb: dict  # the process's peak resident set (MB) so far at the end of each of STAGES
    system_rcond: float | None  # of the coupled scattering system solved; None if none was
    capsule_residual: float | None  # MSHOA's sampled T_F check against the multipole sum; None otherwise
    config_hash: str
    search: dict  # candidates in search order, the SSA of each, the chosen index, at_edge


@dataclass
class _Encoding:
    """A method's encoder, the capture it encodes and the candidates it searches."""

    encoder: Encoder
    pressures: np.ndarray
    n_outs: list | None = None  # truncation candidates (HOA, at the fixed cfg.sigma)
    center: tuple | np.ndarray = (0.0, 0.0, 0.0)  # expansion center of the coefficients
    rcond: float | None = None  # of the coupled scattering system solved, if any
    capsule_residual: float | None = None  # of a T_F built here from the coupled solve


def _full_capture(scene, points, local=None) -> tuple[np.ndarray, float]:
    """Pressure at ``points`` with every sphere present, and the rcond of the coupled solve.

    ``local`` is the scene's local incident block, if already built.
    """
    a_in = scene.incident_coeffs()
    sol = forward_solve(scene, a_in, _local=local)
    return eval_total_field(scene, sol, a_in, points), sol.rcond


def _hoa_encoding(cfg: ExperimentConfig) -> _Encoding:
    """Conventional encoding of one array's capsules within the full scene.

    The capsule pressures are the physical capture (all spheres present, full
    multiple scattering); the encoder models only the chosen sphere.
    """
    scene = cfg.scene
    k = scene.k
    sphere = scene.spheres[cfg.hoa.sphere_index]

    if scene.num_spheres == 1:
        # lone array: use a generous reference expansion for the capture
        n_ref = cfg.hoa.n_c_max + max(12, int(np.ceil(np.e * k * sphere.radius)))
        a_ref = scene.source.coefficients(k, n_ref, center=sphere.center)
        pressures, rcond = surface_response_matrix(sphere, k, n_ref) @ a_ref.values, None
    else:
        pressures, rcond = _full_capture(scene, sphere.capsule_positions())

    candidates = list(range(cfg.hoa.n_c_min, cfg.hoa.n_c_max + 1))  # ties go to the smaller n_c
    # one encoder at the largest n_c: the first (n_c+1)^2 columns of its response are the response at n_c
    encoder = hoa_encoder(sphere, k, cfg.hoa.n_c_max)
    return _Encoding(encoder, pressures, n_outs=candidates, center=sphere.center, rcond=rcond)


def _grid_encoding(cfg: ExperimentConfig, export_forward, import_forward) -> _Encoding:
    """Full multiple-scattering (MSHOA) or single-scattering encoding of the true capture.

    MSHOA reads the capture off the T_F it inverts; Single inverts the
    uncoupled operator, so it takes the capture from one coupled vector solve.
    """
    scene = cfg.scene
    if cfg.method == "MSHOA":
        model = forward_operator(scene) if import_forward is None else _import_forward(cfg, import_forward)
        if export_forward is not None:
            export_matrix(export_forward, model.matrix)
        pressures, rcond = model.apply(scene.incident_coeffs()), model.rcond
    else:  # the capture reads the local incident block that the operator then scales in place
        local = _local_incident_block(scene)
        pressures, rcond = _full_capture(scene, scene.capsule_positions(), local)
        model = forward_operator(scene, include_coupling=False, _local=local)
    return _Encoding(mshoa_encoder(model), pressures, rcond=rcond, capsule_residual=model.capsule_residual)


def _sigma_grid(search, encoder: Encoder) -> list[float]:
    """A search's σ candidates, its factors times ‖F‖₂², largest (most stable) first: ties go to it."""
    grid = encoder.scale * np.logspace(np.log10(search.min_factor), np.log10(search.max_factor), search.points)
    return sorted(map(float, grid), reverse=True)


def _import_forward(cfg: ExperimentConfig, path) -> ForwardOperator:
    """A previously exported forward operator, checked against the scene's shape."""
    matrix = import_matrix(path)
    expected = (cfg.scene.total_capsules, num_coeffs(cfg.scene.n_in))
    if matrix.shape != expected:
        raise MatrixFormatError(
            f"{path}: forward matrix has shape {matrix.shape}, the scene needs "
            f"{expected} (capsules x incident coefficients)"
        )
    return ForwardOperator(scene=cfg.scene, matrix=matrix)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir,
    export_forward=None,
    import_forward=None,
    dump_coeffs: bool = False,
) -> RunSummary:
    """Run one configured experiment and write all output artifacts.

    ``export_forward`` / ``import_forward`` save and reuse MSHOA's forward
    operator T_F; other methods encode with no such matrix and reject them.
    """
    marks, peaks = [time.perf_counter()], []  # the start, then the end of each of STAGES

    def end_stage():
        marks.append(time.perf_counter())
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)  # Linux: KiB

    if cfg.method != "MSHOA" and (export_forward, import_forward) != (None, None):
        raise ConfigError(f"only MSHOA exports or imports a forward operator, not {cfg.method}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash
    scene = cfg.scene

    truth = ground_truth_field(scene.source, scene.k, cfg.grid)
    mask = sphere_mask(cfg.grid, scene.spheres)
    if cfg.method == "HOA":
        enc = _hoa_encoding(cfg)
    else:
        enc = _grid_encoding(cfg, export_forward, import_forward)
    end_stage()

    by_degree = enc.n_outs is not None
    sigmas = [cfg.sigma] if cfg.sigma_search is None else _sigma_grid(cfg.sigma_search, enc.encoder)
    block = enc.encoder.apply(enc.pressures, sigmas=sigmas, n_outs=enc.n_outs)
    candidates = enc.n_outs if by_degree else sigmas
    center, rcond, capsule_residual = enc.center, enc.rcond, enc.capsule_residual
    del enc  # frees the encoder's forward model and Gram before the pixel passes
    end_stage()

    search = regularization_search(
        candidates, block, truth, mask=mask, threshold=cfg.threshold_db, center=center
    )
    coeffs = block.column(search.index, n_max=search.chosen if by_degree else None)
    estimated = reconstruct_field(coeffs, scene.k, cfg.grid, center=center)
    sigma, n_c = (cfg.sigma, search.chosen) if by_degree else (search.chosen, None)
    end_stage()

    write_field_csv(out / "ground_truth.csv", truth, chash)
    write_field_csv(out / "estimated.csv", estimated, chash)
    report = search.report
    write_real_csv(out / "sdr_map.csv", report.sdr_map, cfg.grid, chash)
    if dump_coeffs:
        export_matrix(out / "coefficients.bin", coeffs.values[None, :])
    end_stage()

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
        wall_time_s=marks[-1] - marks[0],
        stages={stage: end - start for stage, start, end in zip(STAGES, marks, marks[1:])},
        peak_rss_mb=dict(zip(STAGES, peaks)),
        system_rcond=rcond,
        capsule_residual=capsule_residual,
        config_hash=chash,
        search={
            "candidates": search.candidates,
            "ssa": search.ssa,
            "index": search.index,
            "at_edge": search.at_edge,
        },
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
