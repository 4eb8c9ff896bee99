"""End-to-end experiment execution and output writing."""

from __future__ import annotations

import json
import logging
import resource
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .basis import CoefficientVector, num_coeffs
from .config import ExperimentConfig
from .encode import ENCODE_PARTS, DenseModel, Encoder, hoa_encoder, mshoa_encoder, log as encode_log
from .fields import (
    ground_truth_field,
    reconstruct_field,
    regularization_search,
    sphere_mask,
)
from .matio import export_matrix, write_field_csv, write_real_csv
from .scatter import (
    FORWARD_PARTS,
    _timed,
    eval_total_field,
    forward_operator,
    forward_solve,
    log as scatter_log,
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
    forward_parts: dict  # seconds of the forward stage spent in each of FORWARD_PARTS
    encode_parts: dict  # seconds of the encode stage spent in each of ENCODE_PARTS
    cg: list | None  # per candidate in search order: its CG's iterations and final relative residual, or None; None if no CG ran
    peak_rss_mb: dict  # the process's peak resident set (MB) so far at the end of each of STAGES
    system_rcond: float | None  # of the coupled scattering system solved, as its mirror classes; None if none was
    system_blocks: list | None  # the sizes of its mirror-class blocks; None if no system was solved
    capsule_residual: float | None  # MSHOA's and Single's sampled capture check against the multipole sum; None otherwise
    config_hash: str
    search: dict  # candidates in search order, the SSA of each, the chosen index, at_edge


@dataclass
class _Encoding:
    """A method's encoder, the capture it encodes and the candidates it searches."""

    encoder: Encoder
    pressures: np.ndarray
    n_cs: list | None = None  # HOA's truncation candidates, at the fixed cfg.sigma; the encoder's is the largest
    center: tuple | np.ndarray = (0.0, 0.0, 0.0)  # expansion center of the coefficients
    rcond: float | None = None  # of the coupled scattering system solved, if any
    blocks: list | None = None  # the sizes of that system's mirror-class blocks
    capsule_residual: float | None = None  # MSHOA's and Single's capture check against the multipole sum


def _hoa_encoding(cfg: ExperimentConfig, parts=None) -> _Encoding:
    """Conventional encoding of one array's capsules within the full scene.

    The capsule pressures are the physical capture (all spheres present, full
    multiple scattering): one coupled vector solve, then the multipole sum at
    the array's capsules.  The encoder models only the chosen sphere.
    """
    scene = cfg.scene
    k = scene.k
    sphere = scene.spheres[cfg.hoa.sphere_index]

    if scene.num_spheres == 1:
        n_ref = cfg.hoa_degree  # lone array: a generous reference expansion for the capture
        with _timed(parts, "capsule"):
            a_ref = scene.source.coefficients(k, n_ref, center=sphere.center)
            pressures, rcond, blocks = surface_response_matrix(sphere, k, n_ref) @ a_ref.values, None, None
    else:
        a_in = scene.incident_coeffs()
        radiating, rcond, mirror = forward_solve(scene, a_in, _parts=parts)
        blocks = [cls.size for cls in mirror.classes]
        with _timed(parts, "capsule"):
            pressures = eval_total_field(scene, radiating, a_in, sphere.capsule_positions())

    candidates = list(range(cfg.hoa.n_c_min, cfg.hoa.n_c_max + 1))  # ties go to the smaller n_c
    with _timed(parts, "capsule"):
        encoder = hoa_encoder(sphere, k, cfg.hoa.n_c_max)
    return _Encoding(encoder, pressures, n_cs=candidates, center=sphere.center, rcond=rcond, blocks=blocks)


def _grid_encoding(cfg: ExperimentConfig, parts=None) -> _Encoding:
    """Full multiple-scattering (MSHOA) or single-scattering encoding of the true capture.

    Both encode the capture Lambda_s (c a)_s that the build of the T_F they
    invert reads off its factors: MSHOA's coupled T_F holds the solved c,
    and Single's uncoupled one takes c a from one coupled vector solve.
    """
    model = forward_operator(cfg.scene, include_coupling=cfg.method == "MSHOA", _parts=parts)
    return _Encoding(
        mshoa_encoder(model),
        model.capture,
        rcond=model.rcond,
        blocks=[cls.size for cls in model.mirror.classes],
        capsule_residual=model.capsule_residual,
    )


def _truncation_block(enc: _Encoding, sigma: float) -> tuple[CoefficientVector, dict]:
    """HOA's n_c candidates at ``sigma``, one column each, and the encode parts they spent.

    Each candidate is an encoder of the first (n_c+1)^2 columns of the
    encoder's column-major response (at the largest n_c), a view that its
    Gram reads in place, dropped with that Gram before the next; the largest
    degree runs first, so an overflowed degree fails at once and the search
    peaks there.
    """
    response, parts = enc.encoder.forward.matrix, dict.fromkeys(ENCODE_PARTS, 0.0)
    block = np.zeros((response.shape[1], len(enc.n_cs)), dtype=complex)
    for j, n_c in reversed(list(enumerate(enc.n_cs))):
        encoder = Encoder(forward=DenseModel(response[:, : num_coeffs(n_c)]), k=enc.encoder.k)
        block[: num_coeffs(n_c), j] = encoder.apply(enc.pressures, sigma).values[:, 0]
        parts = {part: seconds + encoder.parts[part] for part, seconds in parts.items()}
        del encoder
    return CoefficientVector(k=enc.encoder.k, n_max=enc.encoder.n_out, values=block), parts


def _sigma_grid(search, encoder: Encoder) -> list[float]:
    """A search's σ candidates, its factors times ‖F‖₂², largest (most stable) first: ties go to it."""
    grid = encoder.scale * np.logspace(np.log10(search.min_factor), np.log10(search.max_factor), search.points)
    return sorted(map(float, grid), reverse=True)


def run_experiment(cfg: ExperimentConfig, out_dir, dump_coeffs: bool = False) -> RunSummary:
    """Run one configured experiment and write all output artifacts.

    ``dump_coeffs`` also writes the chosen coefficients to
    ``coefficients.bin``.  A capture check below ``threshold_db``,
    -20 log10 ``capsule_residual``, logs a warning.
    """
    marks, peaks = [time.perf_counter()], []  # the start, then the end of each of STAGES

    def end_stage(parts=None, logger=log):  # logs each part of the stage, with its total, under ``logger``
        marks.append(time.perf_counter())
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)  # Linux: KiB
        stage = STAGES[len(peaks) - 1]
        for name, seconds in (parts or {}).items():
            logger.info("%s %s: %.3f s", stage, name, seconds)
        log.info("stage %s: %.3f s, peak RSS %.1f MB", stage, marks[-1] - marks[-2], peaks[-1])

    scene = cfg.scene
    mask = sphere_mask(cfg.grid, scene.spheres)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash

    parts = dict.fromkeys(FORWARD_PARTS, 0.0)
    if cfg.method == "HOA":
        enc = _hoa_encoding(cfg, parts)
    else:
        enc = _grid_encoding(cfg, parts)
    end_stage(parts, scatter_log)
    if enc.capsule_residual is not None and enc.capsule_residual > 10.0 ** (-cfg.threshold_db / 20):
        log.warning("the capture check reads %.1f dB (capsule_residual %.3g), below the %.0f dB SDR threshold",
                    -20 * np.log10(enc.capsule_residual), enc.capsule_residual, cfg.threshold_db)

    by_degree = enc.n_cs is not None
    if by_degree:
        candidates, cg, (block, encode_parts) = enc.n_cs, [], _truncation_block(enc, cfg.sigma)
    else:
        candidates = [cfg.sigma] if cfg.sigma_search is None else _sigma_grid(cfg.sigma_search, enc.encoder)
        block, encode_parts, cg = enc.encoder.apply(enc.pressures, candidates), enc.encoder.parts, enc.encoder.cg
    center, rcond, blocks, capsule_residual = enc.center, enc.rcond, enc.blocks, enc.capsule_residual
    del enc  # frees the encoder's forward model and Gram or class blocks before the pixel passes
    end_stage(encode_parts, encode_log)

    truth = ground_truth_field(scene.source, scene.k, cfg.grid)
    search = regularization_search(
        candidates, block, truth, mask=mask, threshold=cfg.threshold_db, center=center
    )
    coeffs = block.column(search.index, n_max=search.chosen if by_degree else None)
    estimated = reconstruct_field(coeffs, cfg.grid, center=center)
    sigma, n_c = (cfg.sigma, search.chosen) if by_degree else (search.chosen, None)
    end_stage()

    write_field_csv(out / "ground_truth.csv", truth, chash)
    write_field_csv(out / "estimated.csv", estimated, chash)
    report = search.report
    write_real_csv(out / "sdr_map.csv", report.sdr_map, cfg.grid, chash)
    if dump_coeffs:
        export_matrix(out / "coefficients.bin", coeffs.values[None, :])
    end_stage()

    unmasked = report.sdr_map[~mask]
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
        forward_parts=parts,
        encode_parts=encode_parts,
        cg=cg if any(cg) else None,
        peak_rss_mb=dict(zip(STAGES, peaks)),
        system_rcond=rcond,
        system_blocks=blocks,
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
