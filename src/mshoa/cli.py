"""Command-line experiment runner."""

from __future__ import annotations

import logging
import sys

import click

from .config import ConfigError, load_config
from .encode import EncoderError
from .matio import MatrixFormatError
from .runner import run_experiment
from .scatter import SolverError
from .scene import SceneError


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable info-level logging.")
def main(verbose: bool):
    """Simulate sound-field capture by grids of rigid spherical microphone arrays."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _out_of_memory(exc: MemoryError):
    detail = f" ({exc})" if str(exc) else ""
    click.echo(f"runtime error: out of memory{detail}; try a smaller scene or grid", err=True)
    sys.exit(4)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", default="out", show_default=True, help="Output directory.")
@click.option("--export-forward", type=click.Path(dir_okay=False), default=None,
              help="Write the MSHOA forward operator matrix to this path.")
@click.option("--import-forward", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Reuse a previously exported MSHOA forward operator.")
@click.option("--dump-coeffs", is_flag=True, help="Also write the estimated coefficients.")
def run(config_path, out_dir, export_forward, import_forward, dump_coeffs):
    """Run the experiment described by CONFIG_PATH and write grids + summary."""
    try:
        summary = run_experiment(
            load_config(config_path),
            out_dir,
            export_forward=export_forward,
            import_forward=import_forward,
            dump_coeffs=dump_coeffs,
        )
    except (SceneError, ConfigError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except SolverError as exc:
        click.echo(f"solver error: {exc}", err=True)
        sys.exit(3)
    except (EncoderError, MatrixFormatError, OSError) as exc:  # OSError: a file or directory the run cannot open
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(4)
    except MemoryError as exc:
        _out_of_memory(exc)
    click.echo(
        f"{summary.method} @ {summary.frequency:.0f} Hz: "
        f"SSA {summary.ssa:.4f} m^2 above {summary.threshold_db:.0f} dB "
        f"(max SDR {summary.max_sdr_db:.1f} dB, sigma={summary.sigma}, "
        f"wall {summary.wall_time_s:.1f} s)"
    )


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def validate(config_path):
    """Parse and validate a configuration file without running it."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except MemoryError as exc:  # the checks build every pixel centre of the grid
        _out_of_memory(exc)
    click.echo(
        f"ok: {cfg.method}, {cfg.scene.num_spheres} spheres, "
        f"{cfg.scene.total_capsules} capsules, f={cfg.scene.frequency:.0f} Hz, "
        f"n_in={cfg.scene.n_in}, n_fwd={cfg.scene.n_fwd}, hash={cfg.config_hash}"
    )


if __name__ == "__main__":
    main()
