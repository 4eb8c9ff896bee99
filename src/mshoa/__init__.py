"""Sound-field capture with grids of acoustically interacting rigid spherical
microphone arrays: multiple-scattering forward modeling, ambisonics encoding,
and sweet-spot evaluation."""

from .scene import IncidentSource, RsmaSpec, SceneConfig
from .scatter import forward_operator, forward_solve
from .encode import hoa_encoder, mshoa_encoder
from .fields import GridSpec, reconstruct_field, sdr_map
from .config import load_config
from .runner import run_experiment

__version__ = "0.1.0"

__all__ = [
    "SceneConfig",
    "RsmaSpec",
    "IncidentSource",
    "forward_operator",
    "forward_solve",
    "mshoa_encoder",
    "hoa_encoder",
    "GridSpec",
    "reconstruct_field",
    "sdr_map",
    "load_config",
    "run_experiment",
]
