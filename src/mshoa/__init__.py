"""Sound-field capture with grids of acoustically interacting rigid spherical
microphone arrays: multiple-scattering forward modeling, ambisonics encoding,
and sweet-spot evaluation."""

from .basis import CoefficientVector, pack_index, sph_harm, unpack_index
from .config import ExperimentConfig, load_config, validate_config
from .encode import Encoder, hoa_encoder, mshoa_encoder
from .fields import FieldGrid, GridSpec, SdrReport, ground_truth_field, reconstruct_field, sdr_map
from .runner import RunSummary, run_experiment
from .scatter import ForwardOperator, ScatterSolution, forward_operator, forward_solve
from .scene import IncidentSource, RsmaSpec, SceneConfig, fibonacci_grid
from .translation import TranslationMatrix, rr_translation, sr_translation

__version__ = "0.1.0"

__all__ = [
    "CoefficientVector",
    "Encoder",
    "ExperimentConfig",
    "FieldGrid",
    "ForwardOperator",
    "GridSpec",
    "IncidentSource",
    "RsmaSpec",
    "RunSummary",
    "ScatterSolution",
    "SceneConfig",
    "SdrReport",
    "TranslationMatrix",
    "fibonacci_grid",
    "forward_operator",
    "forward_solve",
    "ground_truth_field",
    "hoa_encoder",
    "load_config",
    "mshoa_encoder",
    "pack_index",
    "reconstruct_field",
    "rr_translation",
    "run_experiment",
    "sdr_map",
    "sph_harm",
    "sr_translation",
    "unpack_index",
    "validate_config",
]
