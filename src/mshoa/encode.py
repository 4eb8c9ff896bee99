"""Regularized least-squares encoders: single-sphere, single-scattering, full."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .basis import CoefficientVector, num_coeffs
from .scatter import ForwardOperator, surface_response_matrix
from .scene import RsmaSpec

log = logging.getLogger(__name__)


class EncoderError(RuntimeError):
    """Encoder construction failed (singular normal equations)."""


@dataclass
class Encoder:
    """Ridge-regression map from capsule pressures to expansion coefficients."""

    kind: str  # "HOA", "Single" or "MSHOA"
    matrix: np.ndarray = field(repr=False)
    sigma: float = 0.0
    k: float = 0.0
    n_out: int = 0

    def apply(self, pressures: np.ndarray) -> CoefficientVector:
        pressures = np.asarray(pressures, dtype=complex).reshape(-1)
        if pressures.shape[0] != self.matrix.shape[1]:
            raise ValueError(
                f"expected {self.matrix.shape[1]} capsule pressures, got "
                f"{pressures.shape[0]}"
            )
        return CoefficientVector(k=self.k, n_max=self.n_out, values=self.matrix @ pressures)


def _ridge_inverse(forward: np.ndarray, sigma: float) -> np.ndarray:
    """(F^H F + sigma I)^-1 F^H, with an SVD pseudo-inverse fallback at sigma=0."""
    if sigma < 0:
        raise ValueError("regularization must be non-negative")
    if sigma == 0.0:
        return np.linalg.pinv(forward)
    gram = forward.conj().T @ forward
    gram[np.diag_indices_from(gram)] += sigma
    try:
        return sla.solve(gram, forward.conj().T, assume_a="pos")
    except np.linalg.LinAlgError as exc:
        raise EncoderError(f"normal-equations solve failed: {exc}")


def hoa_encoder(sphere: RsmaSpec, k: float, n_c: int, sigma: float = 0.0) -> Encoder:
    """Conventional encoder for one rigid spherical array."""
    lam = surface_response_matrix(sphere, k, n_c)
    if sphere.num_capsules < num_coeffs(n_c):
        log.warning(
            "encoder underdetermined: %d capsules for %d coefficients",
            sphere.num_capsules,
            num_coeffs(n_c),
        )
    return Encoder(kind="HOA", matrix=_ridge_inverse(lam, sigma), sigma=sigma, k=k, n_out=n_c)


def mshoa_encoder(forward: ForwardOperator, sigma: float) -> Encoder:
    """Encoder inverting the full multiple-scattering forward operator."""
    kind = "MSHOA" if forward.include_coupling else "Single"
    return Encoder(
        kind=kind,
        matrix=_ridge_inverse(forward.matrix, sigma),
        sigma=sigma,
        k=forward.scene.k,
        n_out=forward.scene.n_in,
    )

