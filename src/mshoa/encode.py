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
    """Ridge regression from capsule pressures to the coefficients of a forward model F.

    The Gram matrix FᴴF is formed once.  Each σ > 0 then costs one Cholesky
    factorisation of FᴴF + σI and one solve with the right-hand side Fᴴp
    (Tikhonov normal equations; Hansen, *Rank-Deficient and Discrete
    Ill-Posed Problems*, 1998); σ = 0 is the minimum-norm least-squares
    solution pinv(F) p.  No capsules-to-coefficients matrix is formed.
    """

    kind: str  # "HOA", "Single" or "MSHOA"
    forward: np.ndarray = field(repr=False)  # F, capsules x (n_out+1)^2
    sigma: float = 0.0
    k: float = 0.0
    n_out: int = 0
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("regularization must be non-negative")
        self.gram = self.forward.conj().T @ self.forward

    @property
    def scale(self) -> float:
        """‖F‖₂², the largest eigenvalue of FᴴF: the unit of a σ search grid."""
        size = self.gram.shape[0]
        if size < 3:  # below ARPACK's smallest complex problem
            return float(sla.eigvalsh(self.gram)[-1])
        from scipy.sparse.linalg import eigsh  # ~40 ms to import; only a σ search needs it

        start = np.random.default_rng(0).standard_normal(size)  # reproducible
        return float(eigsh(self.gram, k=1, which="LA", v0=start, tol=0, return_eigenvectors=False)[0])

    def apply(self, pressures: np.ndarray, sigmas=None, n_outs=None) -> CoefficientVector:
        """Coefficients of ``pressures``; an (L, n) block when candidates are listed.

        ``sigmas`` and ``n_outs`` give each candidate's σ and truncation degree
        (one value, or an omitted list, stands for every candidate and defaults
        to the encoder's own).  A degree-n candidate inverts the first (n+1)²
        columns of F, and its column is zero beyond them.
        """
        pressures = np.asarray(pressures, dtype=complex).reshape(-1)
        if pressures.shape[0] != self.forward.shape[0]:
            raise ValueError(
                f"expected {self.forward.shape[0]} capsule pressures, got "
                f"{pressures.shape[0]}"
            )
        listed = sigmas is not None or n_outs is not None
        sigmas, n_outs = np.broadcast_arrays(
            np.atleast_1d(self.sigma if sigmas is None else sigmas).astype(float),
            np.atleast_1d(self.n_out if n_outs is None else n_outs).astype(int),
        )
        if np.any(sigmas < 0):
            raise ValueError("regularization must be non-negative")
        if np.any(n_outs < 0) or np.any(n_outs > self.n_out):
            raise ValueError(f"candidate truncation outside 0..{self.n_out}")
        rhs = (pressures.conj() @ self.forward).conj()  # Fᴴp without a conjugated copy of F
        block = np.zeros((num_coeffs(self.n_out), sigmas.size), dtype=complex)
        for j, (sigma, n) in enumerate(zip(sigmas, n_outs)):
            size = num_coeffs(n)
            if sigma == 0.0:
                block[:size, j] = np.linalg.pinv(self.forward[:, :size]) @ pressures
                continue
            normal = self.gram[:size, :size].copy()
            normal[np.diag_indices(size)] += sigma
            try:
                factor = sla.cho_factor(normal, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise EncoderError(f"normal-equations factorisation failed: {exc}")
            block[:size, j] = sla.cho_solve(factor, rhs[:size], check_finite=False)
        return CoefficientVector(k=self.k, n_max=self.n_out, values=block if listed else block[:, 0])


def hoa_encoder(sphere: RsmaSpec, k: float, n_c: int, sigma: float = 0.0) -> Encoder:
    """Conventional encoder for one rigid spherical array."""
    lam = surface_response_matrix(sphere, k, n_c)
    if sphere.num_capsules < num_coeffs(n_c):
        log.warning(
            "encoder underdetermined: %d capsules for %d coefficients",
            sphere.num_capsules,
            num_coeffs(n_c),
        )
    return Encoder(kind="HOA", forward=lam, sigma=sigma, k=k, n_out=n_c)


def mshoa_encoder(forward: ForwardOperator, sigma: float = 0.0) -> Encoder:
    """Encoder inverting the full (or, uncoupled, the single-scattering) forward operator."""
    kind = "MSHOA" if forward.include_coupling else "Single"
    return Encoder(kind=kind, forward=forward.matrix, sigma=sigma, k=forward.scene.k, n_out=forward.scene.n_in)
