"""Regularized least-squares encoders: single-sphere, single-scattering, full."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import zhemv, zherk

from .basis import CoefficientVector, num_coeffs
from .scatter import ForwardOperator, surface_response_matrix
from .scene import RsmaSpec

log = logging.getLogger(__name__)


class EncoderError(RuntimeError):
    """Encoding failed: singular normal equations or an SVD that did not converge."""


@dataclass
class Encoder:
    """Ridge regression from capsule pressures to the coefficients of a forward model F.

    A σ > 0 candidate of degree n inverts F_s, the first s = (n+1)² columns of
    F, on the smaller side of its Tikhonov normal equations (Hansen,
    *Rank-Deficient and Discrete Ill-Posed Problems*, 1998):
    (F_sᴴF_s + σI)⁻¹F_sᴴp, or, when F_s has fewer rows (capsules) than
    columns, the same estimate F_sᴴ(F_sF_sᴴ + σI)⁻¹p by the push-through
    identity (Golub & Van Loan, *Matrix Computations*, §6.1).  Each Gram is
    formed once, on first use, by one Hermitian rank-k update, and each σ then
    costs one Cholesky factorisation.  σ = 0 is the minimum-norm least-squares
    solution pinv(F_s) p and forms no Gram.  No capsules-to-coefficients
    matrix is formed.
    """

    forward: np.ndarray = field(repr=False)  # F, capsules x (n_out+1)^2
    k: float
    # conj(F_sᴴF_s) under None, s the largest primal size asked for so far;
    # conj(F_sF_sᴴ) under s for a dual s; upper triangles only
    _grams: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_out(self) -> int:
        """The truncation degree of F's coefficients: F has (n_out+1)² columns."""
        return math.isqrt(self.forward.shape[1]) - 1

    def _gram(self, size: int) -> tuple[bool, np.ndarray]:
        """Whether F_s = F[:, :size] is solved on its dual side, and that side's Gram.

        The one place the side is chosen: dual when F_s has fewer rows than
        columns.  The primal Gram is formed at the first size asked for and
        sliced for smaller ones, so a caller asks for its largest first.
        Both Grams are conjugated, because ``zherk`` reads F's row-major
        memory as the column-major Fᵀ without a copy; only their upper
        triangles are filled.
        """
        f_s = self.forward[:, :size]
        if self.forward.shape[0] < size:
            if size not in self._grams:  # conj(F_s) F_sᵀ
                self._grams[size] = zherk(1.0, f_s.T, trans=2)
            return True, self._grams[size]
        if len(self._grams.get(None, ())) < size:  # F_sᵀ conj(F_s)
            self._grams[None] = zherk(1.0, f_s.T, trans=0)
        return False, self._grams[None][:size, :size]

    @property
    def scale(self) -> float:
        """‖F‖₂², the largest eigenvalue of FᴴF and of FFᴴ: the unit of a σ search grid."""
        _, gram = self._gram(self.forward.shape[1])  # the Gram a full-degree σ > 0 solve uses
        size = gram.shape[0]
        if size < 3:  # below ARPACK's smallest complex problem
            return float(sla.eigvalsh(gram, lower=False)[-1])
        from scipy.sparse.linalg import LinearOperator, eigsh  # ~40 ms to import; only a σ search needs it

        hermitian = LinearOperator(gram.shape, matvec=lambda x: zhemv(1.0, gram, x), dtype=complex)
        start = np.random.default_rng(0).standard_normal(size)  # reproducible
        return float(eigsh(hermitian, k=1, which="LA", v0=start, tol=0, return_eigenvectors=False)[0])

    def apply(self, pressures: np.ndarray, sigmas, n_outs=None) -> CoefficientVector:
        """Coefficients of ``pressures``: an (L, n) block, one column per candidate.

        ``sigmas`` and ``n_outs`` give each candidate's σ and truncation degree
        (one value stands for every candidate; ``n_outs`` defaults to the
        encoder's own).  A degree-n candidate inverts the first (n+1)² columns
        of F, and its column is zero beyond them.
        """
        pressures = np.asarray(pressures, dtype=complex).reshape(-1)
        if pressures.shape[0] != self.forward.shape[0]:
            raise ValueError(
                f"expected {self.forward.shape[0]} capsule pressures, got "
                f"{pressures.shape[0]}"
            )
        n_out = self.n_out
        sigmas, n_outs = np.broadcast_arrays(
            np.atleast_1d(sigmas).astype(float),
            np.atleast_1d(n_out if n_outs is None else n_outs).astype(int),
        )
        if np.any(sigmas < 0):
            raise ValueError("regularization must be non-negative")
        if np.any(n_outs < 0) or np.any(n_outs > n_out):
            raise ValueError(f"candidate truncation outside 0..{n_out}")
        conj_p = pressures.conj()
        block = np.zeros((num_coeffs(n_out), sigmas.size), dtype=complex)
        for j in np.argsort(-n_outs, kind="stable"):  # largest degree first: see _gram
            sigma, size = sigmas[j], num_coeffs(n_outs[j])
            f_s = self.forward[:, :size]
            if sigma == 0.0:
                try:
                    block[:size, j] = np.linalg.pinv(f_s) @ pressures
                except np.linalg.LinAlgError as exc:  # e.g. a forward model holding nan from overflowed h_n
                    raise EncoderError(f"pseudo-inverse failed: {exc}")
                continue
            dual, gram = self._gram(size)
            normal = np.array(gram, order="F")
            normal[np.diag_indices(normal.shape[0])] += sigma
            try:
                factor = sla.cho_factor(normal, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise EncoderError(f"normal-equations factorisation failed: {exc}")
            # the Grams are conjugated, so each solve runs on conjugates: conj(x) = Fᵀ conj(y), etc.
            if dual:
                conj_x = sla.cho_solve(factor, conj_p, check_finite=False) @ f_s
            else:
                conj_x = sla.cho_solve(factor, conj_p @ f_s, check_finite=False)
            block[:size, j] = conj_x.conj()
            del normal, factor  # so the next candidate's copy of the Gram does not coexist with this one
        return CoefficientVector(k=self.k, n_max=n_out, values=block)


def hoa_encoder(sphere: RsmaSpec, k: float, n_c: int) -> Encoder:
    """Conventional encoder for one rigid spherical array."""
    lam = surface_response_matrix(sphere, k, n_c)
    if sphere.num_capsules < num_coeffs(n_c):
        log.warning(
            "encoder underdetermined: %d capsules for %d coefficients",
            sphere.num_capsules,
            num_coeffs(n_c),
        )
    return Encoder(forward=lam, k=k)


def mshoa_encoder(forward: ForwardOperator) -> Encoder:
    """Encoder inverting the full (or, uncoupled, the single-scattering) forward operator."""
    return Encoder(forward=forward.matrix, k=forward.scene.k)
