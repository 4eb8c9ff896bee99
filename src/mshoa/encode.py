"""Regularized least-squares encoders: single-sphere, single-scattering, full."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import zhemv, zherk

from .basis import CoefficientVector, num_coeffs
from .scatter import ForwardOperator, _timed, surface_response_matrix
from .scene import RsmaSpec

log = logging.getLogger(__name__)

PANEL = 64  # Gram columns copied to the lower triangle per step
ENCODE_PARTS = ("gram", "scale", "solves")  # the timed parts of the encode stage


class EncoderError(RuntimeError):
    """Encoding failed: singular normal equations or an SVD that did not converge."""


@dataclass
class DenseModel:
    """A forward model F held as its matrix: HOA's surface response, or an imported T_F.

    Its columns are in the standard (n, m) order, so its first (n+1)²
    columns are the model at degree n.
    """

    matrix: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def apply(self, coeffs: CoefficientVector) -> np.ndarray:
        """F a: the pressures of incident coefficients ``coeffs``."""
        return self.matrix @ coeffs.values

    def gram(self, size: int, dual: bool) -> np.ndarray:
        """conj(F_sᴴF_s), or conj(F_sF_sᴴ) when ``dual``, of F_s = F[:, :size], in the upper triangle of a Fortran-ordered array.

        One Hermitian rank-k update forms it: ``zherk`` reads F's row-major
        memory as the column-major Fᵀ without a copy, hence the conjugates.
        """
        return zherk(1.0, self.matrix[:, :size].T, trans=2 if dual else 0)

    def adjoint(self, y: np.ndarray, size: int) -> np.ndarray:
        """F_sᴴ y, for F_s = F[:, :size]."""
        return (y.conj() @ self.matrix[:, :size]).conj()

    def to_standard(self, x: np.ndarray) -> np.ndarray:
        """``x`` itself: the model's columns are in the standard order."""
        return x


@dataclass
class Encoder:
    """Ridge regression from capsule pressures to the coefficients of a forward model F.

    A σ > 0 candidate of degree n inverts F_s, the first s = (n+1)² columns of
    F, on the smaller side of its Tikhonov normal equations (Hansen,
    *Rank-Deficient and Discrete Ill-Posed Problems*, 1998):
    (F_sᴴF_s + σI)⁻¹F_sᴴp, or, when F_s has fewer rows (capsules) than
    columns, the same estimate F_sᴴ(F_sF_sᴴ + σI)⁻¹p by the push-through
    identity (Golub & Van Loan, *Matrix Computations*, §6.1).  The model
    ``forward`` supplies the Gram of either side, conjugated and in the
    upper triangle of a Fortran-ordered array, and F_sᴴy, both in its own
    column basis, and maps a solution from that basis to the standard
    (n, m) order: a :class:`DenseModel` from its matrix, a
    :class:`~mshoa.scatter.ForwardOperator` from its mirror-class factors,
    whole-degree only.  Each Gram is formed once, on first use, and each σ
    then costs one Cholesky factorisation in the Gram's own memory: the
    lower triangle and the diagonal take the shifted matrix and then its
    factor, and the diagonal is restored, so the upper triangle always holds
    the Gram and no copy of it is made.  σ = 0 is the minimum-norm
    least-squares solution pinv(F_s) p of F's matrix and forms no Gram.  No
    capsules-to-coefficients matrix is formed.  ``parts`` gathers the
    seconds spent per :data:`ENCODE_PARTS`.
    """

    forward: DenseModel | ForwardOperator = field(repr=False)  # F, capsules x (n_out+1)^2
    k: float
    parts: dict = field(default_factory=lambda: dict.fromkeys(ENCODE_PARTS, 0.0), init=False)
    # conj(F_sᴴF_s) under None, s the largest primal size asked for so far;
    # conj(F_sF_sᴴ) under s for a dual s; in the upper triangles, the lower ones are scratch
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
        """
        dual = self.forward.shape[0] < size
        key = size if dual else None
        if key not in self._grams or not dual and len(self._grams[key]) < size:
            with _timed(self.parts, "gram", "encode"):
                self._grams[key] = self.forward.gram(size, dual)
        gram = self._grams[key]
        return dual, gram if dual else gram[:size, :size]

    @property
    def scale(self) -> float:
        """‖F‖₂², the largest eigenvalue of FᴴF and of FFᴴ: the unit of a σ search grid."""
        _, gram = self._gram(self.forward.shape[1])  # the Gram a full-degree σ > 0 solve uses
        size = gram.shape[0]
        with _timed(self.parts, "scale", "encode"):
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
        order = np.argsort(-n_outs, kind="stable")  # largest degree first: see _gram
        for j in order[sigmas[order] > 0]:
            self._gram(num_coeffs(n_outs[j]))
        conj_p = pressures.conj()
        block = np.zeros((num_coeffs(n_out), sigmas.size), dtype=complex)
        with _timed(self.parts, "solves", "encode"):
            for j in order:
                sigma, size = sigmas[j], num_coeffs(n_outs[j])
                if sigma == 0.0:
                    try:
                        block[:size, j] = np.linalg.pinv(self.forward.matrix[:, :size]) @ pressures
                    except np.linalg.LinAlgError as exc:  # e.g. a forward model holding nan from overflowed h_n
                        raise EncoderError(f"pseudo-inverse failed: {exc}")
                    continue
                dual, gram = self._gram(size)
                diagonal = gram.diagonal().copy()
                try:
                    shifted = _shifted_lower(gram, diagonal + sigma)
                    factor = sla.cho_factor(shifted, lower=True, overwrite_a=True, check_finite=False)
                    # the Grams are conjugated, so each solve runs on conjugates: conj(x) = conj(Gram)⁻¹ conj(Fᴴp), etc.
                    if dual:
                        x = self.forward.adjoint(sla.cho_solve(factor, conj_p, check_finite=False).conj(), size)
                    else:
                        x = sla.cho_solve(factor, self.forward.adjoint(pressures, size).conj(), check_finite=False).conj()
                except np.linalg.LinAlgError as exc:
                    raise EncoderError(f"normal-equations factorisation failed: {exc}")
                finally:
                    np.fill_diagonal(gram, diagonal)  # the upper triangle is the Gram again
                block[:size, j] = self.forward.to_standard(x)
        return CoefficientVector(k=self.k, n_max=n_out, values=block)


def _shifted_lower(gram: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """``gram`` with its lower triangle made the conjugate of its upper one and ``diagonal`` on its diagonal, in place.

    The copy runs in panels of PANEL columns, so its temporaries stay small;
    the upper triangle is only read.
    """
    size = len(gram)
    for first in range(0, size, PANEL):
        last = min(first + PANEL, size)
        gram[last:, first:last] = gram[first:last, last:].conj().T
        corner, below = gram[first:last, first:last], np.tril_indices(last - first, -1)
        corner[below] = corner.T[below].conj()
    np.fill_diagonal(gram, diagonal)
    return gram


def hoa_encoder(sphere: RsmaSpec, k: float, n_c: int) -> Encoder:
    """Conventional encoder for one rigid spherical array."""
    lam = surface_response_matrix(sphere, k, n_c)
    if sphere.num_capsules < num_coeffs(n_c):
        log.warning(
            "encoder underdetermined: %d capsules for %d coefficients",
            sphere.num_capsules,
            num_coeffs(n_c),
        )
    return Encoder(forward=DenseModel(lam), k=k)


def mshoa_encoder(forward: ForwardOperator) -> Encoder:
    """Encoder inverting the full (or, for Single, the uncoupled) forward operator, from its factors."""
    return Encoder(forward=forward, k=forward.scene.k)
