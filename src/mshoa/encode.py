"""Regularized least-squares encoders: single-sphere, single-scattering, full."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import zhemv, zherk
from scipy.linalg.lapack import zpotrf as potrf, zpotrs as potrs

from .basis import CoefficientVector, num_coeffs
from .scatter import ForwardOperator, _timed, surface_response_matrix
from .scene import RsmaSpec

log = logging.getLogger(__name__)

PANEL = 64  # Gram columns copied to the lower triangle per step
CG_TOL = 2e-15  # a CG solve stops at ‖r‖ ≤ CG_TOL ‖Fᴴp‖
CG_MAX_ITERATIONS = 500  # a CG solve that has not stopped by then fails
# A scale whose Lanczos has not stopped by then fails.  The most steps taken on
# any of configs/ is 93 (cartesian9_single, where ARPACK took 111 products).
# Spectra piled up at the top (uniform or sqrt density, the top pair 0 to 1e-10
# apart) take up to 212, 406 and 560 steps at sizes 300, 1000 and 2116.  At the
# cap the basis holds 1000 x 2116 complex, 34 MB, half of cartesian9's Gram.
LANCZOS_MAX_STEPS = 1000
ENCODE_PARTS = ("gram", "scale", "solves")  # the timed parts of the encode stage


class EncoderError(RuntimeError):
    """Encoding failed: singular normal equations, an SVD, or a CG or Lanczos that did not converge."""


@dataclass
class DenseModel:
    """A forward model F held as its matrix: HOA's surface response (or its leading columns), or an imported T_F."""

    matrix: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def gram(self) -> np.ndarray:
        """The Gram of F's side, in the upper triangle of a Fortran-ordered array: conj(FFᴴ) if F has fewer
        rows than columns (the encoder's dual side), else conj(FᴴF).

        One Hermitian rank-k update forms it from F's memory as it lies, with
        no copy of F: ``zherk`` reads a row-major F as the column-major Fᵀ,
        whose update is the conjugate, and a column-major F (HOA's response,
        each leading block of whose columns is column-major too) as itself,
        whose update is then conjugated in place.
        """
        primal = self.shape[0] >= self.shape[1]
        if self.matrix.flags.c_contiguous:
            return zherk(1.0, self.matrix.T, trans=0 if primal else 2)
        gram = zherk(1.0, self.matrix, trans=2 if primal else 0)
        return np.conjugate(gram, out=gram)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Fᴴ y."""
        return (y.conj() @ self.matrix).conj()

    def to_standard(self, x: np.ndarray) -> np.ndarray:
        """``x`` itself: the model's columns are in the standard order."""
        return x


@dataclass
class Encoder:
    """Ridge regression from capsule pressures to the coefficients of a forward model F.

    A σ > 0 candidate solves F's Tikhonov normal equations (Hansen,
    *Rank-Deficient and Discrete Ill-Posed Problems*, 1998):
    x = (FᴴF + σI)⁻¹Fᴴp, on the smaller side of F.  When F has fewer rows
    (capsules) than columns (:attr:`_dual`) it is solved as the same
    estimate Fᴴ(FFᴴ + σI)⁻¹p by the push-through identity (Golub & Van
    Loan, *Matrix Computations*, §6.1), which keeps it in F's row space:
    the primal side would carry the rounding of Fᴴp along F's null space,
    times 1/σ.  A :class:`DenseModel` on either side, and a
    :class:`~mshoa.scatter.ForwardOperator` on its dual side, take one
    Cholesky factorisation per σ of that side's Gram, formed on first use,
    conjugated and in the upper triangle of a Fortran-ordered array, and
    solve it against p or Fᴴp, formed once per :meth:`apply`; each
    factorisation runs in its lower triangle, whose diagonal is then
    restored, so no copy of the Gram is made.  A ForwardOperator on its
    primal side forms no Gram: conjugate gradients solve the normal
    equations in its column basis, each product FᴴF v taken through its
    factors, preconditioned by the diagonal class blocks of FᴴF, each
    Cholesky-factored per σ (block Jacobi: Concus, Golub & Meurant, SIAM J.
    Sci. Stat. Comput. 6, 1985).  Its candidates run in descending σ, each
    started from the last one's solution, until ‖r‖ ≤ :data:`CG_TOL` ‖Fᴴp‖;
    past :data:`CG_MAX_ITERATIONS` the solve fails.  ``cg`` holds, per
    candidate of the last :meth:`apply`, the iterations and the final
    relative residual of its CG, None for a candidate solved otherwise.
    σ = 0 is the minimum-norm least-squares solution pinv(F) p of F's
    matrix and forms no Gram.  No capsules-to-coefficients matrix is
    formed.  ``parts`` gathers the seconds spent per :data:`ENCODE_PARTS`.
    """

    forward: DenseModel | ForwardOperator = field(repr=False)  # F, capsules x (n_out+1)^2
    k: float
    parts: dict = field(default_factory=lambda: dict.fromkeys(ENCODE_PARTS, 0.0), init=False)
    cg: list = field(default_factory=list, init=False)
    # (block, diagonal) pairs: the one Gram a Cholesky solve factors, or CG's class blocks (upper
    # triangle; the lower one is scratch); None until first used (see _normal)
    _normal_matrices: list | None = field(default=None, init=False, repr=False)

    @property
    def n_out(self) -> int:
        """The truncation degree of F's coefficients: F has (n_out+1)² columns."""
        return math.isqrt(self.forward.shape[1]) - 1

    @property
    def _dual(self) -> bool:
        """Whether F is solved on its dual side: it has fewer rows (capsules) than columns."""
        return self.forward.shape[0] < self.forward.shape[1]

    @property
    def _iterative(self) -> bool:
        """Whether F is solved by CG: a ForwardOperator on its primal side."""
        return isinstance(self.forward, ForwardOperator) and not self._dual

    def _normal(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """What the σ > 0 solves factor, with their diagonals, formed on first use: for CG, the diagonal class
        blocks G_kk of FᴴF; otherwise the model's one Gram of F's side, conj(FFᴴ) or, on a DenseModel's primal
        side, conj(FᴴF).  :func:`_factored` factors a block plus σI in its lower triangle."""
        if self._normal_matrices is None:
            with _timed(self.parts, "gram"):
                if self._iterative:
                    grams = self.forward.class_grams()
                else:
                    grams = [self.forward.gram()]
                self._normal_matrices = [(gram, gram.diagonal().copy()) for gram in grams]
        return self._normal_matrices

    @property
    def scale(self) -> float:
        """‖F‖₂², the largest eigenvalue of FᴴF and of FFᴴ: the unit of a σ search grid.

        :func:`largest_eigenvalue` of the Gram of the side a σ > 0 solve
        uses, by ``zhemv``, or, for CG, of the product FᴴF v through the factors.
        """
        if self._iterative:
            size, product = self.forward.shape[1], self.forward.normal
        else:
            gram = self._normal()[0][0]
            size, product = len(gram), lambda x: zhemv(1.0, gram, x)
        with _timed(self.parts, "scale"):
            return largest_eigenvalue(product, size)

    def apply(self, pressures: np.ndarray, sigmas) -> CoefficientVector:
        """Coefficients of ``pressures`` at each σ of ``sigmas`` (one value or several): one column per σ."""
        pressures = np.asarray(pressures, dtype=complex).reshape(-1)
        if pressures.shape[0] != self.forward.shape[0]:
            raise ValueError(
                f"expected {self.forward.shape[0]} capsule pressures, got "
                f"{pressures.shape[0]}"
            )
        sigmas = np.atleast_1d(sigmas).astype(float)
        if np.any(sigmas < 0):
            raise ValueError("regularization must be non-negative")
        regularized = np.any(sigmas > 0)
        if regularized:
            self._normal()
        self.cg = [None] * sigmas.size
        block = np.empty((self.forward.shape[1], sigmas.size), dtype=complex)
        with _timed(self.parts, "solves"):
            if regularized:  # the side's right-hand side, p or Fᴴp, for every σ > 0
                rhs = pressures if self._dual else self.forward.adjoint(pressures)
                x = np.zeros_like(rhs) if self._iterative else None
            for j in np.argsort(-sigmas, kind="stable"):  # largest σ first: each CG starts from the last solution
                sigma = sigmas[j]
                if sigma == 0.0:
                    try:
                        block[:, j] = np.linalg.pinv(self.forward.matrix) @ pressures
                    except np.linalg.LinAlgError as exc:  # e.g. a forward model holding nan from overflowed h_n
                        raise EncoderError(f"pseudo-inverse failed: {exc}")
                elif self._iterative:
                    x, iterations, residual = self._cg(rhs, sigma, x)
                    self.cg[j] = {"iterations": iterations, "residual": residual}
                    log.info("CG at sigma %.6e: %d iterations, relative residual %.2e", sigma, iterations, residual)
                    block[:, j] = self.forward.to_standard(x)
                else:
                    block[:, j] = self.forward.to_standard(self._cholesky(rhs, sigma))
        return CoefficientVector(k=self.k, n_max=self.n_out, values=block)

    def _cholesky(self, rhs: np.ndarray, sigma: float) -> np.ndarray:
        """The solution at σ > 0 for the side's ``rhs`` (p or Fᴴp) by one Cholesky factorisation of its Gram."""
        ((gram, diagonal),) = self._normal()
        try:
            # the Grams are conjugated, so each solve runs on conjugates: conj(x) = conj(Gram)⁻¹ conj(Fᴴp), etc.
            x = potrs(_factored(gram, diagonal, sigma), rhs.conj(), lower=1)[0].conj()
            return self.forward.adjoint(x) if self._dual else x
        finally:
            np.fill_diagonal(gram, diagonal)  # the upper triangle is the Gram again, for the scale's zhemv

    def _cg(self, rhs: np.ndarray, sigma: float, x: np.ndarray) -> tuple[np.ndarray, int, float]:
        """(FᴴF + σI)⁻¹ ``rhs`` for a ForwardOperator by block-Jacobi preconditioned CG from ``x``.

        Returns the solution, the iterations taken and ‖r‖ / ‖rhs‖ of the
        updated residual r that met the stopping rule.  Each class block
        G_kk + σI is factored in place and applied by LAPACK ``potrs``
        directly, without scipy's per-call checks.
        """
        factors = [_factored(gram, diagonal, sigma) for gram, diagonal in self._normal()]

        def precondition(r):
            return np.concatenate([potrs(f, r[cls], lower=1)[0] if len(f) else r[cls] for f, cls in zip(factors, self.forward.columns)])

        norm = np.linalg.norm(rhs) or 1.0
        r = rhs - self.forward.normal(x) - sigma * x
        p = z = precondition(r)
        rz = np.vdot(r, z).real
        for iteration in range(CG_MAX_ITERATIONS + 1):
            residual = float(np.linalg.norm(r) / norm)
            if residual <= CG_TOL:
                return x, iteration, residual
            if iteration == CG_MAX_ITERATIONS or not np.isfinite(residual):
                break
            q = self.forward.normal(p) + sigma * p
            alpha = rz / np.vdot(p, q).real
            x, r = x + alpha * p, r - alpha * q
            z = precondition(r)
            rz, previous = np.vdot(r, z).real, rz
            p = z + (rz / previous) * p
        raise EncoderError(f"CG did not reach a relative residual of {CG_TOL:g} in {iteration} iterations (at {residual:.2e}, sigma {sigma:.3e})")


def largest_eigenvalue(product, size: int) -> float:
    """The largest eigenvalue of a Hermitian positive semidefinite operator, ``product(v)`` on vectors of ``size``.

    Lanczos (Golub & Van Loan, *Matrix Computations*, §10.1) from a seeded
    real Gaussian start, so a rerun gives the same bits, with each new vector
    orthogonalised once more against every earlier one (full
    reorthogonalisation), in a basis that grows with the steps taken.  It
    stops at ARPACK's test for ``tol=0``: the top Ritz value θ of the
    tridiagonal T_j has the residual β_j |s_j| ≤ eps θ, s_j the last entry of
    its eigenvector; an invariant Krylov space (β_j = 0) passes it, and so does
    one that spans the whole space.  Past :data:`LANCZOS_MAX_STEPS`: an EncoderError.
    """
    steps = min(size, LANCZOS_MAX_STEPS)
    start = np.random.default_rng(0).standard_normal(size).astype(complex)
    basis = np.empty((min(steps, 32), size), dtype=complex)
    basis[0] = start / np.linalg.norm(start)
    alphas, betas = [], []
    for j in range(steps):
        w = product(basis[j])
        alphas.append(np.vdot(basis[j], w).real)
        w -= alphas[j] * basis[j]
        if j:
            w -= betas[j - 1] * basis[j - 1]
        w -= basis[: j + 1].T @ (basis[: j + 1] @ w.conj()).conj()
        beta = float(np.linalg.norm(w))
        theta, s = eigh_tridiagonal(alphas, betas, select="i", select_range=(j, j))
        if beta * abs(s[j, 0]) <= np.finfo(float).eps * theta[0] or j + 1 == size:
            return float(theta[0])
        if j + 1 == steps:
            break
        if j + 1 == len(basis):
            basis = np.concatenate([basis, np.empty((min(len(basis), steps - len(basis)), size), dtype=complex)])
        betas.append(beta)
        basis[j + 1] = w / beta
    raise EncoderError(f"Lanczos did not find the largest eigenvalue in {LANCZOS_MAX_STEPS} steps (size {size})")


def _factored(gram: np.ndarray, diagonal: np.ndarray, sigma: float) -> np.ndarray:
    """The Cholesky factor of ``gram`` (Hermitian, held in its upper triangle) plus σI, with ``diagonal`` as its
    diagonal, in its own lower triangle by LAPACK ``potrf`` (:func:`_shifted_lower`): in place when ``gram`` is
    Fortran-contiguous.  A matrix that is not positive definite, or not finite, is an EncoderError."""
    factor, info = potrf(_shifted_lower(gram, diagonal + sigma), lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise EncoderError(f"normal-equations factorisation failed (potrf info {info})")
    if not np.isfinite(factor.diagonal()).all():  # potrf passes a nan diagonal with info 0
        raise EncoderError("normal-equations factorisation failed: the factor is not finite")
    return factor


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
    """Conventional encoder for one rigid spherical array, its response held column-major, so that the encoder
    of a lower degree is that of a leading block of its columns, which forms its Gram without a copy."""
    lam = np.asfortranarray(surface_response_matrix(sphere, k, n_c))
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
