"""Polar decompositions and the |A|^s U |A|^t transform family.

A square matrix factors as A = U|A| with |A| = (A*A)^(1/2) positive
semidefinite. Two conventions for the angular part are supported: a
full unitary extension, and the canonical partial isometry vanishing on
ker|A|. The Aluthge transform |A|^(1/2) U |A|^(1/2), its (s,t) variant
and its iterates are built on top. Where the checks and single transforms
factor a matrix, they also take its :class:`PolarFactors` and reuse their SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

import numpy as np

from .linalg import (
    _DENSE_MAX,
    DEFAULT_TOL,
    CheckReport,
    Tolerances,
    adjoint,
    as_square,
    hermitian_part,
    op_norm,
    rank_cut,
    spectral_radius,
)

__all__ = [
    "MODE_UNITARY",
    "MODE_PARTIAL",
    "PolarParts",
    "AluthgeTrajectory",
    "polar_decompose",
    "aluthge",
    "aluthge_st",
    "aluthge_iterate",
    "product_polar_check",
    "involution_angular_check",
]

MODE_UNITARY = "unitary_extension"
MODE_PARTIAL = "partial_isometry"


@dataclass(frozen=True)
class PolarParts:
    """Result of a polar decomposition A = angular @ positive.

    ``positive`` is Hermitian PSD; ``angular`` is unitary in
    ``unitary_extension`` mode and the canonical partial isometry
    (initial space = range(positive)) in ``partial_isometry`` mode.
    ``rank`` counts singular values kept by the relative cutoff.
    """

    angular: np.ndarray
    positive: np.ndarray
    mode: str
    rank: int


@dataclass(frozen=True)
class AluthgeTrajectory:
    """Iterated transforms of a matrix together with norm diagnostics.

    ``iterates[0]`` is the input itself, ``iterates[k]`` its k-fold
    transform; ``norms`` are the matching operator norms and ``radius``
    the spectral radius of the input (the lower limit of the norms).
    """

    iterates: list[np.ndarray]
    norms: list[float]
    radius: float


@dataclass(frozen=True)
class PolarFactors:
    """One SVD A = W diag(s) Qh of a square matrix; every polar quantity of A derives from it.

    ``matrix`` is the coerced A that was factored. ``rank`` counts
    singular values above :func:`~aluthge.linalg.rank_cut`, ``rank_rel``
    times the largest; the others are the cut values.
    """

    matrix: np.ndarray
    W: np.ndarray
    s: np.ndarray
    Qh: np.ndarray
    rank: int

    @property
    def norm(self) -> float:
        """Operator norm ||A||, the largest singular value."""
        return float(self.s[0])

    def _kept(self) -> np.ndarray:
        return np.arange(self.s.size) < self.rank

    def require_invertible(self, name: str) -> None:
        if self.rank < self.s.size:
            raise ValueError(f"{name} must be invertible for this check")

    def power(self, p: float) -> np.ndarray:
        """|A|^p = Q diag(s^p) Q* for p != 0.

        p = 1 gives the positive part from the raw singular values, other
        p treat cut values as exact zeros; p < 0 requires an invertible A.
        """
        if p < 0:
            self.require_invertible("matrix")
        f = self.s if p == 1.0 else np.power(self.s * self._kept(), p)
        return hermitian_part(self.Qh.conj().T @ (f[:, None] * self.Qh))

    def angular(self, mode: str = MODE_UNITARY) -> np.ndarray:
        """W Q* (unitary mode), or W R Q* with R dropping the cut values (partial mode)."""
        if mode == MODE_UNITARY:
            return self.W @ self.Qh
        if mode == MODE_PARTIAL:
            return (self.W * self._kept()) @ self.Qh
        raise ValueError(f"unknown polar mode {mode!r}")

    def transform(self, s: float, t: float) -> np.ndarray:
        """|A|^s U |A|^t = Q S^s (Q* W) S^t Q* for s, t > 0, cut values as exact zeros."""
        cut = self.s * self._kept()
        inner = np.power(cut, s)[:, None] * (self.Qh @ self.W) * np.power(cut, t)
        return self.Qh.conj().T @ inner @ self.Qh

    def adjoint(self) -> PolarFactors:
        """Factors of A* = Q diag(s) W*, read from the same SVD."""
        return PolarFactors(
            matrix=self.matrix.conj().T, W=self.Qh.conj().T, s=self.s, Qh=self.W.conj().T, rank=self.rank
        )

    def aluthge(self, tol: Tolerances = DEFAULT_TOL) -> PolarFactors:
        """Factors of the Aluthge transform |A|^(1/2) U |A|^(1/2), with one SVD of the transform."""
        return polar_factors(self.transform(0.5, 0.5), tol)


def polar_factors(A, tol: Tolerances = DEFAULT_TOL) -> PolarFactors:
    """Factor a square matrix once, A = W diag(s) Qh, keeping the singular values above ``rank_cut(s, rank_rel)``.

    Given the factors of A, returns them as they are unless ``tol`` cuts their ``s`` at another rank.
    """
    if isinstance(A, PolarFactors):
        rank = int(np.count_nonzero(A.s > rank_cut(A.s, tol.rank_rel)))
        return A if rank == A.rank else replace(A, rank=rank)
    A = as_square(A)
    W, s, Qh = np.linalg.svd(A)
    rank = int(np.count_nonzero(s > rank_cut(s, tol.rank_rel)))
    return PolarFactors(matrix=A, W=W, s=s, Qh=Qh, rank=rank)


def polar_decompose(A, mode: str = MODE_UNITARY, tol: Tolerances = DEFAULT_TOL) -> PolarParts:
    """Polar decomposition of a square matrix via the SVD.

    With A = W diag(s) Q*, the positive part is Q diag(s) Q*. The
    angular part is W Q* (unitary mode) or W R Q* where R keeps only
    singular values above ``rank_rel`` times the largest (partial
    isometry mode). For singular A the unitary extension is fixed
    deterministically by the computed SVD factors; only its action on
    range(positive) is contractual.
    """
    f = polar_factors(A, tol)
    return PolarParts(angular=f.angular(mode), positive=f.power(1.0), mode=mode, rank=f.rank)


def aluthge_st(A, s: float, t: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """(s,t) transform |A|^s U |A|^t with finite s, t > 0.

    Singular values below the rank cutoff are treated as exact zeros, so
    the result does not depend on how the angular part is extended to
    ker|A|. The boundary s = 0 or t = 0 is rejected: |A|^0 is
    convention-dependent for singular A.
    """
    if not (0 < s < inf and 0 < t < inf):
        raise ValueError("exponents s and t must be positive and finite")
    return polar_factors(A, tol).transform(s, t)


def aluthge(A, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Aluthge transform |A|^(1/2) U |A|^(1/2)."""
    return aluthge_st(A, 0.5, 0.5, tol)


def _aluthge_steps(A, n: int, tol: Tolerances = DEFAULT_TOL):
    """Yield each iterate T_k of A, k = 0, ..., n, with its operator norm, holding only the current one.

    One SVD per step gives both the next iterate and the norm of the
    current one; the norm of T_n is its ``op_norm``. The count is checked
    on the first ``next``.
    """
    if n < 1:
        raise ValueError("iteration count n must be at least 1")
    T = as_square(A)
    for _ in range(n):
        f = polar_factors(T, tol)
        yield T, f.norm
        T = f.transform(0.5, 0.5)
    yield T, op_norm(T)


def aluthge_iterate(A, n: int, tol: Tolerances = DEFAULT_TOL) -> AluthgeTrajectory:
    """First n iterated transforms of A with their operator norms.

    The norm sequence is nonincreasing and bounded below by the
    spectral radius of A. One SVD per step gives both the next iterate
    and the norm of the current one. All n + 1 iterates are kept, so
    more than 2**25 complex entries ((n + 1) * m * m for an m x m input)
    raise ``ValueError`` before the first step.
    """
    A = as_square(A)
    m = A.shape[0]
    # A count below 1 is refused by the first step.
    if n >= 1 and (n + 1) * m * m > _DENSE_MAX:
        raise ValueError(
            f"trajectory has {n + 1} iterates of size {m}x{m} ({(n + 1) * m * m} entries), "
            f"above the {_DENSE_MAX} a trajectory may hold"
        )
    iterates, norms = zip(*_aluthge_steps(A, n, tol))
    return AluthgeTrajectory(iterates=list(iterates), norms=list(norms), radius=spectral_radius(A))


def product_polar_check(T, S, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Verify the polar decomposition of a product.

    With T = U|T|, S = V|S| and |T||S*| = W ||T||S*|| (all canonical
    partial isometries), the product UWV together with |TS| from the
    direct polar decomposition of TS must reconstruct TS, and
    (UWV)* TS must reproduce |TS|. Residuals are measured in operator
    norm against ``residual_rel * ||T|| * ||S||``.
    """
    fT = polar_factors(T, tol)
    fS = polar_factors(S, tol)
    T, S = fT.matrix, fS.matrix
    if T.shape != S.shape:
        raise ValueError(f"shape mismatch: {T.shape} vs {S.shape}")
    abs_s_star = fS.adjoint().power(1.0)
    W = polar_factors(fT.power(1.0) @ abs_s_star, tol).angular(MODE_PARTIAL)
    prod = T @ S
    pos_prod = polar_factors(prod, tol).power(1.0)
    uwv = fT.angular(MODE_PARTIAL) @ W @ fS.angular(MODE_PARTIAL)
    r_reconstruct = op_norm(uwv @ pos_prod - prod)
    r_positive = op_norm(adjoint(uwv) @ prod - pos_prod)
    scale = fT.norm * fS.norm
    threshold = tol.residual_rel * scale
    worst = max(r_reconstruct, r_positive)
    return CheckReport(
        ok=bool(worst <= threshold),
        max_residual=worst,
        threshold=threshold,
        details={"reconstruction": r_reconstruct, "positive_match": r_positive},
    )


def involution_angular_check(A, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """For A with A^2 = I, verify that the angular part satisfies U^2 = I.

    Raises ValueError if A does not square to the identity within
    tolerance; the claim is conditional on that hypothesis.
    """
    f = polar_factors(A, tol)
    A = f.matrix
    eye = np.eye(A.shape[0])
    r_involution = op_norm(A @ A - eye)
    if r_involution > tol.residual_rel * max(1.0, f.norm**2):
        raise ValueError("input does not square to the identity within tolerance")
    U = f.angular()
    residual = op_norm(U @ U - eye)
    return CheckReport(
        ok=bool(residual <= tol.residual_rel),
        max_residual=residual,
        threshold=tol.residual_rel,
        details={"involution_residual": r_involution},
    )
