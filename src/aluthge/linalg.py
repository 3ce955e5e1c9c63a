"""Dense complex-matrix primitives: adjoints, Hermitian parts, norms, spectra and the rank cut.

Everything downstream (polar decompositions, commutant solvers, norm
inequalities) is built on the handful of operations in this module, and
every rank decision reads the one rule :func:`rank_cut`. All functions
are pure and accept anything `np.asarray` turns into a 2-D complex array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "CheckReport",
    "as_matrix",
    "as_square",
    "adjoint",
    "hermitian_part",
    "min_hermitian_eigenvalue",
    "singular_values",
    "spectral_radius",
    "op_norm",
    "fro_norm",
]


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds for every rank and residual decision.

    rank_rel cuts off singular values (relative to the largest) and
    residual_rel accepts equation residuals (relative to a per-check
    scale). Both must lie in [0, 1). The one angle test,
    :func:`~aluthge.commutant.semicircle_check`, has a fixed slack.
    """

    rank_rel: float = 1e-10
    residual_rel: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel", "residual_rel"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()

# Largest dense stack of complex entries (512 MiB) a result may hold: a
# commutant basis lifted from factors (by the QR fallback, whose peak is a few
# times that, or on access to CommutantBasis.basis), or the iterates of
# aluthge_iterate. That stays well inside a machine with a few GB of memory.
_DENSE_MAX = 2**25


def rank_cut(s: np.ndarray, rank_rel: float, bound: float = 0.0) -> float:
    """The level at or below which a singular value counts as zero: rank_rel * max(s[0], bound).

    ``s`` holds singular values in decreasing order, and ``bound`` is an
    upper bound on s[0] that the caller already holds (0 when it holds
    none), so the cut is relative to the larger of the two.
    """
    return rank_rel * max(s[0], bound)


@dataclass(frozen=True)
class CheckReport:
    """Verdict of a single verification plus its worst residual.

    ``details`` carries named sub-residuals and flags specific to the
    check that produced the report.
    """

    ok: bool
    max_residual: float
    threshold: float
    details: dict[str, Any] = field(default_factory=dict)


def as_matrix(M) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting non-finite entries."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix with positive dimensions, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return A


def as_square(M) -> np.ndarray:
    """Like :func:`as_matrix` but additionally requires a square shape."""
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def as_intertwiner(X, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Coerce a matrix X that maps the space of the square B into the space of the square A."""
    X = as_matrix(X)
    if X.shape != (A.shape[0], B.shape[0]):
        raise ValueError("X must map the space of B into the space of A")
    return X


def adjoint(M) -> np.ndarray:
    """Conjugate transpose M*."""
    return as_matrix(M).conj().T


def hermitian_part(M) -> np.ndarray:
    """Hermitian part (M + M*) / 2 of a square matrix.

    Each term is halved before the sum, so entries above half the largest
    double do not overflow; halving is exact outside the subnormal range.
    The sum is taken in place, so no more than two n x n arrays are live.
    """
    A = as_square(M)
    H = A / 2.0
    H += H.conj().T
    return H


def min_hermitian_eigenvalue(M) -> float:
    """Smallest eigenvalue of the Hermitian part of M."""
    return float(np.linalg.eigvalsh(hermitian_part(M))[0])


def op_norm(M) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(singular_values(M)[0])


def fro_norm(M) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(as_matrix(M)))


def singular_values(M) -> np.ndarray:
    """Singular values in decreasing order (length min(rows, cols))."""
    return np.linalg.svd(as_matrix(M), compute_uv=False)


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    return float(np.abs(np.linalg.eigvals(as_square(M))).max())
