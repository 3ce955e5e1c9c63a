"""Dense complex-matrix primitives: adjoints, Hermitian calculus, matrix functions, spectra.

Everything downstream (polar decompositions, commutant solvers, norm
inequalities) is built on the handful of operations in this module. All
functions are pure and accept anything `np.asarray` turns into a 2-D
complex array.
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
    "psd_power",
    "singular_values",
    "spectral_radius",
    "op_norm",
    "fro_norm",
]


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds for every rank, residual and angle decision.

    rank_rel cuts off singular values (relative to the largest),
    residual_rel accepts equation residuals (relative to a per-check
    scale), angle_abs is absolute slack in radians for spectral-arc
    tests. All three must lie in [0, 1).
    """

    rank_rel: float = 1e-10
    residual_rel: float = 1e-8
    angle_abs: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rank_rel", "residual_rel", "angle_abs"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()


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


def intertwiner_operands(A, B, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coerce square A and B and a matrix X that maps the space of B into the space of A."""
    A = as_square(A)
    B = as_square(B)
    X = as_matrix(X)
    if X.shape != (A.shape[0], B.shape[0]):
        raise ValueError("X must map the space of B into the space of A")
    return A, B, X


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


def psd_power(P, s: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Real power P^s of a Hermitian positive semidefinite matrix.

    Computed through the eigendecomposition. s must be nonnegative.
    Convention at s = 0: the orthogonal projection onto range(P), which
    is the identity exactly when P is definite (consistent with the
    limit s -> 0+ on the support). Eigenvalues below -residual_rel * ||P||
    are rejected; small negative dust is clamped to zero first.
    """
    if s < 0:
        raise ValueError("exponent s must be nonnegative")
    P = as_square(P)
    if fro_norm(P - P.conj().T) > tol.residual_rel * max(1.0, fro_norm(P)):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(hermitian_part(P))
    scale = float(np.abs(w).max())
    if w[0] < -tol.residual_rel * scale:
        raise ValueError("matrix is not positive semidefinite within tolerance")
    w = np.clip(w, 0.0, None)
    if s == 0.0:
        f = (w > tol.rank_rel * scale).astype(float)
    else:
        f = np.power(w, s)
    return hermitian_part(V @ (f[:, None] * V.conj().T))
