"""Commutant (intertwiner) spaces and the verdicts built on them.

Com(A, B) is the linear space of matrices X with AX = XB. It is
computed as the numerical nullspace of the Kronecker linearization of
X -> AX - XB. On top of the basis sit the adjoint-intertwining
(FP-property) verdict, subspace inclusion tests, the polar-part
intertwining identities, hyponormality classifiers and reducing
subspace checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    CheckReport,
    Tolerances,
    adjoint,
    as_matrix,
    as_square,
    fro_norm,
    min_hermitian_eigenvalue,
    op_norm,
    pd_log,
    psd_power,
)
from .polar import polar_factors

__all__ = [
    "CommutantBasis",
    "FpReport",
    "sylvester_matrix",
    "commutant_basis",
    "fp_property",
    "com_inclusion",
    "intertwiner_polar_identities",
    "power_intertwining_check",
    "aluthge_intertwiner_map",
    "squared_angular_criterion",
    "semicircle_check",
    "odd_root_unity_check",
    "hyponormal_class",
    "reduces_check",
    "com_delta_membership",
    "P_HYPONORMAL",
    "LOG_HYPONORMAL",
    "BOTH_HYPONORMAL",
    "NEITHER_HYPONORMAL",
]

P_HYPONORMAL = "p_hyponormal"
LOG_HYPONORMAL = "log_hyponormal"
BOTH_HYPONORMAL = "both"
NEITHER_HYPONORMAL = "neither"


@dataclass(frozen=True)
class CommutantBasis:
    """Frobenius-orthonormal basis of {X : AX = XB}.

    ``dim_domain`` is (n2, n1): elements map C^n2 into C^n1, i.e. each
    basis matrix has shape (n1, n2). ``residuals`` holds the Frobenius
    norm of AX - XB per element and ``nullity`` the basis length.
    """

    dim_domain: tuple[int, int]
    basis: list[np.ndarray]
    residuals: list[float]
    nullity: int


@dataclass(frozen=True)
class FpReport:
    """Verdict for an adjoint-intertwining (or inclusion) query.

    ``holds`` is true when every basis element of the tested commutant
    satisfies the target relation; otherwise ``witness`` is the worst
    violator. ``com_dim`` is the dimension of the tested commutant.
    """

    holds: bool
    witness: np.ndarray | None
    max_residual: float
    com_dim: int


def sylvester_matrix(A, B) -> np.ndarray:
    """Kronecker linearization L with L vec(X) = vec(AX - XB).

    vec is column-major, so L = I (x) A - B^T (x) I with shape
    (n1 n2, n1 n2) for A of size n1 and B of size n2.
    """
    A = as_square(A)
    B = as_square(B)
    n1, n2 = A.shape[0], B.shape[0]
    return np.kron(np.eye(n2), A) - np.kron(B.T, np.eye(n1))


def commutant_basis(A, B, tol: Tolerances = DEFAULT_TOL) -> CommutantBasis:
    """Orthonormal basis of Com(A, B) from the Sylvester nullspace.

    Singular values of the linearization at or below ``rank_rel`` times
    the largest count as zero; the corresponding right singular vectors,
    reshaped column-major, form the basis.
    """
    A = as_square(A)
    B = as_square(B)
    n1, n2 = A.shape[0], B.shape[0]
    L = sylvester_matrix(A, B)
    _, s, Vh = np.linalg.svd(L)
    smax = float(s[0])
    null_rows = Vh[s <= tol.rank_rel * smax]
    basis = [row.conj().reshape((n1, n2), order="F") for row in null_rows]
    residuals = [fro_norm(A @ X - X @ B) for X in basis]
    return CommutantBasis(
        dim_domain=(n2, n1),
        basis=basis,
        residuals=residuals,
        nullity=len(basis),
    )


def fp_property(A, B, tol: Tolerances = DEFAULT_TOL) -> FpReport:
    """Does every X with AX = XB also satisfy A*X = XB*?

    Each basis element of Com(A, B) (unit Frobenius norm) is accepted
    when its adjoint-relation residual stays below
    ``residual_rel * (||A|| + ||B||)``. A trivial commutant makes the
    verdict vacuously true.
    """
    return com_inclusion(A, B, adjoint(A), adjoint(B), tol)


def com_inclusion(A1, B1, A2, B2, tol: Tolerances = DEFAULT_TOL) -> FpReport:
    """Does Com(A1, B1) sit inside Com(A2, B2)?

    Checked on the finite basis of the source space, which suffices by
    linearity. The witness, when the inclusion fails, is the basis
    element with the largest residual against the target pair.
    """
    A1 = as_square(A1)
    B1 = as_square(B1)
    A2 = as_square(A2)
    B2 = as_square(B2)
    if A1.shape != A2.shape or B1.shape != B2.shape:
        raise ValueError("operator pairs act on mismatched spaces")
    cb = commutant_basis(A1, B1, tol)
    threshold = tol.residual_rel * (op_norm(A2) + op_norm(B2))
    worst = 0.0
    witness = None
    for X in cb.basis:
        r = fro_norm(A2 @ X - X @ B2)
        if r >= worst:
            worst, witness = r, X
    holds = bool(worst <= threshold)
    return FpReport(
        holds=holds,
        witness=None if holds else witness,
        max_residual=worst,
        com_dim=cb.nullity,
    )


def intertwiner_polar_identities(A, B, X, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Evaluate |A| X |B|^-1, U* X V and X against each other (invertible A, B).

    For invertible pairs, AX = XB holds exactly when the first two
    agree, and X intertwines both the pair and its adjoints exactly when
    all three agree. The report states which equalities hold and whether
    those biconditionals came out consistent; ``ok`` is the consistency
    verdict. Equality thresholds absorb the ||B^-1|| amplification
    incurred by the right multiplication.
    """
    A = as_square(A)
    B = as_square(B)
    X = as_matrix(X)
    if X.shape != (A.shape[0], B.shape[0]):
        raise ValueError("X must map the space of B into the space of A")
    fa, fb = polar_factors(A, tol), polar_factors(B, tol)
    fa.require_invertible("A")
    fb.require_invertible("B")
    m1 = fa.power(1.0) @ X @ fb.power(-1.0)
    m2 = adjoint(fa.angular()) @ X @ fb.angular()
    xn = fro_norm(X)
    thr_member = tol.residual_rel * (fa.norm + fb.norm) * max(xn, 1.0)
    thr_eq = thr_member / float(fb.s[-1])
    r_com = fro_norm(A @ X - X @ B)
    r_com_star = fro_norm(adjoint(A) @ X - X @ adjoint(B))
    r_eq = fro_norm(m1 - m2)
    r_fixed = max(fro_norm(m1 - X), fro_norm(m2 - X))
    in_com = bool(r_com <= thr_member)
    in_com_star = bool(r_com_star <= thr_member)
    eq_holds = bool(r_eq <= thr_eq)
    fixed_holds = bool(r_fixed <= thr_eq)
    consistent = (in_com == eq_holds) and ((in_com and in_com_star) == (eq_holds and fixed_holds))
    return CheckReport(
        ok=bool(consistent),
        max_residual=r_eq if in_com else 0.0,
        threshold=thr_eq,
        details={
            "in_com": in_com,
            "in_com_star": in_com_star,
            "polar_identity": eq_holds,
            "fixed_point": fixed_holds,
            "residual_com": r_com,
            "residual_com_star": r_com_star,
            "residual_identity": r_eq,
            "residual_fixed": r_fixed,
        },
    )


def power_intertwining_check(A, B, X, p: float, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """For X intertwining both (A, B) and their adjoints: |A|^p X = X |B|^p.

    A and B must be invertible and p positive. The double-intertwining
    hypothesis is verified first and raises when violated.
    """
    A = as_square(A)
    B = as_square(B)
    X = as_matrix(X)
    if p <= 0:
        raise ValueError("power p must be positive")
    if X.shape != (A.shape[0], B.shape[0]):
        raise ValueError("X must map the space of B into the space of A")
    fa, fb = polar_factors(A, tol), polar_factors(B, tol)
    fa.require_invertible("A")
    fb.require_invertible("B")
    xn = fro_norm(X)
    thr_member = tol.residual_rel * (fa.norm + fb.norm) * max(xn, 1.0)
    if fro_norm(A @ X - X @ B) > thr_member or fro_norm(adjoint(A) @ X - X @ adjoint(B)) > thr_member:
        raise ValueError("X must intertwine both the pair and its adjoints within tolerance")
    residual = fro_norm(fa.power(p) @ X - X @ fb.power(p))
    threshold = tol.residual_rel * (fa.norm**p + fb.norm**p) * max(xn, 1.0)
    return CheckReport(
        ok=bool(residual <= threshold),
        max_residual=residual,
        threshold=threshold,
        details={"p": float(p)},
    )


def aluthge_intertwiner_map(A, B, X, direction: str = "forward", tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Bijection between Com(A, B) and the commutant of the transformed pair.

    forward: X -> |A|^(1/2) X |B|^(-1/2); inverse: X -> |A|^(-1/2) X |B|^(1/2).
    The two compose to the identity. Requires invertible A and B.
    """
    A = as_square(A)
    B = as_square(B)
    X = as_matrix(X)
    if X.shape != (A.shape[0], B.shape[0]):
        raise ValueError("X must map the space of B into the space of A")
    fa, fb = polar_factors(A, tol), polar_factors(B, tol)
    fa.require_invertible("A")
    fb.require_invertible("B")
    if direction == "forward":
        return fa.power(0.5) @ X @ fb.power(-0.5)
    if direction == "inverse":
        return fa.power(-0.5) @ X @ fb.power(0.5)
    raise ValueError(f"unknown direction {direction!r}")


def squared_angular_criterion(A, B, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Squared angular parts intertwine Com(A, B) iff the transformed pair has the FP-property.

    For invertible A, B the two sides are equivalent; the report
    records each side and ``ok`` asserts their agreement.
    """
    A = as_square(A)
    B = as_square(B)
    fa, fb = polar_factors(A, tol), polar_factors(B, tol)
    fa.require_invertible("A")
    fb.require_invertible("B")
    U, V = fa.angular(), fb.angular()
    left = fp_property(fa.transform(0.5, 0.5), fb.transform(0.5, 0.5), tol).holds
    cb = commutant_basis(A, B, tol)
    U2 = U @ U
    V2 = V @ V
    worst = 0.0
    for X in cb.basis:
        worst = max(worst, fro_norm(U2 @ X - X @ V2))
    threshold = 2.0 * tol.residual_rel
    right = bool(worst <= threshold)
    return CheckReport(
        ok=bool(left == right),
        max_residual=worst,
        threshold=threshold,
        details={"transformed_pair_fp": bool(left), "squared_intertwine": right, "com_dim": cb.nullity},
    )


def _require_unitary(U: np.ndarray, tol: Tolerances, name: str = "input") -> None:
    if op_norm(U.conj().T @ U - np.eye(U.shape[0])) > tol.residual_rel:
        raise ValueError(f"{name} must be unitary within tolerance")


def semicircle_check(U, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the spectrum of a unitary lies in some open semicircle.

    Equivalent formulation: the widest circular gap between eigenvalue
    phases exceeds pi (by more than ``angle_abs``).
    """
    U = as_square(U)
    _require_unitary(U, tol)
    phases = np.sort(np.angle(np.linalg.eigvals(U)))
    gaps = np.diff(phases)
    wrap = phases[0] + 2.0 * np.pi - phases[-1]
    widest = max(float(gaps.max(initial=0.0)), float(wrap))
    return bool(widest > np.pi + tol.angle_abs)


def odd_root_unity_check(U, V, n0: int, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when U^(2 n0 + 1) and V^(2 n0 + 1) are both the identity."""
    U = as_square(U)
    V = as_square(V)
    if n0 < 1:
        raise ValueError("n0 must be a positive integer")
    _require_unitary(U, tol, "U")
    _require_unitary(V, tol, "V")
    k = 2 * n0 + 1
    threshold = tol.residual_rel * k
    ru = op_norm(np.linalg.matrix_power(U, k) - np.eye(U.shape[0]))
    rv = op_norm(np.linalg.matrix_power(V, k) - np.eye(V.shape[0]))
    return bool(ru <= threshold and rv <= threshold)


def hyponormal_class(A, p: float, tol: Tolerances = DEFAULT_TOL, include_log: bool = True) -> str:
    """Classify A as p-hyponormal, log-hyponormal, both or neither.

    p-hyponormal means (A*A)^p - (AA*)^p is positive semidefinite;
    log-hyponormal compares the logarithms instead and is defined only
    for invertible A. Requesting the log test on a singular matrix
    raises; pass ``include_log=False`` to classify the p part alone
    (the matrix then cannot be reported log-hyponormal).
    """
    A = as_square(A)
    if p <= 0:
        raise ValueError("power p must be positive")
    f = polar_factors(A, tol)
    gram_right = adjoint(A) @ A
    gram_left = A @ adjoint(A)
    diff = psd_power(gram_right, p, tol) - psd_power(gram_left, p, tol)
    thr_p = tol.residual_rel * max(1.0, f.norm ** (2.0 * p))
    p_ok = min_hermitian_eigenvalue(diff) >= -thr_p
    log_ok = False
    if include_log:
        f.require_invertible("A")
        log_right = pd_log(gram_right, tol)
        log_left = pd_log(gram_left, tol)
        thr_log = tol.residual_rel * max(1.0, op_norm(log_right), op_norm(log_left))
        log_ok = min_hermitian_eigenvalue(log_right - log_left) >= -thr_log
    if p_ok and log_ok:
        return BOTH_HYPONORMAL
    if p_ok:
        return P_HYPONORMAL
    if log_ok:
        return LOG_HYPONORMAL
    return NEITHER_HYPONORMAL


def reduces_check(A, X, side: str = "range", tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Does range(X) (or the orthogonal complement of ker X) reduce A?

    The subspace comes from a rank-revealing SVD of X. Reduction means
    invariance under both A and A*; the report additionally carries a
    normality flag and the spectrum of the compressed restriction, which
    is the finite-dimensional content available for comparing the two
    restrictions of an intertwined pair.
    """
    A = as_square(A)
    X = as_matrix(X)
    n = A.shape[0]
    if side == "range":
        if X.shape[0] != n:
            raise ValueError("range side: X must have as many rows as A")
    elif side == "kernel_complement":
        if X.shape[1] != n:
            raise ValueError("kernel_complement side: X must have as many columns as A")
    else:
        raise ValueError(f"unknown side {side!r}")
    W, s, Vh = np.linalg.svd(X)
    smax = float(s[0]) if s.size else 0.0
    keep = s > tol.rank_rel * smax
    Q = W[:, : len(s)][:, keep] if side == "range" else Vh[keep].conj().T
    rank = Q.shape[1]
    proj_out = np.eye(n) - Q @ Q.conj().T
    r_a = op_norm(proj_out @ (A @ Q)) if rank else 0.0
    r_astar = op_norm(proj_out @ (adjoint(A) @ Q)) if rank else 0.0
    threshold = tol.residual_rel * max(1.0, op_norm(A))
    reduces = bool(max(r_a, r_astar) <= threshold)
    if rank:
        restriction = Q.conj().T @ A @ Q
        r_normal = fro_norm(restriction @ adjoint(restriction) - adjoint(restriction) @ restriction)
        spectrum = np.sort_complex(np.linalg.eigvals(restriction))
    else:
        r_normal = 0.0
        spectrum = np.zeros(0, dtype=complex)
    thr_normal = tol.residual_rel * max(1.0, op_norm(A) ** 2)
    return CheckReport(
        ok=reduces,
        max_residual=max(r_a, r_astar),
        threshold=threshold,
        details={
            "rank": rank,
            "invariance_residual": r_a,
            "adjoint_invariance_residual": r_astar,
            "restriction_normal": bool(r_normal <= thr_normal),
            "restriction_normality_residual": r_normal,
            "restriction_spectrum": spectrum,
        },
    )


def com_delta_membership(A, B, X, delta: float) -> bool:
    """True when the operator norm of AX - XB is at most delta."""
    A = as_square(A)
    B = as_square(B)
    X = as_matrix(X)
    if X.shape != (A.shape[0], B.shape[0]):
        raise ValueError("X must map the space of B into the space of A")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return bool(op_norm(A @ X - X @ B) <= delta)
