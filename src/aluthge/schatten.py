"""Schatten p-norms and the commutator inequalities tied to the Aluthge transform.

The norm is ||M||_p = (sum of singular values^p)^(1/p) with p = inf
denoting the operator norm. The off-diagonal block embedding
[[0, A], [B, 0]] has p-th power norm equal to the sum of the two block
contributions, which is also the mechanism behind the two-operator
lower bound below. Each check takes an operator that it factors either as
a matrix or as its :class:`~aluthge.polar.PolarFactors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, sqrt
from typing import Any

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    CheckReport,
    Tolerances,
    adjoint,
    as_intertwiner,
    as_matrix,
    as_square,
    fro_norm,
    min_hermitian_eigenvalue,
    op_norm,
    rank_cut,
    singular_values,
)
from .polar import PolarFactors, polar_factors

__all__ = [
    "InequalityReport",
    "schatten_norm",
    "block_embed",
    "block_identity_check",
    "aluthge_commutator_bound",
    "aluthge_intertwiner_bound",
    "exact_intertwiner_transfer",
    "approx_commutator_bound",
]


# Relative slack, against max(1, lhs, rhs), within which a bound counts as met.
_SLACK_REL = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    """One evaluated norm inequality, lower bound or (``upper``) upper bound.

    ``slack`` is lhs - rhs as computed. A lower bound is only asserted
    when ``hypotheses_ok`` is true; ``a_value`` is the certified lower
    bound on the Hermitian part entering the constant. ``details``
    carries check-specific diagnostics (block cross-check values,
    individual hypothesis flags). ``ok``, ``max_residual`` and
    ``threshold`` give the verdict in the terms of a ``CheckReport``.
    """

    lhs: float
    rhs: float
    slack: float
    hypotheses_ok: bool
    a_value: float
    p: float
    details: dict[str, Any] = field(default_factory=dict)
    upper: bool = False

    @property
    def threshold(self) -> float:
        """Allowance for roundoff on the wrong side of the bound."""
        return _SLACK_REL * max(1.0, self.lhs, self.rhs)

    @property
    def max_residual(self) -> float:
        """How far lhs lies on the wrong side of rhs (zero when on the right side)."""
        return max(0.0, self.slack if self.upper else -self.slack)

    @property
    def ok(self) -> bool:
        """The bound holds within ``threshold``; a lower bound also needs its hypotheses."""
        if self.upper:
            return bool(self.slack <= self.threshold)
        return bool(self.hypotheses_ok and self.slack >= -self.threshold)


def _validate_p(p: float) -> float:
    p = float(p)
    if not p >= 1.0:
        raise ValueError("p must be at least 1 (or inf)")
    return p


def _lp(s: np.ndarray, p: float) -> float:
    """(sum of s**p)**(1/p) for values sorted decreasing, scaled by the largest.

    p = inf, or an infinite (overflowed) largest value, gives the largest value.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    top = float(s[0])
    if p == inf or top == inf:
        return top
    return float(top * np.sum((s / top) ** p) ** (1.0 / p))


def schatten_norm(M, p: float) -> float:
    """Schatten p-norm of M; p = inf gives the operator norm."""
    p = _validate_p(p)
    return _lp(singular_values(M), p)


def block_embed(A, B) -> np.ndarray:
    """Off-diagonal block matrix [[0, A], [B, 0]]; must come out square."""
    A = as_matrix(A)
    B = as_matrix(B)
    m, n = A.shape
    k, l = B.shape
    if m + k != n + l:
        raise ValueError(f"blocks {A.shape} and {B.shape} do not form a square matrix")
    return np.block([[np.zeros((m, l)), A], [B, np.zeros((k, n))]])


def block_identity_check(A, B, p: float, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Verify the block norm identity for [[0, A], [B, 0]].

    For finite p the p-th power of the block norm equals the sum of the
    two block contributions; at p = inf it is the larger operator norm.
    Any p > 0 is accepted here (below 1 the power sum is a quasi-norm
    check). The residual is relative to the larger side.
    """
    if not p > 0:
        raise ValueError("p must be positive (or inf)")
    Z = block_embed(A, B)
    if p == inf:
        lhs = op_norm(Z)
        rhs = max(op_norm(A), op_norm(B))
    else:
        # Zero singular values of the block are pure roundoff dust and would
        # dominate the comparison for p < 1; cut them on both sides alike.
        sz, sa, sb = singular_values(Z), singular_values(A), singular_values(B)
        cutoff = rank_cut(sz, tol.rank_rel, max(sa[0], sb[0]))
        lhs = _lp(sz[sz > cutoff], p) ** p
        rhs = _lp(sa[sa > cutoff], p) ** p + _lp(sb[sb > cutoff], p) ** p
    rel = abs(lhs - rhs) / max(lhs, rhs, np.finfo(float).tiny)
    return CheckReport(
        ok=bool(rel <= tol.residual_rel),
        max_residual=rel,
        threshold=tol.residual_rel,
        details={"lhs": lhs, "rhs": rhs, "p": p},
    )


def _angular_intertwines(U: np.ndarray, V: np.ndarray, X: np.ndarray, tol: Tolerances) -> bool:
    """The hypothesis U* X = X V, within residual_rel * max(2 ||X||_F, 1)."""
    return bool(fro_norm(adjoint(U) @ X - X @ V) <= tol.residual_rel * max(2.0 * fro_norm(X), 1.0))


def _polar_root(A, tol: Tolerances) -> tuple[PolarFactors, np.ndarray, np.ndarray, float]:
    """Factors of A, angular part U, |A|^(1/2) and a = min eig Re(U |A|^(1/2))."""
    f = polar_factors(A, tol)
    U, root = f.angular(), f.power(0.5)
    return f, U, root, min_hermitian_eigenvalue(U @ root)


def aluthge_commutator_bound(A, X, p: float, tol: Tolerances = DEFAULT_TOL) -> InequalityReport:
    """Lower bound on the transformed commutator of a self-adjoint X.

    Hypotheses: X self-adjoint, U* X = X U for the angular part U, and
    a = min eig Re(U |A|^(1/2)) strictly positive. Then with T the
    Aluthge transform of A,

        ||T* X - X T||_p  >=  2 a ||  |A|^(1/2) X - X |A|^(1/2) ||_p.

    Violated hypotheses produce hypotheses_ok = False rather than an
    error; the inequality is then not asserted.
    """
    f, U, root, a = _polar_root(A, tol)
    X = as_square(X)
    if X.shape != f.matrix.shape:
        raise ValueError("X must have the same shape as A")
    p = _validate_p(p)
    self_adjoint = fro_norm(X - adjoint(X)) <= tol.residual_rel * max(fro_norm(X), 1.0)
    commutes = _angular_intertwines(U, U, X, tol)
    hypotheses = bool(a > 0.0 and self_adjoint and commutes)
    T = f.transform(0.5, 0.5)
    lhs = schatten_norm(adjoint(T) @ X - X @ T, p)
    rhs = 2.0 * a * schatten_norm(root @ X - X @ root, p)
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        slack=lhs - rhs,
        hypotheses_ok=hypotheses,
        a_value=float(a),
        p=p,
        details={"self_adjoint": bool(self_adjoint), "angular_commutes": bool(commutes)},
    )


def aluthge_intertwiner_bound(A, B, X, p: float, tol: Tolerances = DEFAULT_TOL) -> InequalityReport:
    """Two-operator lower bound with the block-embedding cross-check.

    Hypotheses: U* X = X V for the two angular parts, and both
    min eig Re(U |A|^(1/2)) and min eig Re(V |B|^(1/2)) at least some
    a > 0 (the certified a is the smaller of the two). Then

        ||T_A* X - X T_B||_p  >=  2 a ||  |A|^(1/2) X - X |B|^(1/2) ||_p.

    The same quantities are recomputed through the block embedding
    diag(A, B) against [[0, X], [X*, 0]], scaled by 2^(-1/p), and
    reported in ``details`` as ``block_lhs`` / ``block_rhs``; both
    routes must agree.
    """
    fa, U, root_a, a_left = _polar_root(A, tol)
    fb, V, root_b, a_right = _polar_root(B, tol)
    A, B = fa.matrix, fb.matrix
    X = as_intertwiner(X, A, B)
    n1, n2 = A.shape[0], B.shape[0]
    p = _validate_p(p)
    a = min(a_left, a_right)
    commutes = _angular_intertwines(U, V, X, tol)
    hypotheses = bool(a > 0.0 and commutes)
    Ta = fa.transform(0.5, 0.5)
    Tb = fb.transform(0.5, 0.5)
    lhs = schatten_norm(adjoint(Ta) @ X - X @ Tb, p)
    rhs = 2.0 * a * schatten_norm(root_a @ X - X @ root_b, p)

    T = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    T[:n1, :n1] = A
    T[n1:, n1:] = B
    Y = block_embed(X, adjoint(X))
    ft = polar_factors(T, tol)
    Tt = ft.transform(0.5, 0.5)
    root_t = ft.power(0.5)
    # Each block commutator holds one corner and, up to sign, its adjoint, so its
    # p-norm is 2^(1/p) times the corner's. Scaling the norm, not its p-th
    # power, keeps a finite result finite; at p = inf the factor is 1.
    half = 0.5 ** (1.0 / p)
    block_lhs = half * schatten_norm(adjoint(Tt) @ Y - Y @ Tt, p)
    block_rhs = 2.0 * a * half * schatten_norm(root_t @ Y - Y @ root_t, p)
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        slack=lhs - rhs,
        hypotheses_ok=hypotheses,
        a_value=float(a),
        p=p,
        details={
            "a_left": float(a_left),
            "a_right": float(a_right),
            "angular_intertwines": bool(commutes),
            "block_lhs": float(block_lhs),
            "block_rhs": float(block_rhs),
        },
    )


def exact_intertwiner_transfer(A, B, X, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """When the transformed relation holds exactly, the positive parts intertwine.

    Under the hypotheses of :func:`aluthge_intertwiner_bound` plus
    T_A* X = X T_B (within tolerance), it follows that |A| X = X |B| and
    that Y = |A| X satisfies A* Y = Y B. Hypothesis violations raise.
    """
    fa, U, _, a_left = _polar_root(A, tol)
    # The pair (A, A) reads its one factorization, transform and norm on both sides.
    fb, V, _, a_right = (fa, U, None, a_left) if B is A else _polar_root(B, tol)
    X = as_intertwiner(X, fa.matrix, fb.matrix)
    a = min(a_left, a_right)
    xn = fro_norm(X)
    if a <= 0.0:
        raise ValueError("hypothesis violated: Re(U |A|^(1/2)) and Re(V |B|^(1/2)) must be positive definite")
    if not _angular_intertwines(U, V, X, tol):
        raise ValueError("hypothesis violated: U* X = X V does not hold within tolerance")
    Ta = fa.transform(0.5, 0.5)
    Tb = Ta if fb is fa else fb.transform(0.5, 0.5)
    norm_ta = op_norm(Ta)
    pre_thr = tol.residual_rel * max((norm_ta + (norm_ta if Tb is Ta else op_norm(Tb))) * xn, 1.0)
    r_pre = fro_norm(adjoint(Ta) @ X - X @ Tb)
    if r_pre > pre_thr:
        raise ValueError("hypothesis violated: the transformed intertwining relation does not hold within tolerance")
    na, nb = fa.norm, fb.norm
    abs_a = fa.power(1.0)
    r_pos = fro_norm(abs_a @ X - X @ fb.power(1.0))
    Y = abs_a @ X
    r_adj = fro_norm(adjoint(fa.matrix) @ Y - Y @ fb.matrix)
    thr_pos = max((sqrt(na) + sqrt(nb)) / (2.0 * a) * pre_thr, tol.residual_rel * max((na + nb) * xn, 1.0))
    thr_adj = na * (thr_pos + tol.residual_rel * max(2.0 * xn, 1.0) * nb) + tol.residual_rel
    ok = bool(r_pos <= thr_pos and r_adj <= thr_adj)
    return CheckReport(
        ok=ok,
        max_residual=max(r_pos, r_adj),
        threshold=max(thr_pos, thr_adj),
        details={
            "positive_transfer_residual": r_pos,
            "adjoint_transfer_residual": r_adj,
            "positive_threshold": thr_pos,
            "adjoint_threshold": thr_adj,
            "a_value": float(a),
        },
    )


def approx_commutator_bound(A, X, delta: float, tol: Tolerances = DEFAULT_TOL) -> InequalityReport:
    """Upper bound on the transformed commutator of a near-commuting X.

    Requires X within delta (operator norm) of commuting with
    |A|^(1/2) and of satisfying U* X = X U; both memberships are
    verified and violations raise. Then with T the transform of A,

        ||T* X - X T||  <=  (2 ||A||^(1/2) + ||A||) delta.

    When a = min eig Re(U |A|^(1/2)) is positive the report also
    carries psi = bound / (2a), the induced commutator bound on
    |A|^(1/2) itself.
    """
    f, U, root, a = _polar_root(A, tol)
    X = as_square(X)
    if X.shape != f.matrix.shape:
        raise ValueError("X must have the same shape as A")
    if not 0.0 <= delta < inf:
        raise ValueError("delta must be finite and nonnegative")
    d_root = op_norm(root @ X - X @ root)
    d_angular = op_norm(adjoint(U) @ X - X @ U)
    if d_root > delta or d_angular > delta:
        raise ValueError("X is not within delta of the required commutants")
    T = f.transform(0.5, 0.5)
    lhs = op_norm(adjoint(T) @ X - X @ T)
    na = f.norm
    rhs = (2.0 * sqrt(na) + na) * delta
    details: dict[str, Any] = {"delta": float(delta), "root_commutator": d_root, "angular_commutator": d_angular}
    if a > 0.0:
        details["psi"] = rhs / (2.0 * a)
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        slack=lhs - rhs,
        hypotheses_ok=True,
        a_value=float(a),
        p=inf,
        details=details,
        upper=True,
    )
