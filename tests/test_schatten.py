"""Tests for Schatten norms and the commutator inequalities."""

from math import inf, sqrt

import numpy as np
import pytest

from aluthge.commutant import commutant_basis
from aluthge.generate import ginibre, pd_min_eig, random_unitary
from aluthge.linalg import adjoint, fro_norm, hermitian_part, op_norm
from aluthge.schatten import (
    InequalityReport,
    aluthge_commutator_bound,
    aluthge_intertwiner_bound,
    approx_commutator_bound,
    block_embed,
    block_identity_check,
    exact_intertwiner_transfer,
    schatten_norm,
)


class TestSchattenNorm:
    def test_diagonal_values(self):
        M = np.diag([3.0, 4.0])
        assert schatten_norm(M, 1.0) == pytest.approx(7.0)
        assert schatten_norm(M, 2.0) == pytest.approx(5.0)
        assert schatten_norm(M, inf) == pytest.approx(4.0)

    def test_unitary_operator_norm(self):
        rng = np.random.default_rng(0)
        assert schatten_norm(random_unitary(rng, 5), inf) == pytest.approx(1.0)

    def test_antidiagonal_trace_norm(self):
        # singular values {2, 1} by hand
        assert schatten_norm([[0.0, 1.0], [2.0, 0.0]], 1.0) == pytest.approx(3.0)

    def test_zero_matrix(self):
        assert schatten_norm(np.zeros((3, 2)), 1.5) == 0.0

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            schatten_norm(np.eye(2), 0.5)
        with pytest.raises(ValueError, match="at least 1"):
            schatten_norm(np.eye(2), float("nan"))

    def test_matches_frobenius_at_two(self):
        rng = np.random.default_rng(1)
        M = ginibre(rng, 4, 6)
        assert schatten_norm(M, 2.0) == pytest.approx(fro_norm(M))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(2)
        M = ginibre(rng, 4)
        Q, W = random_unitary(rng, 4), random_unitary(rng, 4)
        for p in (1.0, 2.5, 4.0, inf):
            assert schatten_norm(Q @ M @ W, p) == pytest.approx(schatten_norm(M, p), rel=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for p in (1.0, 2.0, 3.7, inf):
            for _ in range(5):
                M, N = ginibre(rng, 4), ginibre(rng, 4)
                assert schatten_norm(M + N, p) <= schatten_norm(M, p) + schatten_norm(N, p) + 1e-9

    def test_monotone_in_p(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            M = ginibre(rng, 4)
            values = [schatten_norm(M, p) for p in (1.0, 1.5, 2.0, 4.0, inf)]
            for a, b in zip(values, values[1:]):
                assert a >= b - 1e-9


class TestBlockIdentity:
    def test_scalar_blocks(self):
        # block [[0,1],[2,0]] has singular values {2, 1}
        rep = block_identity_check([[1.0]], [[2.0]], 1.0)
        assert rep.ok
        assert rep.details["lhs"] == pytest.approx(3.0)

    def test_identity_blocks_hilbert_schmidt(self):
        rep = block_identity_check([[1.0]], [[1.0]], 2.0)
        assert rep.ok and rep.details["lhs"] == pytest.approx(2.0)

    def test_rectangular_blocks(self):
        rng = np.random.default_rng(5)
        A, B = ginibre(rng, 3, 2), ginibre(rng, 2, 3)
        for p in (0.5, 1.0, 2.0, 4.0, inf):
            rep = block_identity_check(A, B, p)
            assert rep.ok and rep.max_residual <= 1e-10

    def test_infinity_is_max(self):
        rep = block_identity_check(np.diag([3.0]), np.diag([5.0]), inf)
        assert rep.ok and rep.details["lhs"] == pytest.approx(5.0)

    def test_block_embed_shape_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            block_embed(np.ones((2, 2)), np.ones((2, 3)))

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError, match="positive"):
            block_identity_check([[1.0]], [[1.0]], 0.0)

    def test_rejects_nan_p(self):
        # A NaN order fails every comparison, so it must not pass as positive.
        with pytest.raises(ValueError, match=r"^p must be positive \(or inf\)$"):
            block_identity_check([[1.0]], [[1.0]], float("nan"))


class TestAluthgeCommutatorBound:
    def test_commuting_pd_trivial(self):
        A = np.diag([4.0, 1.0])
        X = np.diag([1.0, 2.0])
        rep = aluthge_commutator_bound(A, X, 2.0)
        assert rep.hypotheses_ok
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_instance(self):
        # A = diag(4,1), X = [[0,1],[1,0]]: AX - XA = [[0,3],[-3,0]] and
        # sqrt(A) X - X sqrt(A) = [[0,1],[-1,0]], a = 1
        A = np.diag([4.0, 1.0])
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = aluthge_commutator_bound(A, X, 2.0)
        assert rep.hypotheses_ok
        assert rep.a_value == pytest.approx(1.0)
        assert rep.lhs == pytest.approx(3.0 * sqrt(2.0))
        assert rep.rhs == pytest.approx(2.0 * sqrt(2.0))
        assert rep.slack > 0

    def test_non_self_adjoint_flags_hypotheses(self):
        rng = np.random.default_rng(6)
        A = pd_min_eig(rng, 3, 1.0)
        X = ginibre(rng, 3)  # not Hermitian
        rep = aluthge_commutator_bound(A, X, 1.0)
        assert not rep.hypotheses_ok
        assert not rep.details["self_adjoint"]

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="^X must have the same shape as A$"):
            aluthge_commutator_bound(np.eye(2), np.eye(3), 2.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, inf])
    def test_pd_ensemble(self, p):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = pd_min_eig(rng, 4, float(rng.uniform(0.25, 2.0)))
            X = hermitian_part(ginibre(rng, 4))
            rep = aluthge_commutator_bound(A, X, p)
            assert rep.hypotheses_ok
            assert rep.slack >= -1e-9 * max(1.0, rep.lhs, rep.rhs)


class TestAluthgeIntertwinerBound:
    def test_hand_computed_rectangular(self):
        # A = diag(4,1), B = [1], X = [1;2]: transformed difference is
        # [3;0] and the root difference is [1;0], with a = 1
        A = np.diag([4.0, 1.0])
        B = np.array([[1.0]])
        X = np.array([[1.0], [2.0]])
        for p in (1.0, 2.0, inf):
            rep = aluthge_intertwiner_bound(A, B, X, p)
            assert rep.hypotheses_ok
            assert rep.a_value == pytest.approx(1.0)
            assert rep.lhs == pytest.approx(3.0)
            assert rep.rhs == pytest.approx(2.0)

    def test_zero_intertwiner(self):
        rep = aluthge_intertwiner_bound(np.diag([2.0]), np.diag([3.0]), np.zeros((1, 1)), 2.0)
        assert rep.hypotheses_ok and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_block_cross_check_agrees(self):
        rng = np.random.default_rng(8)
        for p in (1.0, 2.0, 3.0, inf):
            A = pd_min_eig(rng, 3, 1.0)
            B = pd_min_eig(rng, 2, 1.0)
            X = ginibre(rng, 3, 2)
            rep = aluthge_intertwiner_bound(A, B, X, p)
            scale = max(1.0, rep.lhs, rep.rhs)
            assert abs(rep.lhs - rep.details["block_lhs"]) <= 1e-9 * scale
            assert abs(rep.rhs - rep.details["block_rhs"]) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(24))
    def test_bound_with_intertwined_angular_parts(self, seed):
        # U = Q diag(e^(i theta)) Q* and V shares k of U*'s eigenvalues, so
        # U* X = X V has nonzero solutions X while U and V are far from I.
        rng = np.random.default_rng([42, seed])
        n1, n2 = (int(n) for n in rng.integers(2, 6, size=2))
        k = int(rng.integers(1, min(n1, n2) + 1))
        p = float(rng.choice([1.0, 2.0, 3.0, inf]))
        theta = rng.uniform(-0.6, 0.6, size=n1)
        phi = np.concatenate([-theta[:k], rng.uniform(-0.6, 0.6, size=n2 - k)])
        Q, R = random_unitary(rng, n1), random_unitary(rng, n2)
        U = Q @ (np.exp(1j * theta)[:, None] * adjoint(Q))
        V = R @ (np.exp(1j * phi)[:, None] * adjoint(R))
        A = U @ pd_min_eig(rng, n1, 1.0)
        B = V @ pd_min_eig(rng, n2, 1.0)
        basis = commutant_basis(adjoint(U), V).basis
        assert len(basis) == k
        X = sum((rng.standard_normal() + 1j * rng.standard_normal()) * E for E in basis)
        rep = aluthge_intertwiner_bound(A, B, X, p)
        assert rep.hypotheses_ok and rep.ok
        assert rep.details["block_lhs"] == pytest.approx(rep.lhs, rel=1e-12, abs=0.0)
        assert rep.details["block_rhs"] == pytest.approx(rep.rhs, rel=1e-12, abs=0.0)

    def test_hypotheses_flag_without_intertwining_angulars(self):
        rng = np.random.default_rng(9)
        # unitary angular parts that X does not intertwine
        U = np.diag(np.exp(1j * np.array([0.3, -0.2])))
        A = U @ pd_min_eig(rng, 2, 1.0)
        B = pd_min_eig(rng, 2, 1.0)
        X = ginibre(rng, 2)
        rep = aluthge_intertwiner_bound(A, B, X, 2.0)
        assert not rep.hypotheses_ok


class TestExactIntertwinerTransfer:
    def test_diagonal_instance(self):
        A = np.diag([2.0, 3.0])
        X = np.diag([1.5, -0.5])
        rep = exact_intertwiner_transfer(A, A, X)
        assert rep.ok
        assert rep.details["positive_transfer_residual"] <= 1e-12
        assert rep.details["adjoint_transfer_residual"] <= 1e-12

    def test_commuting_construction(self):
        rng = np.random.default_rng(10)
        Q = random_unitary(rng, 4)
        ev = np.array([1.0, 1.0, 2.0, 2.0])
        M = np.zeros((4, 4), dtype=complex)
        M[:2, :2] = ginibre(rng, 2)
        M[2:, 2:] = ginibre(rng, 2)
        A = hermitian_part(Q @ (ev[:, None] * Q.conj().T))
        X = Q @ M @ Q.conj().T
        assert exact_intertwiner_transfer(A, A, X).ok

    def test_rejects_violated_relation(self):
        rng = np.random.default_rng(11)
        A = pd_min_eig(rng, 3, 1.0)
        X = ginibre(rng, 3)  # generic, does not intertwine the transforms
        with pytest.raises(ValueError, match="transformed intertwining"):
            exact_intertwiner_transfer(A, A, X)

    def test_rejects_angular_root_not_positive_definite(self):
        # A = -I: U = -I and |A| = I, so Re(U |A|^(1/2)) = -I.
        with pytest.raises(ValueError, match=r"^hypothesis violated: Re\(U \|A\|\^\(1/2\)\) and Re\(V"):
            exact_intertwiner_transfer(-np.eye(2), np.eye(2), np.eye(2))

    def test_rejects_x_not_intertwining_angular_parts(self):
        # U = diag(1, e^(i pi/4)) and V = I: U* X - X V = (e^(-i pi/4) - 1) X for X = e_1 e_0^T.
        A = np.diag([1.0, np.exp(0.25j * np.pi)])
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"^hypothesis violated: U\* X = X V does not hold"):
            exact_intertwiner_transfer(A, np.eye(2), X)


class TestApproxCommutatorBound:
    def test_delta_zero_exact_member(self):
        A = np.eye(3)
        X = np.diag([1.0, 2.0, 3.0])
        rep = approx_commutator_bound(A, X, 0.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_identity_gives_three_delta(self):
        rng = np.random.default_rng(12)
        X = ginibre(rng, 3)
        delta = 0.5
        # X commutes with both sqrt(I) = I and the angular part I
        rep = approx_commutator_bound(np.eye(3), X, delta)
        assert rep.rhs == pytest.approx(3.0 * delta)
        assert rep.lhs <= rep.rhs + 1e-12

    def test_random_ensemble(self):
        rng = np.random.default_rng(13)
        from aluthge.polar import polar_decompose
        from psd_reference import psd_power

        for _ in range(20):
            A, X = ginibre(rng, 4), ginibre(rng, 4)
            parts = polar_decompose(A)
            root = psd_power(parts.positive, 0.5)
            delta = max(
                op_norm(root @ X - X @ root),
                op_norm(adjoint(parts.angular) @ X - X @ parts.angular),
            )
            rep = approx_commutator_bound(A, X, delta)
            assert rep.slack <= 1e-9 * max(1.0, rep.lhs, rep.rhs)
            if rep.a_value > 0:
                assert rep.details["psi"] == pytest.approx(rep.rhs / (2 * rep.a_value))

    def test_rejects_distant_x(self):
        rng = np.random.default_rng(14)
        A, X = ginibre(rng, 3), ginibre(rng, 3)
        with pytest.raises(ValueError, match="within delta"):
            approx_commutator_bound(A, X, 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="^X must have the same shape as A$"):
            approx_commutator_bound(np.eye(3), np.eye(2), 0.5)


def _slack_verdict(rep, upper):
    """Reference verdict (ok, violation, allowance) of a lower or upper bound."""
    allowance = 1e-9 * max(1.0, rep.lhs, rep.rhs)
    if upper:
        return bool(rep.slack <= allowance), max(0.0, rep.slack), allowance
    return bool(rep.hypotheses_ok and rep.slack >= -allowance), max(0.0, -rep.slack), allowance


_AT_ALLOWANCE = 1e-9 * 3.0


class TestInequalityVerdict:
    @pytest.mark.parametrize(
        "lhs,rhs,slack,hypotheses_ok,upper,expected_ok",
        [
            (2.0, 1.0, 1.0, False, False, False),  # lower bound met, hypotheses fail
            (2.0, 1.0, 1.0, True, False, True),
            (0.5, 0.25, -0.75, True, False, False),  # lower bound violated
            (1.0, 2.0, -1.0, False, True, True),  # upper bound, negative slack
            (2.0, 1.0, 1.0, True, True, False),  # upper bound violated
            (3.0, 3.0, -_AT_ALLOWANCE, True, False, True),  # exactly at -allowance
            (3.0, 3.0, np.nextafter(-_AT_ALLOWANCE, -1.0), True, False, False),
            (3.0, 3.0, _AT_ALLOWANCE, True, True, True),  # exactly at +allowance
            (3.0, 3.0, np.nextafter(_AT_ALLOWANCE, 1.0), True, True, False),
            (0.0, 0.0, 0.0, True, False, True),  # allowance floored at max(1, ...)
        ],
    )
    def test_matches_reference_formulas(self, lhs, rhs, slack, hypotheses_ok, upper, expected_ok):
        rep = InequalityReport(
            lhs=lhs, rhs=rhs, slack=float(slack), hypotheses_ok=hypotheses_ok, a_value=1.0, p=2.0, upper=upper
        )
        assert (rep.ok, rep.max_residual, rep.threshold) == _slack_verdict(rep, upper)
        assert rep.ok is expected_ok

    def test_only_the_near_commutation_bound_is_upper(self):
        A, X = np.diag([4.0, 1.0]), np.diag([1.0, 2.0])
        assert approx_commutator_bound(A, X, 0.0).upper
        assert not aluthge_commutator_bound(A, X, 2.0).upper
        assert not aluthge_intertwiner_bound(A, A, X, 2.0).upper
