"""Tests for commutant spaces, FP verdicts and the related classifiers."""

import numpy as np
import pytest

from aluthge.commutant import (
    BOTH_HYPONORMAL,
    NEITHER_HYPONORMAL,
    aluthge_intertwiner_map,
    basis_inclusion,
    com_delta_membership,
    com_inclusion,
    commutant_basis,
    fp_property,
    hyponormal_class,
    intertwiner_polar_identities,
    odd_root_unity_check,
    power_intertwining_check,
    reduces_check,
    semicircle_check,
    squared_angular_criterion,
    sylvester_matrix,
)
from aluthge.generate import (
    KIND_INVERTIBLE_FP,
    KIND_NORMAL_PAIR,
    draw,
    ginibre,
    hyponormal_matrix,
    random_unitary,
)
from aluthge.linalg import adjoint, fro_norm, op_norm
from aluthge.polar import aluthge, polar_decompose

FP_FAIL_A = np.array([[2.0, -3.0], [1.0, -2.0]], dtype=complex)
FP_FAIL_X = np.array([[0.0, -3.0], [1.0, -4.0]], dtype=complex)
JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def combo(rng, basis):
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    X = sum(ck * E for ck, E in zip(c, basis))
    return X / fro_norm(X)


class TestSylvesterMatrix:
    def test_scalar_zero(self):
        np.testing.assert_array_equal(sylvester_matrix([[0.0]], [[0.0]]), [[0.0]])

    def test_scalars(self):
        np.testing.assert_allclose(sylvester_matrix([[5.0]], [[3.0]]), [[2.0]])

    def test_diagonal_formula(self):
        # entrywise action is a_j - b_k
        L = sylvester_matrix(np.diag([1.0, 2.0]), [[3.0]])
        np.testing.assert_allclose(L, np.diag([-2.0, -1.0]))

    def test_matches_vec_action(self):
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        for _ in range(10):
            n1, n2 = rng.integers(1, 5, size=2)
            A, B, X = ginibre(rng, n1), ginibre(rng, n2), ginibre(rng, n1, n2)
            L = sylvester_matrix(A, B)
            lifted = (L @ X.reshape(-1, order="F")).reshape((n1, n2), order="F")
            scale = max(n1, n2) * (fro_norm(A) + fro_norm(B)) * fro_norm(X)
            assert fro_norm(lifted - (A @ X - X @ B)) <= 10 * eps * scale


def brute_force_nullity(ev_a, ev_b):
    """Count eigenvalue coincidences; equals dim Com for diagonalizable pairs."""
    return sum(1 for x in ev_a for y in ev_b if x == y)


class TestCommutantBasis:
    def test_scalar_multiple_of_identity(self):
        cb = commutant_basis(1.5 * np.eye(2), 1.5 * np.eye(2))
        assert cb.nullity == 4

    def test_single_matching_entry(self):
        # a_j X_jk = X_jk b_k forces support on the (2,1) entry
        cb = commutant_basis(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]))
        assert cb.nullity == 1
        X = cb.basis[0]
        assert abs(abs(X[1, 0]) - 1.0) < 1e-12
        np.testing.assert_allclose(np.delete(X.reshape(-1), 2), 0.0, atol=1e-12)

    def test_disjoint_spectra(self):
        cb = commutant_basis(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert cb.nullity == 0

    def test_orthonormal_and_small_residuals(self):
        rng = np.random.default_rng(1)
        A, B = draw(KIND_NORMAL_PAIR, 4, rng)
        cb = commutant_basis(A, B)
        assert cb.dim_domain == (4, 4)
        gram = np.array([[np.vdot(E, F) for F in cb.basis] for E in cb.basis])
        np.testing.assert_allclose(gram, np.eye(cb.nullity), atol=1e-12)
        thr = 1e-8 * (op_norm(A) + op_norm(B))
        assert all(r <= thr for r in cb.residuals)

    def test_nullity_matches_eigenvalue_coincidences(self):
        rng = np.random.default_rng(2)
        values = np.array([1.0, 2.0, -1.0, 0.5j, 1.0 + 1.0j])
        for _ in range(20):
            n1, n2 = rng.integers(2, 5, size=2)
            ev_a = rng.choice(values, size=n1)
            ev_b = rng.choice(values, size=n2)
            S1, S2 = ginibre(rng, n1) + 2 * np.eye(n1), ginibre(rng, n2) + 2 * np.eye(n2)
            A = S1 @ (ev_a[:, None] * np.linalg.inv(S1))
            B = S2 @ (ev_b[:, None] * np.linalg.inv(S2))
            assert commutant_basis(A, B).nullity == brute_force_nullity(ev_a, ev_b)


class TestFpProperty:
    def test_normal_pairs_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A, B = draw(KIND_NORMAL_PAIR, int(rng.integers(2, 6)), rng)
            rep = fp_property(A, B)
            assert rep.holds and rep.witness is None

    def test_hermitian_and_unitary_pairs_hold(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            Q = random_unitary(rng, 3)
            H = Q @ (rng.choice([1.0, 2.0], size=3)[:, None] * Q.conj().T)
            rep = fp_property(H, H)
            assert rep.holds and rep.com_dim >= 3
            U = random_unitary(rng, 3)
            assert fp_property(U, U).holds

    def test_counterexample_fails_with_witness(self):
        rep = fp_property(FP_FAIL_A, FP_FAIL_A)
        assert not rep.holds
        assert rep.max_residual >= 1.0
        assert rep.com_dim == 2
        assert rep.witness is not None
        # the known violating intertwiner lies in the computed span
        cb = commutant_basis(FP_FAIL_A, FP_FAIL_A)
        proj = sum(np.vdot(E, FP_FAIL_X) * E for E in cb.basis)
        assert fro_norm(proj - FP_FAIL_X) <= 1e-9 * fro_norm(FP_FAIL_X)
        # hand computation: A*X - XA* for that intertwiner
        defect = adjoint(FP_FAIL_A) @ FP_FAIL_X - FP_FAIL_X @ adjoint(FP_FAIL_A)
        np.testing.assert_allclose(defect, [[-8.0, -16.0], [-16.0, 8.0]], atol=1e-12)

    def test_vacuous_when_commutant_trivial(self):
        rep = fp_property(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert rep.holds and rep.com_dim == 0 and rep.witness is None

    def test_verdict_scale_invariant(self):
        rng = np.random.default_rng(31)
        A, B = draw(KIND_NORMAL_PAIR, 3, rng)
        for M in (FP_FAIL_A, None):
            for c in (1e-3, 1.0, 1e3):
                if M is None:
                    assert fp_property(c * A, c * B).holds
                else:
                    assert not fp_property(c * M, c * M).holds


class TestComInclusion:
    def test_reflexive(self):
        rng = np.random.default_rng(4)
        A, B = draw(KIND_NORMAL_PAIR, 3, rng)
        assert com_inclusion(A, B, A, B).holds

    def test_invertible_fp_pair_equality(self):
        rng = np.random.default_rng(5)
        A, B = draw(KIND_INVERTIBLE_FP, 4, rng)
        Ta, Tb = aluthge(A), aluthge(B)
        assert com_inclusion(A, B, Ta, Tb).holds
        assert com_inclusion(Ta, Tb, A, B).holds

    def test_jordan_block_strictness(self):
        # transform of the block vanishes: forward inclusion holds, the
        # reverse fails because everything intertwines the zero pair
        T = aluthge(JORDAN)
        np.testing.assert_allclose(T, np.zeros((2, 2)), atol=1e-14)
        assert com_inclusion(JORDAN, JORDAN, T, T).holds
        rev = com_inclusion(T, T, JORDAN, JORDAN)
        assert not rev.holds
        assert rev.com_dim == 4 and rev.witness is not None

    def test_shape_mismatch(self, monkeypatch):
        def no_solve(A, B):
            raise AssertionError("the commutant was solved")

        # the spaces are compared before Com(A1, B1) is solved
        monkeypatch.setattr("aluthge.commutant.sylvester_matrix", no_solve)
        with pytest.raises(ValueError, match="mismatched"):
            com_inclusion(np.eye(2), np.eye(2), np.eye(3), np.eye(2))
        with pytest.raises(ValueError, match="mismatched"):
            com_inclusion(np.eye(2), np.eye(3), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("holding", [True, False])
    def test_solved_basis_matches_one_shot(self, holding):
        if holding:
            A, B = draw(KIND_INVERTIBLE_FP, 4, np.random.default_rng(5))
            A2, B2 = aluthge(A), aluthge(B)
        else:
            A, B = FP_FAIL_A, FP_FAIL_A
            A2, B2 = adjoint(A), adjoint(A)
        one_shot = com_inclusion(A, B, A2, B2)
        solved = basis_inclusion(commutant_basis(A, B), A2, B2)
        assert one_shot.holds is solved.holds is holding
        assert solved.max_residual == one_shot.max_residual
        assert solved.com_dim == one_shot.com_dim >= 1
        if holding:
            assert solved.witness is None and one_shot.witness is None
        else:
            np.testing.assert_array_equal(solved.witness, one_shot.witness)


class TestIntertwinerPolarIdentities:
    def test_pd_commuting(self):
        A = np.diag([2.0, 3.0])
        rep = intertwiner_polar_identities(A, A, np.diag([1.0, 5.0]))
        assert rep.ok
        d = rep.details
        assert d["in_com"] and d["in_com_star"] and d["polar_identity"] and d["fixed_point"]

    def test_normal_member(self):
        rng = np.random.default_rng(6)
        A, B = draw(KIND_INVERTIBLE_FP, 3, rng)
        X = combo(rng, commutant_basis(A, B).basis)
        rep = intertwiner_polar_identities(A, B, X)
        assert rep.ok and rep.details["in_com"] and rep.details["polar_identity"]

    def test_non_member_fails_identity(self):
        rng = np.random.default_rng(7)
        A, B = draw(KIND_INVERTIBLE_FP, 3, rng)
        X = ginibre(rng, 3)
        rep = intertwiner_polar_identities(A, B, X)
        assert rep.ok  # biconditional still consistent
        assert not rep.details["in_com"] and not rep.details["polar_identity"]

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="invertible"):
            intertwiner_polar_identities(JORDAN, np.eye(2), np.eye(2))


class TestPowerIntertwining:
    def test_power_two_double_intertwiner(self):
        rng = np.random.default_rng(8)
        A, B = draw(KIND_INVERTIBLE_FP, 3, rng)
        X = combo(rng, commutant_basis(A, B).basis)
        assert power_intertwining_check(A, B, X, 2.0).ok

    def test_fractional_power_normal(self):
        rng = np.random.default_rng(9)
        A, _ = draw(KIND_INVERTIBLE_FP, 4, rng)
        X = combo(rng, commutant_basis(A, A).basis)
        assert power_intertwining_check(A, A, X, 0.5).ok

    def test_zero_intertwiner(self):
        assert power_intertwining_check(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.zeros((2, 2)), 1.3).ok

    def test_rejects_non_member(self):
        rng = np.random.default_rng(10)
        A, B = draw(KIND_INVERTIBLE_FP, 3, rng)
        with pytest.raises(ValueError, match="intertwine"):
            power_intertwining_check(A, B, ginibre(rng, 3), 2.0)


class TestAluthgeIntertwinerMap:
    def test_forward_lands_in_transformed_commutant(self):
        rng = np.random.default_rng(11)
        A, B = draw(KIND_INVERTIBLE_FP, 3, rng)
        X = combo(rng, commutant_basis(A, B).basis)
        Y = aluthge_intertwiner_map(A, B, X, "forward")
        Ta, Tb = aluthge(A), aluthge(B)
        assert fro_norm(Ta @ Y - Y @ Tb) <= 1e-8 * (op_norm(Ta) + op_norm(Tb)) * max(fro_norm(Y), 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        A, B = draw(KIND_INVERTIBLE_FP, 3, rng)
        X = ginibre(rng, 3)
        back = aluthge_intertwiner_map(A, B, aluthge_intertwiner_map(A, B, X, "forward"), "inverse")
        assert fro_norm(back - X) <= 1e-10 * fro_norm(X)

    def test_pd_case(self):
        A = np.diag([4.0, 1.0])
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.diag([2.0, 1.0]) @ X @ np.diag([0.5, 1.0])
        np.testing.assert_allclose(aluthge_intertwiner_map(A, A, X, "forward"), expected, atol=1e-12)

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            aluthge_intertwiner_map(np.eye(2), np.eye(2), np.eye(2), "up")

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="invertible"):
            aluthge_intertwiner_map(JORDAN, np.eye(2), np.eye(2))


class TestSquaredAngularCriterion:
    def test_normal_invertible_both_sides(self):
        rng = np.random.default_rng(13)
        A, B = draw(KIND_INVERTIBLE_FP, 3, rng)
        rep = squared_angular_criterion(A, B)
        assert rep.ok
        assert rep.details["transformed_pair_fp"] and rep.details["squared_intertwine"]

    def test_trivial_commutant_vacuous(self):
        rep = squared_angular_criterion(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert rep.ok and rep.details["com_dim"] == 0

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="invertible"):
            squared_angular_criterion(JORDAN, np.eye(2))


class TestSemicircle:
    def test_tight_cluster(self):
        assert semicircle_check(np.diag(np.exp(1j * np.array([0.1, 0.2]))))

    def test_antipodal_pair(self):
        assert not semicircle_check(np.diag([1.0, -1.0]))

    def test_identity(self):
        assert semicircle_check(np.eye(3))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            semicircle_check(np.diag([2.0, 1.0]))


class TestOddRootUnity:
    def test_identity_pair(self):
        assert odd_root_unity_check(np.eye(2), np.eye(2), 3)

    def test_third_roots(self):
        w = np.exp(2j * np.pi / 3)
        U = np.diag([w, w**2])
        assert odd_root_unity_check(U, U, 1)

    def test_cube_root_example_angular_fails(self):
        U = polar_decompose(np.array([[0.0, 1.0], [-1.0, -1.0]])).angular
        assert not odd_root_unity_check(U, U, 1)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="positive"):
            odd_root_unity_check(np.eye(2), np.eye(2), 0)


class TestHyponormalClass:
    def test_normal_is_both(self):
        rng = np.random.default_rng(14)
        A = hyponormal_matrix(rng, 4)
        assert hyponormal_class(A, 1.0) == BOTH_HYPONORMAL

    def test_jordan_is_neither(self):
        # (A*A) - (AA*) = diag(-1, 1) by hand, indefinite
        assert hyponormal_class(JORDAN, 1.0, include_log=False) == NEITHER_HYPONORMAL

    def test_log_test_requires_invertible(self):
        with pytest.raises(ValueError, match="invertible"):
            hyponormal_class(JORDAN, 1.0)

    def test_invertible_p_hyponormal_is_log_hyponormal(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            A = hyponormal_matrix(rng, 3)
            assert hyponormal_class(A, float(rng.uniform(0.3, 2.0))) == BOTH_HYPONORMAL


class TestReducesCheck:
    def test_full_space_reflects_normality(self):
        rng = np.random.default_rng(16)
        A = hyponormal_matrix(rng, 3)
        rep = reduces_check(A, np.eye(3))
        assert rep.ok and rep.details["restriction_normal"]
        rep2 = reduces_check(JORDAN, np.eye(2))
        assert rep2.ok and not rep2.details["restriction_normal"]

    def test_zero_intertwiner_vacuous(self):
        rep = reduces_check(JORDAN, np.zeros((2, 2)))
        assert rep.ok and rep.details["rank"] == 0

    def test_normal_pair_member_reduces_with_matching_spectra(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            A, B = draw(KIND_NORMAL_PAIR, 4, rng)
            X = combo(rng, commutant_basis(A, B).basis)
            ra = reduces_check(A, X, "range")
            rb = reduces_check(B, X, "kernel_complement")
            assert ra.ok and ra.details["restriction_normal"]
            assert rb.ok and rb.details["restriction_normal"]
            sa = ra.details["restriction_spectrum"]
            sb = rb.details["restriction_spectrum"]
            assert sa.shape == sb.shape
            np.testing.assert_allclose(sa, sb, atol=1e-7)

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError, match="side"):
            reduces_check(JORDAN, np.eye(2), "diagonal")


class TestComDeltaMembership:
    def test_exact_commutant_any_delta(self):
        A = np.diag([1.0, 2.0])
        assert com_delta_membership(A, A, np.eye(2), 0.0)
        assert com_delta_membership(A, A, A, 0.0)

    def test_known_commutator_norm(self):
        # AX - XB = [[0,-1],[0,0]] by hand, operator norm 1
        A = np.diag([1.0, 2.0])
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert com_delta_membership(A, A, X, 1.0)
        assert not com_delta_membership(A, A, X, 0.5)

    def test_generous_bound(self):
        rng = np.random.default_rng(18)
        A, X = ginibre(rng, 3), ginibre(rng, 3)
        assert com_delta_membership(A, A, X, 2.0 * op_norm(A) * op_norm(X))

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError, match="nonnegative"):
            com_delta_membership(np.eye(2), np.eye(2), np.eye(2), -1.0)
