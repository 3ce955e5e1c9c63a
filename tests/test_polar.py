"""Tests for polar decompositions and the transform family."""

import numpy as np
import pytest

from aluthge.generate import ginibre, random_unitary
from aluthge.linalg import Tolerances, hermitian_part, op_norm
from aluthge.polar import (
    MODE_PARTIAL,
    MODE_UNITARY,
    aluthge,
    aluthge_iterate,
    aluthge_st,
    involution_angular_check,
    polar_decompose,
    polar_factors,
    product_polar_check,
)
from psd_reference import psd_power

SQRT5 = np.sqrt(5.0)
CUBE_ROOT_A = np.array([[0.0, 1.0], [-1.0, -1.0]], dtype=complex)
JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_normal(rng, n):
    ev = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Q = random_unitary(rng, n)
    return Q @ (ev[:, None] * Q.conj().T)


class TestPolarDecompose:
    def test_cube_root_example_parts(self):
        parts = polar_decompose(CUBE_ROOT_A)
        np.testing.assert_allclose(parts.positive, (SQRT5 / 5) * np.array([[2, 1], [1, 3]]), atol=1e-12)
        np.testing.assert_allclose(parts.angular, (SQRT5 / 5) * np.array([[-1, 2], [-2, -1]]), atol=1e-12)
        assert parts.rank == 2

    def test_cube_root_example_angular_cube(self):
        # U^3 is forced by U; its value was verified by direct hand
        # multiplication, and it is not the identity.
        U = polar_decompose(CUBE_ROOT_A).angular
        U3 = U @ U @ U
        np.testing.assert_allclose(U3, (SQRT5 / 25) * np.array([[11, -2], [2, 11]]), atol=1e-12)
        assert op_norm(U3 - np.eye(2)) > 0.1
        np.testing.assert_allclose(U3.conj().T @ U3, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize(
        "entry",
        [complex(v, 0.0) for v in (np.nan, np.inf, -np.inf)]
        + [complex(0.0, v) for v in (np.nan, np.inf, -np.inf)]
        + [complex(np.inf, np.nan)],
    )
    def test_rejects_non_finite_entry(self, entry):
        with pytest.raises(ValueError, match="finite"):
            polar_decompose([[1.0, entry], [0.0, 1.0]])

    def test_factoring_accepts_largest_parts(self):
        f = polar_factors([[1e308 + 1e308j]])
        np.testing.assert_allclose(f.s, [np.hypot(1e308, 1e308)], rtol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "M, positive",
        [(np.diag([9e307, 1.0]), np.diag([9e307, 1.0])), ([[1e308 + 1e308j]], [[np.hypot(1e308, 1e308)]])],
    )
    def test_positive_part_of_entries_above_half_the_largest_double(self, M, positive):
        parts = polar_decompose(M)
        assert np.isfinite(parts.positive).all()
        np.testing.assert_allclose(parts.positive, positive, rtol=1e-15)

    def test_hermitian_pd_input(self):
        rng = np.random.default_rng(1)
        G = ginibre(rng, 3)
        A = hermitian_part(G @ G.conj().T) + np.eye(3)
        parts = polar_decompose(A)
        np.testing.assert_allclose(parts.angular, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(parts.positive, A, atol=1e-10)

    def test_jordan_block_partial(self):
        parts = polar_decompose(JORDAN, MODE_PARTIAL)
        np.testing.assert_allclose(parts.positive, np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(parts.angular, JORDAN, atol=1e-14)
        assert parts.rank == 1
        # initial space of the partial isometry = range of the positive part
        proj = parts.angular.conj().T @ parts.angular
        np.testing.assert_allclose(proj, np.diag([0.0, 1.0]), atol=1e-14)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            polar_decompose(JORDAN, "sideways")

    @pytest.mark.parametrize("mode", [MODE_UNITARY, MODE_PARTIAL])
    def test_reconstruction(self, mode):
        rng = np.random.default_rng(2)
        for k in range(20):
            n = int(rng.integers(1, 7))
            A = ginibre(rng, n)
            if k % 3 == 0 and n > 1:  # exercise rank deficiency
                A[:, 0] = A[:, 1]
            parts = polar_decompose(A, mode)
            assert op_norm(parts.angular @ parts.positive - A) <= 1e-8 * max(op_norm(A), 1e-30)

    def test_invertible_gives_unitary_angular(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = ginibre(rng, 4) + 3 * np.eye(4)
            U = polar_decompose(A).angular
            assert op_norm(U.conj().T @ U - np.eye(4)) <= 1e-10

    def test_partial_isometry_initial_space(self):
        rng = np.random.default_rng(21)
        for k in range(10):
            A = ginibre(rng, 4)
            if k % 2:
                A[:, 0] = A[:, 1] * 2.0
            parts = polar_decompose(A, MODE_PARTIAL)
            range_proj = psd_power(parts.positive, 0.0)
            assert op_norm(parts.angular.conj().T @ parts.angular - range_proj) <= 1e-8


def factor_case(kind, n):
    """Full-rank Ginibre, rank-one-deficient or zero test matrix of size n."""
    rng = np.random.default_rng(n)
    A = ginibre(rng, n)
    if kind == "deficient":
        A[:, -1] = A[:, :-1] @ rng.standard_normal(n - 1)
    elif kind == "zero":
        A = np.zeros((n, n), dtype=complex)
    return A


FACTOR_SIZES = [1, 3, 6, 32]


class TestPolarFactors:
    @pytest.mark.parametrize("n", FACTOR_SIZES)
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_power_matches_psd_power(self, n, p):
        A = factor_case("full", n)
        f = polar_factors(A)
        reference = psd_power(polar_decompose(A).positive, p)
        assert op_norm(f.power(p) - reference) <= 1e-10 * f.norm**p

    @pytest.mark.parametrize("n", FACTOR_SIZES)
    def test_negative_power_inverts(self, n):
        f = polar_factors(factor_case("full", n))
        cond = f.s[0] / f.s[-1]
        assert op_norm(f.power(-0.5) @ f.power(0.5) - np.eye(n)) <= 1e-12 * n * cond

    @pytest.mark.parametrize("kind", ["full", "deficient", "zero"])
    @pytest.mark.parametrize("n", FACTOR_SIZES)
    @pytest.mark.parametrize("s,t", [(0.5, 0.5), (0.3, 0.7)])
    def test_transform_matches_factored_form(self, kind, n, s, t):
        f = polar_factors(factor_case(kind, n))
        factored = f.power(s) @ f.angular() @ f.power(t)
        assert op_norm(f.transform(s, t) - factored) <= 1e-10 * f.norm ** (s + t)

    @pytest.mark.parametrize("kind", ["deficient", "zero"])
    @pytest.mark.parametrize("n", FACTOR_SIZES)
    def test_invertibility_guard(self, kind, n):
        f = polar_factors(factor_case(kind, n))
        assert f.rank < n
        with pytest.raises(ValueError, match="A must be invertible for this check"):
            f.require_invertible("A")
        with pytest.raises(ValueError, match="invertible"):
            f.power(-0.5)

    @pytest.mark.parametrize("kind", ["full", "deficient", "zero"])
    @pytest.mark.parametrize("n", FACTOR_SIZES)
    def test_adjoint_factors_the_adjoint(self, kind, n):
        A = factor_case(kind, n)
        f = polar_factors(A)
        g = f.adjoint()
        np.testing.assert_array_equal(g.matrix, A.conj().T)
        assert op_norm((g.W * g.s) @ g.Qh - A.conj().T) <= 1e-13 * max(f.norm, 1.0)
        np.testing.assert_array_equal(g.s, f.s)
        assert g.rank == f.rank

    @pytest.mark.parametrize("kind", ["full", "deficient", "zero"])
    @pytest.mark.parametrize("n", FACTOR_SIZES)
    def test_aluthge_factors_the_transform(self, kind, n):
        A = factor_case(kind, n)
        g = polar_factors(A).aluthge()
        np.testing.assert_array_equal(g.matrix, aluthge(A))
        assert op_norm((g.W * g.s) @ g.Qh - g.matrix) <= 1e-13 * max(g.norm, 1.0)

    @pytest.mark.parametrize("kind", ["full", "deficient", "zero"])
    @pytest.mark.parametrize("n", FACTOR_SIZES)
    def test_iterate_norms_are_iterate_norms(self, kind, n):
        traj = aluthge_iterate(factor_case(kind, n), 5)
        assert len(traj.norms) == len(traj.iterates) == 6
        for M, norm in zip(traj.iterates, traj.norms):
            assert norm == pytest.approx(op_norm(M), rel=1e-12)

    @pytest.mark.parametrize("kind", ["full", "deficient", "zero"])
    def test_factors_come_back_when_the_rank_stays(self, kind):
        f = polar_factors(factor_case(kind, 6))
        assert polar_factors(f) is f
        assert polar_factors(f, Tolerances(residual_rel=0.5)) is f

    def test_factors_are_cut_again_at_another_rank_rel(self):
        A = np.diag([1.0, 1e-3, 1e-7]).astype(complex)
        f = polar_factors(A)
        assert f.rank == 3
        for rank_rel, rank in [(1e-5, 2), (1e-2, 1), (1e-10, 3)]:
            tol = Tolerances(rank_rel=rank_rel)
            g = polar_factors(f, tol)
            fresh = polar_factors(A, tol)
            assert g.rank == fresh.rank == rank
            assert g.W is f.W and g.s is f.s and g.Qh is f.Qh and g.matrix is f.matrix
            np.testing.assert_array_equal(g.transform(0.3, 0.7), fresh.transform(0.3, 0.7))
            np.testing.assert_array_equal(g.angular(MODE_PARTIAL), fresh.angular(MODE_PARTIAL))
        assert f.rank == 3


class TestAluthge:
    def test_pd_fixed_point(self):
        A = np.diag([2.0, 5.0])
        np.testing.assert_allclose(aluthge(A), A, atol=1e-12)

    def test_jordan_block_vanishes(self):
        # |A|^(1/2) U = diag(0,1) @ [[0,1],[0,0]] = 0 by hand
        np.testing.assert_allclose(aluthge(JORDAN), np.zeros((2, 2)), atol=1e-14)

    def test_normal_fixed_point(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = random_normal(rng, 4)
            np.testing.assert_allclose(aluthge(A), A, atol=1e-9 * max(op_norm(A), 1.0))

    def test_mode_independent(self):
        # |A|^(1/2) annihilates the kernel, so both angular conventions
        # give the same transform up to sqrt(rank_rel)-sized dust.
        rng = np.random.default_rng(5)
        for k in range(10):
            A = ginibre(rng, 4)
            if k % 2:
                A[:, 0] = 0.0
            root = psd_power(polar_decompose(A).positive, 0.5)
            via_unitary = root @ polar_decompose(A, MODE_UNITARY).angular @ root
            via_partial = root @ polar_decompose(A, MODE_PARTIAL).angular @ root
            assert op_norm(via_unitary - via_partial) <= 1e-5 * max(op_norm(A), 1e-30)
            assert op_norm(aluthge(A) - via_partial) <= 1e-5 * max(op_norm(A), 1e-30)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = ginibre(rng, 4)
            Q = random_unitary(rng, 4)
            lhs = aluthge(Q @ A @ Q.conj().T)
            rhs = Q @ aluthge(A) @ Q.conj().T
            assert op_norm(lhs - rhs) <= 1e-8 * op_norm(A)


class TestAluthgeSt:
    def test_half_half_matches_plain(self):
        rng = np.random.default_rng(7)
        A = ginibre(rng, 3)
        np.testing.assert_array_equal(aluthge_st(A, 0.5, 0.5), aluthge(A))

    def test_pd_exponent_split(self):
        rng = np.random.default_rng(8)
        G = ginibre(rng, 3)
        A = hermitian_part(G @ G.conj().T) + np.eye(3)
        for s in (0.25, 0.5, 0.9):
            np.testing.assert_allclose(aluthge_st(A, s, 1.0 - s), A, atol=1e-10)

    def test_jordan_one_one(self):
        np.testing.assert_allclose(aluthge_st(JORDAN, 1.0, 1.0), np.zeros((2, 2)), atol=1e-14)

    @pytest.mark.parametrize("s,t", [(0.0, 0.5), (0.5, 0.0), (-1.0, 1.0), (np.nan, 0.5), (0.5, np.inf)])
    def test_rejects_nonpositive_exponents(self, s, t):
        with pytest.raises(ValueError, match="positive and finite"):
            aluthge_st(JORDAN, s, t)


class TestAluthgeIterate:
    def test_jordan_trajectory(self):
        traj = aluthge_iterate(JORDAN, 3)
        np.testing.assert_allclose(traj.norms, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert traj.radius == pytest.approx(0.0, abs=1e-12)
        assert len(traj.iterates) == 4

    def test_normal_constant(self):
        rng = np.random.default_rng(9)
        A = random_normal(rng, 3)
        traj = aluthge_iterate(A, 4)
        for it in traj.iterates:
            np.testing.assert_allclose(it, A, atol=1e-8 * op_norm(A))

    def test_pd_norms_equal_radius(self):
        A = np.diag([3.0, 1.0, 0.5])
        traj = aluthge_iterate(A, 3)
        np.testing.assert_allclose(traj.norms, [3.0] * 4, atol=1e-12)
        assert traj.radius == pytest.approx(3.0)

    def test_norms_nonincreasing_and_floored(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            A = ginibre(rng, 4)
            traj = aluthge_iterate(A, 8)
            for a, b in zip(traj.norms, traj.norms[1:]):
                assert b <= a + 1e-9
            assert all(v >= traj.radius - 1e-9 for v in traj.norms)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError, match="at least 1"):
            aluthge_iterate(JORDAN, 0)

    def test_refuses_oversized_trajectory(self, monkeypatch):
        # Five iterates of 2 x 2 hold 20 entries, refused only once the cap
        # is below that, and before the first step factors anything.
        monkeypatch.setattr("aluthge.polar._DENSE_MAX", 20)
        assert len(aluthge_iterate(JORDAN, 4).iterates) == 5
        monkeypatch.setattr("aluthge.polar._DENSE_MAX", 19)
        monkeypatch.setattr("aluthge.polar.polar_factors", lambda *args: pytest.fail("the iteration started"))
        with pytest.raises(ValueError, match="5 iterates of size 2x2 \\(20 entries\\), above the 19"):
            aluthge_iterate(JORDAN, 4)

    def test_long_trajectory_is_refused_at_the_default_cap(self, monkeypatch):
        # 100001 iterates of 64 x 64 would hold 6.6 GB; the refusal comes first.
        monkeypatch.setattr("aluthge.polar.polar_factors", lambda *args: pytest.fail("the iteration started"))
        with pytest.raises(ValueError, match="100001 iterates of size 64x64 \\(409604096 entries\\)"):
            aluthge_iterate(np.eye(64), 100000)


class TestProductPolar:
    def test_identity_pair(self):
        rep = product_polar_check(np.eye(3), np.eye(3))
        assert rep.ok
        assert rep.max_residual <= 1e-12

    def test_unitary_pair(self):
        rng = np.random.default_rng(11)
        T, S = random_unitary(rng, 4), random_unitary(rng, 4)
        rep = product_polar_check(T, S)
        assert rep.ok

    def test_invertible_ensemble(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            T = ginibre(rng, 3) + 2 * np.eye(3)
            S = ginibre(rng, 3) + 2 * np.eye(3)
            rep = product_polar_check(T, S)
            assert rep.ok and rep.max_residual <= 1e-8 * op_norm(T) * op_norm(S)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            product_polar_check(np.eye(2), np.eye(3))


class TestInvolutionAngular:
    def test_known_involution(self):
        A = np.array([[2.0, -3.0], [1.0, -2.0]])
        rep = involution_angular_check(A)
        assert rep.ok
        assert rep.max_residual <= 1e-10

    def test_identity(self):
        rep = involution_angular_check(np.eye(4))
        assert rep.ok and rep.max_residual <= 1e-12

    def test_hermitian_involution_angular_is_input(self):
        rng = np.random.default_rng(13)
        Q = random_unitary(rng, 3)
        A = hermitian_part(Q @ np.diag([1.0, -1.0, 1.0]) @ Q.conj().T)
        U = polar_decompose(A).angular
        np.testing.assert_allclose(U, A, atol=1e-10)
        assert involution_angular_check(A).ok

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="identity"):
            involution_angular_check(np.diag([2.0, 1.0]))
