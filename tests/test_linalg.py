"""Tests for the core matrix primitives."""

import numpy as np
import pytest

from aluthge.commutant import (
    aluthge_intertwiner_map,
    intertwiner_polar_identities,
    power_intertwining_check,
)
from aluthge.generate import ginibre, random_unitary
from aluthge.linalg import (
    Tolerances,
    adjoint,
    as_matrix,
    fro_norm,
    hermitian_part,
    min_hermitian_eigenvalue,
    op_norm,
    rank_cut,
    singular_values,
    spectral_radius,
)
from aluthge.schatten import aluthge_intertwiner_bound, exact_intertwiner_transfer
from psd_reference import psd_power


class TestValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            adjoint([[np.nan, 0], [0, 1]])

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_part(self, part, value):
        M = np.eye(2, dtype=complex)
        getattr(M, part)[0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            as_matrix(M)

    def test_rejects_infinite_real_and_nan_imaginary(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0, complex(np.inf, np.nan)]])

    def test_accepts_largest_parts(self):
        np.testing.assert_array_equal(as_matrix([[1e308 + 1e308j]]), [[1e308 + 1e308j]])

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            adjoint([1, 2, 3])

    def test_hermitian_part_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_part(np.ones((2, 3)))

    @pytest.mark.parametrize("field", ["rank_rel", "residual_rel"])
    def test_tolerances_range(self, field):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: 1.5})
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: -1e-3})

    @pytest.mark.parametrize(
        "check",
        [
            intertwiner_polar_identities,
            lambda A, B, X: power_intertwining_check(A, B, X, 1.0),
            aluthge_intertwiner_map,
            lambda A, B, X: aluthge_intertwiner_bound(A, B, X, 2.0),
            exact_intertwiner_transfer,
        ],
        ids=["polar_identities", "power", "map", "intertwiner_bound", "transfer"],
    )
    def test_intertwiner_shape(self, check):
        with pytest.raises(ValueError, match="X must map the space of B into the space of A"):
            check(np.eye(2), 2.0 * np.eye(3), np.ones((3, 2)))


class TestAdjoint:
    def test_scalar_conjugation(self):
        assert adjoint([[1j]])[0, 0] == -1j

    def test_real_transpose(self):
        np.testing.assert_array_equal(adjoint([[0, 1], [0, 0]]), [[0, 0], [1, 0]])

    def test_real_example(self):
        np.testing.assert_array_equal(adjoint([[2, -3], [1, -2]]), [[2, 1], [-3, -2]])

    def test_involution_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M = ginibre(rng, 4, 3)
            np.testing.assert_array_equal(adjoint(adjoint(M)), M)


class TestHermitianPart:
    def test_symmetrization(self):
        np.testing.assert_allclose(hermitian_part([[0, 2], [0, 0]]), [[0, 1], [1, 0]])

    def test_hermitian_fixed_point(self):
        H = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -3.0]])
        np.testing.assert_array_equal(hermitian_part(H), H)

    def test_diagonal(self):
        np.testing.assert_array_equal(hermitian_part(np.diag([2.0, 1.0])), np.diag([2.0, 1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_above_half_the_largest_double(self):
        np.testing.assert_array_equal(hermitian_part(np.diag([9e307, 1.0])), np.diag([9e307, 1.0]))
        np.testing.assert_array_equal(hermitian_part([[1e308 + 1e308j]]), [[1e308]])
        np.testing.assert_array_equal(hermitian_part([[0.0, 1.7e308], [1.7e308, 0.0]]), [[0.0, 1.7e308], [1.7e308, 0.0]])


class TestMinHermitianEigenvalue:
    def test_diagonal(self):
        assert min_hermitian_eigenvalue(np.diag([2.0, 1.0])) == pytest.approx(1.0)

    def test_symmetric_pm_one(self):
        assert min_hermitian_eigenvalue([[0, 1], [1, 0]]) == pytest.approx(-1.0)

    def test_identity(self):
        assert min_hermitian_eigenvalue(np.eye(5)) == pytest.approx(1.0)


class TestPsdPower:
    def test_diagonal_square_root(self):
        np.testing.assert_allclose(psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-14)

    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0, 2.0])
    def test_identity_any_power(self, s):
        np.testing.assert_allclose(psd_power(np.eye(3), s), np.eye(3), atol=1e-14)

    def test_square_of_positive_part(self):
        # |A|^2 must reproduce A*A for A = [[0,1],[-1,-1]]
        A = np.array([[0.0, 1.0], [-1.0, -1.0]], dtype=complex)
        absA = (np.sqrt(5) / 5) * np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(psd_power(absA, 2.0), adjoint(A) @ A, atol=1e-12)

    def test_power_one_returns_input(self):
        P = np.diag([3.0, 0.5])
        np.testing.assert_array_equal(psd_power(P, 1.0), P)

    def test_power_one_clamps_dust(self):
        np.testing.assert_allclose(psd_power(np.diag([1.0, -1e-12]), 1.0), np.diag([1.0, 0.0]), rtol=0, atol=1e-15)

    def test_power_zero_is_range_projection(self):
        np.testing.assert_allclose(psd_power(np.diag([0.0, 4.0]), 0.0), np.diag([0.0, 1.0]), atol=1e-14)

    def test_power_zero_definite_is_identity(self):
        rng = np.random.default_rng(3)
        G = ginibre(rng, 4)
        P = hermitian_part(G @ G.conj().T) + np.eye(4)
        np.testing.assert_allclose(psd_power(P, 0.0), np.eye(4), atol=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            G = ginibre(rng, 4)
            P = hermitian_part(G @ G.conj().T) + 0.2 * np.eye(4)
            s, t = rng.uniform(0.0, 2.0, size=2)
            lhs = psd_power(P, s + t)
            rhs = psd_power(P, s) @ psd_power(P, t)
            assert op_norm(lhs - rhs) <= 1e-8 * op_norm(P) ** (s + t)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="nonnegative"):
            psd_power(np.eye(2), -0.5)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_power([[0.0, 1.0], [0.0, 0.0]], 0.5)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            psd_power(np.diag([1.0, -1.0]), 0.5)


class TestRankCut:
    S = np.array([4.0, 1.0, 0.0])

    def test_bound_below_the_largest_value(self):
        assert rank_cut(self.S, 0.5, 2.0) == 2.0

    def test_bound_equal_to_the_largest_value(self):
        assert rank_cut(self.S, 0.5, 4.0) == 2.0

    def test_bound_above_the_largest_value(self):
        assert rank_cut(self.S, 0.5, 8.0) == 4.0

    def test_default_bound_is_relative_to_the_largest_value(self):
        assert rank_cut(self.S, 1e-10) == 1e-10 * 4.0

    def test_zero_matrix_keeps_nothing(self):
        s = singular_values(np.zeros((3, 3)))
        assert rank_cut(s, 1e-10) == 0.0
        assert not (s > rank_cut(s, 1e-10)).any()


class TestSingularValues:
    def test_diagonal(self):
        np.testing.assert_allclose(singular_values(np.diag([3.0, 4.0])), [4.0, 3.0])

    def test_nilpotent(self):
        np.testing.assert_allclose(singular_values([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0], atol=1e-15)

    def test_antidiagonal(self):
        # M*M = diag(4, 1) by hand
        np.testing.assert_allclose(singular_values([[0.0, 1.0], [2.0, 0.0]]), [2.0, 1.0])

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            M = ginibre(rng, 3, 5)
            np.testing.assert_allclose(singular_values(M), singular_values(adjoint(M)), atol=1e-12)


class TestSpectralRadius:
    def test_nilpotent(self):
        assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_involution(self):
        # characteristic polynomial of [[2,-3],[1,-2]] is x^2 - 1
        assert spectral_radius([[2.0, -3.0], [1.0, -2.0]]) == pytest.approx(1.0)

    def test_unitary(self):
        rng = np.random.default_rng(23)
        assert spectral_radius(random_unitary(rng, 5)) == pytest.approx(1.0, abs=1e-10)

    def test_bounded_by_operator_norm(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            M = ginibre(rng, 5)
            assert spectral_radius(M) <= op_norm(M) + 1e-10


def test_svd_backend_residual_contract():
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for n in (2, 8, 64):
        M = ginibre(rng, n)
        W, s, Qh = np.linalg.svd(M)
        residual = op_norm(M - W @ (s[:, None] * Qh))
        assert residual <= 10 * eps * op_norm(M) * n


def test_norm_helpers_agree_with_numpy():
    rng = np.random.default_rng(37)
    M = ginibre(rng, 4, 6)
    assert op_norm(M) == pytest.approx(np.linalg.norm(M, 2))
    assert fro_norm(M) == pytest.approx(np.linalg.norm(M))
