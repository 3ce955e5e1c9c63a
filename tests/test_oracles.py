"""Oracles that share no code with the solvers.

Takahashi's characterization of the FP-property checks ``fp_property``
without forming A*X - XB*, from one SVD of an intertwiner. The truncated
weighted shift has its Aluthge transform, its iterates and its commutant
in closed form. X -> T1 X T2^-1 maps Com(A, B) onto Com(T1 A T1^-1,
T2 B T2^-1), so a similarity keeps the commutant's dimension.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from aluthge.commutant import _KRONECKER_MAX, commutant_basis, fp_property
from aluthge.generate import (
    KIND_NORMAL_PAIR,
    draw,
    invertible_fp_pair,
    involution,
    normal_pair,
    random_unitary,
    similarity_pair,
    well_conditioned,
)
from aluthge.polar import aluthge, aluthge_iterate

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
# Singular values of X at or below this fraction of the largest are zero.
RANK_REL = 1e-9
# Residuals at or below this fraction of the pair's scale are zero.
RESIDUAL_REL = 1e-8


def takahashi_parts(A, B, X) -> tuple[bool, bool, bool]:
    """Takahashi's three conditions on an intertwiner X of (A, B), from one SVD of X.

    (A, B) has the FP-property exactly when every X in Com(A, B) has:
    ran X reduces A, (ker X)^perp reduces B, and the compressions of A
    and B to these subspaces are normal with equal spectra (Takahashi,
    Acta Sci. Math. 43, 1981). With X = W diag(s) Vh, the kept columns
    of W span ran X and the kept rows among the first len(s) of Vh span
    (ker X)^perp, whatever the shape of X. Norms are Frobenius, scaled
    by max(||A||_F, ||B||_F, 1); X = 0 meets all three.
    """
    W, s, Vh = np.linalg.svd(X)
    keep = s > RANK_REL * s[0]
    R = W[:, : len(s)][:, keep]
    K = Vh[: len(s)][keep].conj().T
    scale = max(np.linalg.norm(A), np.linalg.norm(B), 1.0)

    def reduces(M, Q):
        out = np.eye(len(M)) - Q @ Q.conj().T
        return max(np.linalg.norm(out @ M @ Q), np.linalg.norm(out @ M.conj().T @ Q)) <= RESIDUAL_REL * scale

    T, S = R.conj().T @ A @ R, K.conj().T @ B @ K
    normal = all(np.linalg.norm(M @ M.conj().T - M.conj().T @ M) <= RESIDUAL_REL * scale**2 for M in (T, S))
    distance = np.abs(np.subtract.outer(np.linalg.eigvals(T), np.linalg.eigvals(S)))
    rows, cols = linear_sum_assignment(distance)
    same_spectrum = bool(distance[rows, cols].max(initial=0.0) <= RESIDUAL_REL * scale)
    return reduces(A, R), reduces(B, K), normal and same_spectrum


def gaussian_member(rng, basis) -> np.ndarray:
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    return np.tensordot(c, np.asarray(basis), axes=1)


def spectrum_pool(rng) -> np.ndarray:
    """Five values with radii 0.4, 0.8, ..., 2.0, so at least 0.4 apart."""
    return 0.4 * np.arange(1, 6) * np.exp(2j * np.pi * rng.uniform(size=5))


def unequal_normal_pair(rng, n1, n2):
    """Normal A (n1) and B (n2) with repeated eigenvalues from three values, one shared."""
    pool = spectrum_pool(rng)[:3]
    ea, eb = rng.choice(pool, n1), rng.choice(pool, n2)
    eb[0] = ea[0]
    Qa, Qb = random_unitary(rng, n1), random_unitary(rng, n2)
    return Qa @ (ea[:, None] * Qa.conj().T), Qb @ (eb[:, None] * Qb.conj().T)


def unequal_similarity_pair(rng, n1, n2):
    """Non-normal A (n1) and B (n2), each with distinct eigenvalues, one shared."""
    pool = spectrum_pool(rng)
    ea, eb = pool[rng.permutation(5)[:n1]], pool[rng.permutation(5)[:n2]]
    eb[0] = ea[0]
    S1, S2 = well_conditioned(rng, n1, (0.6, 1.6)), well_conditioned(rng, n2, (0.6, 1.6))
    return S1 @ (ea[:, None] * np.linalg.inv(S1)), S2 @ (eb[:, None] * np.linalg.inv(S2))


def takahashi_cases():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(8):
            yield normal_pair(rng, n)
            yield invertible_fp_pair(rng, n)
            yield similarity_pair(rng, n)
            A = involution(rng, n)
            yield A, A
    for n1 in range(1, 6):
        for n2 in range(1, 6):
            for _ in range(3 if n1 != n2 else 0):
                yield unequal_normal_pair(rng, n1, n2)
                yield unequal_similarity_pair(rng, n1, n2)


class TestTakahashiCriterion:
    def test_agrees_with_fp_property(self):
        rng = np.random.default_rng(8)
        verdicts, wide = [], 0
        for A, B in takahashi_cases():
            cb = commutant_basis(A, B)
            if cb.nullity == 0:
                continue
            holds = fp_property(A, B).holds
            assert all(takahashi_parts(A, B, gaussian_member(rng, cb.basis))) == holds, (A, B)
            verdicts.append(holds)
            wide += A.shape[0] < B.shape[0]
        # Both verdicts occur, and so do intertwiners with fewer rows than columns.
        assert 0 < sum(verdicts) < len(verdicts) and wide

    def test_full_space_reflects_normality(self):
        rng = np.random.default_rng(16)
        ev = rng.uniform(0.4, 2.0, size=3) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=3))
        Q = random_unitary(rng, 3)
        A = Q @ (ev[:, None] * Q.conj().T)
        assert takahashi_parts(A, A, np.eye(3)) == (True, True, True)
        assert takahashi_parts(JORDAN, JORDAN, np.eye(2)) == (True, True, False)

    def test_zero_intertwiner_vacuous(self):
        assert takahashi_parts(JORDAN, JORDAN, np.zeros((2, 2))) == (True, True, True)

    def test_normal_pair_member_reduces_with_matching_spectra(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            A, B = (f.matrix for f in draw(KIND_NORMAL_PAIR, 4, rng)[:2])
            assert takahashi_parts(A, B, gaussian_member(rng, commutant_basis(A, B).basis)) == (True, True, True)

    def test_wide_intertwiner(self):
        # X is 2 x 3: the kernel complement is read from the first two rows of Vh.
        A, B = np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 5.0])
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert takahashi_parts(A, B, X) == (True, True, True)
        # B* moves e_0 out of span{e_0, e_1}.
        B[0, 2] = 1.0
        assert takahashi_parts(A, B, X) == (True, False, True)


def weighted_shift(weights) -> np.ndarray:
    """The n x n shift S e_k = w_k e_(k+1) with the n - 1 given weights."""
    n = len(weights) + 1
    S = np.zeros((n, n), dtype=complex)
    S[np.arange(1, n), np.arange(n - 1)] = weights
    return S


def transformed_weights(weights) -> np.ndarray:
    """Weights of the Aluthge transform of a weighted shift: sqrt(w_k w_(k+1)), with w_n = 0."""
    return np.sqrt(weights * np.append(weights[1:], 0.0))


def shift_weights(n, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.5, 2.0, n - 1)


class TestWeightedShift:
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_aluthge_transform(self, n):
        w = shift_weights(n, n)
        assert np.abs(aluthge(weighted_shift(w)) - weighted_shift(transformed_weights(w))).max() <= 1e-14

    def test_aluthge_iterates(self):
        w = shift_weights(64)
        trajectory = aluthge_iterate(weighted_shift(w), 5)
        for T, norm in zip(trajectory.iterates, trajectory.norms):
            # The norm of a weighted shift is its largest weight.
            assert np.abs(T - weighted_shift(w)).max() <= 1e-14
            assert abs(norm - w.max()) <= 1e-14
            w = transformed_weights(w)

    @pytest.mark.parametrize("n", [12, 13, 24])
    def test_commutant_is_the_polynomials_in_s(self, n):
        # S is one nilpotent Jordan block up to a diagonal similarity, so
        # Com(S, S) = span{I, S, ..., S^(n-1)}. The powers sit on distinct
        # subdiagonals, so the normalized powers are an orthonormal basis.
        S = weighted_shift(shift_weights(n, n))
        assert (n * n <= _KRONECKER_MAX) == (n == 12)
        cb = commutant_basis(S, S)
        assert cb.nullity == n
        powers = np.array([np.linalg.matrix_power(S, k) for k in range(n)])
        powers /= np.linalg.norm(powers, axis=(1, 2))[:, None, None]
        X = np.asarray(cb.basis)
        projected = np.tensordot(np.einsum("pij,eij->ep", powers.conj(), X), powers, axes=1)
        assert np.linalg.norm(X - projected, axis=(1, 2)).max() <= 1e-12


# Eigenvalues of the Jordan-type matrices, of which a draw takes the first k.
JORDAN_EIGENVALUES = np.array([0.3 + 0.2j, -1.0 + 0.5j, 2.0j, 1.5, -0.7 - 0.9j])


def jordan_type(rng, n: int, k: int) -> np.ndarray:
    """An upper triangular n x n matrix of Jordan blocks of sizes 1 to 3, each at one of the first k eigenvalues."""
    J = np.zeros((n, n), dtype=complex)
    start = 0
    while start < n:
        end = min(n, start + int(rng.integers(1, 4)))
        J[range(start, end), range(start, end)] = rng.choice(JORDAN_EIGENVALUES[:k])
        J[range(start, end - 1), range(start + 1, end)] = 1.0
        start = end
    return J


def similar(rng, M: np.ndarray) -> np.ndarray:
    """T M T^-1 for T = Q1 diag(e^u) Q2 with u uniform in [-1, 1], so cond(T) <= e^2."""
    n = len(M)
    Q1, Q2 = random_unitary(rng, n), random_unitary(rng, n)
    u = rng.uniform(-1.0, 1.0, n)
    T = Q1 @ (np.exp(u)[:, None] * Q2)
    T_inv = Q2.conj().T @ (np.exp(-u)[:, None] * Q1.conj().T)
    return T @ M @ T_inv


@st.composite
def jordan_type_pairs(draw):
    """Jordan-type A (n1) and B (n2) on the same k eigenvalues, and their conjugates.

    A boolean picks n1, n2 in 2..12 or in 13..20, so about half the draws
    take the Schur route.
    """
    k = draw(st.integers(2, 4))
    sizes = st.integers(13, 20) if draw(st.booleans()) else st.integers(2, 12)
    n1, n2 = draw(sizes), draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, B = jordan_type(rng, n1, k), jordan_type(rng, n2, k)
    return A, B, similar(rng, A), similar(rng, B)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(jordan_type_pairs())
def test_commutant_nullity_is_invariant_under_similarity(case):
    A, B, A_similar, B_similar = case
    assert commutant_basis(A_similar, B_similar).nullity == commutant_basis(A, B).nullity
