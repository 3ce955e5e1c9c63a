"""Oracles that share no code with the solvers.

Takahashi's characterization of the FP-property checks ``fp_property``
without forming A*X - XB*, from one SVD of an intertwiner. The truncated
weighted shift has its Aluthge transform, its iterates and its commutant
in closed form. X -> T1 X T2^-1 maps Com(A, B) onto Com(T1 A T1^-1,
T2 B T2^-1), so a similarity keeps the commutant's dimension. The
Aluthge transform keeps the spectrum with multiplicities. On
Gaussian-integer pairs, elimination in exact rational arithmetic gives
the commutant's dimension with no cut at all. Where the statements stop
is shown by constructions whose outcome is known: the (s, t) transforms
on either side of s + t = 1, and involutions, whose transform is unitary.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from aluthge.commutant import _KRONECKER_MAX, basis_inclusion, com_inclusion, commutant_basis, fp_property
from aluthge.generate import (
    KIND_INVERTIBLE_FP,
    KIND_INVOLUTION,
    KIND_NORMAL_PAIR,
    draw,
    ginibre,
    invertible_fp_pair,
    involution,
    normal_pair,
    pd_min_eig,
    random_unitary,
    similarity_pair,
    well_conditioned,
)
from aluthge.polar import aluthge, aluthge_iterate, aluthge_st, polar_factors

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


def jordan_type(rng, n: int, eigenvalues: np.ndarray) -> np.ndarray:
    """An upper triangular n x n matrix of Jordan blocks of sizes 1 to 3, each at one of the given eigenvalues."""
    J = np.zeros((n, n), dtype=complex)
    start = 0
    while start < n:
        end = min(n, start + int(rng.integers(1, 4)))
        J[range(start, end), range(start, end)] = rng.choice(eigenvalues)
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
    A, B = jordan_type(rng, n1, JORDAN_EIGENVALUES[:k]), jordan_type(rng, n2, JORDAN_EIGENVALUES[:k])
    return A, B, similar(rng, A), similar(rng, B)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(jordan_type_pairs())
def test_commutant_nullity_is_invariant_under_similarity(case):
    A, B, A_similar, B_similar = case
    assert commutant_basis(A_similar, B_similar).nullity == commutant_basis(A, B).nullity


# Eigenvalues of the exact-rank pairs, all Gaussian integers.
GAUSSIAN_EIGENVALUES = (0, 1, -1, 1j, -1j, 2)


def unimodular(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An integer n x n matrix of determinant 1 and its integer inverse, from 2n elementary row operations."""
    U, U_inv = np.identity(n, dtype=np.int64), np.identity(n, dtype=np.int64)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.choice(n, 2, replace=False)
        c = int(rng.choice([-2, -1, 1, 2]))
        # U <- E U and U^-1 <- U^-1 E^-1 for E = I + c e_i e_j^T.
        U[i] += c * U[j]
        U_inv[:, j] -= c * U_inv[:, i]
    return U, U_inv


def gaussian_integer_matrix(rng, n: int, eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U J U^-1 as integer real and imaginary parts, U unimodular.

    J is Jordan-type on the given eigenvalues or, one time in four, an
    involution diag(+-1).
    """
    if rng.random() < 0.25:
        J = np.diag(rng.choice([-1.0, 1.0], n)).astype(complex)
    else:
        J = jordan_type(rng, n, eigenvalues)
    U, U_inv = unimodular(rng, n)
    return U @ J.real.astype(np.int64) @ U_inv, U @ J.imag.astype(np.int64) @ U_inv


def gaussian_rational_rank(M_re: np.ndarray, M_im: np.ndarray) -> int:
    """The rank over Q(i) of the integer matrix M_re + i M_im, by exact Gaussian elimination.

    Each row is a dict {column: (re, im)} of Fractions that holds only its
    nonzero entries. A column's pivot is the remaining row with the fewest
    entries that has one there, which keeps the fill-in small.
    """
    rows = [
        {j: (Fraction(a), Fraction(b)) for j, (a, b) in enumerate(zip(row_re, row_im)) if a or b}
        for row_re, row_im in zip(M_re.tolist(), M_im.tolist())
    ]
    rank = 0
    for col in range(M_re.shape[1]):
        live = [row for row in rows if col in row]
        if not live:
            continue
        pivot = min(live, key=len)
        rows = [row for row in rows if row is not pivot]
        a, b = pivot.pop(col)
        norm = a * a + b * b
        inv_re, inv_im = a / norm, -b / norm
        for row in live:
            if row is pivot:
                continue
            f_re, f_im = row.pop(col)
            # row -= (f / p) * pivot, entry by entry.
            g_re, g_im = f_re * inv_re - f_im * inv_im, f_re * inv_im + f_im * inv_re
            for j, (p_re, p_im) in pivot.items():
                r_re, r_im = row.get(j, (0, 0))
                value = (r_re - (g_re * p_re - g_im * p_im), r_im - (g_re * p_im + g_im * p_re))
                if any(value):
                    row[j] = value
                else:
                    del row[j]
        rank += 1
    return rank


@st.composite
def gaussian_integer_pairs(draw):
    """Gaussian-integer A (n1 x n1) and B (n2 x n2), n1 n2 <= 64, on one to three shared eigenvalues."""
    n1 = draw(st.integers(1, 8))
    n2 = draw(st.integers(1, min(8, 64 // n1)))
    eigenvalues = np.array(draw(st.lists(st.sampled_from(GAUSSIAN_EIGENVALUES), min_size=1, max_size=3, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gaussian_integer_matrix(rng, n1, eigenvalues), gaussian_integer_matrix(rng, n2, eigenvalues)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gaussian_integer_pairs())
def test_commutant_nullity_is_exact(case):
    # dim Com(A, B) = n1 n2 - rank L over Q(i), for L = I (x) A - B^T (x) I acting on
    # X stacked by columns. Every entry is an integer, so L is formed exactly.
    (A_re, A_im), (B_re, B_im) = case
    I1, I2 = np.identity(len(A_re), dtype=np.int64), np.identity(len(B_re), dtype=np.int64)
    L_re = np.kron(I2, A_re) - np.kron(B_re.T, I1)
    L_im = np.kron(I2, A_im) - np.kron(B_im.T, I1)
    exact = L_re.shape[1] - gaussian_rational_rank(L_re, L_im)
    assert commutant_basis(A_re + 1j * A_im, B_re + 1j * B_im).nullity == exact


def eigenvalue_conditions(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of M and their condition numbers 1 / |y* x|, for unit left and right eigenvectors y and x."""
    w, vl, vr = scipy.linalg.eig(M, left=True, right=True)
    return w, 1.0 / np.abs(np.einsum("ij,ij->j", vl.conj(), vr))


@st.composite
def spectrum_cases(draw):
    """A complex Gaussian, upper triangular or rank-deficient n x n matrix, n <= 8, scaled by 10^u with |u| <= 3."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["general", "triangular", "rank-deficient"]))
    exponent = draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "triangular":
        A = np.triu(A)
    elif kind == "rank-deficient" and n > 1:
        r = int(rng.integers(1, n))
        A = A[:, :r] @ (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
    return A * 10.0**exponent


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spectrum_cases())
def test_aluthge_transform_keeps_the_spectrum(A):
    # With A = U P^2, P = |A|^(1/2), A = (UP)P and its transform P(UP) have the same
    # characteristic polynomial (Jung-Ko-Pearcy 2000). Each computed eigenvalue is off
    # by about eps ||A||_2 times its condition, so a matched pair may differ by the sum.
    w, kappa = eigenvalue_conditions(A)
    w_delta, kappa_delta = eigenvalue_conditions(aluthge(A))
    distance = np.abs(np.subtract.outer(w, w_delta))
    rows, cols = linear_sum_assignment(distance)
    limit = 100 * np.finfo(float).eps * np.linalg.norm(A, 2) * (kappa[rows] + kappa_delta[cols])
    assert np.all(distance[rows, cols] <= limit)


class TestWhereTheStatementsStop:
    """Statements (i)-(iii) at the (s, t) transforms Δ_{s,t}A = |A|^s U |A|^t, and without their hypotheses."""

    def test_lambda_transform_keeps_fp_and_the_commutant(self):
        # For s + t = 1 and invertible A, Δ_{s,1-s}A = |A|^s A |A|^-s. An FP pair has
        # |A| X = X |B| for X in Com(A, B), so |A|^s X = X |B|^s: Com(ΔA, ΔB) is
        # |A|^s Com(A, B) |B|^-s = Com(A, B), and ΔA* X = X ΔB* as well.
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            fa, fb, cb = draw(KIND_INVERTIBLE_FP, n, rng)
            s = rng.uniform(0.1, 0.9)
            ta, tb = polar_factors(fa.transform(s, 1.0 - s)), polar_factors(fb.transform(s, 1.0 - s))
            assert fp_property(ta, tb).holds
            assert basis_inclusion(cb, ta, tb).holds
            assert basis_inclusion(commutant_basis(ta.matrix, tb.matrix), fa, fb).holds

    def test_lambda_transform_keeps_statement_ii(self):
        # Statement (ii) at s + t = 1, on cor27's draws: angular parts Q diag(u) Q* with u in
        # an arc of width pi - 0.3, so σ(U) lies in an open semicircle, and |A| normal with U
        # or positive definite. A pair is (A, A) for a decisively non-normal A, which fails
        # FP, (A, A) for a normal A, which holds, or two independent operators.
        rng = np.random.default_rng(47)

        def operator(n, center, normal):
            u = np.exp(1j * (center + rng.uniform(0.15, np.pi - 0.15, size=n)))
            Q = random_unitary(rng, n)
            if normal:
                return Q @ ((rng.uniform(0.5, 1.8, size=n) * u)[:, None] * Q.conj().T)
            return Q @ (u[:, None] * Q.conj().T) @ pd_min_eig(rng, n, 0.5)

        verdicts = []
        while len(verdicts) < 300:
            n, center, variant = int(rng.integers(2, 5)), rng.uniform(0.0, 2.0 * np.pi), int(rng.integers(3))
            A = operator(n, center, normal=variant == 1)
            if variant == 0 and np.linalg.norm(A @ A.conj().T - A.conj().T @ A, 2) <= 1e-2:
                continue
            B = operator(n, center, normal=bool(rng.integers(2))) if variant == 2 else A
            s = rng.uniform(0.1, 0.9)
            before = fp_property(A, B).holds
            after = fp_property(aluthge_st(A, s, 1.0 - s), aluthge_st(B, s, 1.0 - s)).holds
            assert before == after, (variant, n, s)
            verdicts.append(before)
        # Both verdicts occur, so neither side of the equivalence is vacuous.
        assert 50 <= sum(verdicts) <= 250

    @pytest.mark.parametrize("s, t", [(1.0, 1.0), (0.3, 0.3), (0.2, 0.5), (0.7, 0.6)])
    def test_other_exponents_lose_fp(self, s, t):
        # Δ_{s,t}[[a]] = [[e^{i arg a} |a|^(s+t)]], so A = [[e^{i arg μ} |μ|^(1/(s+t))]] for an
        # eigenvalue μ of Δ_{s,t}N makes ΔA = [[μ]] share a value with σ(ΔN), while σ(A) and
        # σ(N) are apart: the invertible pair (A, N) holds vacuously, and its transform fails.
        rng = np.random.default_rng(45)
        for _ in range(50):
            N = ginibre(rng, 3)
            mu = rng.choice(np.linalg.eigvals(aluthge_st(N, s, t)))
            A = np.array([[np.exp(1j * np.angle(mu)) * abs(mu) ** (1.0 / (s + t))]])
            before = fp_property(A, N)
            assert before.holds and before.com_dim == 0
            after = fp_property(aluthge_st(A, s, t), aluthge_st(N, s, t))
            assert after.com_dim >= 1
            assert not after.holds and after.max_residual >= 1e3 * after.threshold

    def test_involutions_need_the_hypotheses(self):
        # A^2 = I with A non-normal: U = U*, and A^-1 = A gives |A|^-1 = U |A| U, so the
        # transform is unitary and (Ã, Ã) has FP, while (A, A) does not (A is in Com(A, A)).
        # σ(U) = {1, -1} lies in no open semicircle, so (ii) needs that hypothesis, and
        # Com(A, A) ⊄ Com(Ã, Ã), so (iii) needs FP.
        rng = np.random.default_rng(46)
        draws = 0
        for n in range(2, 7):
            for _ in range(50):
                A = draw(KIND_INVOLUTION, n, rng)
                if np.linalg.norm(A @ A.conj().T - A.conj().T @ A, 2) <= 1e-2:
                    continue
                draws += 1
                f = polar_factors(A)
                w = np.linalg.eigvals(f.angular())
                assert np.abs(np.abs(w.real) - 1.0).max() <= 1e-8 and w.real.min() < 0.0 < w.real.max()
                T = f.aluthge()
                assert np.linalg.norm(T.matrix @ T.matrix.conj().T - np.eye(n), 2) <= 1e-12
                assert fp_property(T, T).holds
                for rep in (fp_property(f, f), com_inclusion(A, A, T, T)):
                    assert not rep.holds and rep.max_residual >= 1e3 * rep.threshold
        assert draws >= 200
