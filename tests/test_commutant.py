"""Tests for commutant spaces, FP verdicts and the related classifiers."""

import dataclasses

import numpy as np
import pytest

from aluthge.commutant import (
    _KRONECKER_MAX,
    CommutantBasis,
    Lifts,
    _block_null_vectors,
    _combination_residual,
    _dense_lifts,
    _kronecker_commutant,
    _linked_clusters,
    _residual_norms,
    _schur_commutant,
    _spectral_groups,
    _sylvester_matrix,
    aluthge_intertwiner_map,
    basis_inclusion,
    com_inclusion,
    commutant_basis,
    fp_property,
    intertwiner_polar_identities,
    odd_root_unity_check,
    power_intertwining_check,
    semicircle_check,
    squared_angular_criterion,
)
from aluthge.generate import (
    KIND_INVERTIBLE_FP,
    KIND_NORMAL_PAIR,
    draw,
    ginibre,
    invertible_fp_pair,
    involution,
    normal_pair,
    random_unitary,
    similarity_pair,
    well_conditioned,
)
from aluthge.linalg import _DENSE_MAX, DEFAULT_TOL, Tolerances, adjoint, fro_norm, hermitian_part, op_norm
from aluthge.polar import (
    MODE_PARTIAL,
    aluthge,
    involution_angular_check,
    polar_decompose,
    polar_factors,
    product_polar_check,
)
from aluthge.schatten import aluthge_intertwiner_bound, exact_intertwiner_transfer

FP_FAIL_A = np.array([[2.0, -3.0], [1.0, -2.0]], dtype=complex)
FP_FAIL_X = np.array([[0.0, -3.0], [1.0, -4.0]], dtype=complex)
JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def combo(rng, basis):
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    X = sum(ck * E for ck, E in zip(c, basis))
    return X / fro_norm(X)


def kronecker_matrix(A, B) -> np.ndarray:
    """The textbook linearization of X -> AX - XB, vec column-major: I (x) A - B^T (x) I.

    It shares no code with the solver, which builds its blocks by
    indexed assignment (``_sylvester_matrix``).
    """
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    return np.kron(np.eye(len(B)), A) - np.kron(B.T, np.eye(len(A)))


def one_block(A, B) -> np.ndarray:
    """The solver's linearization of the pair (A, B)."""
    return _sylvester_matrix(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


class TestSylvesterMatrix:
    """The solver's Kronecker blocks against the textbook formula."""

    def test_scalar_zero(self):
        np.testing.assert_array_equal(one_block([[0.0]], [[0.0]]), [[0.0]])

    def test_scalars(self):
        np.testing.assert_allclose(one_block([[5.0]], [[3.0]]), [[2.0]])

    def test_diagonal_formula(self):
        # entrywise action is a_j - b_k
        L = one_block(np.diag([1.0, 2.0]), [[3.0]])
        np.testing.assert_allclose(L, np.diag([-2.0, -1.0]))

    def test_matches_vec_action(self):
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        for _ in range(10):
            n1, n2 = rng.integers(1, 5, size=2)
            A, B, X = ginibre(rng, n1), ginibre(rng, n2), ginibre(rng, n1, n2)
            L = one_block(A, B)
            lifted = (L @ X.reshape(-1, order="F")).reshape((n1, n2), order="F")
            scale = max(n1, n2) * (fro_norm(A) + fro_norm(B)) * fro_norm(X)
            assert fro_norm(lifted - (A @ X - X @ B)) <= 10 * eps * scale

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 3), (3, 1), (4, 5), (6, 6)])
    def test_equals_kronecker_formula(self, n1, n2):
        rng = np.random.default_rng(10 * n1 + n2)
        A = rng.uniform(-2, 2, (n1, n1)) + 1j * rng.uniform(-2, 2, (n1, n1))
        B = rng.uniform(-2, 2, (n2, n2)) + 1j * rng.uniform(-2, 2, (n2, n2))
        A[0, 0], B[-1, -1] = -1.5 - 0.5j, -0.25 - 2.0j
        np.testing.assert_array_equal(one_block(A, B), kronecker_matrix(A, B))


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
        A, B = (f.matrix for f in draw(KIND_NORMAL_PAIR, 4, rng)[:2])
        cb = commutant_basis(A, B)
        assert cb.dim_domain == (4, 4)
        gram = np.array([[np.vdot(E, F) for F in cb.basis] for E in cb.basis])
        np.testing.assert_allclose(gram, np.eye(cb.nullity), atol=1e-12)
        thr = 1e-8 * (op_norm(A) + op_norm(B))
        assert all(r <= thr for r in cb.residuals)

    def test_residuals_are_the_residual_norms_of_the_lifts(self):
        # Computed on first access from the pair and the lifts, on the
        # Kronecker route, the factored Schur route and the QR fallback.
        (normal, _), (similar, _) = benchmark_pairs(np.random.default_rng(96), 16)
        cases = [(normal, _kronecker_commutant(*normal, DEFAULT_TOL)), (normal, commutant_basis(*normal))]
        cases.append((similar, commutant_basis(*similar)))
        assert [cb.lifts.factored for _, cb in cases] == [False, True, False]
        for (A, B), cb in cases:
            assert np.array(cb.residuals).tobytes() == _residual_norms(A, B, cb.lifts).tobytes()
            assert cb.residuals is cb.residuals

    @pytest.mark.parametrize("n", [8, 16])
    def test_fp_property_checks_its_basis_against_the_adjoints_only(self, n, monkeypatch):
        # One pass against (A*, B*), and one more for the combination of a
        # factored basis; none against (A, B), which the solve satisfies.
        calls = []
        residual_norms = _residual_norms

        def spy(M, N, lifts):
            calls.append((M, N))
            return residual_norms(M, N, lifts)

        monkeypatch.setattr("aluthge.commutant._residual_norms", spy)
        ((A, B), nullity), _ = benchmark_pairs(np.random.default_rng(97), n)
        assert fp_property(A, B).com_dim == nullity
        assert len(calls) == (1 if n * n <= _KRONECKER_MAX else 2)
        for M, N in calls:
            np.testing.assert_array_equal(M, adjoint(A))
            np.testing.assert_array_equal(N, adjoint(B))

    @pytest.mark.parametrize("n", [8, 16])
    def test_element_index_follows_list_indexing(self, n):
        ((A, B), nullity), _ = benchmark_pairs(np.random.default_rng(98), n)
        cb = commutant_basis(A, B)
        assert cb.lifts.factored == (n * n > _KRONECKER_MAX) and cb.nullity == nullity
        np.testing.assert_array_equal(cb.element(-1), cb.element(nullity - 1))
        np.testing.assert_array_equal(cb.element(-nullity), cb.element(0))
        for k in (nullity, -nullity - 1):
            with pytest.raises(IndexError, match="commutant element index out of range"):
                cb.element(k)

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


def stacked(basis):
    return np.stack([X.reshape(-1) for X in basis])


def subspace_gap(basis1, basis2):
    """sin of the largest principal angle between two orthonormal bases of equal length."""
    V1, V2 = stacked(basis1), stacked(basis2)
    return op_norm(V1 - (V1 @ V2.conj().T) @ V2)


def assert_routes_agree(A, B, gap_bound=1e-8):
    """The Schur route against the Kronecker oracle, both called directly whatever the size."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    oracle = _kronecker_commutant(A, B, DEFAULT_TOL)
    fast = _schur_commutant(A, B, DEFAULT_TOL)
    assert fast.nullity == oracle.nullity == len(fast.basis)
    assert fast.dim_domain == oracle.dim_domain
    if fast.nullity:
        assert subspace_gap(fast.basis, oracle.basis) <= gap_bound
        V = stacked(fast.basis)
        np.testing.assert_allclose(V.conj() @ V.T, np.eye(fast.nullity), atol=1e-12)
    thr = DEFAULT_TOL.residual_rel * (op_norm(A) + op_norm(B))
    for X, r in zip(fast.basis, fast.residuals):
        assert r <= thr and fro_norm(A @ X - X @ B) <= thr
    return fast


def conjugated(rng, M):
    """S M S^-1 for a random S with singular values in [0.6, 1.6], and S."""
    S = well_conditioned(rng, M.shape[0], (0.6, 1.6))
    return S @ M @ np.linalg.inv(S), S


def separated(rng, count, avoid=0.0):
    """Distinct values on a jittered grid, pairwise at least 0.3 apart and 0.3 from ``avoid``."""
    side = int(np.ceil(np.sqrt(2 * count + 4)))
    cells = rng.permutation(side * side)
    jitter = rng.uniform(-0.1, 0.1, size=(len(cells), 2))
    pts = (np.stack([cells % side, cells // side], axis=1) - (side - 1) / 2.0) * 0.5 + jitter
    z = pts[:, 0] + 1j * pts[:, 1]
    return z[np.abs(z - avoid) >= 0.3][:count]


def jordan_plus(size, lam, rest):
    """J_size(lam) followed by the diagonal of ``rest``."""
    J = np.diag(np.concatenate([np.full(size, lam), rest]))
    J[np.arange(size - 1), np.arange(1, size)] = 1.0
    return J


def jordan_pair(rng, n, a, b, lam=0.3 + 0.2j):
    """Conjugated J_a(lam) + D and J_b(lam) + D' at size n, and dim Com.

    D and D' share min(3, n - a, n - b) values, so dim Com is min(a, b)
    plus that count.
    """
    shared = min(3, n - a, n - b)
    pool = separated(rng, 2 * n, avoid=lam)
    rest_b = np.concatenate([pool[:shared], pool[n : 2 * n - b - shared]])
    A = conjugated(rng, jordan_plus(a, lam, pool[: n - a]))[0]
    B = conjugated(rng, jordan_plus(b, lam, rest_b))[0]
    return A, B, min(a, b) + shared


def benchmark_pairs(rng, n):
    """A normal pair whose eigenvalues all have multiplicity 4, and a similarity pair."""
    ev = np.repeat(separated(rng, n // 4), 4)
    Qa, Qb = random_unitary(rng, n), random_unitary(rng, n)
    normal = (Qa @ (ev[:, None] * Qa.conj().T), Qb @ (ev[:, None] * Qb.conj().T))
    ev = separated(rng, n)
    similar = (conjugated(rng, np.diag(ev))[0], conjugated(rng, np.diag(rng.permutation(ev)))[0])
    return (normal, 16 * (n // 4)), (similar, n)


def mixed_shape_pair(rng):
    """A has 12 distinct eigenvalues. B repeats four of them twice and four
    once, plus four of its own, so the groups of B* have sizes 2 and 1 and
    the kept blocks come in the shapes (1, 2) and (1, 1)."""
    pool = separated(rng, 16)
    A = conjugated(rng, np.diag(pool[:12]))[0]
    B = conjugated(rng, np.diag(np.concatenate([np.repeat(pool[:4], 2), pool[4:8], pool[12:]])))[0]
    return A, B


def mixed_solve_pair(rng):
    """A has 12 distinct eigenvalues. B holds a defective 2 x 2 block of
    each of four of them, four more moved by 1e-4 and four more exactly,
    so the blocks that take an SVD come in the shapes (1, 2) and (1, 1),
    beside four full (1, 1) blocks; dim Com is 4 + 0 + 4. The defective
    blocks' coupling is 0.05, small enough that no other pair is kept."""
    pool = separated(rng, 12)
    J = np.diag(np.concatenate([np.repeat(pool[:4], 2), pool[4:8] + 1e-4, pool[8:12]]))
    J[[0, 2, 4, 6], [1, 3, 5, 7]] = 0.05
    return conjugated(rng, np.diag(pool))[0], conjugated(rng, J)[0]


def oversized_pair():
    """A = 2I + E_{1,65} and B = 2I: one group each, A's not scalar, so one block of 65 * 65 rows to solve."""
    A = 2.0 * np.eye(65)
    A[0, 64] = 1.0
    return A, 2.0 * np.eye(65)


def block_shape(lifts, b):
    """(m, k) of block b: the widths of its left and right bases."""
    i, j, _ = lifts.blocks[b]
    return lifts.left[i].shape[1], lifts.right[j].shape[1]


def assert_kronecker_is_textbook(A, B):
    """commutant_basis(A, B) is, bit for bit, the right singular vectors of
    kronecker_matrix(A, B) with singular values at most rank_rel * s[0],
    unvectorized column-major. Returns the nullity."""
    _, s, Vh = np.linalg.svd(kronecker_matrix(A, B))
    expected = [v.reshape((B.shape[0], A.shape[0])).T for v in Vh[s <= DEFAULT_TOL.rank_rel * s[0]].conj()]
    cb = commutant_basis(A, B)
    assert cb.nullity == len(expected) == len(cb.basis)
    for X, Y in zip(cb.basis, expected):
        np.testing.assert_array_equal(X, Y)
    return cb.nullity


class TestKroneckerRoute:
    """The route the Schur route is checked against is the textbook one."""

    @pytest.mark.parametrize("gen", [normal_pair, invertible_fp_pair, similarity_pair])
    def test_equals_the_textbook_formula_on_small_ensembles(self, gen):
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            for _ in range(5):
                assert_kronecker_is_textbook(*gen(rng, n))

    @pytest.mark.parametrize("n", [8, 12])
    def test_equals_the_textbook_formula_up_to_the_crossover(self, n):
        rng = np.random.default_rng(90 + n)
        pairs = [pair for pair, _ in benchmark_pairs(rng, n)] + [jordan_pair(rng, n, n // 2, n // 4)[:2]]
        for A, B in pairs:
            assert A.shape[0] * B.shape[0] <= _KRONECKER_MAX
            assert assert_kronecker_is_textbook(A, B) >= 1


def diagonal_block(t, d):
    """(diag(0, t), [[d]]), whose L = diag(-d, t - d) has the singular values t - d and d."""
    return np.diag([0.0, t]).astype(complex), np.array([[d]], dtype=complex)


class TestBlockNullVectors:
    def test_cut_follows_a_block_norm_above_the_bound(self):
        # With bound 1 the cut is rank_rel * ||L||_2 = 1e-9, which keeps
        # d = 5e-10 as a null value; rank_rel * bound would be 1e-10.
        Z = _block_null_vectors(*diagonal_block(10.0, 5e-10), DEFAULT_TOL.rank_rel, 1.0)
        assert Z.shape == (1, 2, 1)
        np.testing.assert_allclose(np.abs(Z[0]), [[1.0], [0.0]], atol=1e-12)

    def test_cut_is_taken_per_block(self):
        # d = 5e-9 in both: null only in the block with ||L||_2 = 1000.
        blocks = [diagonal_block(10.0, 5e-9), diagonal_block(1000.0, 5e-9)]
        assert [len(_block_null_vectors(T, S, DEFAULT_TOL.rank_rel)) for T, S in blocks] == [0, 1]

    def test_bound_above_the_block_norm_raises_the_cut(self):
        block = diagonal_block(10.0, 5e-9)
        assert len(_block_null_vectors(*block, DEFAULT_TOL.rank_rel)) == 0
        assert len(_block_null_vectors(*block, DEFAULT_TOL.rank_rel, 100.0)) == 1


class TestCommutantRoutes:
    """The Schur-cluster route reproduces the Kronecker oracle."""

    def test_small_ensembles(self):
        rng = np.random.default_rng(40)
        values = np.array([1.0, 2.0, -1.0, 0.5j, 1.0 + 1.0j])
        fixed = [
            (1.5 * np.eye(2), 1.5 * np.eye(2)),
            (np.diag([1.0, 2.0]), np.diag([2.0, 3.0])),
            (np.diag([1.0, 2.0]), np.diag([3.0, 4.0])),
            (FP_FAIL_A, FP_FAIL_A),
            (adjoint(FP_FAIL_A), adjoint(FP_FAIL_A)),
            (JORDAN, JORDAN),
            (JORDAN, np.zeros((3, 3))),
        ]
        for A, B in fixed:
            assert_routes_agree(A, B)
        for n in range(2, 7):
            for _ in range(4):
                assert_routes_agree(*normal_pair(rng, n))
                A, B = invertible_fp_pair(rng, n)
                assert_routes_agree(A, B)
                assert_routes_agree(aluthge(A), aluthge(B))
                assert_routes_agree(*similarity_pair(rng, n))
                n2 = int(rng.integers(1, 7))
                A = conjugated(rng, np.diag(rng.choice(values, size=n)))[0]
                B = conjugated(rng, np.diag(rng.choice(values, size=n2)))[0]
                assert_routes_agree(A, B)

    @pytest.mark.parametrize("a", range(1, 6))
    def test_jordan_blocks(self, a):
        n = 20
        rng = np.random.default_rng(41 + a)
        for b in range(1, 6):
            A, B, nullity = jordan_pair(rng, n, a, b)
            assert assert_routes_agree(A, B).nullity == nullity

    @pytest.mark.parametrize("a", [8, 12, 16, 24])
    def test_large_jordan_blocks(self, a):
        # Roundoff scatters the eigenvalues of a conjugated J_m(lam) over a
        # circle of radius about eps^(1/m), 0.2 at m = 24: far wider than the
        # linkage gap, so the blocks stay whole only by their conditioning.
        # Where L's smallest singular value above the cut (sep) is small, the
        # oracle's own subspace error eps ||L|| / sep (Wedin) bounds the gap.
        n, eps = 24, np.finfo(float).eps

        def agree(A, B):
            s = np.linalg.svd(kronecker_matrix(A, B), compute_uv=False)
            sep = s[s > DEFAULT_TOL.rank_rel * s[0]].min()
            return assert_routes_agree(A, B, gap_bound=1e-8 + 10 * eps * s[0] / sep)

        rng = np.random.default_rng(80 + a)
        for b in (8, 16, 24):
            A, B, nullity = jordan_pair(rng, n, a, b)
            assert agree(A, B).nullity == nullity
        # Com(A, A) always holds I.
        V = stacked(agree(A, A).basis)
        e = np.eye(n).reshape(-1) / np.sqrt(n)
        assert np.linalg.norm(e - V.T @ (V.conj() @ e)) <= 1e-8

    def test_near_coincident_eigenvalues(self):
        # B repeats A's spectrum with five values moved by delta. At or
        # below the rank cut the moved pairs count as coincident; above
        # it the commutant is spanned by S1 e_j e_j^T S2^-1 over the 15
        # exact matches. There the oracle's own subspace error is about
        # eps ||L|| / sep (Wedin), sep being its smallest singular value
        # above the cut, while the Schur route stays within 1e-8 of the
        # exact commutant.
        n, eps = 20, np.finfo(float).eps
        rng = np.random.default_rng(50)
        for delta in (1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-2):
            ev = separated(rng, n)
            moved = ev.copy()
            moved[:5] += delta
            A, S1 = conjugated(rng, np.diag(ev))
            B, S2 = conjugated(rng, np.diag(moved))
            s = np.linalg.svd(kronecker_matrix(A, B), compute_uv=False)
            cut = DEFAULT_TOL.rank_rel * s[0]
            sep = s[s > cut].min()
            fast = assert_routes_agree(A, B, gap_bound=1e-8 + 10 * eps * s[0] / sep)
            if delta > cut:
                assert fast.nullity == 15
                S2inv = np.linalg.inv(S2)
                exact, _ = np.linalg.qr(stacked([np.outer(S1[:, j], S2inv[j]) for j in range(5, n)]).T)
                assert subspace_gap(fast.basis, list(exact.T)) <= 1e-8
            else:
                assert fast.nullity == n

    @pytest.mark.parametrize("n", [12, 16, 20, 24])
    def test_benchmark_pairs(self, n):
        rng = np.random.default_rng(60 + n)
        for (A, B), nullity in benchmark_pairs(rng, n):
            assert assert_routes_agree(A, B).nullity == nullity

    def test_similarity_invariance(self):
        # nullity of Com(S A S^-1, B) = nullity of Com(A, B), on the Schur route
        rng = np.random.default_rng(70)
        n = 24
        for (A, B), nullity in benchmark_pairs(rng, n):
            assert n * n > _KRONECKER_MAX
            assert commutant_basis(A, B).nullity == nullity
            assert commutant_basis(conjugated(rng, A)[0], B).nullity == nullity
            assert commutant_basis(A, conjugated(rng, B)[0]).nullity == nullity

    def test_refuses_oversized_cluster(self):
        # One group of 65 on each side, and A's is not scalar, so the block
        # takes an SVD of 65 * 65 rows.
        with pytest.raises(ValueError, match="4225 rows"):
            commutant_basis(*oversized_pair())

    def test_scalar_pair_above_the_block_cap_is_answered(self):
        # The same 4225 unknowns, but both groups are scalar: a full block.
        rep = fp_property(2.0 * np.eye(65), 2.0 * np.eye(65))
        assert rep.holds and rep.com_dim == 4225

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("multiplicity", [1, 4])
    def test_large_normal_pairs_skip_the_qr(self, n, multiplicity, monkeypatch):
        # The invariant subspaces of a normal pair are orthogonal, so the
        # lifts of different group pairs already are: no QR, and the basis is
        # still orthonormal with every residual in tolerance.
        rng = np.random.default_rng(90 + n + multiplicity)
        ev = np.repeat(separated(rng, n // multiplicity), multiplicity)
        Qa, Qb = random_unitary(rng, n), random_unitary(rng, n)
        A = Qa @ (ev[:, None] * Qa.conj().T)
        B = Qb @ (rng.permutation(ev)[:, None] * Qb.conj().T)
        qr_calls = count_qr_calls(monkeypatch)
        cb = _schur_commutant(A, B, DEFAULT_TOL)
        # The QR of the lifted basis has n1 * n2 rows; a group's basis may take a QR of its own.
        assert not [shape for shape in qr_calls if shape[0] == n * n]
        assert cb.nullity == len(cb.basis) == n * multiplicity
        V = stacked(cb.basis)
        np.testing.assert_allclose(V.conj() @ V.T, np.eye(cb.nullity), atol=1e-12)
        thr = DEFAULT_TOL.residual_rel * (op_norm(A) + op_norm(B))
        assert max(cb.residuals) <= thr
        assert max(fro_norm(A @ X - X @ B) for X in cb.basis) <= thr

    def test_non_orthogonal_lifts_take_the_qr(self, monkeypatch):
        # The invariant subspaces of a similarity pair are oblique, so the
        # lifts of different group pairs overlap and only the QR makes them
        # orthonormal.
        rng = np.random.default_rng(64)
        _, ((A, B), nullity) = benchmark_pairs(rng, 24)
        qr_calls = count_qr_calls(monkeypatch)
        assert assert_routes_agree(A, B).nullity == nullity
        assert len(qr_calls) == 1

    def test_refuses_oversized_basis(self, monkeypatch):
        # A normal pair at n = 24 with multiplicity 4 has 96 elements of
        # 24 x 24: 55296 entries, refused only once the cap is below that.
        rng = np.random.default_rng(65)
        ((A, B), nullity), _ = benchmark_pairs(rng, 24)
        assert nullity * 24 * 24 == 55296 <= _DENSE_MAX
        monkeypatch.setattr("aluthge.commutant._DENSE_MAX", 55296)
        assert len(commutant_basis(A, B).basis) == nullity
        monkeypatch.setattr("aluthge.commutant._DENSE_MAX", 55295)
        # The solve keeps the elements as factors, and the verdict checks them
        # so; the cap refuses only the dense basis, where it is lifted.
        cb = commutant_basis(A, B)
        assert cb.nullity == nullity and fp_property(A, B).holds
        with pytest.raises(ValueError, match="96 elements of size 24x24 \\(55296 entries\\)"):
            cb.basis

    def test_route_dispatch_at_the_crossover(self, monkeypatch):
        routes = []
        monkeypatch.setattr("aluthge.commutant._kronecker_commutant", lambda A, B, tol: routes.append("kronecker"))
        monkeypatch.setattr("aluthge.commutant._schur_commutant", lambda A, B, tol: routes.append("schur"))
        assert _KRONECKER_MAX == 144
        commutant_basis(np.eye(12), np.eye(12))
        commutant_basis(np.eye(12), np.eye(13))
        assert routes == ["kronecker", "schur"]

    def test_a_self_pair_takes_one_svd_fewer(self, monkeypatch):
        # B is A shares ||A - cI||_2 between both halves of scale; a copy of A does not.
        (normal, _), _ = benchmark_pairs(np.random.default_rng(96), 16)
        A = normal[0]
        svd, calls = np.linalg.svd, []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        cb = commutant_basis(A, A)
        self_pair = len(calls)
        copy = commutant_basis(A, A.copy())
        assert len(calls) - self_pair == self_pair + 1
        assert cb.nullity == copy.nullity == 64 and cb.residuals == copy.residuals

    def test_jordan_pair_rerouted_to_schur(self):
        # n1 * n2 = 256 took the Kronecker SVD while the crossover was 512.
        A, B, nullity = jordan_pair(np.random.default_rng(86), 16, 6, 9)
        assert assert_routes_agree(A, B).nullity == nullity

    def test_mixed_block_shapes_solve_one_block_at_a_time(self, monkeypatch):
        A, B = mixed_solve_pair(np.random.default_rng(87))
        shapes = []

        def spy(T, S):
            shapes.append((len(T), len(S)))
            return _sylvester_matrix(T, S)

        # Only the Schur route runs under the spy: the Kronecker oracle builds
        # its matrix with the same function.
        with monkeypatch.context() as patched:
            patched.setattr("aluthge.commutant._sylvester_matrix", spy)
            _schur_commutant(A, B, DEFAULT_TOL)
        # The SVD blocks only: the four shared eigenvalues are full blocks.
        assert sorted(shapes) == [(1, 1)] * 4 + [(1, 2)] * 4
        assert assert_routes_agree(A, B).nullity == 8

    def test_chained_eigenvalues_form_one_cluster(self):
        # Each link is within the gap and the ends are not; the chain
        # 0, 1, 2, 4 is one cluster, and clusters come by lowest member.
        z = np.array([0.0, 0.9, 1.8, 5.0, 2.7, 10.0, 4.2])
        near = np.abs(z[:, None] - z[None, :]) <= 1.0
        clusters = _linked_clusters(near)
        expected = [[0, 1, 2, 4], [3, 6], [5]]
        assert [list(np.flatnonzero(c)) for c in clusters] == expected

    def test_groups_carry_their_centre_and_radius(self):
        # Five simple eigenvalues, a 4-fold semisimple one and a defective
        # 3-cluster, conjugated by one well-conditioned S.
        rng = np.random.default_rng(88)
        pool = separated(rng, 7)
        M = conjugated(rng, jordan_plus(3, pool[6], np.concatenate([pool[:5], np.full(4, pool[5])])))[0]
        size = op_norm(M)
        groups = _spectral_groups(M, DEFAULT_TOL.rank_rel**0.25 * size, DEFAULT_TOL.rank_rel**0.25)
        assert sorted(len(T) for _, T, _, _ in groups) == [1] * 5 + [3, 4]
        for R, T, c, r in groups:
            np.testing.assert_allclose(adjoint(R) @ M @ R, T, rtol=0, atol=1e-13 * size)
            if len(T) == 1:
                # A single eigenvalue's geometry is read, not computed.
                assert c == T[0, 0] and r == 0.0 and type(r) is float
                continue
            mean = np.linalg.eigvals(T).mean()
            assert abs(c - mean) <= 1e-13 * size
            assert abs(c - {4: pool[5], 3: pool[6]}[len(T)]) <= 1e-13 * size
            assert r == pytest.approx(np.linalg.norm(T - mean * np.eye(len(T))), rel=1e-13, abs=1e-13 * size)
            # Scalar on its invariant subspace, or with a nilpotent part.
            assert (r <= 1e-13 * size) == (len(T) == 4)


def parity_pair(name):
    """A diagonalizable pair with a fixed seed: normal with multiplicity 4, similarity, or an involution with itself."""
    kind, n = name.split("-")
    n = int(n)
    if kind == "involution":
        A = involution(np.random.default_rng(1), n)
        return A, A
    normal, similar = benchmark_pairs(np.random.default_rng(120 + n), n)
    return (normal if kind == "normal" else similar)[0]


class TestEigenvectorGroups:
    """Groups read from one eig agree with those of the Schur phase where the eigenvectors are well conditioned."""

    @pytest.mark.parametrize(
        "name",
        ["normal-16", "normal-32", "normal-64", "similarity-16", "similarity-24", "involution-16", "involution-32"],
    )
    def test_agrees_with_the_schur_builder(self, name, monkeypatch):
        A, B = parity_pair(name)
        for M in (A, adjoint(B)):
            size = op_norm(M)
            gap, s_min = DEFAULT_TOL.rank_rel**0.25 * 2 * size, DEFAULT_TOL.rank_rel**0.25
            with monkeypatch.context() as patched:
                refuse_schur_phase(patched)
                fast = _spectral_groups(M, gap, s_min)
            slow = schur_phase_groups(M, gap, s_min)
            assert sorted(len(T) for _, T, _, _ in fast) == sorted(len(T) for _, T, _, _ in slow)
            for R, T, _, _ in fast + slow:
                np.testing.assert_allclose(adjoint(R) @ M @ R, T, rtol=0, atol=1e-13 * size)
            for _, T, c, r in fast:
                # The Schur group nearest in centre has the same size and radius.
                _, T2, c2, r2 = min(slow, key=lambda g: abs(g[2] - c))
                assert len(T2) == len(T)
                assert abs(c2 - c) <= 1e-12 * size and abs(r2 - r) <= 1e-12 * size
        nullity = commutant_basis(A, B).nullity
        eig_raises(monkeypatch)
        assert commutant_basis(A, B).nullity == nullity

    def test_a_jordan_block_takes_the_schur_builder(self, monkeypatch):
        # The block's eigenvector columns are numerically parallel, so its
        # cluster fails the independence test; the simple eigenvalues pass
        # and are only merge partners for the Schur phase.
        J = conjugated(np.random.default_rng(121), jordan_plus(4, 0.5, separated(np.random.default_rng(122), 12)))[0]
        calls = count_schur_phase(monkeypatch)
        groups = _spectral_groups(J, DEFAULT_TOL.rank_rel**0.25 * op_norm(J), DEFAULT_TOL.rank_rel**0.25)
        assert calls == [16]
        assert sorted(len(T) for _, T, _, _ in groups) == [1] * 12 + [4]

    @pytest.mark.parametrize("factor", [1.05, 0.95])
    def test_the_condition_threshold_from_both_sides(self, factor, monkeypatch):
        # M = Q [[I_4, -X], [0, 2 I_3]] Q* with ||X||_F^2 = 1 / s^2 - 1, so
        # ztrsen's s of either cluster is s, read from V and V^-1 alone.
        s_min = DEFAULT_TOL.rank_rel**0.25
        rng = np.random.default_rng(123)
        X = ginibre(rng, 4, 3)
        X *= np.sqrt(1 / (factor * s_min) ** 2 - 1) / np.linalg.norm(X)
        Q = random_unitary(rng, 7)
        M = Q @ np.block([[np.eye(4), -X], [np.zeros((3, 4)), 2.0 * np.eye(3)]]) @ adjoint(Q)
        gap = s_min * op_norm(M)
        if factor > 1:
            refuse_schur_phase(monkeypatch)
            calls = None
        else:
            calls = count_schur_phase(monkeypatch)
        groups = _spectral_groups(M, gap, s_min)
        assert sorted(len(T) for _, T, _, _ in groups) == ([3, 4] if factor > 1 else [7])
        assert calls in (None, [7])
        for R, T, _, _ in groups:
            np.testing.assert_allclose(adjoint(R) @ M @ R, T, rtol=0, atol=1e-13 * op_norm(M))

    def test_schur_entries_are_matched_by_value(self, monkeypatch):
        # The Schur diagonal comes in an order of its own, so each entry is
        # owned by its nearest eigenvalue in w: reordering the eigenvalues
        # and eigenvectors that eig returns names the same groups. The
        # defective 3-cluster fails the independence test, so the Schur
        # phase builds it.
        rng = np.random.default_rng(124)
        pool = separated(rng, 7)
        M = conjugated(rng, jordan_plus(3, pool[6], np.concatenate([pool[:5], np.full(4, pool[5])])))[0]
        size = op_norm(M)
        gap, s_min = DEFAULT_TOL.rank_rel**0.25 * size, DEFAULT_TOL.rank_rel**0.25
        w, V = np.linalg.eig(M)
        perm = rng.permutation(len(w))
        found = []
        for order in (np.arange(len(w)), perm):
            with monkeypatch.context() as patched:
                patched.setattr(np.linalg, "eig", lambda M, order=order: (w[order], V[:, order]))
                calls = count_schur_phase(patched)
                groups = _spectral_groups(M, gap, s_min)
            assert calls == [len(M)]
            found.append(sorted((len(T), c.real, c.imag) for _, T, c, _ in groups))
        assert [m for m, _, _ in found[0]] == [1] * 5 + [3, 4]
        assert [m for m, _, _ in found[1]] == [m for m, _, _ in found[0]]
        np.testing.assert_allclose(np.array(found[1])[:, 1:], np.array(found[0])[:, 1:], rtol=0, atol=1e-12 * size)

    def test_an_eigenvalue_that_owns_no_entry_merges(self, monkeypatch):
        # Two neighbouring singles fail the condition test, their rows of W
        # scaled by 1e4, and eig moves one of them far from the spectrum:
        # its Schur entry goes to the other, its nearest, and the moved
        # single, owning nothing, merges with the group nearest its new
        # place.
        rng = np.random.default_rng(125)
        M = conjugated(rng, np.diag(separated(rng, 12)))[0]
        size = op_norm(M)
        gap, s_min = DEFAULT_TOL.rank_rel**0.25 * size, DEFAULT_TOL.rank_rel**0.25
        w, V = np.linalg.eig(M)
        W = np.linalg.inv(V)
        p = int(np.argmin(w.real))
        q = int(np.argsort(np.abs(w - w[p]))[1])
        moved = w.copy()
        moved[p] += 10 * size
        W[[p, q]] *= 1e4
        monkeypatch.setattr(np.linalg, "eig", lambda M: (moved, V))
        monkeypatch.setattr(np.linalg, "inv", lambda V: W)
        calls = count_schur_phase(monkeypatch)
        groups = _spectral_groups(M, gap, s_min)
        assert calls == [12]
        assert sum(len(T) for _, T, _, _ in groups) == 12
        for R, T, _, _ in groups:
            assert R.shape[1] == len(T) >= 1
            np.testing.assert_allclose(adjoint(R) @ M @ R, T, rtol=0, atol=1e-13 * size)

    def test_a_failed_group_merges_with_a_nearby_group_read_from_v(self, monkeypatch):
        # A 3-fold eigenvalue 0 whose invariant subspace tilts, at angle
        # theta with sin(theta) = s_min / 1.2, toward the eigenvectors of
        # 0.3 and -0.5: the cluster's s is sin(theta) and fails, while each
        # of the two singles has s near sqrt(2) tan(theta) and is read from
        # V. A J_2(5) far away fails the independence test, and comes
        # before the 3-cluster among the failed groups, so the Schur phase
        # takes the 3-cluster first. Its nearest group is the single 0.3,
        # and the union passes; the far J_2(5) passes alone. The gap keeps
        # 0, 0.3 and -0.5 in clusters of their own.
        s_min = DEFAULT_TOL.rank_rel**0.25
        sin = s_min / 1.2
        S = np.eye(10, dtype=complex)
        S[:, 2] = [0, 0, sin, np.sqrt((1 - sin**2) / 2), np.sqrt((1 - sin**2) / 2), 0, 0, 0, 0, 0]
        D = np.diag([0, 0, 0, 0.3, -0.5, 5, 5, 2, -2, 2j]).astype(complex)
        D[5, 6] = 1.0
        Q = random_unitary(np.random.default_rng(128), 10)
        M = Q @ S @ D @ np.linalg.solve(S, adjoint(Q))
        calls = count_schur_phase(monkeypatch)
        groups = _spectral_groups(M, 1e-2, s_min)
        assert calls == [10]
        assert sorted((len(T), round(c.real, 6)) for _, T, c, _ in groups if len(T) > 1) == [(2, 5.0), (4, 0.075)]
        assert sorted(len(T) for _, T, _, _ in groups) == [1] * 4 + [2, 4]
        for R, T, _, _ in groups:
            np.testing.assert_allclose(adjoint(R) @ M @ R, T, rtol=0, atol=1e-13 * op_norm(M))

    def test_one_eigendecomposition_per_operand(self, monkeypatch):
        # A defective pair: its singles are read from V and only its Jordan
        # clusters take ztrsen, with no second eig of the Schur factor.
        import scipy.linalg

        A, B, nullity = jordan_pair(np.random.default_rng(95), 20, 3, 2)
        eig, calls = np.linalg.eig, []

        def spy(M):
            calls.append(len(M))
            return eig(M)

        monkeypatch.setattr(np.linalg, "eig", spy)
        monkeypatch.setattr(scipy.linalg, "eig", refusal("scipy's eig"))
        assert assert_routes_agree(A, B).nullity == nullity
        assert calls == [20, 20]

    def test_eigenvector_groups_take_no_svd(self, monkeypatch):
        # A similarity pair's groups are all single eigenvalues and its kept
        # blocks all full, so its SVDs are the two norms of ``scale``.
        _, ((A, B), nullity) = benchmark_pairs(np.random.default_rng(126), 16)
        svd, calls = np.linalg.svd, []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert commutant_basis(A, B).nullity == nullity
        assert calls == [(16, 16), (16, 16)]

    def test_a_failed_inverse_takes_the_standalone_schur_builder(self, monkeypatch):
        # A failed inverse sends every cluster to the Schur phase, as a failed eig does.
        A, B, nullity = jordan_pair(np.random.default_rng(95), 20, 3, 2)
        pairs = [*benchmark_pairs(np.random.default_rng(127), 16), ((A, B), nullity)]
        M = A
        size = op_norm(M)
        gap, s_min = DEFAULT_TOL.rank_rel**0.25 * size, DEFAULT_TOL.rank_rel**0.25
        expected = schur_phase_groups(M, gap, s_min)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        groups = _spectral_groups(M, gap, s_min)
        assert len(groups) == len(expected)
        for got, want in zip(groups, expected):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        for (A, B), nullity in pairs:
            assert commutant_basis(A, B).nullity == nullity


def refusal(name):
    """A stand-in for ``name`` that fails the test when called."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return refuse


def refuse_schur_phase(monkeypatch):
    """Fail the test if _spectral_groups enters its Schur phase from here on."""
    monkeypatch.setattr("scipy.linalg.schur", refusal("the Schur phase"))


def count_schur_phase(monkeypatch):
    """Record the size of every matrix whose Schur form the Schur phase takes from here on."""
    import scipy.linalg

    schur, calls = scipy.linalg.schur, []

    def spy(M, *args, **kwargs):
        calls.append(len(M))
        return schur(M, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", spy)
    return calls


def eig_raises(monkeypatch):
    """Make ``np.linalg.eig`` raise from here on, so _spectral_groups builds every group in its Schur phase."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)


def schur_phase_groups(M, gap, s_min):
    """The groups of M from the Schur phase alone: _spectral_groups with eig raising."""
    with pytest.MonkeyPatch.context() as patched:
        eig_raises(patched)
        return _spectral_groups(M, gap, s_min)


def count_qr_calls(monkeypatch):
    """Record the shape of every ``np.linalg.qr`` call from here on."""
    calls = []
    qr = np.linalg.qr

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return calls


class TestResidualNorms:
    def test_matches_per_element_norms_across_chunks(self, monkeypatch):
        rng = np.random.default_rng(66)
        A, B = ginibre(rng, 5), ginibre(rng, 3)
        Xs = np.stack([ginibre(rng, 5, 3) for _ in range(7)])
        expected = [fro_norm(A @ X - X @ B) for X in Xs]
        for chunk in (15, 30, 2**19):
            monkeypatch.setattr("aluthge.commutant._RESIDUAL_CHUNK", chunk)
            np.testing.assert_allclose(_residual_norms(A, B, _dense_lifts(Xs)), expected, rtol=1e-13)
            np.testing.assert_allclose(_residual_norms(A, B, _dense_lifts(list(Xs))), expected, rtol=1e-13)
        assert _residual_norms(A, B, _dense_lifts([])).shape == (0,)

    def test_rejects_overflowing_residual(self):
        A = np.diag([1e308, 1.0]).astype(complex)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            _residual_norms(A, np.eye(2), _dense_lifts([10.0 * np.eye(2)]))

    def test_rejects_overflowing_full_block(self):
        # R* M R overflows, so the parts of the full block hold an infinity.
        M = np.full((2, 2), 1e308, dtype=complex)
        R = np.full((2, 1), np.sqrt(0.5), dtype=complex)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^matrix entries must be finite"):
            _residual_norms(M, np.eye(1), Lifts([R], [np.eye(1)], [(0, 0, None)]))


def mixed_normal_pair(rng, n):
    """A normal pair at size n whose blocks come in the shapes (4, 2) and (4, 1).

    A has n/4 eigenvalues of multiplicity 4. B repeats n/8 of them twice,
    n/8 once, and has 5n/8 of its own, so the nullity is 3n/2.
    """
    pool = separated(rng, n)
    q = n // 8
    ev_a = np.repeat(pool[: 2 * q], 4)
    ev_b = np.concatenate([np.repeat(pool[:q], 2), pool[q : 2 * q], pool[2 * q : 7 * q]])
    Qa, Qb = random_unitary(rng, n), random_unitary(rng, n)
    return Qa @ (ev_a[:, None] * Qa.conj().T), Qb @ (rng.permutation(ev_b)[:, None] * Qb.conj().T)


def jordan_normal_pair(rng, n):
    """A = Q (J_2(lam) + diag(distinct)) Q* for a unitary Q; Com(A, A) has dimension n.

    The invariant subspaces of its groups are orthogonal, so the Schur
    route keeps Com(A, A) as factors, and the Jordan group's block has
    solutions {aI + bN} only: a generic change of its Z leaves the
    commutant.
    """
    pool = separated(rng, n - 1)
    Q = random_unitary(rng, n)
    return Q @ jordan_plus(2, pool[0], pool[1:]) @ Q.conj().T


def assert_factored_matches_dense(cb, M, N):
    """The factored residual of every element against (M, N) equals the dense ||M X - X N||_F of its lift.

    The dense side is read twice: by ``fro_norm`` on each lift, and by the
    chunked dense path of ``_residual_norms``.
    """
    assert cb.lifts.factored
    fast = _residual_norms(M, N, cb.lifts)
    for dense in (_residual_norms(M, N, _dense_lifts(np.stack(cb.basis))), [fro_norm(M @ X - X @ N) for X in cb.basis]):
        np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-12 * (op_norm(M) + op_norm(N)))


class TestFactoredElements:
    """Schur-route elements X = R Z K* are checked as factors, and the checks are exact."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_factored_residual_equals_dense_on_normal_pairs(self, n, monkeypatch):
        A, B = mixed_normal_pair(np.random.default_rng(100 + n), n)
        cb = commutant_basis(A, B)
        assert cb.nullity == 3 * n // 2
        # Every group of a normal pair is scalar, so every block is full.
        assert all(Z is None for _, _, Z in cb.lifts.blocks)
        assert sorted({block_shape(cb.lifts, b) for b in range(len(cb.lifts.blocks))}) == [(4, 1), (4, 2)]
        U, V = polar_factors(A).angular(), polar_factors(B).angular()
        # The dense side checks the lifted basis in chunks of _RESIDUAL_CHUNK
        # entries: all elements in one chunk, or one element per chunk.
        for chunk in (2**19, 1):
            monkeypatch.setattr("aluthge.commutant._RESIDUAL_CHUNK", chunk)
            for M, N in ((A, B), (adjoint(A), adjoint(B)), (U @ U, V @ V)):
                assert_factored_matches_dense(cb, M, N)

    def test_factored_residual_equals_dense_on_mixed_shapes(self, monkeypatch):
        # The lifts of this similarity pair are oblique, so the solve would
        # make them a dense basis by QR; with the QR skipped they stay as
        # factors, each a valid element whose residual is far from zero
        # against the adjoint pair, so every term of the split counts.
        A, B = mixed_shape_pair(np.random.default_rng(87))
        monkeypatch.setattr("aluthge.commutant._cross_gram_bound", lambda lifts: 0.0)
        cb = commutant_basis(A, B)
        assert cb.nullity == 12
        U, V = polar_factors(A).angular(), polar_factors(B).angular()
        for M, N in ((A, B), (adjoint(A), adjoint(B)), (U @ U, V @ V)):
            assert_factored_matches_dense(cb, M, N)
        assert max(_residual_norms(adjoint(A), adjoint(B), cb.lifts)) > 1e-3

    def test_perturbed_element_is_caught_by_both_checks(self):
        A = jordan_normal_pair(np.random.default_rng(88), 16)
        cb = commutant_basis(A, A)
        assert cb.lifts.factored and cb.nullity == 16
        thr = DEFAULT_TOL.residual_rel * 2 * op_norm(A)
        assert max(_residual_norms(A, A, cb.lifts)) <= thr
        assert _combination_residual(cb.lifts, A, A)[0] <= thr
        (b,) = [b for b, (_, _, Z) in enumerate(cb.lifts.blocks) if Z is not None and Z.shape[1] == 2]
        i, j, Z = cb.lifts.blocks[b]
        E = ginibre(np.random.default_rng(89), 2, 2)
        bad_Z = Z.copy()
        bad_Z[0] += 1e-6 * E / fro_norm(E)
        blocks = list(cb.lifts.blocks)
        blocks[b] = (i, j, bad_Z)
        bad = Lifts(cb.lifts.left, cb.lifts.right, blocks)
        assert max(_residual_norms(A, A, bad)) > thr
        assert _combination_residual(bad, A, A)[0] > thr
        fa = polar_factors(A)
        rep = basis_inclusion(CommutantBasis(A, A, bad), fa, fa)
        assert not rep.holds and rep.max_residual > thr

    def test_wrong_lift_is_caught_by_the_combination_alone(self, monkeypatch):
        ((A, B), nullity), _ = benchmark_pairs(np.random.default_rng(90), 16)
        assert fp_property(A, B).holds
        # A lift with the rows of K reversed: the factors stay right, the
        # matrices they are lifted to do not.
        monkeypatch.setattr(
            "aluthge.commutant._lift", lambda R, Z, K, out=None: np.matmul(R @ Z, K[::-1].conj().T, out=out)
        )
        cb = commutant_basis(A, B)
        fa, fb = polar_factors(A), polar_factors(B)
        rep = basis_inclusion(cb, fa.adjoint(), fb.adjoint())
        assert max(_residual_norms(adjoint(A), adjoint(B), cb.lifts)) <= rep.threshold
        assert not rep.holds and rep.com_dim == nullity
        assert rep.witness.shape == (16, 16) and fro_norm(rep.witness) == pytest.approx(1.0)
        assert fro_norm(adjoint(A) @ rep.witness - rep.witness @ adjoint(B)) > rep.threshold

    def test_large_distinct_spectrum_never_builds_the_dense_basis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the dense basis was built")

        rng = np.random.default_rng(91)
        n = 256
        ev = separated(rng, n)
        Qa, Qb = random_unitary(rng, n), random_unitary(rng, n)
        A = Qa @ (ev[:, None] * Qa.conj().T)
        B = Qb @ (rng.permutation(ev)[:, None] * Qb.conj().T)
        monkeypatch.setattr("aluthge.commutant._lift_all", refuse)
        rep = fp_property(A, B)
        assert rep.holds and rep.com_dim == n and rep.witness is None

    def test_lazy_basis_is_the_eager_lift(self, monkeypatch):
        ((A, B), nullity), _ = benchmark_pairs(np.random.default_rng(92), 24)
        cb = commutant_basis(A, B)
        assert cb.lifts.factored and cb.nullity == nullity
        assert all(Z is None for _, _, Z in cb.lifts.blocks)
        # A full block's element a * k + b is the outer product of column a of R and column b of K.
        eager = np.stack(
            [
                np.outer(cb.lifts.left[i][:, a], cb.lifts.right[j][:, b].conj())
                for i, j, _ in cb.lifts.blocks
                for a in range(cb.lifts.left[i].shape[1])
                for b in range(cb.lifts.right[j].shape[1])
            ]
        )
        np.testing.assert_array_equal(np.stack(cb.basis), eager)
        for k in (0, nullity // 2, nullity - 1):
            np.testing.assert_allclose(cb.element(k), eager[k], rtol=0, atol=1e-15)
        # Built once, on first access.
        monkeypatch.setattr("aluthge.commutant._lift_all", None)
        assert cb.basis[0] is cb.basis[0]


def identity_stacks(lifts):
    """The same lifts with every full block held as its explicit identity stack."""
    blocks = []
    for b, (i, j, Z) in enumerate(lifts.blocks):
        m, k = block_shape(lifts, b)
        blocks.append((i, j, np.eye(m * k, dtype=complex).reshape(m * k, m, k) if Z is None else Z))
    return Lifts(lifts.left, lifts.right, blocks)


def involution_pair(n, seed=1):
    """generate.involution at size n (non-normal, A^2 = I), its unitary transform and k^2 + (n - k)^2."""
    A = involution(np.random.default_rng(seed), n)
    k = int(round((n + np.trace(A).real) / 2))
    return A, aluthge(A), k * k + (n - k) ** 2


def full_block_pair(name, rng):
    """A pair at n = 16 whose groups are all scalar: normal, a non-normal
    involution with itself, or a similarity pair with mixed shapes."""
    if name == "normal":
        return mixed_normal_pair(rng, 16)
    if name == "involution":
        A = involution_pair(16)[0]
        return A, A
    return mixed_shape_pair(rng)


def factored_lifts(monkeypatch, A, B):
    """The Schur-route lifts of Com(A, B), kept as factors even where the solve would take the QR."""
    with monkeypatch.context() as patched:
        patched.setattr("aluthge.commutant._cross_gram_bound", lambda lifts: 0.0)
        cb = _schur_commutant(A, B, DEFAULT_TOL)
    assert cb.lifts.factored and any(Z is None for _, _, Z in cb.lifts.blocks)
    return cb.lifts


class TestFullBlocks:
    """A pair of scalar groups is a full block: all r_a k_b*, read in closed form, with no SVD."""

    @pytest.mark.parametrize("pair", ["normal", "involution", "mixed"])
    def test_closed_form_residuals_match(self, pair, monkeypatch):
        rng = np.random.default_rng(110)
        A, B = full_block_pair(pair, rng)
        lifts = factored_lifts(monkeypatch, A, B)
        explicit = identity_stacks(lifts)
        targets = [(A, B), (adjoint(A), adjoint(B)), (ginibre(rng, len(A)), ginibre(rng, len(B)))]
        for t, (M, N) in enumerate(targets):
            fast = _residual_norms(M, N, lifts)
            # The same entries as the identity stack's split, summed in another order.
            np.testing.assert_allclose(fast, _residual_norms(M, N, explicit), rtol=1e-12, atol=0)
            dense = np.array([fro_norm(M @ X - X @ N) for X in CommutantBasis(A, B, lifts).basis])
            scale = op_norm(M) + op_norm(N)
            np.testing.assert_allclose(fast, dense, rtol=1e-12, atol=1e-12 * scale)
            if t == 0:
                assert fast.max() <= 1e-12 * scale
            if t == 2:
                # Large residuals, where only the relative bound applies.
                assert dense.min() > 1e-3 * scale

    @pytest.mark.parametrize("pair", ["normal", "involution"])
    def test_elements_basis_and_combination_match_the_identity_stack(self, pair, monkeypatch):
        rng = np.random.default_rng(111)
        A, B = full_block_pair(pair, rng)
        lifts = factored_lifts(monkeypatch, A, B)
        cb, ref = CommutantBasis(A, B, lifts), CommutantBasis(A, B, identity_stacks(lifts))
        assert cb.nullity == ref.nullity
        for k in (0, 1, cb.nullity // 2, cb.nullity - 1, -1, -2, -cb.nullity):
            np.testing.assert_allclose(cb.element(k), ref.element(k), rtol=0, atol=1e-15)
            np.testing.assert_array_equal(cb.element(k), cb.basis[k])
        np.testing.assert_allclose(np.stack(cb.basis), np.stack(ref.basis), rtol=0, atol=1e-15)
        for M, N in ((A, B), (adjoint(A), adjoint(B))):
            residual, X = _combination_residual(lifts, M, N)
            ref_residual, ref_X = _combination_residual(ref.lifts, M, N)
            assert residual == pytest.approx(ref_residual, rel=1e-12)
            np.testing.assert_allclose(X, ref_X, rtol=0, atol=1e-15)

    def test_nullity_matches_the_oracle_without_a_block_svd(self, monkeypatch):
        rng = np.random.default_rng(112)
        ev = np.repeat([1.0, -0.5, 2.0], [5, 4, 4])
        Q = random_unitary(rng, 13)
        hermitian = Q @ (ev[:, None] * Q.conj().T)
        A, transform, _ = involution_pair(14)
        pairs = [
            benchmark_pairs(rng, 16)[0][0],
            (A, A),
            (transform, transform),
            mixed_shape_pair(rng),
            (hermitian, hermitian),
            (hermitian, np.diag(rng.permutation(ev))),
            (2.0 * np.eye(13), 2.0 * np.eye(12)),
        ]
        for A, B in pairs:
            with monkeypatch.context() as patched:
                patched.setattr("aluthge.commutant._sylvester_matrix", None)
                fast = _schur_commutant(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex), DEFAULT_TOL)
            assert assert_routes_agree(A, B).nullity == fast.nullity

    @pytest.mark.parametrize("n", [24, 64])
    def test_involution_transform_takes_no_block_svd(self, n, monkeypatch):
        # The transform of an involution is unitary with eigenvalues +1 and -1:
        # two scalar groups on each side, so two full blocks and no QR.
        # A block SVD would build its Kronecker matrix, and None refuses that.
        _, T, nullity = involution_pair(n)
        monkeypatch.setattr("aluthge.commutant._sylvester_matrix", None)
        rep = fp_property(T, T)
        assert rep.holds and rep.com_dim == nullity

    def test_multiplicity_above_the_block_cap_never_builds_the_dense_basis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the dense basis was built")

        rng = np.random.default_rng(113)
        ev = np.concatenate([np.full(100, 0.5 + 0.5j), separated(rng, 28, avoid=0.5 + 0.5j)])
        Q = random_unitary(rng, 128)
        A = Q @ (ev[:, None] * Q.conj().T)
        monkeypatch.setattr("aluthge.commutant._lift_all", refuse)
        rep = fp_property(A, A)
        assert rep.holds and rep.com_dim == 100 * 100 + 28 and rep.witness is None


class TestFpProperty:
    def test_normal_pairs_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A, B = (f.matrix for f in draw(KIND_NORMAL_PAIR, int(rng.integers(2, 6)), rng)[:2])
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
        A, B = (f.matrix for f in draw(KIND_NORMAL_PAIR, 3, rng)[:2])
        for M in (FP_FAIL_A, None):
            for c in (1e-3, 1.0, 1e3):
                if M is None:
                    assert fp_property(c * A, c * B).holds
                else:
                    assert not fp_property(c * M, c * M).holds


class TestComInclusion:
    def test_reflexive(self):
        rng = np.random.default_rng(4)
        A, B = (f.matrix for f in draw(KIND_NORMAL_PAIR, 3, rng)[:2])
        assert com_inclusion(A, B, A, B).holds

    def test_invertible_fp_pair_equality(self):
        rng = np.random.default_rng(5)
        A, B = (f.matrix for f in draw(KIND_INVERTIBLE_FP, 4, rng)[:2])
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
        def no_solve(T, S, *args):
            raise AssertionError("the commutant was solved")

        # the spaces are compared before Com(A1, B1) is solved
        monkeypatch.setattr("aluthge.commutant._block_null_vectors", no_solve)
        with pytest.raises(ValueError, match="mismatched"):
            com_inclusion(np.eye(2), np.eye(2), np.eye(3), np.eye(2))
        with pytest.raises(ValueError, match="mismatched"):
            com_inclusion(np.eye(2), np.eye(3), np.eye(2), np.eye(2))

    def test_last_of_tied_residuals_is_witness(self):
        # Against (diag(1, 2), 0) the residual of E_ij is the i-th diagonal
        # entry: 2, 1, 2 here, so the first and last elements tie.
        E = np.eye(2)
        basis = [np.outer(E[1], E[0]), np.outer(E[0], E[0]), np.outer(E[1], E[1])]
        zero = np.zeros((2, 2))
        cb = CommutantBasis(zero, zero, _dense_lifts(basis))
        rep = basis_inclusion(cb, polar_factors(np.diag([1.0, 2.0])), polar_factors(zero))
        assert not rep.holds and rep.max_residual == 2.0
        np.testing.assert_array_equal(rep.witness, basis[2])

    @pytest.mark.parametrize("holding", [True, False])
    def test_solved_basis_matches_one_shot(self, holding):
        if holding:
            A, B = (f.matrix for f in draw(KIND_INVERTIBLE_FP, 4, np.random.default_rng(5))[:2])
            A2, B2 = aluthge(A), aluthge(B)
        else:
            A, B = FP_FAIL_A, FP_FAIL_A
            A2, B2 = adjoint(A), adjoint(A)
        one_shot = com_inclusion(A, B, A2, B2)
        solved = basis_inclusion(commutant_basis(A, B), polar_factors(A2), polar_factors(B2))
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
        A, B = (f.matrix for f in draw(KIND_INVERTIBLE_FP, 3, rng)[:2])
        X = combo(rng, commutant_basis(A, B).basis)
        rep = intertwiner_polar_identities(A, B, X)
        assert rep.ok and rep.details["in_com"] and rep.details["polar_identity"]

    def test_non_member_fails_identity(self):
        rng = np.random.default_rng(7)
        A, B = (f.matrix for f in draw(KIND_INVERTIBLE_FP, 3, rng)[:2])
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
        A, B = (f.matrix for f in draw(KIND_INVERTIBLE_FP, 3, rng)[:2])
        X = combo(rng, commutant_basis(A, B).basis)
        assert power_intertwining_check(A, B, X, 2.0).ok

    def test_fractional_power_normal(self):
        rng = np.random.default_rng(9)
        A = draw(KIND_INVERTIBLE_FP, 4, rng)[0].matrix
        X = combo(rng, commutant_basis(A, A).basis)
        assert power_intertwining_check(A, A, X, 0.5).ok

    def test_zero_intertwiner(self):
        assert power_intertwining_check(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.zeros((2, 2)), 1.3).ok

    def test_rejects_non_member(self):
        rng = np.random.default_rng(10)
        A, B = (f.matrix for f in draw(KIND_INVERTIBLE_FP, 3, rng)[:2])
        with pytest.raises(ValueError, match="intertwine"):
            power_intertwining_check(A, B, ginibre(rng, 3), 2.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_power(self, p):
        with pytest.raises(ValueError, match="^power p must be positive$"):
            power_intertwining_check(np.eye(2), np.eye(2), np.eye(2), p)

    def test_rejects_infinite_power(self):
        with pytest.raises(ValueError, match="^power p must be finite$"):
            power_intertwining_check(np.eye(2), np.eye(2), np.eye(2), float("inf"))


class TestAluthgeIntertwinerMap:
    def test_forward_lands_in_transformed_commutant(self):
        rng = np.random.default_rng(11)
        A, B = (f.matrix for f in draw(KIND_INVERTIBLE_FP, 3, rng)[:2])
        X = combo(rng, commutant_basis(A, B).basis)
        Y = aluthge_intertwiner_map(A, B, X, "forward")
        Ta, Tb = aluthge(A), aluthge(B)
        assert fro_norm(Ta @ Y - Y @ Tb) <= 1e-8 * (op_norm(Ta) + op_norm(Tb)) * max(fro_norm(Y), 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        A, B = (f.matrix for f in draw(KIND_INVERTIBLE_FP, 3, rng)[:2])
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
        A, B = (f.matrix for f in draw(KIND_INVERTIBLE_FP, 3, rng)[:2])
        rep = squared_angular_criterion(A, B)
        assert rep.ok
        assert rep.details["transformed_pair_fp"] and rep.details["squared_intertwine"]

    def test_worst_residual_over_the_basis(self):
        # Com(A, A) of the counterexample holds elements that the squared
        # angular part does not commute with.
        U = polar_decompose(FP_FAIL_A).angular
        rep = squared_angular_criterion(FP_FAIL_A, FP_FAIL_A)
        worst = max(fro_norm(U @ U @ X - X @ U @ U) for X in commutant_basis(FP_FAIL_A, FP_FAIL_A).basis)
        assert rep.max_residual == pytest.approx(worst, rel=1e-12)
        assert rep.threshold == 2.0 * DEFAULT_TOL.residual_rel
        assert rep.details["squared_intertwine"] is (worst <= rep.threshold)

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

    def test_one_operator_passed_twice(self):
        # U passed as both operators gives the verdict of U and a copy of it.
        w = np.exp(2j * np.pi / 3)
        failing = polar_decompose(np.array([[0.0, 1.0], [-1.0, -1.0]])).angular
        for U, holds in ((np.diag([w, w**2]), True), (failing, False)):
            assert odd_root_unity_check(U, U, 1) is odd_root_unity_check(U, U.copy(), 1) is holds


def assert_same_bits(a, b):
    """Reports, dicts, arrays and scalars that agree field by field, to the last bit."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same_bits(a[key], b[key])
    else:
        assert repr(a) == repr(b)


# The default, a looser residual cut, and a rank cut that differs from the one the factors were made with.
PARITY_TOLS = [DEFAULT_TOL, Tolerances(residual_rel=1e-6), Tolerances(rank_rel=1e-3)]


def cor44_instance(rng, n):
    """Positive definite A with repeated eigenvalues and an X that commutes with it blockwise."""
    Q = random_unitary(rng, n)
    ev = np.repeat(rng.uniform(0.5, 2.5, size=2), [1, n - 1])
    M = np.zeros((n, n), dtype=complex)
    M[:1, :1] = ginibre(rng, 1)
    M[1:, 1:] = ginibre(rng, n - 1)
    return hermitian_part(Q @ (ev[:, None] * Q.conj().T)), Q @ M @ Q.conj().T


class TestFactorsInPlaceOfMatrices:
    """A check given the PolarFactors of its operators reports the same bits as given the matrices."""

    @pytest.mark.parametrize("tol", PARITY_TOLS)
    @pytest.mark.parametrize("seed", range(4))
    def test_intertwiner_checks(self, seed, tol):
        rng = np.random.default_rng([41, seed])
        fa, fb, cb = draw(KIND_INVERTIBLE_FP, int(rng.integers(2, 6)), rng)
        A, B = fa.matrix, fb.matrix
        member, other = combo(rng, cb.basis), ginibre(rng, *cb.dim_domain[::-1])
        assert_same_bits(fp_property(fa, fb, tol), fp_property(A, B, tol))
        for X in (member, other):
            rep = intertwiner_polar_identities(fa, fb, X, tol)
            assert_same_bits(rep, intertwiner_polar_identities(A, B, X, tol))
            for direction in ("forward", "inverse"):
                Y = aluthge_intertwiner_map(fa, fb, X, direction, tol)
                assert_same_bits(Y, aluthge_intertwiner_map(A, B, X, direction, tol))
        for p in (0.5, 2.0):
            rep = power_intertwining_check(fa, fb, member, p, tol)
            assert_same_bits(rep, power_intertwining_check(A, B, member, p, tol))

    @pytest.mark.parametrize("tol", PARITY_TOLS)
    def test_failing_fp_pair(self, tol):
        f = polar_factors(FP_FAIL_A)
        rep = fp_property(f, f, tol)
        assert not rep.holds and rep.witness is not None
        assert_same_bits(rep, fp_property(FP_FAIL_A, FP_FAIL_A, tol))
        rng = np.random.default_rng(42)
        A, B = similarity_pair(rng, 3)
        assert_same_bits(fp_property(polar_factors(A), polar_factors(B), tol), fp_property(A, B, tol))

    @pytest.mark.parametrize("tol", PARITY_TOLS)
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exact_intertwiner_transfer(self, n, tol):
        A, X = cor44_instance(np.random.default_rng([43, n]), n)
        f = polar_factors(A)
        rep = exact_intertwiner_transfer(f, f, X, tol)
        assert rep.ok
        assert_same_bits(rep, exact_intertwiner_transfer(A, A, X, tol))
        # The pair (f, f) reads one factorization; two of A report the same.
        assert_same_bits(rep, exact_intertwiner_transfer(f, polar_factors(A), X, tol))

    @pytest.mark.parametrize("tol", PARITY_TOLS)
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_involution_angular_check(self, n, tol):
        A = involution(np.random.default_rng([44, n]), n)
        rep = involution_angular_check(polar_factors(A), tol)
        assert rep.ok
        assert_same_bits(rep, involution_angular_check(A, tol))

    @pytest.mark.parametrize("tol", PARITY_TOLS)
    def test_factors_cut_again_at_the_callers_rank_rel(self, tol):
        # T has a singular value that rank_rel=1e-3 cuts and the default keeps.
        rng = np.random.default_rng(45)
        T = random_unitary(rng, 3) @ np.diag([1.0, 0.5, 1e-5]) @ random_unitary(rng, 3)
        S = well_conditioned(rng, 3)
        fT, fS = polar_factors(T), polar_factors(S)
        assert polar_factors(fT, tol).rank == polar_factors(T, tol).rank
        assert_same_bits(product_polar_check(fT, fS, tol), product_polar_check(T, S, tol))
        assert_same_bits(polar_decompose(fT, MODE_PARTIAL, tol), polar_decompose(T, MODE_PARTIAL, tol))

    @pytest.mark.parametrize(
        "check",
        [
            intertwiner_polar_identities,
            lambda A, B, X: power_intertwining_check(A, B, X, 2.0),
            aluthge_intertwiner_map,
            exact_intertwiner_transfer,
            lambda A, B, X: aluthge_intertwiner_bound(A, B, X, 2.0),
        ],
    )
    def test_wrongly_shaped_x_is_refused(self, check):
        fa, fb = polar_factors(np.diag([1.0, 2.0, 3.0])), polar_factors(np.diag([1.0, 2.0]))
        for X in (np.ones((2, 3)), np.ones((3, 3)), np.ones((2, 2))):
            for A, B in ((fa, fb), (fa.matrix, fb.matrix)):
                with pytest.raises(ValueError, match="X must map the space of B into the space of A"):
                    check(A, B, X)
