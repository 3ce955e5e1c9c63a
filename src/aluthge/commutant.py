"""Commutant (intertwiner) spaces and the verdicts built on them.

Com(A, B) is the linear space of matrices X with AX = XB. Small pairs
take the numerical nullspace of the Kronecker linearization of
X -> AX - XB; larger ones split both spectra into groups and solve only
the pairs of groups that the two spectra may share (Bartels-Stewart; by
Rosenblum's theorem the other pairs contribute nothing). One function
builds each operand's groups in two phases: a numpy ``eig`` decides
each group, and a reordered scipy Schur form re-bases those its
eigenvectors cannot give. On top of the basis sit
the adjoint-intertwining (FP-property) verdict, subspace inclusion
tests, the polar-part intertwining identities and the spectral tests on
angular parts. Each check takes an operator that it factors either as a
matrix or as its :class:`~aluthge.polar.PolarFactors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    _DENSE_MAX,
    DEFAULT_TOL,
    _CALLS,
    CheckReport,
    Tolerances,
    adjoint,
    as_intertwiner,
    as_square,
    eig,
    eigvals,
    fro_norm,
    inv,
    op_norm,
    qr,
    rank_cut,
    schur,
    svd,
    ztrsen,
)
from .polar import PolarFactors, polar_factors

__all__ = [
    "CommutantBasis",
    "FpReport",
    "commutant_basis",
    "fp_property",
    "com_inclusion",
    "intertwiner_polar_identities",
    "power_intertwining_check",
    "aluthge_intertwiner_map",
    "squared_angular_criterion",
    "semicircle_check",
    "odd_root_unity_check",
]


class Lifts(NamedTuple):
    """Commutant elements kept as factors X = R Z K*.

    Block (i, j, Z) holds a (count, m, k) stack Z, whose elements lift to
    ``left[i] @ Z[e] @ right[j]*``; ``left[i]`` (n1 x m) and ``right[j]``
    (n2 x k) have orthonormal columns. Z = None marks a full block, whose
    m * k elements are the rank-one r_a k_b* of column a of ``left[i]``
    and column b of ``right[j]``, element a * k + b: the block of an
    identity stack, held without the stack. The elements come in block
    order. A basis given as None stands for the identity, so a dense
    (count, n1, n2) stack X is the one block (0, 0, X).
    """

    left: list[np.ndarray | None]
    right: list[np.ndarray | None]
    blocks: list[tuple[int, int, np.ndarray | None]]

    @property
    def factored(self) -> bool:
        """True when some element is held as factors rather than as a dense matrix."""
        return bool(self.blocks) and self.left[0] is not None

    def counts(self) -> list[int]:
        """The number of elements of each block, m * k for a full one."""
        return [
            len(Z) if Z is not None else self.left[i].shape[1] * self.right[j].shape[1] for i, j, Z in self.blocks
        ]


def _dense_lifts(X) -> Lifts:
    """The elements of a stack or list of (n1, n2) matrices, as the one block with R = I and K = I."""
    X = np.asarray(X)
    return Lifts([None], [None], [(0, 0, X)] if len(X) else [])


class BlockSolve(NamedTuple):
    """A kept group pair (i, j), in pair order: m * k rows, full or solved, its nullity and rank gap (None if full)."""

    pair: tuple[int, int]
    rows: int
    full: bool
    nullity: int
    gap: tuple[float, float] | None


class Solve(NamedTuple):
    """The record of one solve, :attr:`CommutantBasis.solve`, read from values the solve computed.

    ``route`` is "kronecker" or "groups", ``groups`` the sizes, centres and radii of the groups of A and of B
    (none on the Kronecker route, whose one block is (0, 0)), and ``qr`` whether the cross-pair QR ran.
    """

    route: str
    groups: tuple[tuple[tuple, tuple, tuple], ...]
    blocks: tuple[BlockSolve, ...]
    qr: bool


class CommutantBasis:
    """Frobenius-orthonormal basis of {X : AX = XB}, solved for the pair (A, B).

    ``lifts`` holds the elements as factors (:class:`Lifts`). The Schur
    route keeps each as X = R Z K*, or as r_a k_b* in a full block, and
    checks it in that form; a basis given as matrices is one block with
    R = I and K = I. Everything else is read from the pair and the
    lifts. ``dim_domain`` is (n2, n1): elements map C^n2 into C^n1,
    i.e. each basis matrix has shape (n1, n2), and ``nullity`` is the
    basis length, m * k for each full block. ``residuals`` holds the
    Frobenius norm of AX - XB per element and ``basis`` lists the
    elements as (n1, n2) matrices; both are computed on first access and
    kept. Lifting a factored basis of more than 2**25 complex entries
    (nullity * n1 * n2, 512 MiB) raises ``ValueError``. ``solve`` is the
    :class:`Solve` record of the solve, None for a basis from given lifts.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, lifts: Lifts, solve: Solve | None = None):
        self.A, self.B, self.lifts, self.solve = A, B, lifts, solve
        self.dim_domain = (B.shape[0], A.shape[0])
        self.nullity = sum(lifts.counts())

    @cached_property
    def residuals(self) -> list[float]:
        return _residual_norms(self.A, self.B, self.lifts).tolist()

    @cached_property
    def basis(self) -> list[np.ndarray]:
        if self.lifts.factored:
            return list(_lift_all(self.lifts, self.A.shape[0], self.B.shape[0], self.nullity))
        return [X for _, _, stack in self.lifts.blocks for X in stack]

    def element(self, k: int) -> np.ndarray:
        """Element k as an (n1, n2) matrix, lifting that one element only; a negative k counts from the end."""
        if not -self.nullity <= k < self.nullity:
            raise IndexError("commutant element index out of range")
        k %= self.nullity
        for (i, j, Z), count in zip(self.lifts.blocks, self.lifts.counts()):
            if k < count:
                R, K = self.lifts.left[i], self.lifts.right[j]
                if R is None:
                    return Z[k]
                if Z is None:
                    a, b = divmod(k, K.shape[1])
                    return _lift_full(R[:, a : a + 1], K[:, b : b + 1])[0]
                return _lift(R, Z[k : k + 1], K)[0]
            k -= count


@dataclass(frozen=True)
class FpReport:
    """Verdict for an adjoint-intertwining (or inclusion) query.

    ``holds`` is true when every basis element of the tested commutant
    satisfies the target relation, that is when ``max_residual`` is at
    most ``threshold``; otherwise ``witness`` is the worst violator.
    ``com_dim`` is the dimension of the tested commutant.
    """

    holds: bool
    witness: np.ndarray | None
    max_residual: float
    threshold: float
    com_dim: int


# Pairs with n1 * n2 up to this size take the Kronecker SVD. Medians of 300
# interleaved direct calls (one BLAS thread) on the tests' benchmark_pairs at
# seeds 8-10, group route against Kronecker: at n = 8 a tie on the normal pair
# of eigenvalue multiplicity 4 (0.67-0.73 against 0.69-0.74 ms) and 0.75-0.80
# against 0.89-0.95 on the similarity pair; at n = 12, 0.99-1.04 against
# 4.1-4.3 and 1.17-1.33 against 5.1-5.5. 144 stays because moving it
# changes which cut decides the pairs in between: the Kronecker SVD cuts at
# rank_rel * ||L||_2, the group route at rank_rel * scale.
_KRONECKER_MAX = 144
# Largest group-pair block (rows of its Kronecker matrix) the Schur route solves.
_BLOCK_MAX = 4096
# Complex entries per temporary array of the dense residual check (8 MiB).
_RESIDUAL_CHUNK = 2**19
# Seed of the Gaussian coefficients of the dense combination check, fixed so
# that a verdict is reproducible.
_COMBINATION_SEED = 0
# Slack in radians: semicircle_check needs a phase gap wider than pi + this.
_ANGLE_ABS = 1e-9


def commutant_basis(A, B, tol: Tolerances = DEFAULT_TOL) -> CommutantBasis:
    """Orthonormal basis of Com(A, B).

    Pairs with n1 * n2 <= 144 take the SVD of the Kronecker
    linearization L as the one block (A, B) of
    :func:`_block_null_vectors`: singular values at or below
    ``rank_cut(s, rank_rel)``, ``rank_rel * ||L||_2``, count as zero.
    Larger pairs solve only the pairs of eigenvalue groups of A and B
    that may share a solution, on the groups' compressions, with the same
    rule given a shift-invariant bound ``scale`` on ||L||_2, so the cut is
    ``rank_rel * scale``, and keep each element as factors. A pair of
    groups that is scalar to within the cut is wholly null and kept as a
    full block without a solve; a pair that takes a solve and whose
    block would exceed 4096 rows raises ``ValueError``, and so does
    lifting a basis of more than 2**25 complex entries
    (nullity * n1 * n2) to dense matrices. Inside ``linalg.counting()``
    the solved basis is recorded as ("commutant", basis).
    """
    A = as_square(A)
    B = as_square(B)
    route = _kronecker_commutant if A.shape[0] * B.shape[0] <= _KRONECKER_MAX else _schur_commutant
    cb = route(A, B, tol)
    _CALLS.get().append(("commutant", cb))
    return cb


def _kronecker_commutant(A: np.ndarray, B: np.ndarray, tol: Tolerances) -> CommutantBasis:
    """The whole pair as the one block (A, B) of :func:`_block_null_vectors`, with no bound on ||L||_2."""
    Z, gap = _block_null_vectors(A, B, tol.rank_rel)
    block = BlockSolve((0, 0), A.shape[0] * B.shape[0], False, len(Z), gap)
    return CommutantBasis(A, B, _dense_lifts(Z), Solve("kronecker", (), (block,), False))


def _schur_commutant(A: np.ndarray, B: np.ndarray, tol: Tolerances) -> CommutantBasis:
    """Solve AX = XB group by group on the spectral groups of A and B*.

    The spectra of A and of B* are split into well-conditioned groups
    (see :func:`_spectral_groups`): each group's reciprocal condition
    number s, ``ztrsen``'s, is at least s_min = ``rank_rel**0.25``, so its
    spectral projector has norm at most 1 / s_min. One ``eig`` and the
    inverse of its eigenvectors give each group's s, and the groups that
    fail, or whose eigenvectors are dependent, are re-based on a
    reordered Schur form and merged until each passes, both phases of
    that one function. For a group of A
    with invariant basis R and compression T = R*AR, and one of B* with
    basis K and S = K*BK, X = R Z K* solves the pair exactly when
    T Z = Z S. A pair of groups is dropped only when ``|c - d| -
    ||T - cI||_F - ||S - dI||_F`` (c, d the mean eigenvalues) exceeds the gap
    ``rank_rel**0.25 * scale``. That is a lower bound on the smallest
    singular value of Z -> TZ - ZS however roundoff scatters the
    eigenvalues, and the well-conditioned groups keep the pairs
    decoupled, so by Rosenblum's theorem a dropped pair holds no
    solution. A kept pair with ``|c - d| + ||T - cI||_F + ||S - dI||_F``
    at most the cut ``rank_rel * scale`` is wholly null: that sum bounds
    the norm of Z -> TZ - ZS, so an SVD would keep all m * k singular
    values. On the invariant subspace of one eigenvalue a diagonalizable
    matrix is scalar, so the repeated eigenvalues of unitary, Hermitian
    and involutive pairs land here, at no O((m k)^3) cost. Such a pair
    is a full block (:class:`Lifts`) whose elements r_a k_b* are never
    stored. Every other kept pair, in pair order, is one call of
    :func:`_block_null_vectors`, the SVD of its small Kronecker block with
    ``scale`` as the bound on its norm; only these blocks count against
    the 4096-row cap, and all are sized before the first is solved. The lift is an
    isometry, so the lifts of one pair are orthonormal. Lifts of different pairs are orthogonal when their
    groups' invariant subspaces are, as for a normal pair;
    :func:`_cross_gram_bound` decides that from the small factors. Then
    the basis keeps every element as its factors, and only otherwise one
    QR over the lifted elements makes them orthonormal, as a dense basis.
    """
    n1, n2 = A.shape[0], B.shape[0]
    # ||A - cI|| + ||B - cI|| bounds ||L|| and the norm of every group-pair
    # block, and is invariant under a shift, a positive scaling and a unitary
    # similarity of the pair.
    c = (np.trace(A) + np.trace(B)) / (n1 + n2)
    shift = op_norm(A - c * np.eye(n1))
    scale = shift + (shift if B is A else op_norm(B - c * np.eye(n2)))
    gap, s_min = tol.rank_rel**0.25 * scale, tol.rank_rel**0.25
    groups_a = _spectral_groups(A, gap, s_min)
    groups_b = [(K, U.conj().T, d.conjugate(), r) for K, U, d, r in _spectral_groups(adjoint(B), gap, s_min)]
    sides = tuple(tuple(zip(*((len(T), c, r) for _, T, c, r in groups))) for groups in (groups_a, groups_b))
    (ma, ca, ra), (mb, cb, rb) = sides
    distance, spread = np.abs(np.subtract.outer(ca, cb)), np.add.outer(ra, rb)
    pairs = np.argwhere(distance - spread <= gap)
    full = (distance + spread <= tol.rank_rel * scale)[pairs[:, 0], pairs[:, 1]]
    # Every block to solve is sized before any is solved, so a refusal costs no solve.
    rows = max((ma[i] * mb[j] for i, j in pairs[~full]), default=0)
    if rows > _BLOCK_MAX:
        raise ValueError(f"commutant group block has {rows} rows, above the {_BLOCK_MAX} the Schur route solves")
    blocks = [
        (i, j, *((None, None) if f else _block_null_vectors(groups_a[i][1], groups_b[j][1], tol.rank_rel, scale)))
        for (i, j), f in zip(pairs, full)
    ]
    solved = [(i, j, Z) for i, j, Z, _ in blocks if Z is None or len(Z)]
    # Only the groups that hold a solution become factors of the lifts.
    used_a = {i: p for p, i in enumerate(dict.fromkeys(i for i, _, _ in solved))}
    used_b = {j: p for p, j in enumerate(dict.fromkeys(j for _, j, _ in solved))}
    lifts = Lifts(
        [groups_a[i][0] for i in used_a],
        [groups_b[j][0] for j in used_b],
        [(used_a[i], used_b[j], Z) for i, j, Z in solved],
    )
    nullity = sum(lifts.counts())
    record = tuple(
        BlockSolve((int(i), int(j)), ma[i] * mb[j], Z is None, ma[i] * mb[j] if Z is None else len(Z), gap)
        for i, j, Z, gap in blocks
    )
    solve = Solve("groups", sides, record, bool(_cross_gram_bound(lifts) > nullity * np.finfo(float).eps))
    if solve.qr:
        Q, _ = qr(_lift_all(lifts, n1, n2, nullity).reshape(nullity, -1).T)
        return CommutantBasis(A, B, _dense_lifts(Q.T.reshape(-1, n1, n2)), solve)
    return CommutantBasis(A, B, lifts, solve)


def _block_null_vectors(T: np.ndarray, S: np.ndarray, rank_rel: float, bound: float = 0.0) -> tuple[np.ndarray, tuple]:
    """Orthonormal solutions Z of T Z = Z S for the (m, m) T and the (k, k) S, from one SVD, and the rank gap.

    They are a (count, m, k) stack read, column-major, from the right
    singular vectors of L = I (x) T - S^T (x) I whose singular values
    s are at most the cut ``rank_cut(s, rank_rel, bound)``, that is
    ``rank_rel * max(||L||_2, bound)``: ``bound`` is a bound on ||L||_2
    that the caller holds, or 0 for none. The rank gap is the smallest s
    above the cut and the largest at or below it, each over the cut: inf
    or 0.0 where there is none, and (inf, 0.0) for a cut of 0.
    """
    _, s, Vh = svd(_sylvester_matrix(T, S))
    cut = float(rank_cut(s, rank_rel, bound))
    kept = int(np.count_nonzero(s > cut))  # s is in decreasing order, so these come first
    above, below = (s[kept - 1] if kept else np.inf), (s[kept] if kept < len(s) else 0.0)
    gap = (float(above) / cut, float(below) / cut) if cut else (np.inf, 0.0)
    return Vh[kept:].conj().reshape((-1, len(S), len(T))).transpose(0, 2, 1), gap


def _sylvester_matrix(T: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Kronecker linearization of the (m, m) T and the (k, k) S.

    L vec(Z) = vec(T Z - Z S) with vec column-major, so
    L = I (x) T - S^T (x) I, of shape (m k, m k).
    Entry (b m + a, d m + c) is T[a, c] [b = d] - S[d, b] [a = c],
    set by indexed assignment into a (k, m, k, m) array.
    """
    m, k = len(T), len(S)
    L = np.zeros((k, m, k, m), dtype=complex)
    b, a = np.arange(k), np.arange(m)
    L[b, :, b, :] = T
    L[:, a, :, a] -= S.T
    return L.reshape(k * m, k * m)


def _cross_gram_bound(lifts: Lifts) -> float:
    """Bound the Frobenius norm of the lifts' Gram matrix outside its per-pair blocks.

    A lift of group pair (i, j) is R_i Z K_j* with orthonormal Z, so
    <R_i Z K_j*, R_k W K_l*> = tr(Z* (R_i*R_k) W (K_l*K_j)). By Bessel's
    inequality the block of pairs p and q then has Frobenius norm at
    most sqrt(min(k_p, k_q)) ||R_i*R_k|| ||K_l*K_j|| for k_p and k_q
    solutions, with the norm of R_i*R_i taken as 1 and any other factor
    bounded by its Frobenius norm. One product R*R over the groups of A
    gives every cross factor, and one K*K those of B*.

    The caller skips the QR when this bound is at most nullity * eps.
    Householder QR itself returns a Q whose Q*Q is off the identity by
    about that much, and the per-pair blocks are off it only by the
    roundoff of an isometric lift, so such lifts are as orthonormal as
    the QR's output would be. For a normal pair every cross factor sits
    at roundoff and two pairs that share no group multiply two of them:
    the bound is about 1e-28 on normal pairs up to n = 128, while the
    oblique invariant subspaces of a similarity pair put it at 0.25-0.28
    on the n = 24 and n = 32 pairs of the commutant benchmark.
    """
    if len(lifts.blocks) < 2:
        return 0.0
    pa = [i for i, _, _ in lifts.blocks]
    pb = [j for _, j, _ in lifts.blocks]
    a = _cross_norms(lifts.left)[np.ix_(pa, pa)]
    b = _cross_norms(lifts.right)[np.ix_(pb, pb)]
    counts = np.array(lifts.counts())
    mass = np.minimum.outer(counts, counts) * (a * b) ** 2
    np.fill_diagonal(mass, 0.0)
    return float(np.sqrt(mass.sum()))


def _cross_norms(bases: list[np.ndarray]) -> np.ndarray:
    """||R_g* R_h||_F for every two of the orthonormal bases, and 1 on the diagonal."""
    starts = np.cumsum([0] + [R.shape[1] for R in bases[:-1]])
    R = np.concatenate(bases, axis=1)
    squares = np.abs(adjoint(R) @ R) ** 2
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(squares, starts, axis=0), starts, axis=1))
    np.fill_diagonal(norms, 1.0)
    return norms


def _spectral_groups(M: np.ndarray, gap: float, s_min: float) -> list[tuple[np.ndarray, np.ndarray, complex, float]]:
    """Split the spectrum of M into groups and return each as (R, T, c, r).

    R is an orthonormal basis of the group's invariant subspace, T =
    R*MR is its compression, c = tr T / m its mean eigenvalue and r =
    ||T - cI||_F. A single eigenvalue lambda is (x, [[lambda]], lambda,
    0), x its unit eigenvector, with no arithmetic. Eigenvalues start in
    single-linkage clusters within ``gap``, and every group's
    reciprocal condition number s is at least ``s_min``. In phase one,
    one ``eig`` of M and the inverse W of its unit eigenvectors V decide
    each cluster G on its own: its spectral projector is P = V_G W_G,
    and s = (||P||_F^2 - m + 1)^(-1/2) is the s that ``ztrsen`` gives
    the group (1 / ||w_p|| for a single eigenvalue), with ||P||_F^2 read
    from the m x m products V_G*V_G and W_G W_G*. A cluster also needs
    independent eigenvector columns: the smallest |diagonal| of their QR
    at least ``s_min`` times the largest. A cluster that passes is read
    from V, its R from that QR; the clusters of one size share one
    stacked QR and one stacked product, since a QR call costs several
    times the arithmetic of a small cluster. Singles come first, then
    the clusters by size. Phase two, the only code that calls scipy,
    re-bases the clusters that fail, or every cluster of the Schur
    diagonal when ``eig`` or the inverse raises, on one complex Schur
    form of M. A diagonal entry belongs to the group of its nearest
    eigenvalue, a pending group takes ``ztrsen`` on its entries, and
    one with no entry, or with s below ``s_min``, merges with its
    nearest group, built ones included, and is tested again. That keeps
    together the eigenvalues a defective eigenvalue splits into, however
    far roundoff scatters them, and keeps the block diagonalization
    behind the drop rule well conditioned.
    """
    try:
        w, V = eig(M)
        W = inv(V)
    except np.linalg.LinAlgError:
        w = None
    # Each group is (mask, R, T, c, r), the mask over the eigenvalues w.
    groups, pending = [], []
    if w is not None:
        dist = np.abs(w[:, None] - w[None, :])
        masks = _linked_clusters(dist <= gap)
        sizes = masks.sum(axis=1)
        for m in sorted(set(sizes.tolist())):
            same = masks[sizes == m]
            members = np.nonzero(same)[1].reshape(-1, m)
            VG, WG = V[:, members].transpose(1, 0, 2), W[members]
            # s >= s_min read as ||P||_F^2 - m + 1 <= 1 / s_min^2. A defective V
            # makes W overflow, and the NaN or inf that follows fails.
            with np.errstate(over="ignore", invalid="ignore"):
                square = np.einsum("gij,gji->g", VG.conj().swapaxes(1, 2) @ VG, WG @ WG.conj().swapaxes(1, 2)).real
                ok = square - m + 1 <= s_min**-2
            if m == 1:
                singles = zip(same[ok], members[ok, 0])
                groups += [(mask, V[:, p : p + 1], w[p : p + 1, None], w[p], 0.0) for mask, p in singles]
            else:
                R, diagonal = qr(VG)
                diagonal = np.abs(diagonal.diagonal(axis1=1, axis2=2))
                ok &= diagonal.min(axis=1) >= s_min * diagonal.max(axis=1)
                R = R[ok]
                T = R.conj().swapaxes(1, 2) @ (M @ R)
                groups += zip(same[ok], R, T, *_centres_and_radii(T))
            pending += list(same[~ok])
        if not pending:
            return [group[1:] for group in groups]
    T, Q = schur(M, output="complex", check_finite=False)
    if w is None:
        w = np.diag(T)
        dist = np.abs(w[:, None] - w[None, :])
        pending = list(_linked_clusters(dist <= gap))
    owner = np.abs(np.diag(T)[:, None] - w[None, :]).argmin(axis=1)
    while pending:
        members = pending.pop()
        select = members[owner]
        m = int(select.sum())
        # s is 1 when the group holds the whole spectrum, so a merge always has a partner.
        if m:
            Ts, Qs, _, _, s, _, _ = ztrsen(select.astype(np.int32), T, Q, job="E", lwork=max(1, 2 * m * (len(T) - m)))
        if m and s >= s_min:
            # Copies, so a group does not keep the whole reordered Schur form alive.
            TR = Ts[:m, :m].copy()
            (c,), (r,) = _centres_and_radii(TR[None])
            groups.append((members, Qs[:, :m].copy(), TR, c, r))
            continue
        others = pending + [group[0] for group in groups]
        k = int(np.argmin([dist[np.ix_(members, other)].min() for other in others]))
        other = pending.pop(k) if k < len(pending) else groups.pop(k - len(pending))[0]
        pending.append(members | other)
    return [group[1:] for group in groups]


def _centres_and_radii(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c = tr T / m and r = ||T - cI||_F for every compression of the (count, m, m) stack T."""
    count, m = T.shape[:2]
    c = T.trace(axis1=1, axis2=2) / m
    return c, np.sqrt(_squares((T - c[:, None, None] * np.eye(m)).reshape(count, m * m), axis=1))


def _linked_clusters(near: np.ndarray) -> np.ndarray:
    """Connected components of a symmetric, reflexive boolean adjacency, as the rows of a member mask array.

    The reachability matrix is squared until it stops changing, which
    takes about log2 of the longest chain's length steps. The products
    run in float32 BLAS (path counts stay exact below n = 2**24), since a
    boolean matmul has no BLAS kernel (0.1 s against 5 ms at n = 512).
    Components come in the order of their lowest member.
    """
    reach = near.astype(np.float32)
    while True:
        closed = (reach @ reach > 0).astype(np.float32)
        if np.array_equal(closed, reach):
            break
        reach = closed
    linked = reach > 0
    return linked[np.unique(linked.argmax(axis=1))]


def _squares(X: np.ndarray, axis: int) -> np.ndarray:
    """The sum of |x|^2 over one axis of the complex X: a sum of squares, which no cancellation can reach."""
    return np.square(X.real).sum(axis) + np.square(X.imag).sum(axis)


def _lift(R: np.ndarray, Z: np.ndarray, K: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """R Z[e] K* for every matrix of the stack Z: where a factored element becomes a dense matrix."""
    return np.matmul(R @ Z, K.conj().T, out=out)


def _lift_full(R: np.ndarray, K: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (m k, n1, n2) stack of every r_a k_b* of a full block, element a * k + b: its lift, entry by entry."""
    m, k, n1, n2 = R.shape[1], K.shape[1], R.shape[0], K.shape[0]
    grid = None if out is None else out.reshape(m, k, n1, n2)
    return np.multiply(R.T[:, None, :, None], K.conj().T[None, :, None, :], out=grid).reshape(m * k, n1, n2)


def _lift_all(lifts: Lifts, n1: int, n2: int, nullity: int) -> np.ndarray:
    """The (nullity, n1, n2) stack of the elements of factored ``lifts``.

    The size is checked before anything is allocated: a stack of more
    than 2**25 complex entries raises ``ValueError``.
    """
    if nullity * n1 * n2 > _DENSE_MAX:
        raise ValueError(
            f"commutant basis has {nullity} elements of size {n1}x{n2} ({nullity * n1 * n2} entries), "
            f"above the {_DENSE_MAX} a dense basis may hold"
        )
    X = np.empty((nullity, n1, n2), dtype=complex)
    start = 0
    for (i, j, Z), count in zip(lifts.blocks, lifts.counts()):
        out = X[start : start + count]
        if Z is None:
            _lift_full(lifts.left[i], lifts.right[j], out=out)
        else:
            _lift(lifts.left[i], Z, lifts.right[j], out=out)
        start += count
    return X


def _residual_norms(M: np.ndarray, N: np.ndarray, lifts: Lifts) -> np.ndarray:
    """Frobenius norm of M X - X N for every element X = R Z K* of ``lifts``, in element order.

    With M R = R P1 + Pp (P1 = R*MR) and K*N = S K* + Wp (S = K*NK),

        M X - X N = R (P1 Z - Z S) K* + Pp Z K* - R Z Wp.

    R*Pp = 0 and Wp K = 0 make the three terms orthogonal, and R and K
    are isometries, so ||M X - X N||^2 = ||P1 Z - Z S||^2 + ||Pp Z||^2 +
    ||Z Wp||^2 exactly. Each term is the norm of a matrix of its own, not
    a difference of squares, which would cancel exactly where the
    residual is small. The parts of all groups of one side come from one
    block-diagonal compression (:func:`_group_parts`), and block (i, j)
    reads its groups' slices of them. A solved block takes its own three
    products, with its elements side by side in one product per factor,
    an element costing O(m k (m + k + n1 + n2)). An element r_a k_b* of a
    full block takes no product: with Z = e_a e_b^T the three terms come
    to five, the squares of column a of P1 off its diagonal, of Pp e_a,
    of row b of S off its diagonal, of e_b^T Wp, and |P1[a, a] -
    S[b, b]|^2. The first two belong to column a and the next two to row
    b, so they are summed once per side for every column and row. They
    are squares of distinct entries, so nothing cancels. With R = I and
    K = I, as for a dense basis, P1 = M and S = N and the other two terms
    vanish: the one term is M X - X N itself. A dense block keeps one
    product per element, so its numbers are those of M X - X N element by
    element, and is checked in chunks of about ``_RESIDUAL_CHUNK``
    entries (at least one element). Like :func:`fro_norm`, it rejects a
    residual with a non-finite entry.
    """
    n1, n2 = M.shape[0], N.shape[0]
    if not lifts.factored:
        X = lifts.blocks[0][2] if lifts.blocks else np.empty((0, n1, n2))
        norms = np.empty(len(X))
        step = max(1, _RESIDUAL_CHUNK // (n1 * n2))
        for start in range(0, len(X), step):
            chunk = X[start : start + step]
            norms[start : start + len(chunk)] = _term_norms([M @ chunk - chunk @ N], len(chunk))
        return norms
    P1, Pp = _group_parts(M, lifts.left)
    # The right split is the adjoint of N*'s left split: S = P1(N*)* and Wp = (N*K - K P1(N*))*.
    S, Wp = (D.conj().T for D in _group_parts(N.conj().T, lifts.right))
    d1, ds = P1.diagonal(), S.diagonal()
    columns = _squares(P1 - np.diag(d1), axis=0) + _squares(Pp, axis=0)
    rows = _squares(S - np.diag(ds), axis=1) + _squares(Wp, axis=1)
    left = np.cumsum([0] + [R.shape[1] for R in lifts.left])
    right = np.cumsum([0] + [K.shape[1] for K in lifts.right])
    blocks = []
    for i, j, Z in lifts.blocks:
        a, b = slice(left[i], left[i + 1]), slice(right[j], right[j + 1])
        if Z is None:
            gap = d1[a, None] - ds[None, b]
            blocks.append(np.sqrt(columns[a, None] + rows[None, b] + np.square(gap.real) + np.square(gap.imag)))
            continue
        count, m, k = Z.shape
        Zl = Z.transpose(1, 0, 2).reshape(m, count * k)
        Zr = Z.reshape(count * m, k)
        terms = [
            (P1[a, a] @ Zl).reshape(m, count, k).transpose(1, 0, 2) - (Zr @ S[b, b]).reshape(count, m, k),
            (Pp[:, a] @ Zl).reshape(n1, count, k).transpose(1, 0, 2),
            Zr @ Wp[b],
        ]
        blocks.append(_term_norms(terms, count))
    norms = np.concatenate([block.reshape(-1) for block in blocks])
    if not np.isfinite(norms).all() and not all(np.isfinite(D).all() for D in (P1, Pp, S, Wp)):
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return norms


def _term_norms(terms: list[np.ndarray], rows: int) -> np.ndarray:
    """sqrt of the sum over ``terms`` of each one's squared Frobenius norm per element, for ``rows`` elements."""
    flat = [np.ascontiguousarray(D).reshape(rows, -1).view(np.float64) for D in terms]
    part = np.sqrt(sum(np.einsum("ij,ij->i", D, D) for D in flat))
    if not np.isfinite(part).all() and not all(np.isfinite(D).all() for D in terms):
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return part


def _group_parts(M: np.ndarray, bases: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The compressions of M onto the bases and the part of M outside them, as :func:`_residual_norms` splits them.

    The bases sit side by side as the columns of R, and a basis's parts
    are read at its columns: P1, the block diagonal of R*(MR) whose
    block i is R_i*MR_i, and MR - R P1.
    """
    R = np.concatenate(bases, axis=1)
    group = np.repeat(np.arange(len(bases)), [basis.shape[1] for basis in bases])
    diagonal = group[:, None] == group[None, :]
    P = M @ R
    P1 = np.where(diagonal, R.conj().T @ P, 0.0)
    return P1, P - R @ P1


def _combination_residual(lifts: Lifts, M: np.ndarray, N: np.ndarray) -> tuple[float, np.ndarray]:
    """||M X_c - X_c N||_F / ||c||_2 and X_c / ||X_c||_F, for X_c = sum_e c_e X_e lifted densely.

    c is complex Gaussian from a fixed seed, so a verdict is
    reproducible. X_c is one :func:`_lift` of all left and all right
    factors around a block matrix of the per-block combinations
    sum_e c_e Z_e (for a full block, the coefficients themselves as an
    m x k matrix), and it is multiplied by M and N as a matrix. That
    shares no arithmetic with the factored residuals, so it checks the
    lifted elements themselves: an element whose lift leaves the
    target commutant moves X_c off it with probability 1. For
    orthonormal elements ||X_c||_F = ||c||_2.
    """
    counts = lifts.counts()
    nullity = sum(counts)
    rng = np.random.default_rng(_COMBINATION_SEED)
    c = rng.standard_normal(nullity) + 1j * rng.standard_normal(nullity)
    rows = np.cumsum([0] + [R.shape[1] for R in lifts.left])
    cols = np.cumsum([0] + [K.shape[1] for K in lifts.right])
    Y = np.zeros((rows[-1], cols[-1]), dtype=complex)
    start = 0
    for (i, j, Z), count in zip(lifts.blocks, counts):
        coefficients = c[start : start + count]
        combined = coefficients if Z is None else coefficients @ Z.reshape(count, -1)
        Y[rows[i] : rows[i + 1], cols[j] : cols[j + 1]] = combined.reshape(rows[i + 1] - rows[i], -1)
        start += count
    X = _lift(np.concatenate(lifts.left, axis=1), Y[None], np.concatenate(lifts.right, axis=1))[0]
    residual = float(_residual_norms(M, N, _dense_lifts(X[None]))[0])
    return residual / float(np.linalg.norm(c)), X / np.linalg.norm(X)


def _worst_element(cb: CommutantBasis, M: np.ndarray, N: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Largest ||M X - X N||_F over the elements of ``cb``, and the element with it (None for an empty basis).

    The last element with the largest residual wins a tie. A factored
    basis also takes the dense combination check
    (:func:`_combination_residual`), whose X_c / ||X_c||_F is the
    element when its residual is larger than every element's.
    """
    residuals = _residual_norms(M, N, cb.lifts)
    if not len(residuals):
        return 0.0, None
    k = len(residuals) - 1 - int(np.argmax(residuals[::-1]))
    worst, witness = float(residuals[k]), cb.element(k)
    if cb.lifts.factored:
        combined, X = _combination_residual(cb.lifts, M, N)
        if combined > worst:
            worst, witness = combined, X
    return worst, witness


def fp_property(A, B, tol: Tolerances = DEFAULT_TOL) -> FpReport:
    """Does every X with AX = XB also satisfy A*X = XB*?

    Each basis element of Com(A, B) (unit Frobenius norm) is accepted
    when its adjoint-relation residual stays below
    ``residual_rel * (||A|| + ||B||)``. A trivial commutant makes the
    verdict vacuously true. The adjoints' norms come from the SVDs of A and B,
    one SVD when B is A itself.
    """
    fa = polar_factors(A, tol)
    fb = fa if B is A else polar_factors(B, tol)
    return basis_inclusion(commutant_basis(fa.matrix, fb.matrix, tol), fa.adjoint(), fb.adjoint(), tol)


def com_inclusion(A1, B1, A2, B2, tol: Tolerances = DEFAULT_TOL) -> FpReport:
    """Does Com(A1, B1) sit inside Com(A2, B2)?

    Checked on the finite basis of the source space, which suffices by
    linearity. The witness, when the inclusion fails, is the basis
    element with the largest residual against the target pair.
    """
    A1 = as_square(A1)
    B1 = as_square(B1)
    f2, g2 = polar_factors(A2, tol), polar_factors(B2, tol)
    if A1.shape != f2.matrix.shape or B1.shape != g2.matrix.shape:
        raise ValueError("operator pairs act on mismatched spaces")
    return basis_inclusion(commutant_basis(A1, B1, tol), f2, g2, tol)


def basis_inclusion(cb: CommutantBasis, f2: PolarFactors, g2: PolarFactors, tol: Tolerances = DEFAULT_TOL) -> FpReport:
    """The check half of :func:`com_inclusion`, against an already solved basis.

    Lets one solve of Com(A1, B1) serve several target pairs. ``f2`` and
    ``g2`` factor the target pair (A2, B2), which must act on the spaces
    of ``cb``; the threshold is ``residual_rel * (||A2|| + ||B2||)``.
    A factored basis is checked as its factors, plus one dense random
    combination of its elements (:func:`_worst_element`).
    """
    threshold = tol.residual_rel * (f2.norm + g2.norm)
    worst, witness = _worst_element(cb, f2.matrix, g2.matrix)
    holds = bool(worst <= threshold)
    return FpReport(
        holds=holds,
        witness=None if holds else witness,
        max_residual=worst,
        threshold=threshold,
        com_dim=cb.nullity,
    )


def membership_threshold(fa: PolarFactors, fb: PolarFactors, X: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """X counts as a member of Com(A, B) up to ||AX - XB||_F = residual_rel (||A|| + ||B||) max(||X||_F, 1)."""
    return tol.residual_rel * (fa.norm + fb.norm) * max(fro_norm(X), 1.0)


def intertwiner_polar_identities(A, B, X, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Evaluate |A| X |B|^-1, U* X V and X against each other (invertible A, B).

    For invertible pairs, AX = XB holds exactly when the first two
    agree, and X intertwines both the pair and its adjoints exactly when
    all three agree. The report states which equalities hold and whether
    those biconditionals came out consistent; ``ok`` is the consistency
    verdict. Equality thresholds absorb the ||B^-1|| amplification
    incurred by the right multiplication.
    """
    fa, fb = polar_factors(A, tol), polar_factors(B, tol)
    A, B = fa.matrix, fb.matrix
    X = as_intertwiner(X, A, B)
    fa.require_invertible("A")
    fb.require_invertible("B")
    m1 = fa.power(1.0) @ X @ fb.power(-1.0)
    m2 = adjoint(fa.angular()) @ X @ fb.angular()
    thr_member = membership_threshold(fa, fb, X, tol)
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

    A and B must be invertible and p positive and finite. The
    double-intertwining hypothesis is verified first and raises when
    violated.
    """
    fa, fb = polar_factors(A, tol), polar_factors(B, tol)
    A, B = fa.matrix, fb.matrix
    X = as_intertwiner(X, A, B)
    if not p > 0:
        raise ValueError("power p must be positive")
    if p == np.inf:
        raise ValueError("power p must be finite")
    fa.require_invertible("A")
    fb.require_invertible("B")
    thr_member = membership_threshold(fa, fb, X, tol)
    if fro_norm(A @ X - X @ B) > thr_member or fro_norm(adjoint(A) @ X - X @ adjoint(B)) > thr_member:
        raise ValueError("X must intertwine both the pair and its adjoints within tolerance")
    residual = fro_norm(fa.power(p) @ X - X @ fb.power(p))
    threshold = tol.residual_rel * (fa.norm**p + fb.norm**p) * max(fro_norm(X), 1.0)
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
    fa, fb = polar_factors(A, tol), polar_factors(B, tol)
    X = as_intertwiner(X, fa.matrix, fb.matrix)
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
    fa, fb = polar_factors(A, tol), polar_factors(B, tol)
    return basis_squared_angular(commutant_basis(fa.matrix, fb.matrix, tol), fa, fb, tol)


def basis_squared_angular(
    cb: CommutantBasis, fa: PolarFactors, fb: PolarFactors, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """The check half of :func:`squared_angular_criterion`, against an already solved basis.

    Lets the solve of Com(A, B) that produced a pair serve this check too.
    ``fa`` and ``fb`` factor the pair (A, B) that ``cb`` was solved for.
    """
    fa.require_invertible("A")
    fb.require_invertible("B")
    U, V = fa.angular(), fb.angular()
    left = fp_property(fa.aluthge(tol), fb.aluthge(tol), tol).holds
    worst = _worst_element(cb, U @ U, V @ V)[0]
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
    phases exceeds pi by more than ``_ANGLE_ABS``, 1e-9 rad.
    """
    U = as_square(U)
    _require_unitary(U, tol)
    phases = np.sort(np.angle(eigvals(U)))
    gaps = np.diff(phases)
    wrap = phases[0] + 2.0 * np.pi - phases[-1]
    widest = max(float(gaps.max(initial=0.0)), float(wrap))
    return bool(widest > np.pi + _ANGLE_ABS)


def odd_root_unity_check(U, V, n0: int, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when U^(2 n0 + 1) and V^(2 n0 + 1) are both the identity; V given as U itself is checked once."""
    pair = [as_square(U)] if V is U else [as_square(U), as_square(V)]
    if n0 < 1:
        raise ValueError("n0 must be a positive integer")
    for M, name in zip(pair, "UV"):
        _require_unitary(M, tol, name)
    k = 2 * n0 + 1
    threshold = tol.residual_rel * k
    return all(op_norm(np.linalg.matrix_power(M, k) - np.eye(M.shape[0])) <= threshold for M in pair)
