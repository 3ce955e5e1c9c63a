"""Seeded generators for hypothesis-satisfying matrix instances.

Every kind draws from an explicitly seeded PCG64 generator
(``numpy.random.default_rng``) and re-verifies its advertised
hypothesis before returning; an instance that cannot be produced within
the retry budget raises :class:`GenerationError` instead of being
silently relaxed. The rng-level builders are exposed for callers (the
verification suites) that manage their own streams.
"""

from __future__ import annotations

import numpy as np

from .commutant import (
    BOTH_HYPONORMAL,
    commutant_basis,
    fp_property,
    hyponormal_class,
    semicircle_check,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    hermitian_part,
    min_hermitian_eigenvalue,
    op_norm,
    singular_values,
)

__all__ = [
    "GenerationError",
    "KINDS",
    "KIND_NORMAL_PAIR",
    "KIND_INVERTIBLE_FP",
    "KIND_PD_PAIR",
    "KIND_UNITARY_SEMICIRCLE",
    "KIND_INVOLUTION",
    "KIND_HYPONORMAL",
    "generate",
    "draw",
    "ginibre",
    "random_unitary",
    "well_conditioned",
    "normal_pair",
    "invertible_fp_pair",
    "similarity_pair",
    "pd_min_eig",
    "unitary_semicircle",
    "involution",
    "hyponormal_matrix",
]

KIND_NORMAL_PAIR = "normal_pair_shared_spectrum"
KIND_INVERTIBLE_FP = "invertible_fp_pair"
KIND_PD_PAIR = "pd_pair_min_eig_a"
KIND_UNITARY_SEMICIRCLE = "unitary_semicircle"
KIND_INVOLUTION = "involution"
KIND_HYPONORMAL = "hyponormal"

KINDS = (
    KIND_NORMAL_PAIR,
    KIND_INVERTIBLE_FP,
    KIND_PD_PAIR,
    KIND_UNITARY_SEMICIRCLE,
    KIND_INVOLUTION,
    KIND_HYPONORMAL,
)

_RETRY_BUDGET = 100


class GenerationError(RuntimeError):
    """No hypothesis-satisfying instance found within the retry budget."""


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Complex Gaussian matrix with unit-variance entries."""
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from a QR factorization with phase fixing."""
    Q, R = np.linalg.qr(ginibre(rng, n))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def well_conditioned(rng: np.random.Generator, n: int, spread: tuple[float, float] = (0.7, 1.4)) -> np.ndarray:
    """Invertible matrix with singular values confined to ``spread``."""
    return random_unitary(rng, n) @ np.diag(rng.uniform(*spread, size=n)) @ random_unitary(rng, n)


def _distinct_in_sector(
    rng: np.random.Generator,
    count: int,
    sector: tuple[float, float],
    radii: tuple[float, float],
    min_sep: float = 0.2,
) -> np.ndarray:
    """Pairwise-separated complex values r e^{i theta} with theta in ``sector``."""
    values: list[complex] = []
    attempts = 0
    while len(values) < count:
        attempts += 1
        if attempts > 500:
            raise GenerationError("could not draw separated spectrum values")
        z = rng.uniform(*radii) * np.exp(1j * rng.uniform(*sector))
        if all(abs(z - w) >= min_sep for w in values):
            values.append(complex(z))
    return np.array(values)


def normal_pair(rng: np.random.Generator, n: int, invertible: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Normal pair sharing at least one eigenvalue, repeats allowed.

    With ``invertible=False`` roughly half the draws place an exact zero
    in the eigenvalue pool, exercising the singular case.
    """
    radii = (0.5, 2.0) if invertible else (0.3, 2.0)
    pool = _distinct_in_sector(rng, max(1, n - 1), (0.0, 2.0 * np.pi), radii)
    if not invertible and n >= 2 and rng.random() < 0.5:
        pool = pool.copy()
        pool[0] = 0.0
    ev_a = rng.choice(pool, size=n)
    ev_b = rng.choice(pool, size=n)
    ev_b[0] = ev_a[0]
    Qa = random_unitary(rng, n)
    Qb = random_unitary(rng, n)
    A = Qa @ (ev_a[:, None] * Qa.conj().T)
    B = Qb @ (ev_b[:, None] * Qb.conj().T)
    return A, B


_SECTOR_SHARED = (0.1, 2.0 * np.pi / 3.0 - 0.1)
_SECTOR_LEFT = (2.0 * np.pi / 3.0 + 0.1, 4.0 * np.pi / 3.0 - 0.1)
_SECTOR_RIGHT = (4.0 * np.pi / 3.0 + 0.1, 2.0 * np.pi - 0.1)


def _nonnormal_block(rng: np.random.Generator, sector: tuple[float, float], size: int) -> np.ndarray:
    """Upper triangular block, invertible, spectrum confined to ``sector``."""
    M = np.diag(_distinct_in_sector(rng, size, sector, (0.6, 1.8)))
    for i in range(size):
        for j in range(i + 1, size):
            M[i, j] = ginibre(rng, 1)[0, 0]
    return M


def invertible_fp_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invertible pair with the FP-property and a nontrivial commutant.

    A normal part with a shared spectrum is direct-summed with
    non-normal triangular blocks whose spectra stay disjoint from
    everything else, then hidden behind unitary conjugations. Every
    intertwiner is supported on the normal part, where the adjoint
    relation follows, so the pair keeps the FP-property while being
    genuinely non-normal whenever the extra blocks are present.
    """
    ns = int(rng.integers(0, min(2, n - 1) + 1))
    nn = n - ns
    pool = _distinct_in_sector(rng, max(1, nn - 1), _SECTOR_SHARED, (0.6, 1.8))
    ev_n = rng.choice(pool, size=nn)
    ev_m = rng.permutation(ev_n)
    A0 = np.zeros((n, n), dtype=complex)
    B0 = np.zeros((n, n), dtype=complex)
    A0[:nn, :nn] = np.diag(ev_n)
    B0[:nn, :nn] = np.diag(ev_m)
    if ns:
        A0[nn:, nn:] = _nonnormal_block(rng, _SECTOR_LEFT, ns)
        B0[nn:, nn:] = _nonnormal_block(rng, _SECTOR_RIGHT, ns)
    Qa = random_unitary(rng, n)
    Qb = random_unitary(rng, n)
    return Qa @ A0 @ Qa.conj().T, Qb @ B0 @ Qb.conj().T


def similarity_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invertible non-normal pair with a shared spectrum (nontrivial commutant).

    Conjugates one eigenvalue multiset by two non-unitary similarities;
    such pairs generically fail the FP-property.
    """
    ev = _distinct_in_sector(rng, n, (0.0, 2.0 * np.pi), (0.5, 2.0))
    S1 = well_conditioned(rng, n, (0.6, 1.6))
    S2 = well_conditioned(rng, n, (0.6, 1.6))
    A = S1 @ (ev[:, None] * np.linalg.inv(S1))
    B = S2 @ (rng.permutation(ev)[:, None] * np.linalg.inv(S2))
    return A, B


def pd_min_eig(rng: np.random.Generator, n: int, a: float) -> np.ndarray:
    """Hermitian positive definite matrix with smallest eigenvalue at least ``a``."""
    G = ginibre(rng, n)
    H = hermitian_part(G.conj().T @ G)
    H = H / max(op_norm(H), np.finfo(float).tiny)
    return H + a * np.eye(n)


def unitary_semicircle(rng: np.random.Generator, n: int, center: float | None = None) -> np.ndarray:
    """Unitary whose spectrum sits inside one open semicircle.

    ``center`` fixes the arc start so several matrices can share a
    common semicircle.
    """
    margin = 0.15
    theta = rng.uniform(0.0, 2.0 * np.pi) if center is None else center
    phases = theta + rng.uniform(margin, np.pi - margin, size=n)
    Q = random_unitary(rng, n)
    return Q @ (np.exp(1j * phases)[:, None] * Q.conj().T)


def involution(rng: np.random.Generator, n: int) -> np.ndarray:
    """Matrix squaring to the identity: signs conjugated by a mild similarity."""
    signs = rng.choice([1.0, -1.0], size=n)
    S = well_conditioned(rng, n)
    return (S * signs) @ np.linalg.inv(S)


def hyponormal_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Invertible normal matrix; at finite dimension these are the only
    hyponormal operators (the defect has zero trace, so PSD forces it
    to vanish)."""
    ev = rng.uniform(0.4, 2.0, size=n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
    Q = random_unitary(rng, n)
    return Q @ (ev[:, None] * Q.conj().T)


def _is_normal(M: np.ndarray) -> bool:
    return op_norm(M @ M.conj().T - M.conj().T @ M) <= 1e-12 * max(1.0, op_norm(M) ** 2)


def _is_invertible(M: np.ndarray) -> bool:
    s = singular_values(M)
    return bool(s[0] > 0.0 and s[-1] > 1e-6 * s[0])


def draw(kind: str, n: int, rng: np.random.Generator, a: float = 1.0, tol: Tolerances = DEFAULT_TOL):
    """Verified instance for ``kind`` using the caller's generator stream."""
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    for _ in range(_RETRY_BUDGET):
        if kind == KIND_NORMAL_PAIR:
            A, B = normal_pair(rng, n)
            if _is_normal(A) and _is_normal(B) and commutant_basis(A, B, tol).nullity >= 1:
                return A, B
        elif kind == KIND_INVERTIBLE_FP:
            A, B = invertible_fp_pair(rng, n)
            if _is_invertible(A) and _is_invertible(B):
                rep = fp_property(A, B, tol)
                if rep.holds and rep.com_dim >= 1:
                    return A, B
        elif kind == KIND_PD_PAIR:
            A = pd_min_eig(rng, n, a)
            B = pd_min_eig(rng, n, a)
            floor = a - 1e-10 * max(1.0, a)
            if min_hermitian_eigenvalue(A) >= floor and min_hermitian_eigenvalue(B) >= floor:
                return A, B
        elif kind == KIND_UNITARY_SEMICIRCLE:
            U = unitary_semicircle(rng, n)
            if semicircle_check(U, tol):
                return U
        elif kind == KIND_INVOLUTION:
            A = involution(rng, n)
            if op_norm(A @ A - np.eye(n)) <= 1e-12:
                return A
        elif kind == KIND_HYPONORMAL:
            A = hyponormal_matrix(rng, n)
            if _is_invertible(A) and hyponormal_class(A, 1.0, tol) == BOTH_HYPONORMAL:
                return A
    raise GenerationError(f"no {kind!r} instance satisfying its hypothesis within {_RETRY_BUDGET} attempts")


def generate(kind: str, n: int, seed: int, a: float = 1.0, tol: Tolerances = DEFAULT_TOL):
    """Deterministic hypothesis-satisfying instance for ``(kind, n, seed)``.

    Pair kinds return a tuple (A, B); the others a single matrix. ``a``
    only applies to ``pd_pair_min_eig_a`` (eigenvalue floor of both
    parts).
    """
    return draw(kind, n, np.random.default_rng(seed), a=a, tol=tol)
