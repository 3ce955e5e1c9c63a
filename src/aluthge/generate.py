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

from .commutant import basis_inclusion, commutant_basis
from .linalg import DEFAULT_TOL, Tolerances, hermitian_part, op_norm
from .polar import PolarFactors, polar_factors

__all__ = [
    "GenerationError",
    "KINDS",
    "KIND_NORMAL_PAIR",
    "KIND_INVERTIBLE_FP",
    "KIND_INVOLUTION",
    "generate",
    "draw",
    "ginibre",
    "random_unitary",
    "well_conditioned",
    "normal_pair",
    "invertible_fp_pair",
    "similarity_pair",
    "pd_min_eig",
    "involution",
]

KIND_NORMAL_PAIR = "normal_pair_shared_spectrum"
KIND_INVERTIBLE_FP = "invertible_fp_pair"
KIND_INVOLUTION = "involution"

KINDS = (KIND_NORMAL_PAIR, KIND_INVERTIBLE_FP, KIND_INVOLUTION)

_RETRY_BUDGET = 100

# A drawn involution A must have ||A^2 - I||_2 at most this.
INVOLUTION_RESIDUAL_MAX = 1e-12


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
    rng: np.random.Generator, count: int, sector: tuple[float, float], radii: tuple[float, float]
) -> np.ndarray:
    """Complex values r e^{i theta}, pairwise at least 0.2 apart, with theta in ``sector``."""
    values: list[complex] = []
    attempts = 0
    while len(values) < count:
        attempts += 1
        if attempts > 500:
            raise GenerationError("could not draw separated spectrum values")
        z = rng.uniform(*radii) * np.exp(1j * rng.uniform(*sector))
        if all(abs(z - w) >= 0.2 for w in values):
            values.append(complex(z))
    return np.array(values)


def normal_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal pair sharing at least one eigenvalue, repeats allowed.

    Roughly half the draws place an exact zero in the eigenvalue pool,
    exercising the singular case.
    """
    pool = _distinct_in_sector(rng, max(1, n - 1), (0.0, 2.0 * np.pi), (0.3, 2.0))
    if n >= 2 and rng.random() < 0.5:
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
    # One draw for the strict upper triangle, row by row: the stream of a ginibre(rng, 1) per entry.
    z = rng.standard_normal((size * (size - 1) // 2, 2))
    M[np.triu_indices(size, 1)] = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
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


def involution(rng: np.random.Generator, n: int) -> np.ndarray:
    """Matrix squaring to the identity: signs conjugated by a mild similarity."""
    signs = rng.choice([1.0, -1.0], size=n)
    S = well_conditioned(rng, n)
    return (S * signs) @ np.linalg.inv(S)


def _is_normal(f: PolarFactors) -> bool:
    M = f.matrix
    return op_norm(M @ M.conj().T - M.conj().T @ M) <= 1e-12 * max(1.0, f.norm**2)


def _is_invertible(f: PolarFactors) -> bool:
    return bool(f.s[0] > 0.0 and f.s[-1] > 1e-6 * f.s[0])


def draw(kind: str, n: int, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL):
    """Verified instance for ``kind`` using the caller's generator stream.

    Pair kinds return (fa, fb, cb): the
    :class:`~aluthge.polar.PolarFactors` of A and B that the hypothesis
    check read, and the :class:`~aluthge.commutant.CommutantBasis` of
    Com(A, B) that it solved, so callers need neither factor nor solve
    again (``fa.matrix`` is A). ``involution`` returns the matrix.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    for _ in range(_RETRY_BUDGET):
        if kind == KIND_NORMAL_PAIR:
            fa, fb = (polar_factors(M, tol) for M in normal_pair(rng, n))
            if _is_normal(fa) and _is_normal(fb):
                cb = commutant_basis(fa.matrix, fb.matrix, tol)
                if cb.nullity >= 1:
                    return fa, fb, cb
        elif kind == KIND_INVERTIBLE_FP:
            fa, fb = (polar_factors(M, tol) for M in invertible_fp_pair(rng, n))
            if _is_invertible(fa) and _is_invertible(fb):
                cb = commutant_basis(fa.matrix, fb.matrix, tol)
                if cb.nullity >= 1 and basis_inclusion(cb, fa.adjoint(), fb.adjoint(), tol).holds:
                    return fa, fb, cb
        else:
            A = involution(rng, n)
            if op_norm(A @ A - np.eye(n)) <= INVOLUTION_RESIDUAL_MAX:
                return A
    raise GenerationError(f"no {kind!r} instance satisfying its hypothesis within {_RETRY_BUDGET} attempts")


def generate(kind: str, n: int, seed: int, tol: Tolerances = DEFAULT_TOL):
    """Deterministic hypothesis-satisfying instance for ``(kind, n, seed)``.

    Pair kinds return a tuple (A, B); ``involution`` returns the matrix.
    """
    instance = draw(kind, n, np.random.default_rng(seed), tol=tol)
    return instance if kind == KIND_INVOLUTION else (instance[0].matrix, instance[1].matrix)
