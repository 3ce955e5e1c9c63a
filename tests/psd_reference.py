"""Reference matrix functions for the tests, computed by a route the library does not take.

``psd_power`` works from the eigendecomposition of a Hermitian matrix,
while the library reads every power of |A| from the SVD of A
(``PolarFactors.power``), so the two share no factorization.
"""

import numpy as np

from aluthge.linalg import DEFAULT_TOL, Tolerances, as_square, fro_norm, hermitian_part


def psd_power(P, s: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Real power P^s of a Hermitian positive semidefinite matrix.

    Computed through the eigendecomposition. s must be nonnegative.
    Convention at s = 0: the orthogonal projection onto range(P), which
    is the identity exactly when P is definite (consistent with the
    limit s -> 0+ on the support). Eigenvalues below -residual_rel * ||P||
    are rejected; small negative dust is clamped to zero first.
    """
    if s < 0:
        raise ValueError("exponent s must be nonnegative")
    P = as_square(P)
    if fro_norm(P - P.conj().T) > tol.residual_rel * max(1.0, fro_norm(P)):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(hermitian_part(P))
    scale = float(np.abs(w).max())
    if w[0] < -tol.residual_rel * scale:
        raise ValueError("matrix is not positive semidefinite within tolerance")
    w = np.clip(w, 0.0, None)
    if s == 0.0:
        f = (w > tol.rank_rel * scale).astype(float)
    else:
        f = np.power(w, s)
    return hermitian_part(V @ (f[:, None] * V.conj().T))
