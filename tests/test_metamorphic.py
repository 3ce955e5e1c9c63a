"""Metamorphic properties of the Aluthge transform and the Schatten norms.

Each holds by theorem, so the test needs no reference values. For a
drawn A (n <= 12, entries scaled by 10^e with |e| <= 3, about a third of
the draws rank-deficient), Q and W unitary, c complex and N normal:

- Δ(QAQ*) = QΔ(A)Q* and Δ(cA) = cΔ(A);
- ‖Δ(A)‖₂ <= ‖A‖₂, and Δ(N) = N;
- ‖A‖_p is non-increasing in p and ‖QAW‖_p = ‖A‖_p.

Each is checked to 1e-12 relative to the size of its terms.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge.generate import ginibre, random_unitary
from aluthge.linalg import fro_norm, op_norm
from aluthge.polar import aluthge
from aluthge.schatten import schatten_norm

REL = 1e-12
ORDERS = (1.0, 1.5, 2.0, 3.0, np.inf)


@st.composite
def instances(draw):
    """A, a unitary Q and W, a complex c and a normal N, all of size n, from one seeded generator."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    deficient = n > 1 and draw(st.integers(0, 2)) == 0
    rank = draw(st.integers(0, n - 1)) if deficient else n
    A = scale * (ginibre(rng, n, rank) @ ginibre(rng, rank, n) if deficient else ginibre(rng, n))
    Q, W = random_unitary(rng, n), random_unitary(rng, n)
    c = 10.0 ** draw(st.floats(-3.0, 3.0)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    z = scale * ginibre(rng, n, 1)[:, 0]
    z[rank:] = 0.0
    N = Q @ (z[:, None] * Q.conj().T)
    return A, Q, W, c, N


@settings(derandomize=True, max_examples=300, deadline=None)
@given(instances())
def test_transform_and_norm_properties(case):
    A, Q, W, c, N = case
    T = aluthge(A)
    size = op_norm(A)
    assert fro_norm(aluthge(Q @ A @ Q.conj().T) - Q @ T @ Q.conj().T) <= REL * size
    assert fro_norm(aluthge(c * A) - c * T) <= REL * abs(c) * size
    assert op_norm(T) <= (1.0 + REL) * size
    assert fro_norm(aluthge(N) - N) <= REL * op_norm(N)
    norms = [schatten_norm(A, p) for p in ORDERS]
    assert all(later <= (1.0 + REL) * earlier for earlier, later in zip(norms, norms[1:]))
    moved = [schatten_norm(Q @ A @ W, p) for p in ORDERS]
    assert all(abs(a - b) <= REL * b for a, b in zip(moved, norms))
