"""Tests for the seeded instance generators."""

import numpy as np
import pytest

from aluthge.commutant import commutant_basis, fp_property
from aluthge.generate import (
    KIND_INVERTIBLE_FP,
    KIND_INVOLUTION,
    KIND_NORMAL_PAIR,
    KINDS,
    GenerationError,
    _distinct_in_sector,
    _is_invertible,
    _nonnormal_block,
    draw,
    generate,
    ginibre,
)
from aluthge.linalg import counting, op_norm, singular_values
from aluthge.polar import polar_factors


def test_deterministic_per_seed():
    for kind in KINDS:
        first = generate(kind, 3, seed=42)
        second = generate(kind, 3, seed=42)
        other = generate(kind, 3, seed=43)
        if isinstance(first, tuple):
            for a, b in zip(first, second):
                np.testing.assert_array_equal(a, b)
            assert any(not np.array_equal(a, b) for a, b in zip(first, other))
        else:
            np.testing.assert_array_equal(first, second)
            assert not np.array_equal(first, other)


def test_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        generate("perfectly_normal_pair", 3, seed=0)


def test_bad_size():
    with pytest.raises(ValueError, match="at least 1"):
        generate(KIND_INVOLUTION, 0, seed=0)


def test_invertible_fp_draw_runs_out_of_separated_values():
    # At n = 48 the shared pool needs 45 to 47 values 0.2 apart in one
    # sector, which 500 random draws do not place.
    with pytest.raises(GenerationError, match="^could not draw separated spectrum values$"):
        draw(KIND_INVERTIBLE_FP, 48, np.random.default_rng(1))


def test_involution_squares_to_identity():
    for seed in range(10):
        A = generate(KIND_INVOLUTION, 2, seed=seed)
        assert op_norm(A @ A - np.eye(2)) <= 1e-12


def test_normal_pair_nontrivial_commutant():
    for seed in range(10):
        A, B = generate(KIND_NORMAL_PAIR, 3, seed=seed)
        assert commutant_basis(A, B).nullity >= 1
        assert op_norm(A @ A.conj().T - A.conj().T @ A) <= 1e-10


def test_invertible_fp_pair_properties():
    for seed in range(10):
        A, B = generate(KIND_INVERTIBLE_FP, 4, seed=seed)
        sa, sb = singular_values(A), singular_values(B)
        assert sa[-1] > 1e-6 * sa[0] and sb[-1] > 1e-6 * sb[0]
        rep = fp_property(A, B)
        assert rep.holds and rep.com_dim >= 1


def test_invertible_fp_draw_solves_once_per_attempt():
    # The FP check reuses the basis that decides nontriviality, so each
    # checked attempt solves its commutant exactly once.
    rng = np.random.default_rng(7)
    with counting() as calls:
        for n in (1, 2, 3, 4, 5):
            draw(KIND_INVERTIBLE_FP, n, rng)
    pairs = [(cb.A.tobytes(), cb.B.tobytes()) for kind, cb in calls if kind == "commutant"]
    assert len(pairs) >= 5 and len(set(pairs)) == len(pairs)


def test_draw_returns_the_verified_basis():
    for kind in (KIND_NORMAL_PAIR, KIND_INVERTIBLE_FP):
        fa, fb, cb = draw(kind, 4, np.random.default_rng(3))
        ref = commutant_basis(fa.matrix, fb.matrix)
        assert cb.nullity == ref.nullity >= 1
        for X, Y in zip(cb.basis, ref.basis):
            np.testing.assert_array_equal(X, Y)


def test_invertible_fp_pair_can_be_nonnormal():
    hits = 0
    for seed in range(20):
        A, _ = generate(KIND_INVERTIBLE_FP, 4, seed=seed)
        if op_norm(A @ A.conj().T - A.conj().T @ A) > 1e-6:
            hits += 1
    assert hits > 0


def loop_nonnormal_block(rng, sector, size):
    """The reference draw of a non-normal block: one ginibre(rng, 1) per strict upper entry, row by row."""
    M = np.diag(_distinct_in_sector(rng, size, sector, (0.6, 1.8)))
    for i in range(size):
        for j in range(i + 1, size):
            M[i, j] = ginibre(rng, 1)[0, 0]
    return M


@pytest.mark.parametrize("size", range(1, 7))
def test_nonnormal_block_draws_the_per_entry_stream(size):
    sector = (2.0, 4.0)
    for seed in range(300):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _nonnormal_block(rng, sector, size).tobytes() == loop_nonnormal_block(reference, sector, size).tobytes()
        # Both leave the stream at the same point.
        assert rng.bit_generator.state == reference.bit_generator.state


def test_invertibility_asks_for_a_bounded_condition_number():
    # The invertible kinds need the smallest singular value above 1e-6 times the largest, not just above 0.
    assert not _is_invertible(polar_factors(np.diag([1.0, 1e-7])))
    assert _is_invertible(polar_factors(np.diag([1.0, 1e-5])))
