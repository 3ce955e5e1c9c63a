"""Tests for the seeded instance generators."""

from importlib import import_module

import numpy as np
import pytest

import aluthge.commutant as commutant_module
from aluthge.commutant import (
    BOTH_HYPONORMAL,
    commutant_basis,
    fp_property,
    hyponormal_class,
    semicircle_check,
)
from aluthge.generate import (
    KIND_HYPONORMAL,
    KIND_INVERTIBLE_FP,
    KIND_INVOLUTION,
    KIND_NORMAL_PAIR,
    KIND_PD_PAIR,
    KIND_UNITARY_SEMICIRCLE,
    KINDS,
    draw,
    generate,
)
from aluthge.linalg import min_hermitian_eigenvalue, op_norm, singular_values


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


def test_involution_squares_to_identity():
    for seed in range(10):
        A = generate(KIND_INVOLUTION, 2, seed=seed)
        assert op_norm(A @ A - np.eye(2)) <= 1e-12


def test_pd_pair_floor():
    for a in (0.5, 1.0, 2.0):
        A, B = generate(KIND_PD_PAIR, 4, seed=11, a=a)
        assert min_hermitian_eigenvalue(A) >= a - 1e-9
        assert min_hermitian_eigenvalue(B) >= a - 1e-9


def test_semicircle_unitary():
    for seed in range(5):
        U = generate(KIND_UNITARY_SEMICIRCLE, 4, seed=seed)
        assert op_norm(U.conj().T @ U - np.eye(4)) <= 1e-10
        assert semicircle_check(U)


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


def test_invertible_fp_draw_solves_once_per_attempt(monkeypatch):
    # The FP report's com_dim decides nontriviality, so each checked
    # attempt solves its commutant exactly once.
    generate_module = import_module("aluthge.generate")  # the package attribute is the function
    counts = {"solve": 0, "fp": 0}
    solve, fp = commutant_module.sylvester_matrix, generate_module.fp_property

    def counted_solve(A, B):
        counts["solve"] += 1
        return solve(A, B)

    def counted_fp(A, B, tol):
        counts["fp"] += 1
        return fp(A, B, tol)

    monkeypatch.setattr(commutant_module, "sylvester_matrix", counted_solve)
    monkeypatch.setattr(generate_module, "fp_property", counted_fp)
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 5):
        draw(KIND_INVERTIBLE_FP, n, rng)
    assert counts["fp"] >= 5
    assert counts["solve"] == counts["fp"]


def test_invertible_fp_pair_can_be_nonnormal():
    hits = 0
    for seed in range(20):
        A, _ = generate(KIND_INVERTIBLE_FP, 4, seed=seed)
        if op_norm(A @ A.conj().T - A.conj().T @ A) > 1e-6:
            hits += 1
    assert hits > 0


def test_hyponormal_kind():
    for seed in range(5):
        A = generate(KIND_HYPONORMAL, 3, seed=seed)
        assert hyponormal_class(A, 1.0) == BOTH_HYPONORMAL
