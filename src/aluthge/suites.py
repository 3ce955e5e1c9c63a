"""Registry of seeded verification suites.

Each suite id names one verifiable statement about polar decompositions,
Aluthge transforms, commutants or Schatten-norm inequalities, and maps
to a case runner that draws a fresh instance per trial, evaluates the
statement and reports pass/fail. Trial ``k`` of a run with seed ``s``
uses the generator stream seeded by ``[s, k]``, so reports are
reproducible case by case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import inf, sqrt
from typing import Any, Callable

import numpy as np

from .commutant import (
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
from .generate import (
    KIND_INVERTIBLE_FP,
    KIND_INVOLUTION,
    KIND_NORMAL_PAIR,
    GenerationError,
    draw,
    ginibre,
    pd_min_eig,
    random_unitary,
    similarity_pair,
    well_conditioned,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    adjoint,
    fro_norm,
    hermitian_part,
    op_norm,
    singular_values,
)
from .matrixio import matrix_to_doc
from .polar import (
    MODE_UNITARY,
    aluthge,
    aluthge_st,
    involution_angular_check,
    polar_decompose,
    polar_factors,
    product_polar_check,
)
from .schatten import (
    aluthge_commutator_bound,
    aluthge_intertwiner_bound,
    approx_commutator_bound,
    block_identity_check,
    exact_intertwiner_transfer,
    slack_verdict,
)

__all__ = ["CaseOutcome", "CaseFailure", "SuiteReport", "SUITE_IDS", "run_suite"]


@dataclass(frozen=True)
class CaseOutcome:
    """Result of one suite trial before aggregation."""

    passed: bool
    residual: float
    threshold: float
    inputs: dict[str, np.ndarray]


@dataclass(frozen=True)
class CaseFailure:
    """One failed trial, with its inputs in document form."""

    case_id: int
    inputs: dict[str, dict]
    residual: float
    expected_threshold: float


@dataclass(frozen=True)
class SuiteReport:
    """Aggregated outcome of a suite run."""

    suite_id: str
    seed: int
    cases_run: int
    cases_passed: int
    failures: list[CaseFailure]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict[str, Any]:
        return {
            "suite_id": self.suite_id,
            "seed": int(self.seed),
            "cases_run": self.cases_run,
            "cases_passed": self.cases_passed,
            "failures": [
                {
                    "case_id": f.case_id,
                    "inputs": f.inputs,
                    "residual": f.residual,
                    "expected_threshold": f.expected_threshold,
                }
                for f in self.failures
            ],
        }


def _combo(rng: np.random.Generator, basis: list[np.ndarray]) -> np.ndarray:
    """Random unit-Frobenius-norm element of the span of ``basis``."""
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    X = sum(c * E for c, E in zip(coeffs, basis))
    return X / fro_norm(X)


def _case_fuglede_putnam(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 7))
    A, B = draw(KIND_NORMAL_PAIR, n, rng, tol=tol)
    rep = fp_property(A, B, tol)
    thr = tol.residual_rel * (op_norm(A) + op_norm(B))
    return CaseOutcome(rep.holds, rep.max_residual, thr, {"A": A, "B": B})


def _case_lemma21(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 6))
    A, B = draw(KIND_INVERTIBLE_FP, n, rng, tol=tol)
    X = _combo(rng, commutant_basis(A, B, tol).basis)
    rep_in = intertwiner_polar_identities(A, B, X, tol)
    s = singular_values(B)
    decisive = 10.0 * tol.residual_rel * (op_norm(A) + op_norm(B)) * (s[0] / s[-1])
    X_out = X
    for _ in range(50):
        E = ginibre(rng, *X.shape)
        X_out = X + 0.5 * E / fro_norm(E)
        if fro_norm(A @ X_out - X_out @ B) > decisive:
            break
    rep_out = intertwiner_polar_identities(A, B, X_out, tol)
    passed = (
        rep_in.ok
        and rep_in.details["in_com"]
        and rep_in.details["polar_identity"]
        and rep_out.ok
        and not rep_out.details["in_com"]
    )
    return CaseOutcome(bool(passed), rep_in.max_residual, rep_in.threshold, {"A": A, "B": B, "X": X})


def _case_remark22(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 6))
    A, B = draw(KIND_INVERTIBLE_FP, n, rng, tol=tol)
    X = _combo(rng, commutant_basis(A, B, tol).basis)
    p = float(rng.uniform(0.3, 2.5))
    rep = power_intertwining_check(A, B, X, p, tol)
    return CaseOutcome(rep.ok, rep.max_residual, rep.threshold, {"A": A, "B": B, "X": X})


def _case_lemma23(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 6))
    if rng.random() < 0.5:
        A, B = draw(KIND_INVERTIBLE_FP, n, rng, tol=tol)
    else:
        A, B = similarity_pair(rng, n)
    X = _combo(rng, commutant_basis(A, B, tol).basis)
    Y = aluthge_intertwiner_map(A, B, X, "forward", tol)
    Ta, Tb = aluthge(A, tol), aluthge(B, tol)
    r_member = fro_norm(Ta @ Y - Y @ Tb)
    thr_member = tol.residual_rel * (op_norm(Ta) + op_norm(Tb)) * max(fro_norm(Y), 1.0)
    back = aluthge_intertwiner_map(A, B, Y, "inverse", tol)
    sa, sb = singular_values(A), singular_values(B)
    r_round = fro_norm(back - X)
    thr_round = tol.residual_rel * sqrt((sa[0] / sa[-1]) * (sb[0] / sb[-1]))
    passed = r_member <= thr_member and r_round <= thr_round
    return CaseOutcome(bool(passed), max(r_member, r_round), max(thr_member, thr_round), {"A": A, "B": B, "X": X})


def _case_thm24(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 6))
    variant = int(rng.integers(3))
    if variant == 0:
        A, B = draw(KIND_INVERTIBLE_FP, n, rng, tol=tol)
    elif variant == 1:
        A, B = similarity_pair(rng, n)
    else:
        A, B = well_conditioned(rng, n), well_conditioned(rng, n)
    rep = squared_angular_criterion(A, B, tol)
    return CaseOutcome(rep.ok, rep.max_residual, rep.threshold, {"A": A, "B": B})


def _case_iterated_fp(rng: np.random.Generator, tol: Tolerances, n_hi: int, steps: int) -> CaseOutcome:
    """The FP-property of an invertible pair survives each of ``steps`` iterated transforms."""
    n = int(rng.integers(2, n_hi))
    A, B = draw(KIND_INVERTIBLE_FP, n, rng, tol=tol)
    Ak, Bk = A, B
    reps = []
    for _ in range(steps):
        Ak, Bk = aluthge(Ak, tol), aluthge(Bk, tol)
        reps.append(fp_property(Ak, Bk, tol))
    thr = tol.residual_rel * (op_norm(A) + op_norm(B))
    return CaseOutcome(all(r.holds for r in reps), max(r.max_residual for r in reps), thr, {"A": A, "B": B})


def _unit_spectrum_operator(rng: np.random.Generator, units: Callable, normal: bool) -> np.ndarray:
    """Operator whose angular part is Q diag(u) Q*, with the unit values u drawn by ``units(rng)``."""
    u = units(rng)
    n = u.size
    Q = random_unitary(rng, n)
    if normal:
        radii = rng.uniform(0.5, 1.8, size=n)
        return Q @ ((radii * u)[:, None] * Q.conj().T)
    U = Q @ (u[:, None] * Q.conj().T)
    return U @ pd_min_eig(rng, n, 0.5)


def _decisively_nonnormal(M: np.ndarray) -> bool:
    return op_norm(M @ adjoint(M) - adjoint(M) @ M) > 1e-2


def _angular_transfer_case(
    rng: np.random.Generator, tol: Tolerances, units: Callable, accept: Callable, what: str
) -> CaseOutcome:
    """The FP-property holds before the transform iff after, for pairs whose angular parts ``accept`` takes."""
    variant = int(rng.integers(3))
    for _ in range(50):
        if variant == 2:
            A = _unit_spectrum_operator(rng, units, normal=bool(rng.integers(2)))
            B = _unit_spectrum_operator(rng, units, normal=bool(rng.integers(2)))
        else:
            A = _unit_spectrum_operator(rng, units, normal=variant == 1)
            B = A.copy()
            if variant == 0 and not _decisively_nonnormal(A):
                continue
        if accept(polar_factors(A, tol).angular(), polar_factors(B, tol).angular()):
            break
    else:
        raise GenerationError(f"no {what} pair found")
    before = fp_property(A, B, tol)
    after = fp_property(aluthge(A, tol), aluthge(B, tol), tol)
    passed = before.holds == after.holds
    return CaseOutcome(bool(passed), max(before.max_residual, after.max_residual), 0.0, {"A": A, "B": B})


def _case_cor27(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 5))
    center = float(rng.uniform(0.0, 2.0 * np.pi))

    def units(r: np.random.Generator) -> np.ndarray:
        return np.exp(1j * (center + r.uniform(0.15, np.pi - 0.15, size=n)))

    def accept(U: np.ndarray, V: np.ndarray) -> bool:
        return semicircle_check(U, tol) and semicircle_check(V, tol)

    return _angular_transfer_case(rng, tol, units, accept, "semicircle")


def _case_rem28(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 5))
    n0 = int(rng.integers(1, 4))
    k = 2 * n0 + 1
    omega = np.exp(2j * np.pi / k)

    def units(r: np.random.Generator) -> np.ndarray:
        return omega ** r.integers(0, k, size=n)

    return _angular_transfer_case(rng, tol, units, partial(odd_root_unity_check, n0=n0, tol=tol), "odd-root")


def _case_prop29(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(1, 6))
    A = draw(KIND_INVOLUTION, n, rng, tol=tol)
    rep = involution_angular_check(A, tol)
    return CaseOutcome(rep.ok, rep.max_residual, rep.threshold, {"A": A})


_EXAMPLE_CUBE_ROOT = np.array([[0.0, 1.0], [-1.0, -1.0]], dtype=complex)
_EXAMPLE_FP_FAIL = np.array([[2.0, -3.0], [1.0, -2.0]], dtype=complex)
_EXAMPLE_WITNESS = np.array([[0.0, -3.0], [1.0, -4.0]], dtype=complex)

_SQRT5 = sqrt(5.0)
_EXPECTED_ABS = (_SQRT5 / 5.0) * np.array([[2.0, 1.0], [1.0, 3.0]])
_EXPECTED_ANGULAR = (_SQRT5 / 5.0) * np.array([[-1.0, 2.0], [-2.0, -1.0]])
# Cube of the angular part above; |A| and U are pinned by A, so U^3 is forced.
_EXPECTED_ANGULAR_CUBED = (_SQRT5 / 25.0) * np.array([[11.0, -2.0], [2.0, 11.0]])


def _case_example_a3(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    A = _EXAMPLE_CUBE_ROOT
    parts = polar_decompose(A, MODE_UNITARY, tol)
    U = parts.angular
    U3 = U @ U @ U
    deviations = [
        np.abs(parts.positive - _EXPECTED_ABS).max(),
        np.abs(U - _EXPECTED_ANGULAR).max(),
        np.abs(U3 - _EXPECTED_ANGULAR_CUBED).max(),
    ]
    worst = float(max(deviations))
    passed = (
        op_norm(A @ A @ A - np.eye(2)) <= 1e-12
        and worst <= 1e-9
        and op_norm(U3 - np.eye(2)) > 0.1
    )
    return CaseOutcome(bool(passed), worst, 1e-9, {"A": A})


def _case_example_fp_fail(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    A = _EXAMPLE_FP_FAIL
    cb = commutant_basis(A, A, tol)
    rep = basis_inclusion(cb, adjoint(A), adjoint(A), tol)
    projection = sum(np.vdot(E, _EXAMPLE_WITNESS) * E for E in cb.basis)
    r_span = fro_norm(projection - _EXAMPLE_WITNESS)
    inv = involution_angular_check(A, tol)
    transformed = aluthge(A, tol)
    rep_t = fp_property(transformed, transformed, tol)
    passed = (
        not rep.holds
        and rep.max_residual >= 1.0
        and rep.witness is not None
        and r_span <= 1e-9 * fro_norm(_EXAMPLE_WITNESS)
        and op_norm(A @ A - np.eye(2)) <= 1e-12
        and inv.max_residual <= 1e-10
        and rep_t.holds
    )
    return CaseOutcome(bool(passed), r_span, 1e-9 * fro_norm(_EXAMPLE_WITNESS), {"A": A})


def _case_thm31(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 6))
    if rng.random() < 0.5:
        A, B = draw(KIND_INVERTIBLE_FP, n, rng, tol=tol)
    else:
        A, B = draw(KIND_NORMAL_PAIR, n, rng, tol=tol)
    cb = commutant_basis(A, B, tol)
    fwd = basis_inclusion(cb, aluthge(A, tol), aluthge(B, tol), tol)
    s, t = rng.uniform(0.1, 2.0, size=2)
    fwd_st = basis_inclusion(cb, aluthge_st(A, s, t, tol), aluthge_st(B, s, t, tol), tol)
    passed = fwd.holds and fwd_st.holds
    worst = max(fwd.max_residual, fwd_st.max_residual)
    thr = tol.residual_rel * (op_norm(A) + op_norm(B))
    return CaseOutcome(bool(passed), worst, thr, {"A": A, "B": B})


def _case_iterated_commutants(rng: np.random.Generator, tol: Tolerances, n_hi: int, steps: int) -> CaseOutcome:
    """Com(A, B) equals the commutant of each of ``steps`` iterated transforms (invertible FP pairs).

    One solve of Com(A, B) serves every forward inclusion; each reverse
    inclusion solves the commutant of its own iterate.
    """
    n = int(rng.integers(2, n_hi))
    A, B = draw(KIND_INVERTIBLE_FP, n, rng, tol=tol)
    cb = commutant_basis(A, B, tol)
    Ak, Bk = A, B
    reps = []
    for _ in range(steps):
        Ak, Bk = aluthge(Ak, tol), aluthge(Bk, tol)
        reps += [basis_inclusion(cb, Ak, Bk, tol), com_inclusion(Ak, Bk, A, B, tol)]
    thr = tol.residual_rel * (op_norm(A) + op_norm(B))
    return CaseOutcome(all(r.holds for r in reps), max(r.max_residual for r in reps), thr, {"A": A, "B": B})


_P_CHOICES = (1.0, 2.0, 3.0, inf)


def _corner_phase_instance(rng: np.random.Generator, n: int, a_target: float) -> tuple[np.ndarray, np.ndarray]:
    """Non-Hermitian instance for the one-operator bound: the angular part
    acts as a phase on one coordinate that X does not touch."""
    phi = rng.uniform(-np.pi / 3.0, np.pi / 3.0)
    U = np.eye(n, dtype=complex)
    U[-1, -1] = np.exp(1j * phi)
    P = pd_min_eig(rng, n, a_target**2)
    X = np.zeros((n, n), dtype=complex)
    X[: n - 1, : n - 1] = hermitian_part(ginibre(rng, n - 1))
    A = U @ P
    Q = random_unitary(rng, n)
    return Q @ A @ Q.conj().T, Q @ X @ Q.conj().T


def _case_lemma41(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 6))
    p = float(rng.choice(_P_CHOICES))
    a_target = float(rng.uniform(0.5, 1.5))
    rep = None
    if rng.random() < 0.3 and n >= 3:
        for _ in range(50):
            A, X = _corner_phase_instance(rng, n, a_target)
            candidate = aluthge_commutator_bound(A, X, p, tol)
            if candidate.hypotheses_ok:
                rep = candidate
                break
    if rep is None:
        A = pd_min_eig(rng, n, a_target**2)
        X = hermitian_part(ginibre(rng, n))
        rep = aluthge_commutator_bound(A, X, p, tol)
    passed, violation, allowance = slack_verdict(rep)
    return CaseOutcome(passed, violation, allowance, {"A": A, "X": X})


def _case_thm42(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    na = int(rng.integers(1, 5))
    nb = int(rng.integers(1, 5))
    p = float(rng.choice(_P_CHOICES))
    floor = float(rng.uniform(1.0, 2.0))
    A = pd_min_eig(rng, na, floor)
    B = pd_min_eig(rng, nb, floor)
    X = ginibre(rng, na, nb)
    rep = aluthge_intertwiner_bound(A, B, X, p, tol)
    satisfied, violation, allowance = slack_verdict(rep)
    agree = (
        abs(rep.lhs - rep.details["block_lhs"]) <= allowance
        and abs(rep.rhs - rep.details["block_rhs"]) <= allowance
    )
    return CaseOutcome(bool(satisfied and agree), violation, allowance, {"A": A, "B": B, "X": X})


def _case_cor44(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 6))
    sizes: list[int] = []
    remaining = n
    while remaining:
        block = int(rng.integers(1, remaining + 1))
        sizes.append(block)
        remaining -= block
    ev = np.concatenate([np.full(b, rng.uniform(0.5, 2.5)) for b in sizes])
    M = np.zeros((n, n), dtype=complex)
    offset = 0
    for b in sizes:
        M[offset : offset + b, offset : offset + b] = ginibre(rng, b)
        offset += b
    Q = random_unitary(rng, n)
    A = hermitian_part(Q @ (ev[:, None] * Q.conj().T))
    X = Q @ M @ Q.conj().T
    rep = exact_intertwiner_transfer(A, A, X, tol)
    return CaseOutcome(rep.ok, rep.max_residual, rep.threshold, {"A": A, "B": A, "X": X})


def _case_moore(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 6))
    A = ginibre(rng, n)
    X = ginibre(rng, n)
    f = polar_factors(A, tol)
    root, U = f.power(0.5), f.angular()
    delta = max(op_norm(root @ X - X @ root), op_norm(adjoint(U) @ X - X @ U))
    rep = approx_commutator_bound(A, X, delta, tol)
    passed, violation, allowance = slack_verdict(rep, upper=True)
    return CaseOutcome(passed, violation, allowance, {"A": A, "X": X})


_BLOCK_P_CHOICES = (0.5, 1.0, 2.0, 3.0, 4.5, inf)


def _case_block_identity(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    while True:
        m, n_cols, k = (int(v) for v in rng.integers(1, 6, size=3))
        l = m + k - n_cols
        if l >= 1:
            break
    A = ginibre(rng, m, n_cols)
    B = ginibre(rng, k, l)
    p = float(rng.choice(_BLOCK_P_CHOICES))
    rep = block_identity_check(A, B, p, tol)
    return CaseOutcome(bool(rep.max_residual <= 1e-10), rep.max_residual, 1e-10, {"A": A, "B": B})


def _rank_deficient(rng: np.random.Generator, n: int) -> np.ndarray:
    s = np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]
    s[-1] = 0.0
    return random_unitary(rng, n) @ (s[:, None] * random_unitary(rng, n).conj().T)


def _case_product_polar(rng: np.random.Generator, tol: Tolerances) -> CaseOutcome:
    n = int(rng.integers(2, 6))
    variant = int(rng.integers(4))
    if variant == 0:
        T, S = random_unitary(rng, n), random_unitary(rng, n)
    elif variant == 1:
        T, S = well_conditioned(rng, n), well_conditioned(rng, n)
    elif variant == 2:
        T, S = random_unitary(rng, n), well_conditioned(rng, n)
    else:
        T, S = _rank_deficient(rng, n), well_conditioned(rng, n)
    rep = product_polar_check(T, S, tol)
    return CaseOutcome(rep.ok, rep.max_residual, rep.threshold, {"T": T, "S": S})


SUITES: dict[str, Callable[[np.random.Generator, Tolerances], CaseOutcome]] = {
    "fuglede_putnam": _case_fuglede_putnam,
    "lemma21": _case_lemma21,
    "remark22": _case_remark22,
    "lemma23": _case_lemma23,
    "thm24": _case_thm24,
    "cor25": partial(_case_iterated_fp, n_hi=6, steps=1),
    "cor26": partial(_case_iterated_fp, n_hi=5, steps=3),
    "cor27": _case_cor27,
    "rem28": _case_rem28,
    "prop29": _case_prop29,
    "example_a3": _case_example_a3,
    "example_fp_fail": _case_example_fp_fail,
    "thm31": _case_thm31,
    "thm33": partial(_case_iterated_commutants, n_hi=6, steps=1),
    "cor36": partial(_case_iterated_commutants, n_hi=5, steps=3),
    "lemma41": _case_lemma41,
    "thm42": _case_thm42,
    "cor44": _case_cor44,
    "moore": _case_moore,
    "block_identity": _case_block_identity,
    "product_polar": _case_product_polar,
}

SUITE_IDS = tuple(sorted(SUITES))


def run_suite(suite_id: str, seed: int, trials: int, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Run ``trials`` seeded cases of one registered suite.

    Case k draws from ``default_rng([seed, k])``, so individual failures
    can be replayed in isolation. Failures are reported with their
    serialized inputs, sorted by case id.
    """
    if suite_id not in SUITES:
        raise ValueError(f"unknown suite id {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    runner = SUITES[suite_id]
    failures: list[CaseFailure] = []
    passed = 0
    for case_id in range(trials):
        rng = np.random.default_rng([int(seed), case_id])
        outcome = runner(rng, tol)
        if outcome.passed:
            passed += 1
        else:
            failures.append(
                CaseFailure(
                    case_id=case_id,
                    inputs={name: matrix_to_doc(M) for name, M in outcome.inputs.items()},
                    residual=float(outcome.residual),
                    expected_threshold=float(outcome.threshold),
                )
            )
    failures.sort(key=lambda f: f.case_id)
    return SuiteReport(
        suite_id=suite_id,
        seed=int(seed),
        cases_run=trials,
        cases_passed=passed,
        failures=failures,
    )
