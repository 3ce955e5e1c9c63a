"""Tests for the suite registry and runner."""

import json

import numpy as np
import pytest

import aluthge.commutant as commutant_module
from aluthge.linalg import DEFAULT_TOL, Tolerances, op_norm
from aluthge.matrixio import matrix_from_doc
from aluthge.polar import aluthge
from aluthge.suites import SUITE_IDS, SUITES, run_suite

EXPECTED_IDS = {
    "fuglede_putnam",
    "lemma21",
    "remark22",
    "lemma23",
    "thm24",
    "cor25",
    "cor26",
    "cor27",
    "rem28",
    "prop29",
    "example_a3",
    "example_fp_fail",
    "thm31",
    "thm33",
    "cor36",
    "lemma41",
    "thm42",
    "cor44",
    "moore",
    "block_identity",
    "product_polar",
}


def test_registry_is_complete():
    assert set(SUITE_IDS) == EXPECTED_IDS
    assert set(SUITES) == EXPECTED_IDS


@pytest.mark.parametrize("suite_id", sorted(EXPECTED_IDS))
def test_every_suite_passes_smoke(suite_id):
    report = run_suite(suite_id, seed=2024, trials=4)
    assert report.cases_run == 4
    assert report.cases_passed == 4
    assert report.passed and report.failures == []


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite id"):
        run_suite("weird", seed=0, trials=1)


def test_bad_trials():
    with pytest.raises(ValueError, match="at least 1"):
        run_suite("prop29", seed=0, trials=0)


def test_report_document_is_deterministic():
    a = run_suite("lemma41", seed=5, trials=6).to_doc()
    b = run_suite("lemma41", seed=5, trials=6).to_doc()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_counts_consistent():
    rep = run_suite("fuglede_putnam", seed=17, trials=10)
    assert rep.cases_passed + len(rep.failures) == rep.cases_run
    doc = rep.to_doc()
    assert doc["suite_id"] == "fuglede_putnam"
    assert doc["seed"] == 17


def test_failure_entries_are_populated():
    # a residual tolerance of 0.9 accepts the known counterexample's
    # adjoint defect, so the fixed-instance suite must report failures
    rep = run_suite("example_fp_fail", seed=0, trials=2, tol=Tolerances(residual_rel=0.9))
    assert not rep.passed
    assert rep.cases_passed == 0
    assert [f.case_id for f in rep.failures] == [0, 1]
    entry = rep.failures[0]
    assert entry.inputs["A"]["rows"] == 2
    doc = rep.to_doc()
    assert list(doc) == ["suite_id", "seed", "cases_run", "cases_passed", "failures"]
    assert list(doc["failures"][0]) == ["case_id", "inputs", "residual", "expected_threshold"]
    assert doc["failures"][0]["inputs"]["A"]["data"][0] == [2.0, 0.0]


def test_failure_carries_the_deciding_threshold():
    # cor25 checks the FP-property of the transformed pair, so a failure
    # must report that check's threshold, scaled by the transforms' norms.
    tol = Tolerances(residual_rel=1e-15)
    rep = run_suite("cor25", seed=0, trials=5, tol=tol)
    entry = next(f for f in rep.failures if f.case_id == 4)
    A, B = (matrix_from_doc(entry.inputs[name]) for name in ("A", "B"))
    transformed = tol.residual_rel * (op_norm(aluthge(A, tol)) + op_norm(aluthge(B, tol)))
    original = tol.residual_rel * (op_norm(A) + op_norm(B))
    assert entry.expected_threshold == pytest.approx(transformed, rel=1e-12, abs=0.0)
    assert entry.expected_threshold != pytest.approx(original, rel=1e-3, abs=0.0)
    assert entry.residual > entry.expected_threshold


def test_example_fp_fail_solves_each_pair_once(monkeypatch):
    # One solve of Com(A, A) gives the verdict and the witness projection;
    # the transformed pair needs its own.
    calls = []
    solve = commutant_module.sylvester_matrix

    def counted(A, B):
        calls.append(A.shape)
        return solve(A, B)

    monkeypatch.setattr(commutant_module, "sylvester_matrix", counted)
    assert run_suite("example_fp_fail", seed=0, trials=1).passed
    assert len(calls) == 2


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_each_pair_solved_once_per_case(suite_id, monkeypatch):
    solved = []
    solve = commutant_module.sylvester_matrix

    def recorded(A, B):
        solved.append((A.tobytes(), B.tobytes()))
        return solve(A, B)

    monkeypatch.setattr(commutant_module, "sylvester_matrix", recorded)
    for case_id in range(8):
        solved.clear()
        SUITES[suite_id](np.random.default_rng([1, case_id]), DEFAULT_TOL)
        assert len(solved) == len(set(solved)), f"case {case_id} solves a pair twice"


@pytest.mark.parametrize("suite_id", ["fuglede_putnam", "thm24", "cor25", "cor26", "thm31", "thm33", "cor36"])
def test_each_matrix_factored_once_per_case(suite_id, monkeypatch):
    # Every SVD and spectral norm a case takes must see a new matrix. A
    # matrix, or its adjoint, seen twice should have been read from the
    # PolarFactors the case already holds.
    factored = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def key(M):
        return M.shape, np.ascontiguousarray(M).tobytes()

    def record(M):
        M = np.asarray(M, dtype=complex)
        factored.append((key(M), key(M.conj().T)))

    def recorded_svd(a, *args, **kwargs):
        record(a)
        return svd(a, *args, **kwargs)

    def recorded_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            record(x)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(np.linalg, "norm", recorded_norm)
    for case_id in range(8):
        factored.clear()
        SUITES[suite_id](np.random.default_rng([1, case_id]), DEFAULT_TOL)
        seen = set()
        for k, k_adjoint in factored:
            assert k not in seen, f"case {case_id} factors a matrix, or its adjoint, twice"
            seen.update((k, k_adjoint))


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_every_suite_passes_at_seed_one(suite_id):
    # At seed 1 every suite passes all 200 cases, so its report carries no
    # failures; a change of verdict on any of these cases shows here.
    report = run_suite(suite_id, seed=1, trials=200)
    assert report.cases_passed == 200, [f.case_id for f in report.failures]
