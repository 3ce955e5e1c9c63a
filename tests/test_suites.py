"""Tests for the suite registry and runner."""

import json

import pytest

import aluthge.commutant as commutant_module
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
    from aluthge.linalg import Tolerances

    rep = run_suite("example_fp_fail", seed=0, trials=2, tol=Tolerances(residual_rel=0.9))
    assert not rep.passed
    assert rep.cases_passed == 0
    assert [f.case_id for f in rep.failures] == [0, 1]
    entry = rep.failures[0]
    assert entry.inputs["A"]["rows"] == 2
    doc = rep.to_doc()
    assert doc["failures"][0]["inputs"]["A"]["data"][0] == [2.0, 0.0]


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
