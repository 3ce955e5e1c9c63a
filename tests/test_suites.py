"""Tests for the suite registry and runner."""

import hashlib
import json

import numpy as np
import pytest

from aluthge.cli import main
from aluthge.commutant import FpReport, fp_property
from aluthge.generate import GenerationError, ginibre
from aluthge.linalg import DEFAULT_TOL, Tolerances, counting, hermitian_part, op_norm
from aluthge.matrixio import matrix_from_doc
from aluthge.polar import aluthge
from aluthge.schatten import aluthge_intertwiner_bound
from aluthge.suites import SUITE_IDS, SUITES, _angular_transfer_case, _inclusion_outcome, run_suite

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


def test_angular_transfer_case_without_an_accepted_pair():
    def units(rng):
        return np.exp(1j * rng.uniform(0.0, 1.0, size=2))

    with pytest.raises(GenerationError, match="^no semicircle pair found$"):
        _angular_transfer_case(np.random.default_rng(0), DEFAULT_TOL, units, lambda U, V: False, "semicircle")


def test_a_case_with_one_failed_inclusion_fails():
    # Every inclusion of a case must hold, and the one furthest past its threshold decides.
    held, failed = (FpReport(holds, None, residual, 1.0, 1) for holds, residual in ((True, 0.5), (False, 2.0)))
    report, _ = _inclusion_outcome([held, failed], {})
    assert not report.ok and report.max_residual == 2.0


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


def solved_pairs(calls):
    """Each commutant solve in a list that ``linalg.counting()`` yielded, keyed by the bytes of its pair."""
    return [(cb.A.tobytes(), cb.B.tobytes()) for kind, cb in calls if kind == "commutant"]


def test_example_fp_fail_solves_each_pair_once():
    # One solve of Com(A, A) gives the verdict and the witness projection;
    # the transformed pair needs its own.
    with counting() as calls:
        assert run_suite("example_fp_fail", seed=0, trials=1).passed
    assert len(solved_pairs(calls)) == 2


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_each_pair_solved_once_per_case(suite_id):
    for case_id in range(8):
        with counting() as calls:
            SUITES[suite_id](np.random.default_rng([1, case_id]), DEFAULT_TOL)
        solved = solved_pairs(calls)
        assert len(solved) == len(set(solved)), f"case {case_id} solves a pair twice"


@pytest.fixture
def factorizations():
    """A function that returns the SVDs taken since its last call, each as (key of the matrix, key of its adjoint)."""

    def key(M):
        return M.shape, np.ascontiguousarray(M).tobytes()

    def taken():
        svds = [(key(M), key(M.conj().T)) for kind, M in calls if kind == "svd"]
        calls.clear()
        return svds

    with counting() as calls:
        yield taken


FACTORED_ONCE = [
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
    "example_fp_fail",
    "thm31",
    "thm33",
    "cor36",
    "lemma41",
    "thm42",
    "cor44",
    "product_polar",
]


@pytest.mark.parametrize("suite_id", FACTORED_ONCE)
def test_each_matrix_factored_once_per_case(suite_id, factorizations):
    # Every SVD a case takes must see a new matrix. A matrix, or its
    # adjoint, seen twice should have been read from the PolarFactors the
    # case already holds.
    for case_id in range(8):
        SUITES[suite_id](np.random.default_rng([1, case_id]), DEFAULT_TOL)
        seen = set()
        for k, k_adjoint in factorizations():
            assert k not in seen, f"case {case_id} factors a matrix, or its adjoint, twice"
            seen.update((k, k_adjoint))


@pytest.mark.parametrize("check", ["fp_property", "aluthge_intertwiner_bound"])
def test_a_repeated_operand_is_factored_once(check, factorizations):
    # Passed as B, A itself takes one SVD fewer than an equal copy of it.
    rng = np.random.default_rng(32)
    A, X = ginibre(rng, 4), hermitian_part(ginibre(rng, 4))
    call = fp_property if check == "fp_property" else lambda A, B: aluthge_intertwiner_bound(A, B, X, 3.0)
    counts = []
    for B in (A.copy(), A):
        call(A, B)
        counts.append(len(factorizations()))
    assert counts[1] == counts[0] - 1


# SVDs that cases 0-39 of each suite take at seed 1, at most.
# moore factors A twice on purpose: its hypothesis is recomputed from the matrix.
SVD_CENSUS = {
    "block_identity": 120,
    "cor25": 258,
    "cor26": 501,
    "cor27": 276,
    "cor36": 501,
    "cor44": 80,
    "example_a3": 120,
    "example_fp_fail": 240,
    "fuglede_putnam": 230,
    "lemma21": 138,
    "lemma23": 206,
    "lemma41": 160,
    "moore": 280,
    "product_polar": 240,
    "prop29": 120,
    "rem28": 357,
    "remark22": 138,
    "thm24": 246,
    "thm31": 362,
    "thm33": 258,
    "thm42": 360,
}


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_svd_census(suite_id, factorizations):
    # A change that makes a suite factor more shows here; one that makes it
    # factor less should lower the pinned count.
    assert list(SVD_CENSUS) == list(SUITE_IDS)
    for case_id in range(40):
        SUITES[suite_id](np.random.default_rng([1, case_id]), DEFAULT_TOL)
    assert len(factorizations()) <= SVD_CENSUS[suite_id]


# SHA-256 of the bytes `aluthge suite <id> --trials 200 --seed 1` writes, in SUITE_IDS order.
REPORT_SHA256 = {
    "block_identity": "b8c4c2ae141ba19c555f601a2fc1bf9aae95c18f317603f0ab99b72038d0c9c8",
    "cor25": "67058d41abb20857ceaa3bed5dc8161e0631b549f6b9679748c4211f097d3146",
    "cor26": "a0458deed8ed9df1346f82219c1e1fe46b130c4e8cf44215f44dfb67212c1780",
    "cor27": "6110350b17476a9ed1976b562106a83316aaaaa8e99333b7fa105699e08a8cd1",
    "cor36": "32f846af037cead0b590048aa5571bc400342139f983199447589a82d1acb5e6",
    "cor44": "f91e092a5e873ed2952cb500cf8737a7f8643cce13575c05025018fa2c4de2c4",
    "example_a3": "738552e672f74a55bb2af49ace52e667dbb691c363cf82f6e471ec8c1b55550e",
    "example_fp_fail": "6c28af0df923c67d205a6f14b32afa74219ca27e732b2e71ae1abba64c53b43b",
    "fuglede_putnam": "b520826f8023264ca6afda1bf6af66c55c042878e1551af70802bcd01913eb7b",
    "lemma21": "c530177946f10c37c03e54b8b6d9c48519778b997b0480100a425e5b95ac3709",
    "lemma23": "71d432ab794e3570b493775debd901693be958e2704cb6e6f338d022e004f912",
    "lemma41": "bdc8ccc03a5338d449070f6fce53acc01c283a546b721016f322237fb636e86e",
    "moore": "05f14e73f77e645f8861d137b9db0b5596a85c8884790cb3f1e945cb036fdc15",
    "product_polar": "54607a04b9940afbddddc88fdabd0cd3f94b3d6f8857d1f0d568015afcefb4dd",
    "prop29": "0bada1a6610af661ed627179ff6672c54ccea5737bca4c9aa6d06317bb58eaeb",
    "rem28": "e9f5ce06ea7b446f382590cbf3281be282fa9f29f06a1607844715aaa20ec158",
    "remark22": "dd21758f9615b970aabe438d82dc3ce85174afccca9321c8c3a533b51d2cce44",
    "thm24": "344c4cab444e5e741bb26f8bdce9a1295b427a6af3610b631d0cce0403b89500",
    "thm31": "ce04f7a54ffceb76b28afe094128f2fd741413a341cc54a43d26524d2bb1be46",
    "thm33": "d723c8c4e5bfa1a47fd47fe2e5cef7467b4f25526288f32e11f93b2272056588",
    "thm42": "1f11465b882a0c7ef94a9019e156e2523b5adc30c9c13d828a515bdd3a583ef4",
}


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_every_suite_passes_at_seed_one(suite_id, tmp_path):
    """The report of ``--trials 200 --seed 1`` passes every case and keeps its bytes.

    Recorded with numpy 2.4.6 and OpenBLAS 0.3.31, with one BLAS thread and
    with the default thread count, which gave the same digests. A change
    that alters a report must say so and list its pass counts.
    """
    assert list(REPORT_SHA256) == list(SUITE_IDS)
    path = tmp_path / f"{suite_id}.json"
    if main(["suite", suite_id, "--trials", "200", "--seed", "1", "--out", str(path)]) != 0:
        pytest.fail(f"failed cases: {[f['case_id'] for f in json.loads(path.read_text())['failures']]}")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256[suite_id]
