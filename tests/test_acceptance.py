"""End-to-end acceptance checks.

Each test pins one verification scenario at a fixed tolerance and
prints a PASS/FAIL line (visible with ``pytest -s`` or in failure
output). Seeds are frozen so every run exercises identical instances.
"""

import time
from contextlib import contextmanager

import numpy as np

from aluthge.commutant import com_inclusion, commutant_basis, fp_property
from aluthge.generate import KIND_NORMAL_PAIR, draw, ginibre
from aluthge.linalg import op_norm
from aluthge.polar import aluthge, aluthge_iterate, involution_angular_check, polar_decompose
from aluthge.suites import run_suite

SEED = 31415926
SQRT5 = np.sqrt(5.0)


@contextmanager
def criterion(label: str, limit_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"{label} took {elapsed:.1f}s, limit {limit_seconds}s"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def test_01_cube_root_example_fidelity():
    with criterion("01 cube-root example fidelity", limit_seconds=1.0):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]], dtype=complex)
        assert op_norm(A @ A @ A - np.eye(2)) <= 1e-12
        parts = polar_decompose(A)
        np.testing.assert_allclose(
            parts.positive, (SQRT5 / 5.0) * np.array([[2.0, 1.0], [1.0, 3.0]]), atol=1e-9
        )
        np.testing.assert_allclose(
            parts.angular, (SQRT5 / 5.0) * np.array([[-1.0, 2.0], [-2.0, -1.0]]), atol=1e-9
        )
        # U = [[c, -s], [s, c]] is the rotation by theta with c = -1/sqrt5,
        # s = -2/sqrt5, so U^3 is the rotation by 3*theta:
        # cos 3theta = 4c^3 - 3c = 11 sqrt5/25, sin 3theta = 3s - 4s^3 = 2 sqrt5/25.
        U3_expected = (SQRT5 / 25.0) * np.array([[11.0, -2.0], [2.0, 11.0]])
        # the cube of a unitary is unitary, so a mistyped reference fails here
        np.testing.assert_allclose(U3_expected.T @ U3_expected, np.eye(2), atol=1e-12)
        U = parts.angular
        U3 = U @ U @ U
        np.testing.assert_allclose(U3, U3_expected, atol=1e-9)
        # the point of the example: A^3 = I while U^3 is not I
        assert op_norm(U3 - np.eye(2)) > 0.1


def test_02_fp_counterexample_fidelity():
    with criterion("02 adjoint-intertwining counterexample", limit_seconds=1.0):
        A = np.array([[2.0, -3.0], [1.0, -2.0]], dtype=complex)
        assert op_norm(A @ A - np.eye(2)) <= 1e-12
        assert not fp_property(A, A).holds
        inv = involution_angular_check(A)
        assert inv.max_residual <= 1e-10
        T = aluthge(A)
        assert fp_property(T, T).holds


def test_03_normal_pair_suite():
    with criterion("03 normal pairs keep the FP-property (200 cases)", limit_seconds=30.0):
        report = run_suite("fuglede_putnam", seed=SEED, trials=200)
        assert report.cases_passed == 200, report.failures
        nontrivial = 0
        for case in range(200):
            rng = np.random.default_rng([SEED, case])
            n = int(rng.integers(2, 7))
            A, B = (f.matrix for f in draw(KIND_NORMAL_PAIR, n, rng)[:2])
            if commutant_basis(A, B).nullity > 0:
                nontrivial += 1
        assert nontrivial >= 190


def test_04_commutant_equality_suite():
    with criterion("04 commutant equality under the transform (100 cases)", limit_seconds=60.0):
        report = run_suite("thm33", seed=SEED, trials=100)
        assert report.cases_passed == 100, report.failures
        report_fwd = run_suite("thm31", seed=SEED, trials=100)
        assert report_fwd.cases_passed == 100, report_fwd.failures
        # strictness of the reverse direction without invertibility: the
        # nilpotent block transforms to zero, whose commutant is everything
        J = np.array([[0.0, 1.0], [0.0, 0.0]])
        T = aluthge(J)
        assert com_inclusion(J, J, T, T).holds
        assert not com_inclusion(T, T, J, J).holds


def test_05_angular_criteria_suites():
    with criterion("05 squared-angular and spectral-condition suites (100 each)", limit_seconds=60.0):
        for suite_id in ("thm24", "cor25", "cor26", "cor27", "rem28"):
            report = run_suite(suite_id, seed=SEED, trials=100)
            assert report.cases_passed == 100, (suite_id, report.failures)


def test_06_inequality_suites():
    with criterion("06 lower-bound inequalities (500 each, p in {1,2,3,inf})", limit_seconds=60.0):
        for suite_id in ("lemma41", "thm42"):
            report = run_suite(suite_id, seed=SEED, trials=500)
            assert report.cases_passed == 500, (suite_id, report.failures)


def test_07_block_identity_suite():
    with criterion("07 block norm identity (200 cases)", limit_seconds=30.0):
        report = run_suite("block_identity", seed=SEED, trials=200)
        assert report.cases_passed == 200, report.failures


def test_08_nullity_oracle_equivalence():
    with criterion("08 nullity matches the eigenvalue-coincidence count (100 pairs)", limit_seconds=30.0):
        rng = np.random.default_rng(SEED + 8)
        values = np.array([1.0, -1.0, 2.0, 0.5 + 0.5j, -1.5j])
        for _ in range(100):
            n1, n2 = (int(v) for v in rng.integers(2, 5, size=2))
            ev_a = rng.choice(values, size=n1)
            ev_b = rng.choice(values, size=n2)
            S1 = ginibre(rng, n1) + 2.0 * np.eye(n1)
            S2 = ginibre(rng, n2) + 2.0 * np.eye(n2)
            A = S1 @ (ev_a[:, None] * np.linalg.inv(S1))
            B = S2 @ (ev_b[:, None] * np.linalg.inv(S2))
            expected = sum(1 for x in ev_a for y in ev_b if x == y)
            assert commutant_basis(A, B).nullity == expected


def test_09_norm_convergence_diagnostic():
    with criterion("09 iterate norms fall toward the spectral radius (50 cases)", limit_seconds=120.0):
        rng = np.random.default_rng(SEED + 9)
        for _ in range(50):
            A = ginibre(rng, 4)
            trajectory = aluthge_iterate(A, 50)
            norms = trajectory.norms
            for a, b in zip(norms, norms[1:]):
                assert b <= a + 1e-9
            initial_gap = norms[0] - trajectory.radius
            final_gap = norms[-1] - trajectory.radius
            assert final_gap <= 0.5 * initial_gap


def test_10_upper_bound_suite():
    with criterion("10 near-commutation upper bound (200 cases)", limit_seconds=30.0):
        report = run_suite("moore", seed=SEED, trials=200)
        assert report.cases_passed == 200, report.failures
