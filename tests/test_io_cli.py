"""Tests for matrix document round-trips and the command-line interface."""

import json
from math import inf

import numpy as np
import pytest

from aluthge.cli import main
from aluthge.generate import ginibre
from aluthge.matrixio import (
    matrix_from_doc,
    matrix_to_doc,
    read_matrices,
    read_matrix,
    write_matrices,
    write_matrix,
)


class TestMatrixIO:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.eye(3))
        np.testing.assert_array_equal(read_matrix(path), np.eye(3))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = ginibre(rng, 4, 3) * 1e-7 + ginibre(rng, 4, 3) * 1e300 * 1e-280
        path = tmp_path / "m.json"
        write_matrix(path, M)
        np.testing.assert_array_equal(read_matrix(path), M)

    def test_known_real_matrix_with_zero_imaginary(self, tmp_path):
        doc = {"rows": 2, "cols": 2, "data": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        np.testing.assert_array_equal(read_matrix(path), np.array([[0.0, 1.0], [-1.0, -1.0]]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="data"):
            matrix_from_doc({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            matrix_from_doc({"rows": 0, "cols": 2, "data": []})
        with pytest.raises(ValueError, match="rows"):
            matrix_from_doc({"rows": "2", "cols": 2, "data": []})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            matrix_from_doc({"rows": 1, "cols": 1, "data": [[1e400, 0.0]]})

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError, match="entry 0"):
            matrix_from_doc({"rows": 1, "cols": 1, "data": [[1.0]]})

    def test_named_collection_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        mats = {"A": ginibre(rng, 2), "B": ginibre(rng, 3)}
        path = tmp_path / "pair.json"
        write_matrices(path, mats)
        back = read_matrices(path)
        assert set(back) == {"A", "B"}
        np.testing.assert_array_equal(back["A"], mats["A"])
        np.testing.assert_array_equal(back["B"], mats["B"])

    def test_doc_shape(self):
        doc = matrix_to_doc(np.array([[1.0 + 2.0j]]))
        assert doc == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}


@pytest.fixture()
def cube_root_file(tmp_path):
    path = tmp_path / "a.json"
    write_matrix(path, np.array([[0.0, 1.0], [-1.0, -1.0]]))
    return str(path)


@pytest.fixture()
def pair_file(tmp_path):
    A = np.array([[2.0, -3.0], [1.0, -2.0]])
    path = tmp_path / "pair.json"
    write_matrices(path, {"A": A, "B": A})
    return str(path)


class TestCli:
    def test_polar_outputs_parts(self, cube_root_file, capsys):
        assert main(["polar", cube_root_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        U = matrix_from_doc(doc["angular"])
        np.testing.assert_allclose(U, np.sqrt(5) / 5 * np.array([[-1, 2], [-2, -1]]), atol=1e-10)
        assert doc["rank"] == 2
        assert doc["reconstruction_residual"] <= 1e-12

    def test_aluthge_default(self, cube_root_file, capsys):
        assert main(["aluthge", cube_root_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == 2 and doc["cols"] == 2

    @pytest.mark.parametrize("flag,value", [("--s", "nan"), ("--t", "inf")])
    def test_aluthge_non_finite_exponent(self, cube_root_file, capsys, flag, value):
        assert main(["aluthge", cube_root_file, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: exponents s and t must be positive and finite" in captured.err

    def test_aluthge_iterate(self, cube_root_file, capsys):
        assert main(["aluthge", cube_root_file, "--iterate", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["norms"]) == 5
        assert doc["radius"] == pytest.approx(1.0)

    def test_commutant_and_fp(self, pair_file, capsys):
        assert main(["commutant", pair_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nullity"] == 2
        # the pair is the known FP failure, so fp-check signals with exit 1
        assert main(["fp-check", pair_file]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is False and doc["witness"] is not None

    def test_schatten(self, cube_root_file, capsys):
        assert main(["schatten", cube_root_file, "--p", "inf"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["norm"] == pytest.approx((np.sqrt(5) + 1) / 2)

    def test_inequality_thm42(self, tmp_path, capsys):
        write_matrices(
            tmp_path / "in.json",
            {"A": np.diag([4.0, 1.0]), "B": np.array([[1.0]]), "X": np.array([[1.0], [2.0]])},
        )
        assert main(["inequality", "thm42", str(tmp_path / "in.json"), "--p", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lhs"] == pytest.approx(3.0) and doc["rhs"] == pytest.approx(2.0)

    def test_inequality_moore_requires_delta(self, tmp_path, capsys):
        write_matrices(tmp_path / "in.json", {"A": np.eye(2), "X": np.eye(2)})
        assert main(["inequality", "moore", str(tmp_path / "in.json")]) == 2
        assert main(["inequality", "moore", str(tmp_path / "in.json"), "--delta", "0.5"]) == 0

    def test_nan_order_is_usage_error(self, cube_root_file, tmp_path, capsys):
        write_matrices(tmp_path / "ax.json", {"A": np.eye(2), "X": np.eye(2)})
        write_matrices(tmp_path / "abx.json", {"A": np.eye(2), "B": np.eye(2), "X": np.eye(2)})
        for argv in (
            ["schatten", cube_root_file, "--p", "nan"],
            ["inequality", "lemma41", str(tmp_path / "ax.json"), "--p", "nan"],
            ["inequality", "thm42", str(tmp_path / "abx.json"), "--p", "nan"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")

    def test_non_finite_delta_is_usage_error(self, tmp_path, capsys):
        write_matrices(tmp_path / "in.json", {"A": np.eye(2), "X": np.eye(2)})
        for delta in ("nan", "inf"):
            assert main(["inequality", "moore", str(tmp_path / "in.json"), "--delta", delta]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("p", ["2", "inf"])
    def test_non_finite_result_is_usage_error(self, tmp_path, capsys, p):
        # Finite entries whose singular values overflow: the norm comes out
        # Infinity for every p, which JSON cannot carry.
        path = tmp_path / "big.json"
        write_matrix(path, np.full((2, 2), 1e308))
        out = tmp_path / "out.json"
        assert main(["schatten", str(path), "--p", p]) == 2
        assert main(["schatten", str(path), "--p", p, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
        assert not out.exists()

    def test_suite_pass_and_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["suite", "prop29", "--trials", "5", "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["cases_run"] == 5 and doc["cases_passed"] == 5
        assert doc["failures"] == []

    def test_suite_generation_failure_is_usage_error(self, capsys):
        # At zero residual tolerance no generated pair passes its FP check.
        assert main(["suite", "lemma21", "--trials", "1", "--tol", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert any(line.startswith("error: ") for line in captured.err.splitlines())

    def test_suite_unknown_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "nope"])
        assert exc.value.code == 2

    def test_suite_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["suite", "block_identity", "--trials", "8", "--seed", "9", "--out", str(out1)])
        main(["suite", "block_identity", "--trials", "8", "--seed", "9", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_input_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2, "cols": 2, "data": []}')
        assert main(["polar", str(bad)]) == 2
        assert "data" in capsys.readouterr().err

    def test_env_tolerance_override(self, pair_file, monkeypatch, capsys):
        monkeypatch.setenv("ALUTHGE_TOL", "not-a-number")
        assert main(["fp-check", pair_file]) == 2
        monkeypatch.setenv("ALUTHGE_TOL", "1e-6")
        assert main(["fp-check", pair_file]) == 1  # verdict unchanged, parse succeeds

    def test_tol_flag_flips_marginal_verdict(self, pair_file, capsys):
        # a huge residual tolerance accepts the adjoint defect of the
        # known counterexample, turning the failing verdict into a pass
        assert main(["fp-check", pair_file, "--tol", "0.9"]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
        assert main(["suite", "example_fp_fail", "--trials", "1", "--tol", "0.9"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["cases_passed"] == 0 and len(doc["failures"]) == 1

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix_to_doc(np.eye(2)))))
        assert main(["schatten", "-", "--p", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["norm"] == pytest.approx(2.0)
