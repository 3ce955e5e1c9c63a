"""Tests for matrix document round-trips and the command-line interface."""

import io
import json
import os
import subprocess
import sys
import textwrap
from math import inf, nan
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from aluthge.cli import main
from aluthge.commutant import commutant_basis
from aluthge.generate import ginibre, normal_pair
from aluthge.matrixio import (
    dumps_document,
    matrix_from_doc,
    matrix_to_doc,
    read_matrices,
    read_matrix,
    write_matrices,
    write_matrix,
)
from aluthge.polar import aluthge_iterate
from aluthge.suites import SUITE_IDS, CaseFailure, SuiteReport


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

    @pytest.mark.parametrize(
        "entry, message",
        [
            ((1.0, 2.0), "entry 2 must be a"),
            ([1.0, 2.0, 3.0], "entry 2 must be a"),
            ([True, 0.0], "entry 2 must be a"),
            ([0.0, "1"], "entry 2 must be a"),
            ([None, 0.0], "entry 2 must be a"),
            ([0.0, float("nan")], "entry 2 must be finite"),
            ([float("-inf"), 0.0], "entry 2 must be finite"),
            ([0.0, -(10**400)], "entry 2 must be finite"),
        ],
    )
    def test_first_faulty_entry_named(self, entry, message):
        data = [[1.0, 0.0], [2, -3], entry, [float("nan"), 0.0], [False, 0.0]]
        with pytest.raises(ValueError, match=message):
            matrix_from_doc({"rows": 1, "cols": 5, "data": data})

    def test_non_finite_entry_before_huge_integer_named(self):
        with pytest.raises(ValueError, match="entry 0 must be finite"):
            matrix_from_doc({"rows": 2, "cols": 1, "data": [[float("nan"), 0.0], [10**400, 0.0]]})

    def test_faulty_entry_at_end_of_long_list_named(self):
        data = [[1.0, -2]] * 9999 + [[1.0, "0"]]
        with pytest.raises(ValueError, match="entry 9999 must be a"):
            matrix_from_doc({"rows": 100, "cols": 100, "data": data})

    def test_numpy_float_entries_accepted(self):
        data = [[np.float64(1.5), np.float64(-2.0)], [3, np.float64(0.25)]]
        M = matrix_from_doc({"rows": 1, "cols": 2, "data": data})
        np.testing.assert_array_equal(M, [[1.5 - 2.0j, 3.0 + 0.25j]])

    def test_named_collection_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        mats = {"A": ginibre(rng, 2), "B": ginibre(rng, 3)}
        path = tmp_path / "pair.json"
        write_matrices(path, mats)
        back = read_matrices(path)
        assert set(back) == {"A", "B"}
        np.testing.assert_array_equal(back["A"], mats["A"])
        np.testing.assert_array_equal(back["B"], mats["B"])

    def test_caller_streams_stay_open(self):
        stream = io.StringIO()
        write_matrix(stream, np.eye(2))
        write_matrices(stream, {"A": np.eye(1)})
        assert not stream.closed
        single, named = (io.StringIO(line) for line in stream.getvalue().splitlines())
        np.testing.assert_array_equal(read_matrix(single), np.eye(2))
        assert set(read_matrices(named)) == {"A"}
        assert not single.closed and not named.closed

    @pytest.mark.parametrize(
        "read, text, depth",
        [
            (read_matrix, "[" * 5, 5),
            (read_matrix, '{"rows": 1, "cols": 1, "data": [[[[0.0]], 0.0]]}', 5),
            (read_matrices, '{"A": {"rows": 1, "cols": 1, "data": [[[0.0], 0.0]]}}', 5),
            (read_matrices, "[" * 200000 + "]" * 200000, 200000),
        ],
    )
    def test_nesting_beyond_a_document_refused_before_parsing(self, read, text, depth):
        message = f"^JSON nested {depth} deep; a matrix document nests at most 4 deep$"
        with pytest.raises(ValueError, match=message):
            read(io.StringIO(text))

    def test_brackets_and_quotes_within_strings_do_not_nest(self):
        # Names holding brackets, escaped quotes and backslashes, in a document 4 deep.
        names = ['[[[[{{{{', '"[[[[[', '\\"[[[[[', '\\\\', 'ü[[[[[\\']
        text = json.dumps({name: matrix_to_doc(np.eye(2)) for name in names})
        assert list(read_matrices(io.StringIO(text))) == names
        text = json.dumps({name: matrix_to_doc(np.eye(2)) for name in names}, ensure_ascii=False)
        assert list(read_matrices(io.StringIO(text))) == names

    def test_data_must_be_a_list(self):
        with pytest.raises(ValueError, match=r"^field 'data' must be a list of \[re, im\] pairs$"):
            matrix_from_doc({"rows": 1, "cols": 1, "data": {"0": [1.0, 0.0]}})

    def test_named_collection_must_be_an_object(self):
        with pytest.raises(ValueError, match="^expected a JSON object of named matrix documents$"):
            read_matrices(io.StringIO(json.dumps([matrix_to_doc(np.eye(2))])))

    def test_doc_shape(self):
        doc = matrix_to_doc(np.array([[1.0 + 2.0j]]))
        assert doc == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}


def stdlib_text(doc) -> str:
    """The writer's oracle: the stdlib indent encoder, with every ndarray as its matrix document."""

    def as_lists(value):
        if isinstance(value, np.ndarray):
            return matrix_to_doc(value)
        if isinstance(value, dict):
            return {key: as_lists(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [as_lists(item) for item in value]
        return value

    return json.dumps(as_lists(doc), indent=2, sort_keys=True, allow_nan=False)


EXTREMES = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 1.7976931348623157e308, -1.7976931348623157e308]


def writer_matrices() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(12)
    wide = ginibre(rng, 3, 5)
    extremes = np.array(EXTREMES) + 1j * np.array(EXTREMES[::-1])
    return {
        "1x1": np.array([[3.0 - 4.0j]]),
        "square": ginibre(rng, 6),
        "commutant_element": commutant_basis(np.diag([1.0, 2.0, 2.0]), np.diag([2.0, 1.0])).basis[0],
        "transposed": wide.T,
        "strided_column": wide[::2, :1],
        "real": np.array([[1.0, -2.5], [0.0, 3.0]]),
        "extremes_row": extremes[None, :],
        "extremes_column": extremes[:, None].real,
    }


class TestDumpsDocument:
    @pytest.mark.parametrize("name", list(writer_matrices()))
    def test_matrix_matches_stdlib(self, name):
        M = writer_matrices()[name]
        assert dumps_document(M) == stdlib_text(M)
        doc = {"outer": {"m": M, "ms": [M, M]}, "m": M}
        assert dumps_document(doc) == stdlib_text(doc)

    def test_result_documents_match_stdlib(self):
        mats = writer_matrices()
        report = SuiteReport(
            "\u00e9preuve \u2016A\u2016 \"q\"\n",
            1,
            3,
            1,
            [
                CaseFailure(k, {"A": matrix_to_doc(mats["square"]), "B": matrix_to_doc(mats["1x1"])}, 0.5 + k, 1e-8)
                for k in range(2)
            ],
        )
        docs = [
            {"dim_domain": [3, 2], "nullity": 0, "residuals": [], "basis": []},
            {"holds": True, "com_dim": 2, "max_residual": 0.0, "threshold": 1e-8, "witness": None},
            {"norms": [2.0, 1.5, 1.25], "radius": 1.0, "final": mats["square"], "iterates": list(mats.values())},
            {"p": "inf", "norm": 1e22, "details": {}, "flags": (True, False, None, -0.0, 10**20)},
            report.to_doc(),
            mats["extremes_row"],
            [],
            {},
        ]
        for doc in docs:
            assert dumps_document(doc) == stdlib_text(doc)

    @pytest.mark.parametrize("doc", [{"norm": nan}, {"a": [1.0, -inf]}, {"m": np.array([[1.0, nan]])}])
    def test_non_finite_refused_like_stdlib(self, doc):
        with pytest.raises(ValueError) as expected:
            stdlib_text(doc)
        with pytest.raises(ValueError) as raised:
            dumps_document(doc)
        assert str(raised.value) == str(expected.value)


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

    def test_oversized_trajectory_is_usage_error(self, cube_root_file, monkeypatch, capsys):
        monkeypatch.setattr("aluthge.polar._DENSE_MAX", 19)
        assert main(["aluthge", cube_root_file, "--iterate", "4", "--full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "5 iterates of size 2x2 (20 entries)" in captured.err

    def test_iterate_without_full_holds_one_iterate(self, cube_root_file, monkeypatch, capsys):
        # Without --full only the last iterate is printed, so only it is kept
        # and the trajectory cap does not apply.
        expected = run_cli(["aluthge", cube_root_file, "--iterate", "4"], capsys)
        monkeypatch.setattr("aluthge.polar._DENSE_MAX", 19)
        assert run_cli(["aluthge", cube_root_file, "--iterate", "4"], capsys) == expected
        assert expected[0] == 0 and len(json.loads(expected[1])["norms"]) == 5

    def test_iterate_zero_is_usage_error(self, cube_root_file, capsys):
        for flags in ([], ["--full"]):
            assert run_cli(["aluthge", cube_root_file, "--iterate", "0", *flags], capsys) == (
                2,
                "",
                "error: iteration count n must be at least 1\n",
            )

    def test_streamed_iterates_equal_the_trajectory(self, cube_root_file, capsys):
        code, out, err = run_cli(["aluthge", cube_root_file, "--iterate", "6"], capsys)
        streamed = json.loads(out)
        code_full, out_full, _ = run_cli(["aluthge", cube_root_file, "--iterate", "6", "--full"], capsys)
        full = json.loads(out_full)
        assert (code, code_full, err) == (0, 0, "")
        assert streamed == {key: full[key] for key in ("norms", "radius", "final")}
        trajectory = aluthge_iterate(read_matrix(cube_root_file), 6)
        assert streamed["norms"] == trajectory.norms
        np.testing.assert_array_equal(matrix_from_doc(streamed["final"]), trajectory.iterates[-1])

    def test_aluthge_full_needs_iterate(self, cube_root_file, capsys):
        # Without --iterate there are no iterates for --full to include.
        assert main(["aluthge", cube_root_file, "--full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --full applies only with --iterate")

    @pytest.mark.parametrize("flags", [["--s", "0.2"], ["--t", "0.7"], ["--s", "1", "--t", "1"]])
    def test_aluthge_iterate_rejects_exponents(self, cube_root_file, capsys, flags):
        # The iterates are (0.5, 0.5) transforms; other exponents would be ignored.
        assert main(["aluthge", cube_root_file, "--iterate", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --iterate takes (0.5, 0.5) Aluthge iterates")
        assert main(["aluthge", cube_root_file, "--iterate", "1", "--s", "0.5", "--t", "0.5"]) == 0

    def test_commutant_and_fp(self, pair_file, capsys):
        assert main(["commutant", pair_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nullity"] == 2
        # the pair is the known FP failure, so fp-check signals with exit 1
        assert main(["fp-check", pair_file]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is False and doc["witness"] is not None

    def test_fp_check_reports_its_threshold(self, pair_file, tmp_path, capsys):
        # The verdict is max_residual <= threshold, and the document shows both.
        assert main(["fp-check", pair_file]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_residual"] > doc["threshold"] > 0.0
        path = tmp_path / "holding.json"
        write_matrices(path, {"A": np.diag([1.0, 2.0]), "B": np.diag([2.0, 3.0])})
        assert main(["fp-check", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is True and doc["com_dim"] == 1
        assert doc["max_residual"] <= doc["threshold"] == pytest.approx(1e-8 * (2.0 + 3.0))

    def test_exactly_defective_pairs_on_the_group_route(self, tmp_path, capsys):
        # J_13(0.5) has one eigenvector, so V^-1 overflows while its groups
        # are tested; the CLI's overflow check must not see that, and the
        # Schur builder answers.
        J = 0.5 * np.eye(13) + np.eye(13, k=1)
        E = 2.0 * np.eye(13)
        E[0, 12] = 1.0
        write_matrices(tmp_path / "jordan.json", {"A": J, "B": J})
        write_matrices(tmp_path / "corner.json", {"A": E, "B": 2.0 * np.eye(13)})
        for argv, expected, field, value in (
            (["commutant", "jordan.json"], 0, "nullity", 13),
            (["fp-check", "jordan.json"], 1, "com_dim", 13),
            (["commutant", "corner.json"], 0, "nullity", 156),
        ):
            code, out, err = run_cli([argv[0], str(tmp_path / argv[1])], capsys)
            assert (code, err) == (expected, "")
            assert json.loads(out)[field] == value

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

    def test_inequality_failed_hypothesis_exits_one(self, tmp_path, capsys):
        # X = diag(1, 0) does not commute with the rotation that is A's angular part.
        c, s = np.cos(0.3), np.sin(0.3)
        A = np.array([[c, -s], [s, c]]) @ np.diag([2.0, 1.0])
        write_matrices(tmp_path / "in.json", {"A": A, "X": np.diag([1.0, 0.0])})
        assert main(["inequality", "lemma41", str(tmp_path / "in.json")]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"which", "lhs", "rhs", "slack", "hypotheses_ok", "a_value", "p", "details"}
        assert doc["which"] == "lemma41" and doc["p"] == 2.0
        assert doc["hypotheses_ok"] is False and doc["a_value"] > 0.0
        assert doc["details"] == {"self_adjoint": True, "angular_commutes": False}
        assert doc["slack"] == doc["lhs"] - doc["rhs"] and doc["slack"] > 0.0

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

    def test_integer_beyond_double_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}')
        assert main(["schatten", str(path), "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_out_of_memory_is_usage_error(self, pair_file, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("aluthge.commutant.fp_property", exhausted)
        assert main(["fp-check", pair_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_oversized_commutant_is_usage_error(self, tmp_path, capsys):
        # A = 2I + E_{1,65} and B = 2I at n = 65 put all 65 * 65 unknowns in
        # one group block, and A's group is not scalar, so it takes an SVD.
        A = 2.0 * np.eye(65)
        A[0, 64] = 1.0
        write_matrices(tmp_path / "pair.json", {"A": A, "B": 2.0 * np.eye(65)})
        assert main(["commutant", str(tmp_path / "pair.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "4225 rows" in captured.err

    def test_scalar_pair_above_the_block_cap_is_answered(self, tmp_path, capsys):
        # A = B = 2I at n = 65: the same 4225 unknowns, in a full block that takes no SVD.
        write_matrices(tmp_path / "pair.json", {"A": 2.0 * np.eye(65), "B": 2.0 * np.eye(65)})
        assert main(["fp-check", str(tmp_path / "pair.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is True and doc["com_dim"] == 4225

    def test_oversized_commutant_basis_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # Six eigenvalues of multiplicity 4 at n = 24: 96 elements of 24 x 24.
        Q = np.linalg.qr(ginibre(np.random.default_rng(0), 24))[0]
        A = Q @ (np.repeat(np.arange(1.0, 7.0), 4)[:, None] * Q.conj().T)
        write_matrices(tmp_path / "pair.json", {"A": A, "B": A})
        monkeypatch.setattr("aluthge.commutant._DENSE_MAX", 55295)
        assert main(["commutant", str(tmp_path / "pair.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "96 elements of size 24x24 (55296 entries)" in captured.err

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
        assert main(["suite", "nope"]) == 2

    def test_suite_ids_are_listed(self, capsys):
        # The parser reads the ids from the suites only when it checks or prints them.
        assert main(["suite", "nope"]) == 2
        assert "invalid choice: 'nope' (choose from " + ", ".join(map(repr, SUITE_IDS)) in capsys.readouterr().err
        assert main(["suite", "--help"]) == 0
        listed = " ".join(capsys.readouterr().out.split())
        assert ", ".join(SUITE_IDS) in listed

    @pytest.mark.parametrize(
        "which, options", [("lemma41", ["--p", "3"]), ("thm42", ["--p", "3"]), ("moore", ["--delta", "5"])]
    )
    def test_inequality_input_before_or_after_options(self, tmp_path, capsys, which, options):
        path = str(tmp_path / "abx.json")
        X = np.array([[1.0, 0.5], [2.0, 0.0]])
        write_matrices(path, {"A": np.diag([4.0, 1.0]), "B": np.diag([1.0, 2.0]), "X": X})
        expected = run_cli(["inequality", which, path, *options], capsys)
        assert expected[0] in (0, 1) and expected[2] == ""
        assert run_cli(["inequality", which, path], capsys) != expected, "the options take effect"
        for argv in (
            ["inequality", which, *options, path],
            ["inequality", *options, which, path],
        ):
            assert run_cli(argv, capsys) == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["schatten", "one.json", "--p", "2", "--tol", "5"], "unrecognized arguments: --tol 5"),
            (["schatten", "one.json", "--p", "2", "--tol", "-1"], "unrecognized arguments: --tol -1"),
            (["schatten", "one.json", "--p", "2", "--tol", "nan"], "unrecognized arguments: --tol nan"),
            (["inequality", "lemma41", "abx.json", "--delta", "-5"], "--delta applies only to moore, not to lemma41"),
            (["inequality", "thm42", "abx.json", "--delta", "nan"], "--delta applies only to moore, not to thm42"),
            (["inequality", "--delta", "0.5", "thm42", "abx.json"], "--delta applies only to moore, not to thm42"),
            (
                ["inequality", "moore", "abx.json", "--delta", "0.5", "--p", "3"],
                "--p applies only to lemma41 and thm42; moore bounds the operator norm",
            ),
            (
                ["inequality", "--p", "3", "moore", "abx.json", "--delta", "0.5"],
                "--p applies only to lemma41 and thm42; moore bounds the operator norm",
            ),
            (["polar", "one.json", "--tol", "0.5"], "unrecognized arguments: --tol 0.5"),
            (["aluthge", "one.json", "--tol", "0.5"], "unrecognized arguments: --tol 0.5"),
            (["commutant", "abx.json", "--tol", "0.5"], "unrecognized arguments: --tol 0.5"),
        ],
    )
    def test_option_the_command_never_reads_is_refused(self, tmp_path, monkeypatch, capsys, argv, message):
        write_matrix(tmp_path / "one.json", np.eye(2))
        write_matrices(tmp_path / "abx.json", {"A": np.eye(2), "B": np.eye(2), "X": np.eye(2)})
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

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

    def test_deeply_nested_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        assert main(["polar", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert any(line.startswith("error: ") for line in captured.err.splitlines())

    def test_every_named_entry_is_validated(self, tmp_path, capsys):
        # Without the extra entry this pair passes with exit 0.
        doc = {"A": matrix_to_doc(np.eye(2)), "B": matrix_to_doc(np.eye(2)), "Z": 5}
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        assert main(["fp-check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("argv, missing", [(["fp-check"], "['B']"), (["inequality", "thm42"], "['B', 'X']")])
    def test_missing_matrix_is_usage_error(self, tmp_path, capsys, argv, missing):
        write_matrices(tmp_path / "a.json", {"A": np.eye(2)})
        expected = (2, "", f"error: missing matrices {missing} in input document\n")
        assert run_cli([*argv, str(tmp_path / "a.json")], capsys) == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fp-check", "--tol", "-1e+16"], "residual_rel must lie in [0, 1), got -1e+16"),
            (["aluthge", "--s", "-inf"], "exponents s and t must be positive and finite"),
            (["schatten", "--p", "-1.5E-07"], "p must be at least 1 (or inf)"),
            (["inequality", "moore", "--delta", "-nan"], "delta must be finite and nonnegative"),
        ],
    )
    def test_negative_number_words_are_option_values(self, tmp_path, capsys, argv, message):
        # argparse alone reads only -1 and -1.5 as numbers; these were "expected one argument".
        write_matrices(tmp_path / "named.json", {"A": np.eye(2), "B": np.eye(2), "X": np.eye(2)})
        write_matrix(tmp_path / "one.json", np.eye(2))
        path = tmp_path / ("one.json" if argv[0] in ("aluthge", "schatten") else "named.json")
        assert run_cli([*argv, str(path)], capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "prop29", "--trials", "nan"],
            ["suite", "nope"],
            ["aluthge", "-", "--s", "-1e5x"],
            ["polar", "--bogus"],
            [],
        ],
        ids=["bad-int", "unknown-suite", "not-a-number", "unknown-option", "empty"],
    )
    def test_argparse_errors_are_one_error_line(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_help_still_prints_usage(self, capsys):
        code = main(["--help"])
        captured = capsys.readouterr()
        assert code == 0 and captured.out.startswith("usage: aluthge") and captured.err == ""

    def test_valid_extra_entry_is_accepted(self, tmp_path, capsys):
        write_matrices(tmp_path / "extra.json", {"A": np.eye(2), "B": np.eye(2), "X": np.ones((3, 1))})
        assert main(["commutant", str(tmp_path / "extra.json")]) == 0
        assert json.loads(capsys.readouterr().out)["nullity"] == 4

    def test_tolerance_ignores_the_environment(self, pair_file, monkeypatch, capsys):
        # Only --tol sets the tolerance: a variable that would accept the
        # counterexample, or that is no number, leaves the run unchanged.
        monkeypatch.delenv("ALUTHGE_TOL", raising=False)
        assert main(["fp-check", pair_file]) == 1
        unset = capsys.readouterr().out
        for value in ("0.9", "not-a-number"):
            monkeypatch.setenv("ALUTHGE_TOL", value)
            assert main(["fp-check", pair_file]) == 1, value
            assert capsys.readouterr().out == unset, value

    def test_tol_flag_flips_marginal_verdict(self, pair_file, capsys):
        # a huge residual tolerance accepts the adjoint defect of the
        # known counterexample, turning the failing verdict into a pass
        assert main(["fp-check", pair_file, "--tol", "0.9"]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
        assert main(["suite", "example_fp_fail", "--trials", "1", "--tol", "0.9"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["cases_passed"] == 0 and len(doc["failures"]) == 1

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix_to_doc(np.eye(2)))))
        assert main(["schatten", "-", "--p", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["norm"] == pytest.approx(2.0)


@pytest.fixture()
def cli_inputs(tmp_path):
    mats = writer_matrices()
    finite = np.array([[-0.0, 5e-324, 1e-05], [1e16, 1e22, -2.5], [0.0, 1.0, -1e-300]])
    write_matrix(tmp_path / "one.json", mats["1x1"])
    write_matrix(tmp_path / "square.json", mats["square"])
    write_matrix(tmp_path / "extremes.json", finite + 0.5j * finite.T)
    write_matrices(tmp_path / "rect.json", {"A": np.diag([1.0, 2.0, 2.0]), "B": np.diag([2.0, 1.0])})
    write_matrices(tmp_path / "null.json", {"A": np.diag([1.0, 2.0]), "B": np.diag([3.0, 4.0, 5.0])})
    fp_failure = np.array([[2.0, -3.0], [1.0, -2.0]])
    write_matrices(tmp_path / "fail.json", {"A": fp_failure, "B": fp_failure})
    write_matrices(tmp_path / "ax.json", {"A": mats["square"], "X": np.eye(6)})
    return tmp_path


CLI_CALLS = [
    ["polar", "one.json"],
    ["polar", "square.json", "--mode", "partial"],
    ["polar", "extremes.json"],
    ["aluthge", "square.json", "--s", "0.25", "--t", "0.5"],
    ["aluthge", "extremes.json", "--iterate", "2", "--full"],
    ["aluthge", "one.json", "--iterate", "1"],
    ["commutant", "rect.json"],
    ["commutant", "null.json"],
    ["fp-check", "rect.json"],
    ["fp-check", "fail.json"],
    ["fp-check", "null.json"],
    ["schatten", "square.json", "--p", "inf"],
    ["inequality", "lemma41", "ax.json", "--p", "3"],
    ["suite", "example_fp_fail", "--trials", "4", "--seed", "2"],
]


def run_cli(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliWriter:
    """CLI output is the text the stdlib indent encoder gives for the same document."""

    @pytest.mark.parametrize("argv", CLI_CALLS, ids=lambda argv: "-".join(argv[:2]))
    def test_stdout_and_out_file_match_stdlib(self, cli_inputs, monkeypatch, capsys, argv):
        argv = [str(cli_inputs / arg) if arg.endswith(".json") else arg for arg in argv]
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 1) and out.endswith("}\n") and err == ""
        path = cli_inputs / "out.json"
        assert run_cli([*argv, "--out", str(path)], capsys) == (code, "", "")
        assert path.read_bytes() == out.encode("utf-8")
        monkeypatch.setattr("aluthge.cli.dumps_document", stdlib_text)
        assert run_cli(argv, capsys) == (code, out, "")

    @pytest.mark.parametrize(
        "argv, target, result",
        [
            (["schatten", "square.json", "--p", "2"], "schatten_norm", nan),
            (["aluthge", "square.json"], "aluthge_st", np.array([[1.0, nan]])),
            (
                ["fp-check", "fail.json"],
                "fp_property",
                SimpleNamespace(holds=False, com_dim=1, max_residual=inf, threshold=1.0, witness=np.array([[nan]])),
            ),
        ],
    )
    def test_non_finite_output_refused_like_stdlib(self, cli_inputs, monkeypatch, capsys, argv, target, result):
        argv = [str(cli_inputs / arg) if arg.endswith(".json") else arg for arg in argv]
        path = cli_inputs / "out.json"
        # The CLI binds polar's names at import and looks up the others as the command runs.
        owner = {"schatten_norm": "aluthge.schatten", "aluthge_st": "aluthge.cli", "fp_property": "aluthge.commutant"}
        monkeypatch.setattr(f"{owner[target]}.{target}", lambda *args, **kwargs: result)
        code, out, err = run_cli([*argv, "--out", str(path)], capsys)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()
        assert run_cli(argv, capsys) == (2, "", err)
        monkeypatch.setattr("aluthge.cli.dumps_document", stdlib_text)
        assert run_cli(argv, capsys) == (2, "", err)

    @pytest.mark.parametrize(
        "argv, matrices",
        [
            (["polar", "in.json"], {"": np.full((2, 2), 1e308)}),
            (["schatten", "in.json", "--p", "1"], {"": np.full((2, 2), 1e308)}),
            (["inequality", "thm42", "in.json", "--p", "3"], {"A": [[1e300]], "B": [[1e300]], "X": [[1e300]]}),
            (["inequality", "lemma41", "in.json"], {"A": [[1e300]], "B": [[1e300]], "X": [[1e300]]}),
            (["inequality", "thm42", "in.json"], {"A": [[1e300]], "B": [[1e300]], "X": [[1e300]]}),
        ],
        ids=["polar", "schatten", "thm42-p3", "lemma41", "thm42"],
    )
    def test_finite_input_whose_result_overflows(self, tmp_path, capsys, argv, matrices):
        # Every entry is finite; a product or norm of them leaves the double range.
        path = tmp_path / "in.json"
        if "" in matrices:
            write_matrix(path, matrices[""])
        else:
            write_matrices(path, {name: np.array(M) for name, M in matrices.items()})
        argv = [str(path) if arg == "in.json" else arg for arg in argv]
        assert run_cli(argv, capsys) == (2, "", "error: the computation overflowed the double range\n")

    def test_thm42_block_cross_check_of_a_finite_result_is_finite(self, tmp_path, capsys):
        # lhs = 1e300 and rhs = 2e150 are finite; the block route must not pass
        # through their cubes, which leave the double range.
        path = tmp_path / "in.json"
        write_matrices(path, {"A": np.array([[1e300]]), "B": np.array([[1.0]]), "X": np.array([[1.0]])})
        code, out, err = run_cli(["inequality", "thm42", str(path), "--p", "3"], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["lhs"] == pytest.approx(1e300, rel=1e-12) and doc["rhs"] == pytest.approx(2e150, rel=1e-12)
        assert doc["details"]["block_lhs"] == pytest.approx(doc["lhs"], rel=1e-12, abs=0.0)
        assert doc["details"]["block_rhs"] == pytest.approx(doc["rhs"], rel=1e-12, abs=0.0)

    def test_polar_of_entries_above_half_the_largest_double(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        write_matrix(path, np.diag([9e307, 1.0]))
        code, out, err = run_cli(["polar", str(path)], capsys)
        assert (code, err) == (0, "")
        positive = matrix_from_doc(json.loads(out)["positive"])
        np.testing.assert_array_equal(positive, np.diag([9e307, 1.0]))


def run_process(args: list[str]) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args`` that imports this checkout's aluthge."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def run_fresh(script: str) -> None:
    """Run a script in a new interpreter that imports this checkout's aluthge, and require exit 0."""
    proc = run_process(["-c", textwrap.dedent(script)])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["fp-check"], 1), (["suite", "nope"], 2)])
def test_module_process_exits_with_the_code_main_returns(pair_file, argv, code):
    # main returns argparse's codes too, and the module passes every code to sys.exit.
    args = [*argv, pair_file] if argv == ["fp-check"] else argv
    assert run_process(["-m", "aluthge.cli", *args]).returncode == code


def test_small_work_does_not_import_scipy(tmp_path):
    # Only the Schur commutant route (n1 * n2 > 144) imports scipy, so the
    # package import, a small suite, a small CLI call and a pair right at
    # the crossover never pay for it.
    path = tmp_path / "pair.json"
    A, B = normal_pair(np.random.default_rng(0), 12)
    write_matrices(path, {"A": A, "B": B})
    run_fresh(
        f"""
        import sys
        import aluthge
        assert "scipy" not in sys.modules, "import aluthge"
        aluthge.run_suite("thm33", 1, 3)
        assert "scipy" not in sys.modules, "run_suite"
        from aluthge.cli import main
        main(["fp-check", {str(path)!r}])
        assert "scipy" not in sys.modules, "fp-check"
        import numpy as np
        cb = aluthge.commutant_basis(np.diag(np.arange(12.0)), np.diag(np.arange(12.0)))
        assert cb.nullity == 12, cb.nullity
        assert "scipy" not in sys.modules, "commutant_basis at n1 * n2 = 144"
        """
    )


def test_schur_route_does_not_import_scipy_sparse():
    # The Schur route labels its eigenvalue clusters with numpy, so it
    # loads scipy.linalg and nothing of scipy.sparse.
    run_fresh(
        """
        import sys
        import numpy as np
        import aluthge
        # Nilpotent Jordan blocks J_13(0) and J_12(0): their eigenvectors are
        # all parallel, so the groups come from the Schur form.
        cb = aluthge.commutant_basis(np.eye(13, k=1), np.eye(12, k=1))
        assert cb.nullity == 12, cb.nullity
        assert "scipy.linalg" in sys.modules, "the Schur route ran"
        assert "scipy.sparse" not in sys.modules, "commutant_basis at n1 * n2 = 156"
        """
    )


def test_diagonalizable_pairs_above_the_crossover_do_not_import_scipy(tmp_path):
    # Pairs whose eigenvectors are well conditioned take their spectral
    # groups from numpy's eig; only a defective one reaches the Schur form.
    rng = np.random.default_rng(7)
    n = 16
    Q = [np.linalg.qr(ginibre(rng, n))[0] for _ in range(4)]
    ev = np.repeat(np.array([0.0, 1.0, 1.0j, 1.0 + 1.0j]), 4)
    normal = np.stack([U @ (ev[:, None] * U.conj().T) for U in Q[:2]])
    S = [U @ np.diag(rng.uniform(0.6, 1.6, n)) @ V for U, V in (Q[:2], Q[2:])]
    distinct = np.arange(n) + 0.5j * np.arange(n) ** 2
    similar = np.stack([T @ np.diag(d) @ np.linalg.inv(T) for T, d in zip(S, (distinct, distinct[::-1]))])
    np.save(tmp_path / "normal.npy", normal)
    np.save(tmp_path / "similar.npy", similar)
    write_matrices(tmp_path / "pair.json", {"A": normal[0], "B": normal[1]})
    run_fresh(
        f"""
        import sys
        import numpy as np
        import aluthge
        from aluthge.cli import main
        A, B = np.load({str(tmp_path / "normal.npy")!r})
        rep = aluthge.fp_property(A, B)
        assert rep.holds and rep.com_dim == 64, rep
        assert "scipy" not in sys.modules, "fp_property on a normal pair at n = 16"
        A, B = np.load({str(tmp_path / "similar.npy")!r})
        assert aluthge.commutant_basis(A, B).nullity == 16
        assert "scipy" not in sys.modules, "commutant_basis on a similarity pair at n = 16"
        for command in ("fp-check", "commutant"):
            assert main([command, {str(tmp_path / "pair.json")!r}, "--out", {str(tmp_path / "out.json")!r}]) == 0
            assert "scipy" not in sys.modules, command
        J = 0.5 * np.eye(16) + np.eye(16, k=1)
        assert aluthge.commutant_basis(J, J).nullity == 16
        assert "scipy.linalg" in sys.modules, "a Jordan block reaches the Schur form"
        """
    )


def test_import_loads_no_submodule():
    # A name or submodule of the package loads its module on first access.
    run_fresh(
        """
        import sys
        from types import ModuleType
        import aluthge
        assert [name for name in sys.modules if name.startswith("aluthge.")] == [], "import aluthge"
        assert aluthge.op_norm is sys.modules["aluthge.linalg"].op_norm
        assert aluthge.polar is sys.modules["aluthge.polar"]
        assert aluthge.schatten.schatten_norm is aluthge.schatten_norm
        import aluthge.suites  # loads aluthge.generate, whose function keeps the package name
        assert not isinstance(aluthge.generate, ModuleType)
        assert aluthge.generate is sys.modules["aluthge.generate"].generate
        """
    )


PARSE_AND_EMIT = {"aluthge", "aluthge.cli", "aluthge.linalg", "aluthge.matrixio", "aluthge.polar"}
EVERY_MODULE = PARSE_AND_EMIT | {"aluthge.commutant", "aluthge.generate", "aluthge.schatten", "aluthge.suites"}


COMMAND_MODULES = [
    (["polar", "one.json"], PARSE_AND_EMIT),
    (["aluthge", "one.json", "--iterate", "2"], PARSE_AND_EMIT),
    (["schatten", "one.json", "--p", "2"], PARSE_AND_EMIT | {"aluthge.schatten"}),
    (["inequality", "lemma41", "ax.json"], PARSE_AND_EMIT | {"aluthge.schatten"}),
    (["commutant", "rect.json"], PARSE_AND_EMIT | {"aluthge.commutant"}),
    (["fp-check", "rect.json"], PARSE_AND_EMIT | {"aluthge.commutant"}),
    (["suite", "thm33", "--trials", "1"], EVERY_MODULE),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_command_loads_only_its_modules(cli_inputs, argv, modules):
    argv = [str(cli_inputs / arg) if arg.endswith(".json") else arg for arg in argv]
    run_fresh(
        f"""
        import sys
        from aluthge.cli import main
        assert main({argv!r}) in (0, 1)
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "aluthge")
        assert loaded == {sorted(modules)!r}, loaded
        """
    )
