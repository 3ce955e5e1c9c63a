"""Mutation runner: every rule in the table below must be load-bearing.

Each mutant names a file under ``src/``, a snippet that occurs in it exactly
once, the snippet's replacement, and the pytest node ids that must each fail
once the replacement is made. For every mutant the runner copies ``src/`` to a
temporary directory, applies the one replacement there and runs the named
tests against the copy; the working tree is never edited. The named tests
first run against an unmutated copy and must pass there.

Run from anywhere, with numpy, scipy and pytest installed:

    python tools/mutants.py

The exit status is 1 when a snippet does not occur exactly once, when a named
test fails on the unmutated copy, or when a mutant survives: some named test
passes on it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    killers: list[str]


GROUPS = "tests/test_commutant.py::TestEigenvectorGroups::"
ROUTES = "tests/test_commutant.py::TestCommutantRoutes::"
RECORD = "tests/test_commutant.py::TestSolveRecord::"
FULL = "tests/test_commutant.py::TestFullBlocks::"
ZTRSEN = (
    "            Ts, Qs, _, _, s, _, _ = ztrsen("
    'select.astype(np.int32), T, Q, job="E", lwork=max(1, 2 * m * (len(T) - m)))\n'
)

MUTANTS = [
    Mutant(
        "owner-by-index",
        "src/aluthge/commutant.py",
        "owner = np.abs(np.diag(T)[:, None] - w[None, :]).argmin(axis=1)",
        "owner = np.arange(len(T))",
        [GROUPS + "test_schur_entries_are_matched_by_value"],
    ),
    Mutant(
        # ztrsen runs on an empty selection too, and the s of 1 it returns keeps an empty group.
        "no-empty-selection-guard",
        "src/aluthge/commutant.py",
        "        if m:\n" + ZTRSEN + "        if m and s >= s_min:",
        "        if True:\n" + ZTRSEN + "        if s >= s_min:",
        [GROUPS + "test_an_eigenvalue_that_owns_no_entry_merges"],
    ),
    Mutant(
        "merge-partners",
        "src/aluthge/commutant.py",
        "others = pending + [group[0] for group in groups]",
        "others = pending or [group[0] for group in groups]",
        [GROUPS + "test_a_failed_group_merges_with_a_nearby_group_read_from_v"],
    ),
    Mutant(
        "no-independence-test",
        "src/aluthge/commutant.py",
        "                ok &= diagonal.min(axis=1) >= s_min * diagonal.max(axis=1)\n",
        "",
        [ROUTES + f"test_jordan_blocks[{a}]" for a in (2, 3, 4, 5)]
        + [ROUTES + f"test_large_jordan_blocks[{a}]" for a in (8, 12, 16)]
        + [ROUTES + "test_groups_carry_their_centre_and_radius"],
    ),
    Mutant(
        "no-s-test",
        "src/aluthge/commutant.py",
        "ok = square - m + 1 <= s_min**-2",
        "ok = np.ones(len(square), dtype=bool)",
        [ROUTES + f"test_large_jordan_blocks[{a}]" for a in (8, 12, 16, 24)]
        + [GROUPS + "test_the_condition_threshold_from_both_sides[0.95]"],
    ),
    Mutant(
        # A rebinding of numpy.linalg made after import, as the benchmark tracer's, would miss every call.
        "entry-bound-at-import",
        "src/aluthge/linalg.py",
        "    def entry(a, *args, **kwargs):\n"
        "        _CALLS.get().append((kind, a))\n"
        "        return getattr(import_module(scipy_module) if scipy_module else np.linalg, kind)(a, *args, **kwargs)\n",
        "    routine = None if scipy_module else getattr(np.linalg, kind)\n\n"
        "    def entry(a, *args, **kwargs):\n"
        "        _CALLS.get().append((kind, a))\n"
        "        return (routine or getattr(import_module(scipy_module), kind))(a, *args, **kwargs)\n",
        ["tests/test_linalg.py::test_an_entry_looks_its_routine_up_when_called"],
    ),
    Mutant(
        "counting-keeps-the-inner-list",
        "src/aluthge/linalg.py",
        "        _CALLS.reset(token)",
        "        pass",
        ["tests/test_linalg.py::test_counting_records_only_inside_its_block"],
    ),
    Mutant(
        "adjoint-without-conj",
        "src/aluthge/linalg.py",
        "return as_matrix(M).conj().T",
        "return as_matrix(M).T",
        ["tests/test_linalg.py::TestAdjoint::test_scalar_conjugation"],
    ),
    Mutant(
        "inclusion-boundary",
        "src/aluthge/commutant.py",
        "holds = bool(worst <= threshold)",
        "holds = bool(worst < threshold)",
        [
            "tests/test_commutant.py::TestFpProperty::test_normal_pairs_hold",
            "tests/test_commutant.py::TestComInclusion::test_jordan_block_strictness",
        ],
    ),
    Mutant(
        "thm42-constant",
        "src/aluthge/schatten.py",
        "rhs = 2.0 * a * schatten_norm(",
        "rhs = 3.0 * a * schatten_norm(",
        [
            "tests/test_schatten.py::TestAluthgeCommutatorBound::test_hand_computed_instance",
            "tests/test_schatten.py::TestAluthgeIntertwinerBound::test_hand_computed_rectangular",
        ],
    ),
    Mutant(
        "max-depth",
        "src/aluthge/matrixio.py",
        "_MAX_DEPTH = 4",
        "_MAX_DEPTH = 5",
        ["tests/test_cli_contract.py::test_deep_document_is_refused_by_its_depth[polar-open-plain]"],
    ),
    Mutant(
        "argparse-exit-code",
        "src/aluthge/cli.py",
        "        return exc.code\n",
        "        return 1\n",
        ["tests/test_io_cli.py::TestCli::test_suite_unknown_id"],
    ),
    Mutant(
        "inclusion-any",
        "src/aluthge/suites.py",
        "return CheckReport(all(r.holds for r in reps)",
        "return CheckReport(any(r.holds for r in reps)",
        ["tests/test_suites.py::test_a_case_with_one_failed_inclusion_fails"],
    ),
    Mutant(
        "invertible-bar",
        "src/aluthge/generate.py",
        "f.s[-1] > 1e-6 * f.s[0]",
        "f.s[-1] > 0.0",
        ["tests/test_generate.py::test_invertibility_asks_for_a_bounded_condition_number"],
    ),
    Mutant(
        "polar-rank-boundary",
        "src/aluthge/polar.py",
        "    rank = int(np.count_nonzero(s > rank_cut(s, tol.rank_rel)))",
        "    rank = int(np.count_nonzero(s >= rank_cut(s, tol.rank_rel)))",
        ["tests/test_polar.py::TestPolarFactors::test_invertibility_guard[1-zero]"],
    ),
    Mutant(
        "unknown-name",
        "src/aluthge/__init__.py",
        '    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")',
        "    return None",
        ["tests/test_imports.py::test_unknown_name_is_an_attribute_error"],
    ),
    # The Tolerances defaults, each moved both ways.
    Mutant(
        "rank-rel-default-raised",
        "src/aluthge/linalg.py",
        "    rank_rel: float = 1e-10",
        "    rank_rel: float = 1e-4",
        [
            "tests/test_oracles.py::test_commutant_nullity_is_exact",
            "tests/test_commutant.py::TestBlockNullVectors::test_cut_is_taken_per_block",
            "tests/test_polar.py::TestPolarFactors::test_factors_are_cut_again_at_another_rank_rel",
        ],
    ),
    Mutant(
        "rank-rel-default-lowered",
        "src/aluthge/linalg.py",
        "    rank_rel: float = 1e-10",
        "    rank_rel: float = 1e-14",
        [
            "tests/test_commutant.py::TestBlockNullVectors::test_bound_above_the_block_norm_raises_the_cut",
            FULL + "test_involution_transform_takes_no_block_svd[64]",
        ],
    ),
    Mutant(
        "residual-rel-default-raised",
        "src/aluthge/linalg.py",
        "    residual_rel: float = 1e-8",
        "    residual_rel: float = 1e-4",
        [
            "tests/test_commutant.py::TestFactoredElements::test_perturbed_element_is_caught_by_both_checks",
            "tests/test_io_cli.py::TestCli::test_fp_check_reports_its_threshold",
            "tests/test_oracles.py::TestWhereTheStatementsStop::test_involutions_need_the_hypotheses",
        ],
    ),
    Mutant(
        "residual-rel-default-lowered",
        "src/aluthge/linalg.py",
        "    residual_rel: float = 1e-8",
        "    residual_rel: float = 1e-12",
        [
            ROUTES + "test_near_coincident_eigenvalues",
            "tests/test_io_cli.py::TestCli::test_fp_check_reports_its_threshold",
        ],
    ),
    Mutant(
        # Only a new interpreter sees this: the test process has bound every name already.
        "package-keeps-the-submodule",
        "src/aluthge/__init__.py",
        "        if isinstance(value, ModuleType) and _ORIGIN.get(name) == name:",
        "        if False:",
        ["tests/test_io_cli.py::test_import_loads_no_submodule"],
    ),
    # The solve record: each fact a test reads from it in place of a patched private name.
    Mutant(
        "kronecker-labelled-groups",
        "src/aluthge/commutant.py",
        'Solve("kronecker", (), (block,), False)',
        'Solve("groups", (), (block,), False)',
        [ROUTES + "test_route_dispatch_at_the_crossover", RECORD + "test_a_narrow_gap_where_the_nullity_is_off"],
    ),
    Mutant(
        "groups-labelled-kronecker",
        "src/aluthge/commutant.py",
        'solve = Solve("groups", sides, record,',
        'solve = Solve("kronecker", sides, record,',
        [ROUTES + "test_route_dispatch_at_the_crossover", FULL + "test_nullity_matches_the_oracle_without_a_block_svd"],
    ),
    Mutant(
        "gap-over-the-largest-value",
        "src/aluthge/commutant.py",
        "gap = (float(above) / cut, float(below) / cut)",
        "gap = (float(above) / s[0], float(below) / s[0])",
        [
            RECORD + "test_a_narrow_gap_where_the_nullity_is_off",
            RECORD + "test_benchmark_pairs_have_wide_gaps",
            "tests/test_commutant.py::TestBlockNullVectors::test_cut_follows_a_block_norm_above_the_bound",
        ],
    ),
    Mutant(
        # The flag also decides the QR, so the basis stays as oblique factors.
        "qr-flag-false",
        "src/aluthge/commutant.py",
        "record, bool(_cross_gram_bound(lifts) > nullity * np.finfo(float).eps))",
        "record, False)",
        [ROUTES + "test_non_orthogonal_lifts_take_the_qr"],
    ),
    Mutant(
        "full-block-recorded-as-solved",
        "src/aluthge/commutant.py",
        "BlockSolve((int(i), int(j)), ma[i] * mb[j], Z is None,",
        "BlockSolve((int(i), int(j)), ma[i] * mb[j], False,",
        [
            FULL + "test_nullity_matches_the_oracle_without_a_block_svd",
            FULL + "test_involution_transform_takes_no_block_svd[24]",
            ROUTES + "test_mixed_block_shapes_solve_one_block_at_a_time",
        ],
    ),
]

_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)")


def outcomes(src: Path, node_ids: list[str]) -> dict[str, str]:
    """Run the node ids with ``src`` as the package source; each id's outcome, or 'MISSING' when it did not run."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}
    command = [sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no", "-p", "no:cacheprovider"]
    # The ini option puts src/ first on the import path; point it at the copy instead.
    command += ["-o", f"pythonpath={src}", *node_ids]
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    found = {}
    for line in result.stdout.splitlines():
        match = _OUTCOME.match(line)
        if match:
            found[match.group(2)] = match.group(1)
    return {node: found.get(node, "MISSING") for node in node_ids}


def copy_source(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run(mutants: list[Mutant]) -> list[str]:
    """Check every mutant; the list of problems found, empty when all are killed."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = copy_source(Path(tmp) / "clean")
        for node, outcome in outcomes(clean, sorted({n for m in mutants for n in m.killers})).items():
            if outcome != "PASSED":
                problems.append(f"unmutated: {node} {outcome}")
        for index, mutant in enumerate(mutants):
            src = copy_source(Path(tmp) / str(index))
            target = src / Path(mutant.path).relative_to("src")
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.snippet) != 1:
                problems.append(f"{mutant.name}: snippet occurs {text.count(mutant.snippet)} times in {mutant.path}")
                continue
            target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            survivors = [node for node, outcome in outcomes(src, mutant.killers).items() if outcome != "FAILED"]
            status = "survived " + ", ".join(survivors) if survivors else "killed"
            print(f"{mutant.name}: {status}", flush=True)
            problems += [f"{mutant.name}: {node} did not fail" for node in survivors]
    return problems


def main() -> int:
    problems = run(MUTANTS)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
