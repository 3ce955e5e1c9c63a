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
ZTRSEN = (
    "            Ts, Qs, _, _, s, _, _ = ztrsen("
    'select.astype(np.int32), T, Q, job="E", lwork=max(1, 2 * m * (n - m)))\n'
)

MUTANTS = [
    Mutant(
        "owner-by-index",
        "src/aluthge/commutant.py",
        "owner = np.abs(np.diag(T)[:, None] - w[None, :]).argmin(axis=1)",
        "owner = np.arange(n)",
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
