"""The four benchmark workloads: inputs, op rounds and reference checks.

A workload builds its inputs from the seed in ``setup`` and hands out
rounds of ops. Every round has the same mix of op kinds, so a run made
of whole rounds has a steady cost per op whatever the seed. Each op
carries a check that compares its output with a reference computed
from numpy alone (for ``cli_roundtrip``: with the same call made in
process). References are computed lazily, outside the op timers, and
cached per input.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import aluthge as al

# The library's documented default residual tolerance.
RESIDUAL_REL = 1e-8
# Two routes through double-precision SVDs agree to roundoff; this is far above it.
AGREE_REL = 1e-9

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


# Inputs are built here rather than with aluthge.generate, so that a change
# to the library cannot change the inputs it is measured on.
def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _separated_values(rng: np.random.Generator, count: int) -> np.ndarray:
    """Distinct complex values on a jittered grid, pairwise at least 0.3 apart."""
    side = int(np.ceil(np.sqrt(count)))
    cells = rng.permutation(side * side)[:count]
    jitter = rng.uniform(-0.1, 0.1, size=(count, 2))
    pts = (np.stack([cells % side, cells // side], axis=1) - (side - 1) / 2.0) * 0.5 + jitter
    # The half-cell offset keeps every value at least 0.2 away from zero.
    return (pts[:, 0] + 0.25) + 1j * (pts[:, 1] + 0.25)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _fro(M: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(M) ** 2)))


class Workload:
    name = ""
    # Rounds whose kernel counts and digest must repeat exactly for one seed.
    census_rounds = 1
    # Set once the spans are installed; CLI ops then start the traced wrapper.
    traced = False

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def ops_for_round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def census_digest(self) -> str | None:
        return None

    def headline(self, samples: dict[str, list[float]]) -> dict[str, dict]:
        """Workload-specific figures from the per-kind op times (seconds)."""
        return {}


# --------------------------------------------------------------------------- suite_sweep


class SuiteSweep(Workload):
    """Every registered suite, one seeded case per op, through ``run_suite``."""

    name = "suite_sweep"
    census_rounds = 10

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed_rng = np.random.default_rng([seed, 11])
        self.round_seeds: list[np.ndarray] = []
        self.census_docs: dict[tuple[int, int], str] = {}

    def _seeds(self, r: int) -> np.ndarray:
        while len(self.round_seeds) <= r:
            self.round_seeds.append(self.seed_rng.integers(0, 2**31, size=len(al.SUITE_IDS)))
        return self.round_seeds[r]

    def ops_for_round(self, r: int) -> list[Op]:
        seeds = self._seeds(r)
        in_census = r < self.census_rounds
        ops = []
        for i, (suite_id, case_seed) in enumerate(zip(al.SUITE_IDS, seeds)):
            def call(suite_id=suite_id, case_seed=int(case_seed)):
                return al.run_suite(suite_id, case_seed, 1)

            def check(report, suite_id=suite_id, case_seed=int(case_seed), key=(r, i)):
                doc = report.to_doc()
                if in_census:
                    self.census_docs[key] = json.dumps(doc, sort_keys=True)
                if doc["suite_id"] != suite_id or doc["seed"] != case_seed:
                    return "report names another suite or seed"
                if doc["cases_run"] != 1 or doc["cases_passed"] != 1 or doc["failures"]:
                    return f"case failed: {doc['failures'][:1]}"
                return None

            ops.append(Op(f"suite/{suite_id}", call, check))
        return ops

    def census_digest(self) -> str | None:
        """SHA-256 over the report documents of the census rounds, in op order."""
        digest = hashlib.sha256()
        for key in sorted(self.census_docs):
            digest.update(self.census_docs[key].encode())
        return digest.hexdigest()


# --------------------------------------------------------------------------- dense_spectral


class _DenseRef:
    """numpy-only reference quantities of one matrix."""

    def __init__(self, A: np.ndarray) -> None:
        W, s, Vh = np.linalg.svd(A)
        self.s = s
        self.norm = float(s[0])
        self.radius = float(np.abs(np.linalg.eigvals(A)).max())
        self._factors = (W, s, Vh)

    def transform(self, s_exp: float, t_exp: float) -> np.ndarray:
        """|A|^s U |A|^t = V S^s (V* W) S^t V* from A = W S V*."""
        W, s, Vh = self._factors
        return Vh.conj().T @ ((s**s_exp)[:, None] * (Vh @ W) * (s**t_exp)[None, :]) @ Vh

    def schatten(self, p: float) -> float:
        return self.norm if p == np.inf else float(np.sum(self.s**p) ** (1.0 / p))


class DenseSpectral(Workload):
    """Ginibre matrices at n in {64, 128, 256}: polar parts, transforms, iterates, norms."""

    name = "dense_spectral"
    SIZES = ((64, 3), (128, 2), (256, 1))  # (n, matrices per round)
    ITERATES = 20
    P_VALUES = (1.0, 3.0, np.inf)

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 12])
        self.mats = [(n, _ginibre(rng, n)) for n, count in self.SIZES for _ in range(count)]
        self.pair = (_ginibre(rng, 64), _ginibre(rng, 64), _ginibre(rng, 64))
        self.refs: dict[int, _DenseRef] = {}
        self.ops = self._build_ops()

    def _ref(self, i: int) -> _DenseRef:
        if i not in self.refs:
            self.refs[i] = _DenseRef(self.mats[i][1])
        return self.refs[i]

    def _build_ops(self) -> list[Op]:
        ops = []
        for i, (n, A) in enumerate(self.mats):
            for mode in (al.MODE_UNITARY, al.MODE_PARTIAL):
                ops.append(Op(f"polar_{mode}/n{n}", lambda A=A, mode=mode: al.polar_decompose(A, mode), self._check_polar(i)))
            ops.append(Op(f"aluthge/n{n}", lambda A=A: al.aluthge(A), self._check_transform(i, 0.5, 0.5)))
            ops.append(Op(f"aluthge_st/n{n}", lambda A=A: al.aluthge_st(A, 0.3, 0.7), self._check_transform(i, 0.3, 0.7)))
            ops.append(Op(f"aluthge_iterate/n{n}", lambda A=A: al.aluthge_iterate(A, self.ITERATES), self._check_iterate(i)))
            for p in self.P_VALUES:
                ops.append(Op(f"schatten_p{p:g}/n{n}", lambda A=A, p=p: al.schatten_norm(A, p), self._check_schatten(i, p)))
        A, B, X = self.pair
        ops.append(Op("intertwiner_bound/n64", lambda: al.aluthge_intertwiner_bound(A, B, X, 3.0), self._check_bound()))
        return ops

    def ops_for_round(self, r: int) -> list[Op]:
        return self.ops

    def _check_polar(self, i: int):
        def check(parts) -> str | None:
            A = self.mats[i][1]
            ref = self._ref(i)
            if _fro(parts.angular @ parts.positive - A) > RESIDUAL_REL * ref.norm:
                return "polar reconstruction residual above residual_rel * ||A||"
            if _fro(parts.positive - parts.positive.conj().T) > RESIDUAL_REL * ref.norm:
                return "positive part is not Hermitian"
            if parts.rank != A.shape[0]:
                return f"rank {parts.rank} for a full-rank Ginibre matrix"
            return None

        return check

    def _check_transform(self, i: int, s: float, t: float):
        def check(T) -> str | None:
            ref = self._ref(i)
            if _fro(T - ref.transform(s, t)) > AGREE_REL * ref.norm * np.sqrt(T.shape[0]):
                return f"({s}, {t}) transform differs from the numpy reference"
            return None

        return check

    def _check_iterate(self, i: int):
        def check(traj) -> str | None:
            ref = self._ref(i)
            norms = np.asarray(traj.norms)
            if len(traj.iterates) != self.ITERATES + 1 or len(norms) != self.ITERATES + 1:
                return "wrong number of iterates"
            if _rel(norms[0], ref.norm) > AGREE_REL or _rel(traj.radius, ref.radius) > 1e-8:
                return "first norm or spectral radius differs from numpy"
            if np.any(np.diff(norms) > RESIDUAL_REL * norms[0]):
                return "iterate norms increase"
            if np.any(norms < ref.radius * (1.0 - 1e-8)):
                return "an iterate norm falls below the spectral radius"
            if _rel(float(np.linalg.norm(traj.iterates[-1], 2)), norms[-1]) > AGREE_REL:
                return "last norm differs from numpy's norm of the last iterate"
            return None

        return check

    def _check_schatten(self, i: int, p: float):
        def check(value) -> str | None:
            if _rel(float(value), self._ref(i).schatten(p)) > AGREE_REL:
                return f"Schatten {p:g}-norm differs from numpy's singular values"
            return None

        return check

    def _check_bound(self):
        refs: dict[str, float] = {}

        def check(rep) -> str | None:
            if "lhs" not in refs:
                A, B, X = self.pair
                Ta, Tb = _DenseRef(A).transform(0.5, 0.5), _DenseRef(B).transform(0.5, 0.5)
                sv = np.linalg.svd(Ta.conj().T @ X - X @ Tb, compute_uv=False)
                refs["lhs"] = float(np.sum(sv**3) ** (1.0 / 3.0))
            if _rel(rep.lhs, refs["lhs"]) > 1e-8:
                return "bound lhs differs from the numpy reference"
            if _rel(rep.lhs, rep.details["block_lhs"]) > 1e-8 or _rel(rep.rhs, rep.details["block_rhs"]) > 1e-8:
                return "block-embedding route disagrees with the direct route"
            return None

        return check

    def headline(self, samples: dict[str, list[float]]) -> dict[str, dict]:
        polar = samples.get("polar_unitary_extension/n256", []) + samples.get("polar_partial_isometry/n256", [])
        out = {}
        if samples.get("aluthge_iterate/n256"):
            out["iterate_n256_s"] = {"value": float(np.median(samples["aluthge_iterate/n256"])), "unit": "s"}
        if polar:
            out["polar_n256_ms"] = {"value": float(np.median(polar)) * 1e3, "unit": "ms"}
        return out


# --------------------------------------------------------------------------- commutant_scaling


class CommutantScaling(Workload):
    """Pairs at n in {8, 16, 24, 32} with nullity known from construction.

    Normal pairs sharing a spectrum go through ``fp_property``: their
    nullity is sum over eigenvalues of m_A * m_B and Fuglede-Putnam
    makes the verdict hold. Similarity pairs with distinct eigenvalues
    go through ``commutant_basis``: their nullity is n.
    """

    name = "commutant_scaling"
    # (n, normal pairs, similarity pairs) per round. At n=32 fp_property runs
    # the same 1024x1024 Kronecker SVD that commutant_basis would.
    SIZES = ((8, 10, 10), (16, 4, 4), (24, 2, 2), (32, 1, 0))

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 13])
        self.ops = []
        for n, normal, similar in self.SIZES:
            self.ops += [self._normal_op(rng, n) for _ in range(normal)]
            self.ops += [self._similarity_op(rng, n) for _ in range(similar)]

    def ops_for_round(self, r: int) -> list[Op]:
        return self.ops

    def _normal_op(self, rng: np.random.Generator, n: int) -> Op:
        # Every eigenvalue has multiplicity 4 in both A and B, so the nullity
        # (and with it the cost of the verdict) is the same for every seed.
        pool = _separated_values(rng, n // 4)
        nullity = 4 * 4 * len(pool)
        ev = np.repeat(pool, 4)
        Qa, Qb = _haar_unitary(rng, n), _haar_unitary(rng, n)
        A = Qa @ (ev[:, None] * Qa.conj().T)
        B = Qb @ (ev[:, None] * Qb.conj().T)

        def check(rep) -> str | None:
            if rep.com_dim != nullity:
                return f"nullity {rep.com_dim}, expected {nullity} from the construction"
            if not rep.holds:
                return "FP verdict fails on a normal pair"
            return None

        return Op(f"fp_property/n{n}", lambda: al.fp_property(A, B), check)

    def _similarity_op(self, rng: np.random.Generator, n: int) -> Op:
        ev = _separated_values(rng, n)

        def conditioned() -> np.ndarray:
            return _haar_unitary(rng, n) @ np.diag(rng.uniform(0.6, 1.6, size=n)) @ _haar_unitary(rng, n)

        S1, S2 = conditioned(), conditioned()
        A = S1 @ (ev[:, None] * np.linalg.inv(S1))
        B = S2 @ (rng.permutation(ev)[:, None] * np.linalg.inv(S2))
        scale: list[float] = []

        def check(cb) -> str | None:
            if not scale:
                scale.append(float(np.linalg.norm(A, 2) + np.linalg.norm(B, 2)))
            if cb.nullity != n or len(cb.basis) != n:
                return f"nullity {cb.nullity}, expected {n} from the construction"
            limit = RESIDUAL_REL * scale[0]
            if max(cb.residuals) > limit:
                return "reported basis residual above tolerance"
            if max(_fro(A @ X - X @ B) for X in cb.basis) > limit:
                return "recomputed basis residual above tolerance"
            V = np.stack([X.reshape(-1) for X in cb.basis])
            if _fro(V.conj() @ V.T - np.eye(n)) > 1e-8:
                return "basis is not orthonormal"
            return None

        return Op(f"commutant_basis/n{n}", lambda: al.commutant_basis(A, B), check)

    def headline(self, samples: dict[str, list[float]]) -> dict[str, dict]:
        if samples.get("fp_property/n32"):
            return {"fp_n32_s": {"value": float(np.median(samples["fp_property/n32"])), "unit": "s"}}
        return {}


# --------------------------------------------------------------------------- cli_roundtrip


def _write_doc(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps(doc))


def _matrix_doc(M: np.ndarray) -> dict:
    flat = M.reshape(-1)
    return {"rows": M.shape[0], "cols": M.shape[1], "data": np.stack([flat.real, flat.imag], axis=1).tolist()}


def _doc_matrix(doc: dict) -> np.ndarray:
    data = np.asarray(doc["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(doc["rows"], doc["cols"])


def _reject_constant(name: str):
    raise ValueError(f"invalid JSON constant {name}")


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    trace: dict | None


class CliRoundtrip(Workload):
    """One CLI subprocess at a time on inputs written during setup."""

    name = "cli_roundtrip"
    SUITE_TRIALS = 20

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 14])
        self.inputs = {
            "polar": _ginibre(rng, 128),
            "schatten": _ginibre(rng, 256),
            "iterate": _ginibre(rng, 64),
        }
        # A normal pair sharing three eigenvalues, each of multiplicity 4: nullity 48.
        ev = np.repeat(_separated_values(rng, 3), 4)
        Qa, Qb = _haar_unitary(rng, 12), _haar_unitary(rng, 12)
        self.pair = (Qa @ (ev[:, None] * Qa.conj().T), Qb @ (ev[:, None] * Qb.conj().T))
        self.pair_nullity = 48
        self.suite_seed = int(rng.integers(0, 2**31))
        for key, M in self.inputs.items():
            _write_doc(workdir / f"{key}.json", _matrix_doc(M))
        _write_doc(workdir / "pair.json", {"A": _matrix_doc(self.pair[0]), "B": _matrix_doc(self.pair[1])})
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.expected: dict[str, Any] = {}
        w = str(workdir)
        self.calls = [
            ("cli_polar/n128", ["polar", f"{w}/polar.json"], self._check_polar),
            ("cli_schatten_p3/n256", ["schatten", f"{w}/schatten.json", "--p", "3"], self._check_schatten),
            ("cli_aluthge_iterate/n64", ["aluthge", f"{w}/iterate.json", "--iterate", "20"], self._check_iterate),
            ("cli_fp_check/n12", ["fp-check", f"{w}/pair.json"], self._check_fp),
            (
                "cli_suite_thm33/trials20",
                ["suite", "thm33", "--trials", str(self.SUITE_TRIALS), "--seed", str(self.suite_seed)],
                self._check_suite,
            ),
        ]
        self.trace_file = workdir / "trace.json"

    def ops_for_round(self, r: int) -> list[Op]:
        return [Op(kind, lambda argv=argv: self._run(argv), self._wrap_check(check)) for kind, argv, check in self.calls]

    def _run(self, argv: list[str]) -> CliResult:
        if self.traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(self.trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "aluthge.cli", *argv]
        start = perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - start
        trace = None
        if self.traced:
            with open(self.trace_file, encoding="utf-8") as fp:
                trace = json.load(fp)
            self.trace_file.unlink()
        return CliResult(proc.returncode, proc.stdout, proc.stderr, wall, trace)

    def _wrap_check(self, check):
        def wrapped(res: CliResult) -> str | None:
            if res.returncode != 0:
                return f"exit code {res.returncode}: {res.stderr.strip()[-200:]}"
            try:
                doc = json.loads(res.stdout, parse_constant=_reject_constant)
            except ValueError as exc:
                return f"stdout is not valid JSON: {exc}"
            return check(doc)

        return wrapped

    def _expect(self, key: str, fn):
        if key not in self.expected:
            self.expected[key] = fn()
        return self.expected[key]

    def _check_polar(self, doc) -> str | None:
        A = self.inputs["polar"]
        ref = self._expect("polar", lambda: al.polar_decompose(A))
        scale = float(np.linalg.norm(A, 2))
        if doc["mode"] != ref.mode or doc["rank"] != ref.rank:
            return "mode or rank differs from the in-process call"
        for part in ("angular", "positive"):
            if _fro(_doc_matrix(doc[part]) - getattr(ref, part)) > AGREE_REL * scale:
                return f"{part} part differs from the in-process call"
        if not 0.0 <= doc["reconstruction_residual"] <= RESIDUAL_REL * scale:
            return "reconstruction residual above residual_rel * ||A||"
        return None

    def _check_schatten(self, doc) -> str | None:
        ref = self._expect("schatten", lambda: al.schatten_norm(self.inputs["schatten"], 3.0))
        if doc["p"] != 3.0 or _rel(doc["norm"], ref) > AGREE_REL:
            return "Schatten norm differs from the in-process call"
        return None

    def _check_iterate(self, doc) -> str | None:
        ref = self._expect("iterate", lambda: al.aluthge_iterate(self.inputs["iterate"], 20))
        if len(doc["norms"]) != 21 or max(_rel(a, b) for a, b in zip(doc["norms"], ref.norms)) > AGREE_REL:
            return "iterate norms differ from the in-process call"
        if _rel(doc["radius"], ref.radius) > AGREE_REL:
            return "spectral radius differs from the in-process call"
        if _fro(_doc_matrix(doc["final"]) - ref.iterates[-1]) > AGREE_REL * ref.norms[0]:
            return "final iterate differs from the in-process call"
        return None

    def _check_fp(self, doc) -> str | None:
        ref = self._expect("fp", lambda: al.fp_property(*self.pair))
        if doc["holds"] is not True or not ref.holds:
            return "FP verdict fails on a normal pair"
        if doc["com_dim"] != ref.com_dim or doc["com_dim"] != self.pair_nullity:
            return f"nullity {doc['com_dim']}, expected {self.pair_nullity}"
        return None

    def _check_suite(self, doc) -> str | None:
        ref = self._expect("suite", lambda: al.run_suite("thm33", self.suite_seed, self.SUITE_TRIALS).to_doc())
        if doc != json.loads(json.dumps(ref)):
            return "suite report differs from the in-process call"
        if doc["cases_passed"] != self.SUITE_TRIALS:
            return "suite case failed"
        return None

    def headline(self, samples: dict[str, list[float]]) -> dict[str, dict]:
        out = {}
        for metric, kind in (("cli_polar_n128_ms", "cli_polar/n128"), ("cli_schatten_n256_ms", "cli_schatten_p3/n256")):
            if samples.get(kind):
                out[metric] = {"value": float(np.median(samples[kind])) * 1e3, "unit": "ms"}
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SuiteSweep, DenseSpectral, CommutantScaling, CliRoundtrip)
}
