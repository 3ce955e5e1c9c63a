"""Timing loop, metrics and output of one benchmark run."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tr
from workloads import BENCH_DIR, CliResult, Workload

# Set-up is repeated and its median taken, so that one slow set-up does not decide setup_s.
SETUP_REPEATS = 3

# Per-layer metrics of the result line: the ones defined on every
# workload. Times of layers that some workload never calls are in the
# report line only (a layer that is not called has no time to measure).
PER_LAYER = (
    ("kernel.svd_per_op", "count"),
    ("kernel.eigh_per_op", "count"),
    ("kernel.eig_per_op", "count"),
    ("kernel.factorizations_per_op", "count"),
    ("kernel.self_share", "frac"),
    ("kernel.self_ms_per_op", "ms"),
    ("kernel.flops_computed", "flop"),
    ("kernel.bytes_computed", "B"),
    ("kernel.max_operand_mb", "MB"),
    ("linalg.calls_per_op", "count"),
    ("linalg.self_ms_per_op", "ms"),
    ("polar.calls_per_op", "count"),
    ("schatten.calls_per_op", "count"),
    ("commutant.calls_per_op", "count"),
    ("commutant.sylvester_dim_max", "count"),
    ("generate.calls_per_op", "count"),
    ("generate.attempts_per_draw", "ratio"),
    ("generate.errors", "count"),
    ("matrixio.calls_per_op", "count"),
    ("suites.calls_per_op", "count"),
    ("cli.calls_per_op", "count"),
    ("cli.emit_bytes_per_op", "B"),
    ("trace.overhead_frac", "frac"),
)


@dataclass
class Phase:
    """Op samples of one timed phase, in whole rounds."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    times: list[float] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    failures: list[str] = field(default_factory=list)
    emit_bytes: list[int] = field(default_factory=list)
    cli_startup_s: list[float] = field(default_factory=list)
    # op kind -> [ops, svd calls, kernel seconds, op seconds], traced phase only
    kernel_by_kind: dict[str, list[float]] = field(default_factory=lambda: defaultdict(lambda: [0, 0, 0.0, 0.0]))

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.times, q)) * 1e3


def run_phase(workload: Workload, seconds: float, min_rounds: int, tracer: tr.Tracer | None = None, on_round=None) -> Phase:
    """Run whole rounds until ``seconds`` of wall time have passed (and at least ``min_rounds``)."""
    phase = Phase()
    start = perf_counter()
    while phase.rounds < min_rounds or perf_counter() - start < seconds:
        if on_round is not None:
            on_round(phase.rounds)
        for op in workload.ops_for_round(phase.rounds):
            phase.attempted += 1
            before = (tracer.trace.kernel_calls("svd"), tracer.trace.kernel_s) if tracer else None
            error = None
            t0 = perf_counter()
            if tracer:
                tracer.open_op(op.kind)
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op, and the loop goes on
                error = f"{op.kind}: raised {exc!r}"
            finally:
                if tracer:
                    tracer.close_op()
            dt = perf_counter() - t0
            phase.times.append(dt)
            phase.by_kind[op.kind].append(dt)
            if error is None:
                if isinstance(out, CliResult):
                    phase.emit_bytes.append(len(out.stdout.encode()))
                    if out.trace is not None:
                        _merge_child(tracer, out, phase)
                try:
                    reason = op.check(out)
                except Exception as exc:  # a malformed output is a failed op
                    reason = f"check raised {exc!r}"
                if reason is not None:
                    error = f"{op.kind}: {reason}"
            if tracer:
                row = phase.kernel_by_kind[op.kind]
                row[0] += 1
                row[1] += tracer.trace.kernel_calls("svd") - before[0]
                row[2] += tracer.trace.kernel_s - before[1]
                row[3] += dt
            if error is not None:
                phase.failed += 1
                if len(phase.failures) < 10:
                    phase.failures.append(error)
        phase.rounds += 1
    return phase


def _merge_child(tracer: tr.Tracer, res: CliResult, phase: Phase) -> None:
    child = tr.Trace.from_doc(res.trace)
    main_s = child.spans.get(("cli", "main"), [0, 0.0, 0.0])[1]
    phase.cli_startup_s.append(res.wall_s - main_s)
    child.ops, child.op_s = 0, 0.0
    tracer.trace.merge(child)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Children run one at a time while this process lives, so the peak is at most the sum.
    return (own + children) / 1024.0


def environment(seed: int, thread_vars: tuple[str, ...]) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "seed": seed,
    }


def _per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def layer_metrics(census: tr.Trace, total: tr.Trace, untraced: Phase, traced: Phase) -> dict[str, float]:
    """Every per-layer figure; counts come from the census rounds, times from the whole traced phase."""
    c_ops, t_ops = census.ops, total.ops
    kernel_self = total.layer_totals(tr.KERNEL)[2]
    out = {
        "kernel.svd_per_op": _per_op(census.kernel_calls("svd"), c_ops),
        "kernel.eigh_per_op": _per_op(census.kernel_calls("eigh"), c_ops),
        "kernel.eig_per_op": _per_op(census.kernel_calls("eig"), c_ops),
        "kernel.factorizations_per_op": _per_op(census.kernel_calls(*tr.FACTORIZATIONS), c_ops),
        "kernel.self_share": kernel_self / total.op_s,
        "kernel.self_ms_per_op": _per_op(kernel_self * 1e3, t_ops),
        "kernel.flops_computed": _per_op(sum(v[1] for v in census.kernel.values()), c_ops),
        "kernel.bytes_computed": _per_op(sum(v[2] for v in census.kernel.values()), c_ops),
        "kernel.max_operand_mb": total.max_operand_bytes / 2**20,
    }
    for layer in tr.LAYERS:
        out[f"{layer}.calls_per_op"] = _per_op(census.layer_totals(layer)[0], c_ops)
        out[f"{layer}.self_ms_per_op"] = _per_op(total.layer_totals(layer)[2] * 1e3, t_ops)
    out["commutant.sylvester_dim_max"] = float(total.sylvester_dim_max)
    out["generate.attempts_per_draw"] = _per_op(census.draw_attempts, census.draws_ok)
    out["generate.errors"] = float(total.generate_errors)
    for name, key in (("from_doc", "matrix_from_doc"), ("to_doc", "matrix_to_doc")):
        out[f"matrixio.{name}_ms_per_op"] = _per_op(total.spans.get(("matrixio", key), [0, 0.0])[1] * 1e3, t_ops)
    out["suites.self_ms_per_case"] = out["suites.self_ms_per_op"]
    out["cli.startup_ms"] = statistics.fmean(traced.cli_startup_s) * 1e3 if traced.cli_startup_s else 0.0
    out["cli.emit_bytes_per_op"] = statistics.fmean(traced.emit_bytes) if traced.emit_bytes else 0.0
    out["trace.overhead_frac"] = untraced.ops_per_s / traced.ops_per_s - 1.0
    return out


def suite_table(untraced: Phase, traced: Phase) -> dict[str, dict]:
    """Per suite id: untraced ms per case, SVDs per case and kernel share (traced)."""
    table = {}
    for kind, samples in sorted(untraced.by_kind.items()):
        if not kind.startswith("suite/"):
            continue
        ops, svd, kernel_s, op_s = traced.kernel_by_kind.get(kind, [0, 0, 0.0, 0.0])
        table[kind.split("/", 1)[1]] = {
            "ms_per_case": statistics.fmean(samples) * 1e3,
            "svd_per_case": _per_op(svd, ops),
            "kernel_share": _per_op(kernel_s, op_s),
        }
    return table


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run(workload_cls: type[Workload], args, import_s: float, thread_vars: tuple[str, ...]) -> int:
    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as tmp:
        workdir = Path(tmp)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload = workload_cls()
            t0 = perf_counter()
            workload.setup(args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        if args.trace:
            untraced = run_phase(workload, args.seconds / 2, workload.census_rounds)
            tracer = tr.Tracer()
            wrappers = tr.install(tracer)
            workload.traced = True
            census = tracer.trace

            def on_round(r: int) -> None:
                if r == workload.census_rounds:
                    tracer.trace = tr.Trace()

            traced = run_phase(workload, args.seconds / 2, workload.census_rounds, tracer, on_round)
            total = tr.Trace()
            total.merge(census)
            if tracer.trace is not census:
                total.merge(tracer.trace)
            phases = [untraced, traced]
        else:
            untraced = run_phase(workload, args.seconds, workload.census_rounds)
            phases = [untraced]
        digest = workload.census_digest()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    e2e = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(untraced.ops_per_s, "1/s"),
        "op_ms_p50": _metric(untraced.percentile_ms(50), "ms"),
        "op_ms_p90": _metric(untraced.percentile_ms(90), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    report = {
        "workload": workload_cls.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, thread_vars),
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "rounds": [p.rounds for p in phases],
        "samples": len(untraced.times),
        "samples_beyond_p90": int(np.sum(np.asarray(untraced.times) * 1e3 > e2e["op_ms_p90"]["value"])),
        "end_to_end": e2e,
        "headline": workload.headline(untraced.by_kind),
        "failed_frac": failed / attempted,
        "failures": [f for p in phases for f in p.failures],
        "census_digest": digest,
        "op_kinds": {k: {"count": len(v), "median_ms": statistics.median(v) * 1e3} for k, v in sorted(untraced.by_kind.items())},
    }
    if args.trace:
        layers = layer_metrics(census, total, untraced, traced)
        report["wrappers"] = wrappers
        report["per_layer"] = layers
        report["census_kernel"] = {k: v[0] for k, v in sorted(census.kernel.items())}
        report["census_ops"] = census.ops
        report["spans"] = sorted(
            ([layer, name, int(calls), total_s * 1e3, self_s * 1e3] for (layer, name), (calls, total_s, self_s) in total.spans.items()),
            key=lambda row: -row[4],
        )
        table = suite_table(untraced, traced)
        if table:
            report["suites"] = table
        metrics = {name: _metric(layers[name], unit) for name, unit in PER_LAYER}
    else:
        metrics = e2e

    _print_summary(report, metrics)
    print(json.dumps({"report": report}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _print_summary(report: dict, metrics: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']} rounds {report['rounds']}")
    print(f"env python {env['python']} numpy {env['numpy']} {env['blas']} nproc {env['nproc']} threads {env['threads']}")
    for name, m in {**metrics, **report["headline"]}.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  samples {report['samples']} (beyond p90: {report['samples_beyond_p90']}), failed_frac {report['failed_frac']:.6g}")
    if "suites" in report:
        print(f"  {'suite':18s} {'ms/case':>9s} {'svd/case':>9s} {'kernel':>7s}")
        for suite_id, row in report["suites"].items():
            print(f"  {suite_id:18s} {row['ms_per_case']:9.3f} {row['svd_per_case']:9.2f} {row['kernel_share']:7.1%}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
