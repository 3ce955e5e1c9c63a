"""Span tracer installed from outside the ``aluthge`` package.

``install`` wraps the public functions of every ``aluthge`` module and
rebinds each wrapper wherever an ``aluthge`` module (or the package
itself) holds the original, so calls between modules are seen. It also
wraps the factorizations in ``numpy.linalg``, the LAPACK layer, with
call counts and flop and byte figures computed from operand shapes.

Spans nest on one stack: a span's self time is its duration minus the
durations of its direct children. Only calls made while an op span is
open are recorded, so the benchmark's own numpy reference checks do not
count. Spans are aggregated per (layer, name) as they close, which
keeps memory flat on workloads with hundreds of thousands of spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

LAYERS = ("cli", "matrixio", "suites", "generate", "commutant", "schatten", "polar", "linalg")
KERNEL = "kernel"
KERNEL_FUNCS = ("svd", "norm", "eigh", "eigvalsh", "eigvals", "eig", "qr", "inv")
# Kernel call kinds that factorize their operand; `norm(., 2)` is an SVD.
FACTORIZATIONS = ("svd", "eigh", "eig", "qr", "inv")
# Generators that `generate.draw` calls once per attempt.
DRAW_ATTEMPT_FUNCS = frozenset(
    {"normal_pair", "invertible_fp_pair", "pd_min_eig", "unitary_semicircle", "involution", "hyponormal_matrix"}
)


class Trace:
    """Aggregated spans and counters of one traced interval."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], list[float]] = {}  # key -> [calls, total_s, self_s]
        self.kernel: dict[str, list[float]] = {}  # kind -> [calls, flops, bytes]
        self.max_operand_bytes = 0
        self.sylvester_dim_max = 0
        self.draw_attempts = 0
        self.draws_ok = 0
        self.generate_errors = 0
        self.kernel_s = 0.0
        self.ops = 0
        self.op_s = 0.0

    def add_span(self, key: tuple[str, str], total: float, self_time: float) -> None:
        entry = self.spans.get(key)
        if entry is None:
            self.spans[key] = [1, total, self_time]
        else:
            entry[0] += 1
            entry[1] += total
            entry[2] += self_time

    def add_kernel(self, kind: str, flops: float, nbytes: float) -> None:
        entry = self.kernel.setdefault(kind, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += flops
        entry[2] += nbytes

    def merge(self, other: "Trace") -> None:
        for key, (calls, total, self_time) in other.spans.items():
            entry = self.spans.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time
        for kind, (calls, flops, nbytes) in other.kernel.items():
            entry = self.kernel.setdefault(kind, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += flops
            entry[2] += nbytes
        self.max_operand_bytes = max(self.max_operand_bytes, other.max_operand_bytes)
        self.sylvester_dim_max = max(self.sylvester_dim_max, other.sylvester_dim_max)
        self.draw_attempts += other.draw_attempts
        self.draws_ok += other.draws_ok
        self.generate_errors += other.generate_errors
        self.kernel_s += other.kernel_s
        self.ops += other.ops
        self.op_s += other.op_s

    def to_doc(self) -> dict:
        return {
            "spans": [[layer, name, *vals] for (layer, name), vals in self.spans.items()],
            "kernel": self.kernel,
            "max_operand_bytes": self.max_operand_bytes,
            "sylvester_dim_max": self.sylvester_dim_max,
            "draw_attempts": self.draw_attempts,
            "draws_ok": self.draws_ok,
            "generate_errors": self.generate_errors,
            "kernel_s": self.kernel_s,
            "ops": self.ops,
            "op_s": self.op_s,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Trace":
        out = cls()
        out.spans = {(layer, name): vals for layer, name, *vals in doc["spans"]}
        out.kernel = doc["kernel"]
        for name in ("max_operand_bytes", "sylvester_dim_max", "draw_attempts", "draws_ok", "generate_errors", "kernel_s", "ops", "op_s"):
            setattr(out, name, doc[name])
        return out

    def layer_totals(self, layer: str) -> tuple[int, float, float]:
        """Calls, total seconds and self seconds summed over a layer's spans."""
        calls = total = self_time = 0.0
        for (span_layer, _), (c, t, s) in self.spans.items():
            if span_layer == layer:
                calls += c
                total += t
                self_time += s
        return int(calls), total, self_time

    def kernel_calls(self, *kinds: str) -> int:
        return int(sum(self.kernel.get(kind, (0,))[0] for kind in kinds))


class Tracer:
    """Span stack plus the Trace that closing spans feed."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [layer, name, start, child_s]
        self.trace = Trace()

    def open_op(self, name: str) -> None:
        """Open the root span of one op; calls are recorded only inside one."""
        self.stack.append(["op", name, perf_counter(), 0.0])

    def close_op(self) -> None:
        self._close(self.stack[-1])

    def _close(self, frame: list) -> float:
        dur = perf_counter() - frame[2]
        self.stack.pop()
        if self.stack:
            self.stack[-1][3] += dur
            self.trace.add_span((frame[0], frame[1]), dur, dur - frame[3])
        else:
            self.trace.ops += 1
            self.trace.op_s += dur
        return dur


def _shape2(a) -> tuple[int, int, int]:
    """(batch, rows, cols) of an array operand, batch = product of leading dims."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 1, (shape[0] if shape else 1), 1
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch, int(shape[-2]), int(shape[-1])


def _complex_factor(a) -> int:
    # A complex multiply-add costs four real ones.
    return 4 if np.iscomplexobj(a) else 1


def kernel_cost(func: str, args: tuple, kwargs: dict, result) -> tuple[str, float, float]:
    """Call kind plus flops and bytes computed from operand shapes.

    Flop counts are the standard dense LAPACK estimates (Golub and Van
    Loan): they are computed, not measured. Bytes are operand plus
    result sizes.
    """
    a = args[0] if args else kwargs.get("a")
    batch, m, n = _shape2(a)
    k = min(m, n)
    big = max(m, n)
    cf = _complex_factor(a)
    kind = func
    if func == "svd":
        vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        flops = (4 * big * big * k + 8 * big * k * k + 9 * k**3) if vectors else (4 * big * k * k - 4 * k**3 / 3)
    elif func == "norm":
        order = kwargs.get("ord", args[1] if len(args) > 1 else None)
        if np.ndim(a) == 2 and order in (2, -2):
            kind = "svd"
            flops = 4 * big * k * k - 4 * k**3 / 3
        else:
            flops = 2 * m * n
    elif func == "eigh":
        kind, flops = "eigh", 9 * n**3
    elif func == "eigvalsh":
        kind, flops = "eigh", 4 * n**3 / 3
    elif func == "eigvals":
        kind, flops = "eig", 10 * n**3
    elif func == "eig":
        kind, flops = "eig", 25 * n**3
    elif func == "qr":
        # Householder factorization plus forming the reduced Q.
        flops = 4 * m * k * k - 4 * k**3 / 3
    else:  # inv
        flops = 2 * n**3
    out_bytes = sum(getattr(x, "nbytes", 0) for x in (result if isinstance(result, tuple) else (result,)))
    return kind, float(batch * cf * flops), float(getattr(a, "nbytes", 0) + out_bytes)


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    generation_error = None
    if layer == "generate":
        generation_error = importlib.import_module("aluthge.generate").GenerationError

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        if not stack:
            return fn(*args, **kwargs)
        parent = stack[-1]
        frame = [layer, name, perf_counter(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if generation_error is not None and isinstance(exc, generation_error) and parent[0] != "generate":
                tracer.trace.generate_errors += 1
            tracer._close(frame)
            raise
        dur = tracer._close(frame)
        trace = tracer.trace
        if layer == KERNEL:
            kind, flops, nbytes = kernel_cost(name, args, kwargs, result)
            trace.add_kernel(kind, flops, nbytes)
            trace.kernel_s += dur
            operand = args[0] if args else kwargs.get("a")
            trace.max_operand_bytes = max(trace.max_operand_bytes, int(getattr(operand, "nbytes", 0)))
        elif layer == "generate":
            if name == "draw":
                trace.draws_ok += 1
            elif name in DRAW_ATTEMPT_FUNCS and parent[1] == "draw":
                trace.draw_attempts += 1
        if name == "sylvester_matrix":
            trace.sylvester_dim_max = max(trace.sylvester_dim_max, int(result.shape[0]))
        return result

    return wrapper


def _public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def install(tracer: Tracer) -> int:
    """Wrap every layer's public functions and numpy.linalg; returns the wrapper count."""
    package = importlib.import_module("aluthge")
    modules = [importlib.import_module(f"aluthge.{layer}") for layer in LAYERS]
    holders = [package, *modules]
    count = 0
    for layer, module in zip(LAYERS, modules):
        for name, fn in _public_functions(module).items():
            wrapped = _wrap(tracer, layer, name, fn)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapped)
            count += 1
    for name in KERNEL_FUNCS:
        fn = getattr(np.linalg, name)
        setattr(np.linalg, name, _wrap(tracer, KERNEL, name, fn))
        count += 1
    return count
