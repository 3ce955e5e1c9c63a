"""Command-line front end.

Subcommands operate on matrix documents (see :mod:`aluthge.matrixio`)
read from a path or stdin (``-``) and emit JSON on stdout or to
``--out``. Exit codes: 0 success / verified, 1 verification failure,
2 usage or input error. ``--tol`` overrides the residual tolerance of
the commands whose verdict reads one: fp-check, inequality and suite.
"""

from __future__ import annotations

import argparse
import re
import sys
from math import inf

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, op_norm, spectral_radius
from .matrixio import dumps_document, read_matrices, read_matrix
from .polar import MODE_PARTIAL, MODE_UNITARY, _aluthge_steps, aluthge_iterate, aluthge_st, polar_decompose


def _source(path: str):
    return sys.stdin if path == "-" else path


def _read_named(path: str, names: tuple[str, ...]) -> dict:
    mats = read_matrices(_source(path))
    missing = [name for name in names if name not in mats]
    if missing:
        raise ValueError(f"missing matrices {missing} in input document")
    return mats


def _tolerances(args) -> Tolerances:
    return DEFAULT_TOL if args.tol is None else Tolerances(residual_rel=args.tol)


# Each command returns its result document, whose matrices may be ndarrays, and its exit code.


def _cmd_polar(args) -> tuple[object, int]:
    M = read_matrix(_source(args.input))
    mode = MODE_PARTIAL if args.mode == "partial" else MODE_UNITARY
    parts = polar_decompose(M, mode)
    residual = op_norm(parts.angular @ parts.positive - M)
    doc = {
        "mode": parts.mode,
        "rank": parts.rank,
        "angular": parts.angular,
        "positive": parts.positive,
        "reconstruction_residual": residual,
    }
    return doc, 0


def _cmd_aluthge(args) -> tuple[object, int]:
    if args.iterate is None and args.full:
        raise ValueError("--full applies only with --iterate")
    if args.iterate is not None and (args.s, args.t) != (0.5, 0.5):
        raise ValueError("--iterate takes (0.5, 0.5) Aluthge iterates; --s and --t apply only without it")
    M = read_matrix(_source(args.input))
    if args.iterate is None:
        return aluthge_st(M, args.s, args.t), 0
    if args.full:
        trajectory = aluthge_iterate(M, args.iterate)
        doc = {
            "norms": trajectory.norms,
            "radius": trajectory.radius,
            "final": trajectory.iterates[-1],
            "iterates": trajectory.iterates,
        }
        return doc, 0
    # Only the last iterate is printed, so only the current one is held.
    norms = []
    for final, norm in _aluthge_steps(M, args.iterate):
        norms.append(norm)
    return {"norms": norms, "radius": spectral_radius(M), "final": final}, 0


def _cmd_commutant(args) -> tuple[object, int]:
    from .commutant import commutant_basis

    mats = _read_named(args.input, ("A", "B"))
    cb = commutant_basis(mats["A"], mats["B"])
    doc = {"dim_domain": list(cb.dim_domain), "nullity": cb.nullity, "residuals": cb.residuals, "basis": cb.basis}
    return doc, 0


def _cmd_fp_check(args) -> tuple[object, int]:
    from .commutant import fp_property

    tol = _tolerances(args)
    mats = _read_named(args.input, ("A", "B"))
    rep = fp_property(mats["A"], mats["B"], tol)
    doc = {
        "holds": rep.holds,
        "com_dim": rep.com_dim,
        "max_residual": rep.max_residual,
        "threshold": rep.threshold,
        "witness": rep.witness,
    }
    return doc, 0 if rep.holds else 1


def _cmd_schatten(args) -> tuple[object, int]:
    from .schatten import schatten_norm

    M = read_matrix(_source(args.input))
    return {"p": "inf" if args.p == inf else args.p, "norm": schatten_norm(M, args.p)}, 0


def _cmd_inequality(args) -> tuple[object, int]:
    from .schatten import aluthge_commutator_bound, aluthge_intertwiner_bound, approx_commutator_bound

    if args.which == "moore" and args.p is not None:
        raise ValueError("--p applies only to lemma41 and thm42; moore bounds the operator norm")
    if args.which != "moore" and args.delta is not None:
        raise ValueError(f"--delta applies only to moore, not to {args.which}")
    tol = _tolerances(args)
    p = 2.0 if args.p is None else args.p
    if args.which == "lemma41":
        mats = _read_named(args.input, ("A", "X"))
        rep = aluthge_commutator_bound(mats["A"], mats["X"], p, tol)
    elif args.which == "thm42":
        mats = _read_named(args.input, ("A", "B", "X"))
        rep = aluthge_intertwiner_bound(mats["A"], mats["B"], mats["X"], p, tol)
    else:
        if args.delta is None:
            raise ValueError("inequality moore requires --delta")
        mats = _read_named(args.input, ("A", "X"))
        rep = approx_commutator_bound(mats["A"], mats["X"], args.delta, tol)
    doc = {
        "which": args.which,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "slack": rep.slack,
        "hypotheses_ok": rep.hypotheses_ok,
        "a_value": rep.a_value,
        "p": "inf" if rep.p == inf else rep.p,
        "details": {k: v for k, v in rep.details.items() if isinstance(v, (bool, int, float, str))},
    }
    return doc, 0 if rep.ok else 1


def _cmd_suite(args) -> tuple[object, int]:
    from .generate import GenerationError
    from .suites import run_suite

    tol = _tolerances(args)
    try:
        report = run_suite(args.suite_id, args.seed, args.trials, tol)
    except GenerationError as exc:
        raise ValueError(str(exc)) from exc
    return report.to_doc(), 0 if report.passed else 1


class _SuiteIds:
    """The registered suite ids, read from :mod:`aluthge.suites` only when argparse checks (``in``) or lists them."""

    def __iter__(self):
        from .suites import SUITE_IDS

        return iter(SUITE_IDS)


class _Parser(argparse.ArgumentParser):
    """An argument that reads as a negative number, as -inf, -nan or -1e+16, is an option's value.

    argparse takes only -1 and -1.5 for numbers, and any other word that
    starts with a dash for an option name. An argument list it cannot
    parse exits 2 with one ``error:`` line on stderr, without the usage
    text, as every other input error does.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)\Z", re.I)

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aluthge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, default=lambda value: value, with_input: bool = True, with_tol: bool = False
    ) -> None:
        if with_input:
            p.add_argument("input", nargs="?", default=default("-"), help="input document path, or - for stdin")
        p.add_argument("--out", default=default(None), help="write the result document here instead of stdout")
        # Only a command whose verdict reads a residual takes a tolerance for it.
        if with_tol:
            p.add_argument("--tol", type=float, default=default(None), help="residual tolerance override")

    p_polar = sub.add_parser("polar", help="polar decomposition of one matrix")
    add_common(p_polar)
    p_polar.add_argument("--mode", choices=("unitary", "partial"), default="unitary")
    p_polar.set_defaults(func=_cmd_polar)

    p_al = sub.add_parser("aluthge", help="(s,t) transform or iterated transforms of one matrix")
    add_common(p_al)
    p_al.add_argument("--s", type=float, default=0.5)
    p_al.add_argument("--t", type=float, default=0.5)
    p_al.add_argument("--iterate", type=int, default=None, metavar="N", help="emit N iterates with norm diagnostics")
    p_al.add_argument("--full", action="store_true", help="include every iterate matrix in the output")
    p_al.set_defaults(func=_cmd_aluthge)

    p_com = sub.add_parser("commutant", help="orthonormal basis of {X : AX = XB}")
    add_common(p_com)
    p_com.set_defaults(func=_cmd_commutant)

    p_fp = sub.add_parser("fp-check", help="adjoint-intertwining verdict for a pair document {A, B}")
    add_common(p_fp, with_tol=True)
    p_fp.set_defaults(func=_cmd_fp_check)

    p_sch = sub.add_parser("schatten", help="Schatten p-norm of one matrix")
    add_common(p_sch)
    p_sch.add_argument("--p", type=float, required=True, help="order, 1 <= p <= inf")
    p_sch.set_defaults(func=_cmd_schatten)

    def add_inequality(p: argparse.ArgumentParser, default=lambda value: value, with_input: bool = True) -> None:
        add_common(p, default, with_input, with_tol=True)
        p.add_argument("--p", type=float, default=default(None), help="order for lemma41 and thm42 (default 2)")
        p.add_argument("--delta", type=float, default=default(None), help="commutator bound for moore")

    # One parser per inequality, so that its input may come before or after its
    # options. Options may also precede the name; they are parsed with their
    # defaults, and the inequality's parser sets only what it is given.
    p_ineq = sub.add_parser("inequality", help="evaluate one of the norm inequalities")
    add_inequality(p_ineq, with_input=False)
    p_ineq.set_defaults(func=_cmd_inequality, input="-")
    which = p_ineq.add_subparsers(dest="which", required=True)
    for name in ("lemma41", "thm42", "moore"):
        add_inequality(which.add_parser(name), lambda value: argparse.SUPPRESS)

    p_suite = sub.add_parser("suite", help="run a registered verification suite")
    p_suite.add_argument("suite_id", choices=_SuiteIds(), metavar="suite_id", help="%(choices)s")
    add_common(p_suite, with_input=False, with_tol=True)
    p_suite.add_argument("--trials", type=int, default=100)
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 after the one error line of a refused argument list, and 0 after --help.
        return exc.code
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            doc, code = args.func(args)
            try:
                text = dumps_document(doc) + "\n"
            except ValueError as exc:
                # The writer refuses only non-finite values.
                raise OverflowError from exc
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fp:
                fp.write(text)
        return code
    except (FloatingPointError, OverflowError):
        # Every input is finite once read, so a value outside the double
        # range anywhere in a command is a computation that overflowed.
        print("error: the computation overflowed the double range", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for this input", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
