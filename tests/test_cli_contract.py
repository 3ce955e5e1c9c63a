"""The CLI contract as a property: every input ends in exit 0, 1 or 2.

Arguments cover every subcommand, with option values that include nan,
inf, negatives and huge integers. Documents come from a grammar: valid
matrices with entries from 1e-320 to 1e308, wrong shapes and missing
names, duplicate keys, bools, deep nesting and trailing garbage. For
each, ``cli.main`` runs in process on stdin, and the exit code is 0, 1
or 2, stdout is empty or one strict JSON document, and on exit 2 stderr
is one line that starts with ``error:``. The exit code is ``main``'s
return value, also for arguments argparse cannot parse. Any exception
that escapes, ``SystemExit`` included, fails the property.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aluthge.cli import main
from aluthge.suites import SUITE_IDS


class Raw(str):
    """JSON text written as is."""


def render(value) -> str:
    """JSON text of a value; a dict is a list of (key, value) pairs, so keys may repeat."""
    if isinstance(value, Raw):
        return value
    if isinstance(value, list):
        return "[" + ", ".join(map(render, value)) + "]"
    if isinstance(value, tuple):
        return "{" + ", ".join(f"{json.dumps(key)}: {render(item)}" for key, item in value) + "}"
    if isinstance(value, float):
        return repr(value)
    return json.dumps(value)


ENTRY = st.one_of(
    st.floats(1e-320, 1e308),
    st.floats(-1e308, -1e-320),
    st.just(0.0),
    st.integers(-(10**400), 10**400),
    st.booleans(),
    st.sampled_from([Raw("NaN"), Raw("Infinity"), Raw("-Infinity"), "1", None, [1.0]]),
)
FINITE = st.floats(-1e308, 1e308)


@st.composite
def matrix_docs(draw, rows: int, cols: int, clean: bool):
    """A matrix document of the given shape: valid when ``clean``, otherwise perhaps not."""
    entry = FINITE if clean else draw(st.sampled_from([FINITE, ENTRY]))
    data = draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=rows * cols, max_size=rows * cols))
    fields = [("rows", rows), ("cols", cols), ("data", data)]
    fault = None if clean else draw(st.sampled_from([None, "rows", "data", "extra", "length"]))
    if fault == "rows":
        fields[0] = ("rows", draw(st.one_of(st.integers(-1, 0), st.booleans(), st.just(1.0), st.just("2"))))
    elif fault == "data":
        fields[2] = ("data", draw(st.one_of(st.just({}), st.just("data"), st.none())))
    elif fault == "extra":
        fields.append((draw(st.sampled_from(["rows", "data", "note"])), draw(ENTRY)))
    elif fault == "length":
        fields[2] = ("data", data + [[1.0, 0.0]])
    return tuple(fields)


@st.composite
def named_docs(draw):
    """Named matrices A (n1), B (n2) and X, in any order, some missing, some repeated."""
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x_shape = draw(st.sampled_from([(n1, n2), (n1, n1), (n2, n1)]))
    shapes = {"A": (n1, n1), "B": (n2, n2), "X": x_shape, "Z": (1, draw(st.integers(1, 3)))}
    names = draw(st.one_of(st.just(["A", "B", "X"]), st.lists(st.sampled_from(sorted(shapes)), max_size=5)))
    clean = draw(st.booleans())
    return tuple((name, draw(matrix_docs(*shapes[name], clean))) for name in names)


def nested(depth: int, closed: bool) -> Raw:
    return Raw("[" * depth + ("]" * depth if closed else ""))


SQUARE_DOCS = st.integers(1, 4).flatmap(lambda n: st.booleans().flatmap(lambda clean: matrix_docs(n, n, clean)))
OTHER_DOCS = st.one_of(
    st.integers(1, 4).flatmap(lambda n: st.integers(1, 4).flatmap(lambda m: matrix_docs(n, m, False))),
    named_docs(),
    st.builds(nested, st.sampled_from([3, 2000, 100000]), st.booleans()),
    st.sampled_from([Raw(""), Raw("[]"), Raw("{}"), Raw("null"), Raw("true"), Raw('"A"'), 1.0]),
)
GARBAGE = st.one_of(st.just(""), st.just(""), st.sampled_from(["\n", " ]", "}", "x", "{}", "[1]", "NaN", ",", "\x00"]))


def option_values(*usual: str):
    """The values a command is meant to take, or nan, inf, negatives, subnormals,
    the ends of the double range and integers far beyond it."""
    wild = st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "-nan", "0", "-0.0", "-1", "1e-320", "1e308", "-1e308"]),
        st.floats().map(repr),
        st.integers(-(2**80), 2**80).map(str),
    )
    return st.one_of(st.sampled_from(usual), wild)


# The counts that set the work of a command are capped from above only.
ITERATE = st.integers(-(2**70), 4).map(str)
TRIALS = st.integers(-(2**70), 3).map(str)
SEED = st.integers(-(2**70), 2**70).map(str)
EXPONENT = option_values("0.25", "0.5", "1")
ORDER = option_values("1", "2", "3", "inf")
# Only the commands whose verdict reads a residual take a tolerance.
TOLERANCE = option_values("1e-8", "1e-6")

OPTIONS = {
    "polar": {"--mode": st.sampled_from(["unitary", "partial"])},
    "aluthge": {"--s": EXPONENT, "--t": EXPONENT, "--iterate": ITERATE, "--full": None},
    "commutant": {},
    "fp-check": {"--tol": TOLERANCE},
    "schatten": {},
    "inequality": {"--p": ORDER, "--delta": option_values("0.5", "5"), "--tol": TOLERANCE},
    "suite": {"--trials": TRIALS, "--seed": SEED, "--tol": TOLERANCE},
}


@st.composite
def cli_inputs(draw) -> tuple[list[str], str]:
    """Arguments of one command and the text of the document it reads on stdin."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    if command == "suite":
        argv = ["suite", draw(st.sampled_from(SUITE_IDS))]
    elif command == "inequality":
        argv = ["inequality", draw(st.sampled_from(["lemma41", "thm42", "moore"])), "-"]
    else:
        argv = [command, "-"]
    for flag, values in OPTIONS[command].items():
        if draw(st.sampled_from([False, False, True])):
            argv += [flag] if values is None else [flag, draw(values)]
    if command == "schatten":
        argv += ["--p", draw(ORDER)]
    usual = SQUARE_DOCS if command in ("polar", "aluthge", "schatten") else named_docs()
    document = draw(st.one_of(usual, usual, OTHER_DOCS))
    return argv, render(document) + draw(GARBAGE)


def run(argv: list[str], text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(cli_inputs())
def test_every_input_keeps_the_exit_code_contract(case):
    code, out, err = run(*case)
    assert code in (0, 1, 2)
    if out:
        json.loads(out, parse_constant=reject_constant)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")


def line_tracer(frame, event, arg):
    """A trace function that traces every line, as coverage tools install."""
    return line_tracer


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("command", ["polar", "fp-check"])
def test_deep_document_is_refused_by_its_depth(command, closed, traced):
    # The refusal must not depend on the interpreter's stack, which a tracer deepens.
    previous = sys.gettrace()
    if traced:
        sys.settrace(line_tracer)
    try:
        result = run([command, "-"], nested(100000, closed))
    finally:
        sys.settrace(previous)
    assert result == (2, "", "error: JSON nested 100000 deep; a matrix document nests at most 4 deep\n")
