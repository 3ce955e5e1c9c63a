"""Matrix (de)serialization.

A matrix document is JSON of the form::

    {"rows": 2, "cols": 2, "data": [[re, im], [re, im], ...]}

with ``data`` row-major and of length rows * cols. Collections of named
matrices are JSON objects mapping names ("A", "B", "X", ...) to such
documents. Round-trips are bit-exact for finite doubles.

The readers refuse text whose arrays and objects nest more than 4 deep,
the most a valid document needs (the object of named matrices, a matrix
document, its data list, one pair), before the JSON decoder runs, so a
deep document is refused whatever the depth of the caller's stack.
"""

from __future__ import annotations

import json
import re
from contextlib import nullcontext
from itertools import chain
from typing import Any

import numpy as np

from .linalg import as_matrix

__all__ = [
    "matrix_to_doc",
    "matrix_from_doc",
    "read_matrix",
    "write_matrix",
    "read_matrices",
    "write_matrices",
    "dumps_document",
]


def matrix_to_doc(M) -> dict[str, Any]:
    """Serialize a matrix to its document form."""
    A = as_matrix(M)
    rows, cols = A.shape
    flat = A.reshape(-1)
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": np.stack([flat.real, flat.imag], axis=1).tolist(),
    }


# With an indent the stdlib encodes floats in Python, and its refusal of a
# non-finite one names the value; a scalar's text does not depend on it.
_encode_leaf = json.JSONEncoder(indent=2, allow_nan=False).encode


def dumps_document(doc) -> str:
    """Pretty-print a result document whose matrices may be ndarrays.

    The text equals ``json.dumps(d, indent=2, sort_keys=True,
    allow_nan=False)``, where ``d`` is ``doc`` with every ndarray replaced
    by ``matrix_to_doc`` of it, but ndarrays are written straight from the
    array instead of through the pure-Python indent encoder. Dict keys must
    be strings; every other leaf is encoded by the stdlib, so non-finite
    floats are refused with the same message.
    """
    return _dumps(doc, "\n")


def _dumps(value, nl: str) -> str:
    # nl is the newline plus the indent of the line that holds the value.
    inner = nl + "  "
    if isinstance(value, np.ndarray):
        A = as_matrix(value)
        item = f"{inner}  [{inner}    %r,{inner}    %r{inner}  ]"
        data = ",".join([item] * A.size) % tuple(np.ascontiguousarray(A).view(np.float64).ravel().tolist())
        return f'{{{inner}"cols": {A.shape[1]},{inner}"data": [{data}{inner}],{inner}"rows": {A.shape[0]}{nl}}}'
    if isinstance(value, dict):
        items = [f"{inner}{_encode_leaf(key)}: {_dumps(value[key], inner)}" for key in sorted(value)]
        return "{" + ",".join(items) + nl + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _dumps(item, inner) for item in value]
        return "[" + ",".join(items) + nl + "]" if items else "[]"
    return _encode_leaf(value)


def _is_pair(entry) -> bool:
    if not isinstance(entry, list) or len(entry) != 2:
        return False
    re, im = entry
    return (
        isinstance(re, (int, float))
        and isinstance(im, (int, float))
        and not isinstance(re, bool)
        and not isinstance(im, bool)
    )


def _to_double(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return np.inf


def matrix_from_doc(doc) -> np.ndarray:
    """Parse and validate a matrix document."""
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be a JSON object")
    for name in ("rows", "cols"):
        value = doc.get(name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"field '{name}' must be a positive integer")
    rows, cols = doc["rows"], doc["cols"]
    data = doc.get("data")
    if not isinstance(data, list):
        raise ValueError("field 'data' must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValueError(f"field 'data' has length {len(data)}, expected rows*cols = {rows * cols}")
    # The first faulty entry is reported, whether it is malformed or non-finite.
    # Entries that are all two-element lists of plain ints and floats skip the
    # per-entry scan, which is what names a malformed one.
    well_formed = (
        set(map(type, data)) <= {list}
        and set(map(len, data)) <= {2}
        and set(map(type, chain.from_iterable(data))) <= {int, float}
    )
    malformed = len(data) if well_formed else next((k for k, e in enumerate(data) if not _is_pair(e)), len(data))
    try:
        pairs = np.fromiter(chain.from_iterable(data[:malformed]), dtype=np.float64, count=2 * malformed).reshape(-1, 2)
    except OverflowError:
        # An integer beyond the double range; it or an earlier entry is named below.
        pairs = np.array([[_to_double(re), _to_double(im)] for re, im in data[:malformed]]).reshape(-1, 2)
    finite = np.isfinite(pairs).all(axis=1)
    if not finite.all():
        raise ValueError(f"field 'data' entry {int(np.argmin(finite))} must be finite")
    if malformed < len(data):
        raise ValueError(f"field 'data' entry {malformed} must be a [re, im] pair of numbers")
    return pairs.view(np.complex128).reshape((rows, cols))


def _opened(path_or_fp, mode: str):
    """Context for a path (opened, then closed) or a caller's text stream (left open)."""
    if hasattr(path_or_fp, "read") or hasattr(path_or_fp, "write"):
        return nullcontext(path_or_fp)
    return open(path_or_fp, mode, encoding="utf-8")


def write_matrix(path_or_fp, M) -> None:
    """Write one matrix document to a path or text stream."""
    with _opened(path_or_fp, "w") as fp:
        json.dump(matrix_to_doc(M), fp)
        fp.write("\n")


# The nesting of arrays and objects that a valid document reaches.
_MAX_DEPTH = 4


def _nesting_depth(text: str) -> int:
    """Deepest nesting of arrays and objects in JSON text; brackets within strings do not count."""
    # Without its escape pairs (\", \\, ...), the only quotes left open and close strings.
    if "\\" in text:
        text = re.sub(r"\\.", "", text, flags=re.S)
    # Non-ASCII characters encode to bytes >= 0x80, so every byte below is the character it reads.
    b = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    quotes = np.flatnonzero(b == ord('"'))
    folded = b | 0x20  # "[" -> "{" and "]" -> "}"; no other byte maps to either
    brackets = (np.flatnonzero(folded == ord(c)) for c in "{}")
    # Outside a string, an even number of quotes precedes a bracket.
    opens, closes = (x[np.searchsorted(quotes, x) % 2 == 0] for x in brackets)
    # The depth at the k-th opening bracket: k + 1 opened, less those closed before it.
    return int((np.arange(1, opens.size + 1) - np.searchsorted(closes, opens)).max(initial=0))


def _load(fp):
    """Parse the JSON text of a stream, refusing nesting beyond ``_MAX_DEPTH``."""
    text = fp.read()
    depth = _nesting_depth(text)
    if depth > _MAX_DEPTH:
        raise ValueError(f"JSON nested {depth} deep; a matrix document nests at most {_MAX_DEPTH} deep")
    return json.loads(text)


def read_matrix(path_or_fp) -> np.ndarray:
    """Read one matrix document from a path or text stream."""
    with _opened(path_or_fp, "r") as fp:
        return matrix_from_doc(_load(fp))


def write_matrices(path_or_fp, matrices: dict[str, Any]) -> None:
    """Write named matrices as one JSON object."""
    with _opened(path_or_fp, "w") as fp:
        json.dump({name: matrix_to_doc(M) for name, M in matrices.items()}, fp)
        fp.write("\n")


def read_matrices(path_or_fp) -> dict[str, np.ndarray]:
    """Read named matrices from one JSON object."""
    with _opened(path_or_fp, "r") as fp:
        doc = _load(fp)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object of named matrix documents")
    return {name: matrix_from_doc(sub) for name, sub in doc.items()}
