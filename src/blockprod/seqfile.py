"""Sequence-file parsing, report formatting, and CSV trace output.

A sequence file is a JSON document:

    {
      "kind": "periodic" | "finite" | "set",
      "s": 1, "d": 2,
      "matrices": [{"B": [[1]], "C": [[0.5]]}, ...],
      "norm": NAME | "auto",    (optional)
      "rate": 0.9               (optional, declares r)
    }

NAME is the kind of one of ``BUILTIN_NORMS``.  A built-in ``norm`` and a
``rate`` declare a certificate together: give both or neither.  ``"auto"``
asks for a search and takes no ``rate``.  A ``set`` file declares no
certificate, since certify-rcp searches for its own.

Complex scalars are encoded as two-element arrays [re, im]; bare numbers are
read as reals.  Every number must be finite in double precision, and
booleans are not numbers.  All floats are printed with 17 significant digits.

Files are decoded by orjson, and again by json wherever the two documents
could lead to different results (see ``_decoded``).  A number is read as
the double its decimal text rounds to, correctly rounded as by ``float``;
an integer literal is an int first, so ``-0`` reads as +0.  NaN, Infinity,
numbers beyond a double and nesting deeper than json decodes are refused
with the messages json's document gives.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import orjson

from .analyzer import AnalysisReport, RcpVerdict, Verdict, Witness
from .blockform import BlockUpperTriangular
from .errors import ParseError
from .matrixcore import BUILTIN_NORMS, ContractionCertificate, MatrixNorm
from .product import TraceRow

__all__ = [
    "SequenceDocument",
    "parse_sequence_file",
    "parse_sequence_text",
    "parse_matrix_file",
    "norm_by_name",
    "fmt_float",
    "fmt_complex",
    "fmt_matrix",
    "format_report",
    "format_rcp_verdict",
    "TRACE_HEADER",
    "trace_csv_line",
    "write_trace_csv",
]

TRACE_HEADER = "n,norm_X,norm_Y,norm_D,bound,norm_gamma"

_NORMS = {norm.kind: norm for norm in BUILTIN_NORMS}


def norm_by_name(name: str) -> MatrixNorm:
    try:
        return _NORMS[name]
    except KeyError:
        raise ParseError(f"unknown norm name {name!r}") from None


@dataclass(frozen=True)
class SequenceDocument:
    kind: str
    s: int
    d: int
    members: tuple[BlockUpperTriangular, ...]
    certificate: ContractionCertificate | None = None


#: a JSON number is an exact ``int`` or ``float``, so booleans are refused
_REAL = frozenset((int, float))


def _scalar(v):
    if type(v) in _REAL:
        return v
    if type(v) is list and len(v) == 2 and type(v[0]) in _REAL and type(v[1]) in _REAL:
        return complex(v[0], v[1])
    raise ParseError(f"invalid scalar {v!r} (expected a number or [re, im])")


def _whole_block(data: list, cols: int) -> np.ndarray | None:
    """*data* as one complex array when its rows are lists of *cols*
    scalars that are all real or all [re, im] pairs, else None."""
    if any(type(row) is not list or len(row) != cols for row in data):
        return None
    entries = list(itertools.chain.from_iterable(data))
    kinds = set(map(type, entries))
    try:
        if kinds <= _REAL:
            out = np.array(entries, dtype=np.float64).astype(np.complex128)
        elif kinds == {list} and set(map(len, entries)) == {2}:
            parts = list(itertools.chain(*entries))
            if not set(map(type, parts)) <= _REAL:
                return None
            out = np.array(parts, dtype=np.float64).view(np.complex128)
        else:
            return None
    except OverflowError:  # an int too large for a float
        return None
    return out.reshape(len(data), cols)


def _array(data, rows: int, cols: int, what: str) -> np.ndarray:
    """A rows x cols complex block of finite numbers read from nested lists.

    A block of only real scalars or only pairs is converted in one call;
    any other block, valid or not, is read one scalar at a time."""
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"{what} must be a list of {rows} rows")
    out = _whole_block(data, cols)
    if out is None:
        out = _per_scalar(data, rows, cols, what)
    if not np.isfinite(out).all():
        raise ParseError(f"{what} holds a non-finite number")
    return out


def _per_scalar(data: list, rows: int, cols: int, what: str) -> np.ndarray:
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{what} row {i} must hold {cols} scalars")
        try:
            out[i] = [_scalar(v) for v in row]
        except OverflowError:
            raise ParseError(f"{what} holds a number too large for a float") from None
    return out


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _json_document(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError:  # an integer longer than Python's int-conversion limit
        digits = sys.get_int_max_str_digits()
        raise ParseError(
            f"number too large for a float: an integer of more than {digits} digits"
        ) from None


def _decoded(text: str, build):
    """``build(doc)`` for the document *doc* that json decodes from *text*.

    *build* returns its result and the values of *doc* it did not read.
    orjson decodes *text* first, about four times faster.  Its document
    stands for json's when *build* accepts it and leaves no list or object
    unread: the two then differ only in integers outside the 64-bit range,
    which orjson reads as the floats they round to, and *build* rounds
    json's ints to the same floats.  Otherwise json decodes *text* again,
    so that every error is json's or names json's objects: orjson refuses
    NaN, Infinity, numbers beyond a double and malformed text, and accepts
    nesting that json refuses."""
    try:
        out, unread = build(orjson.loads(text))
        if not any(type(v) in (list, dict) for v in unread):
            return out
    except (orjson.JSONDecodeError, ParseError, RecursionError):
        pass
    try:
        return build(_json_document(text))[0]
    except RecursionError as exc:  # a value too deep for the repr of a message
        raise ParseError(f"invalid JSON: {exc}") from None


#: the keys of a sequence document and of its matrix entries
_DOC_KEYS = frozenset(("kind", "s", "d", "matrices", "norm", "rate"))
_ENTRY_KEYS = frozenset(("B", "C"))


def parse_sequence_text(text: str) -> SequenceDocument:
    return _decoded(text, _sequence_document)


def _sequence_document(doc) -> tuple[SequenceDocument, list]:
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    kind = doc.get("kind")
    if kind not in ("periodic", "finite", "set"):
        raise ParseError(f"kind must be periodic, finite, or set, got {kind!r}")
    s, d = doc.get("s"), doc.get("d")
    if type(s) is not int or type(d) is not int or not 1 <= s < d:
        raise ParseError("need integers 1 <= s < d")
    entries = doc.get("matrices")
    if not isinstance(entries, list) or not entries:
        raise ParseError("matrices must be a nonempty list")
    m = d - s
    members = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict) or "B" not in entry or "C" not in entry:
            raise ParseError(f"matrix entry {idx} must carry B and C")
        b = _array(entry["B"], s, m, f"entry {idx} B")
        c = _array(entry["C"], m, m, f"entry {idx} C")
        members.append(BlockUpperTriangular(s, b, c))
    norm = doc.get("norm")
    if norm not in (None, "auto", *_NORMS):
        raise ParseError(f"norm must be {', '.join(_NORMS)}, or auto, got {norm!r}")
    rate = doc.get("rate")
    if rate is not None:
        if type(rate) not in _REAL:
            raise ParseError("rate must be a number")
        rate = _array([[rate]], 1, 1, "rate").real.item()
    if (norm in (None, "auto")) != (rate is None):
        raise ParseError('a built-in norm and a rate go together; "auto" takes no rate')
    cert = None if rate is None else ContractionCertificate(norm_by_name(norm), rate)
    if kind == "set" and cert is not None:
        raise ParseError("a set file declares no certificate; certify-rcp searches for one")
    unread = [v for k, v in doc.items() if k not in _DOC_KEYS]
    for entry in entries:
        unread += [v for k, v in entry.items() if k not in _ENTRY_KEYS]
    return SequenceDocument(kind, s, d, tuple(members), cert), unread


def parse_sequence_file(path) -> SequenceDocument:
    return parse_sequence_text(_read_text(path))


def parse_matrix_file(path) -> np.ndarray:
    """Read a single square matrix: either a bare 2-D array or an object
    with a "matrix" field."""
    return _decoded(_read_text(path), _matrix)


def _matrix(doc) -> tuple[np.ndarray, list]:
    data = doc.get("matrix") if isinstance(doc, dict) else doc
    if not isinstance(data, list) or not data or not isinstance(data[0], list):
        raise ParseError("expected a 2-D array (or an object with a matrix field)")
    n = len(data)
    out = _array(data, n, len(data[0]), "matrix")
    if out.shape[0] != out.shape[1]:
        raise ParseError("matrix must be square")
    unread = [v for k, v in doc.items() if k != "matrix"] if isinstance(doc, dict) else []
    return out, unread


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return fmt_float(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"({fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}j)"


def fmt_matrix(m) -> str:
    """Print *m* one row per line, each entry by the rule of
    :func:`fmt_complex`, through a single ``%`` format for the whole matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    has_imag = m.imag != 0.0
    entry = np.where(
        has_imag,
        np.where(m.imag >= 0, "(%.17g+%.17gj)", "(%.17g-%.17gj)"),
        "%.17g",
    )
    fmt = "\n".join("  [" + ", ".join(row) + "]" for row in entry.tolist())
    # each entry's real part, then its imaginary magnitude where one is printed
    printed = np.stack([np.ones_like(has_imag), has_imag], axis=-1)
    args = np.stack([m.real, np.abs(m.imag)], axis=-1)[printed]
    return fmt % tuple(args.tolist())


def _witness_lines(witness: Witness) -> list[str]:
    lines = [f"witness: {witness.description}"]
    for i, pt in enumerate(witness.points, start=1):
        lines.append(f"witness point {i}:")
        lines.append(fmt_matrix(pt))
    return lines


def format_report(report: AnalysisReport) -> str:
    lines = [f"verdict: {report.verdict.value}"]
    if report.certificate is not None:
        lines.append(f"certificate: {report.certificate.describe()}")
    if report.limit is not None:
        lines.append("limit:")
        lines.append(fmt_matrix(report.limit))
    if report.deviation_bound is not None:
        lines.append(f"deviation bound: {fmt_float(report.deviation_bound)}")
    if report.witness is not None:
        lines.extend(_witness_lines(report.witness))
    return "\n".join(lines) + "\n"


def format_rcp_verdict(verdict: RcpVerdict) -> str:
    lines = ["RCP" if verdict.is_rcp else "NOT_RCP"]
    lines.append(f"certificate: {verdict.certificate.describe()}")
    if verdict.is_rcp:
        lines.append("common limit:")
        lines.append(fmt_matrix(verdict.limit))
    else:
        i, j = verdict.violating_pair
        lines.append(f"violating pair: ({i}, {j})")
        lines.append(f"L[{i}]:")
        lines.append(fmt_matrix(verdict.l_values[i]))
        lines.append(f"L[{j}]:")
        lines.append(fmt_matrix(verdict.l_values[j]))
        if verdict.witness is not None:
            lines.extend(_witness_lines(verdict.witness))
    return "\n".join(lines) + "\n"


def trace_csv_line(r: TraceRow) -> str:
    """The CSV line of one trace row, as it follows :data:`TRACE_HEADER`."""
    return ",".join([str(r.n), *map(fmt_float, r[1:])]) + "\n"


def write_trace_csv(path, lines: Iterable[str]) -> None:
    """Write :data:`TRACE_HEADER` and then *lines*, which
    :func:`trace_csv_line` made, to *path*, so an open text file of such
    lines is copied as it is read."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            fh.writelines(lines)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None
