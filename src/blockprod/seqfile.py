"""Sequence-file parsing, report formatting, and CSV trace output.

A sequence file is a JSON document:

    {
      "kind": "periodic" | "finite" | "set",
      "s": 1, "d": 2,
      "matrices": [{"B": [[1]], "C": [[0.5]]}, ...],
      "norm": "one" | "inf" | "fro" | "auto",   (optional)
      "rate": 0.9                               (optional, declares r)
    }

A built-in ``norm`` and a ``rate`` declare a certificate together: give both
or neither.  ``"auto"`` asks for a search and takes no ``rate``.  The CLI
refuses a declared certificate on a ``set`` file.

Complex scalars are encoded as two-element arrays [re, im]; bare numbers are
read as reals.  Every number must be finite in double precision, and
booleans are not numbers.  All floats are printed with 17 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analyzer import AnalysisReport, RcpVerdict, Verdict, Witness
from .blockform import BlockUpperTriangular
from .errors import ParseError
from .matrixcore import (
    ContractionCertificate,
    FROBENIUS,
    INF_NORM,
    MatrixNorm,
    ONE_NORM,
)
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
    "write_trace_csv",
]

TRACE_HEADER = "n,norm_X,norm_Y,norm_D,bound,norm_gamma"

_NORMS = {"one": ONE_NORM, "inf": INF_NORM, "fro": FROBENIUS}


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
_REAL = (int, float)


def _scalar(v):
    if type(v) in _REAL:
        return v
    if type(v) is list and len(v) == 2 and type(v[0]) in _REAL and type(v[1]) in _REAL:
        return complex(v[0], v[1])
    raise ParseError(f"invalid scalar {v!r} (expected a number or [re, im])")


def _array(data, rows: int, cols: int, what: str) -> np.ndarray:
    """A rows x cols complex block of finite numbers read from nested lists."""
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"{what} must be a list of {rows} rows")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{what} row {i} must hold {cols} scalars")
        try:
            out[i] = [_scalar(v) for v in row]
        except OverflowError:
            raise ParseError(f"{what} holds a number too large for a float") from None
    if not np.isfinite(out).all():
        raise ParseError(f"{what} holds a non-finite number")
    return out


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _decode(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def parse_sequence_text(text: str) -> SequenceDocument:
    doc = _decode(text)
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
    if norm is not None and norm not in ("one", "inf", "fro", "auto"):
        raise ParseError(f"norm must be one, inf, fro, or auto, got {norm!r}")
    rate = doc.get("rate")
    if rate is not None:
        if type(rate) not in _REAL:
            raise ParseError("rate must be a number")
        rate = _array([[rate]], 1, 1, "rate").real.item()
    if (norm in (None, "auto")) != (rate is None):
        raise ParseError('a built-in norm and a rate go together; "auto" takes no rate')
    cert = None if rate is None else ContractionCertificate(norm_by_name(norm), rate)
    return SequenceDocument(kind, s, d, tuple(members), cert)


def parse_sequence_file(path) -> SequenceDocument:
    return parse_sequence_text(_read_text(path))


def parse_matrix_file(path) -> np.ndarray:
    """Read a single square matrix: either a bare 2-D array or an object
    with a "matrix" field."""
    doc = _decode(_read_text(path))
    data = doc.get("matrix") if isinstance(doc, dict) else doc
    if not isinstance(data, list) or not data or not isinstance(data[0], list):
        raise ParseError("expected a 2-D array (or an object with a matrix field)")
    n = len(data)
    out = _array(data, n, len(data[0]), "matrix")
    if out.shape[0] != out.shape[1]:
        raise ParseError("matrix must be square")
    return out


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


def write_trace_csv(path, rows: list[TraceRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in rows:
            fh.write(",".join([str(r.n), *map(fmt_float, r[1:])]) + "\n")
