"""Sequence-file parsing and serialization, report formatting, and CSV
trace output.

A sequence file is a JSON document:

    {
      "kind": "periodic" | "finite" | "set",
      "s": 1, "d": 2,
      "matrices": [{"B": [[1]], "C": [[0.5]]}, ...],
      "norm": "one" | "inf" | "fro" | "auto",   (optional)
      "rate": 0.9                               (optional, declares r)
    }

Complex scalars are encoded as two-element arrays [re, im]; bare numbers are
read as reals.  All floats are printed with 17 significant digits.
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
    "serialize_sequence_document",
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
    norm: str | None = None
    rate: float | None = None

    def declared_certificate(self) -> ContractionCertificate | None:
        """The Declared certificate carried by the file, if any."""
        if self.norm in (None, "auto") or self.rate is None:
            return None
        return ContractionCertificate(norm_by_name(self.norm), self.rate, "declared")


def _scalar(v) -> complex:
    if isinstance(v, bool):
        raise ParseError(f"invalid scalar {v!r}")
    if isinstance(v, (int, float)):
        return complex(v)
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        return complex(v[0], v[1])
    raise ParseError(f"invalid scalar {v!r} (expected a number or [re, im])")


def _array(data, rows: int, cols: int, what: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"{what} must be a list of {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{what} row {i} must hold {cols} scalars")
        for j, v in enumerate(row):
            out[i, j] = _scalar(v)
    return out


def parse_sequence_text(text: str) -> SequenceDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    kind = doc.get("kind")
    if kind not in ("periodic", "finite", "set"):
        raise ParseError(f"kind must be periodic, finite, or set, got {kind!r}")
    s, d = doc.get("s"), doc.get("d")
    if not isinstance(s, int) or not isinstance(d, int) or not 1 <= s < d:
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
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise ParseError("rate must be a number")
        rate = float(rate)
    return SequenceDocument(kind, s, d, tuple(members), norm, rate)


def parse_sequence_file(path) -> SequenceDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_sequence_text(text)


def _scalar_out(z: complex):
    if z.imag == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


def _array_out(m: np.ndarray):
    return [[_scalar_out(complex(v)) for v in row] for row in m]


def serialize_sequence_document(doc: SequenceDocument) -> str:
    out = {
        "kind": doc.kind,
        "s": doc.s,
        "d": doc.d,
        "matrices": [
            {"B": _array_out(a.b), "C": _array_out(a.c)} for a in doc.members
        ],
    }
    if doc.norm is not None:
        out["norm"] = doc.norm
    if doc.rate is not None:
        out["rate"] = doc.rate
    return json.dumps(out, indent=2) + "\n"


def parse_matrix_file(path) -> np.ndarray:
    """Read a single square matrix: either a bare 2-D array or an object
    with a "matrix" field."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
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


def fmt_matrix(m, indent: str = "  ") -> str:
    m = np.atleast_2d(np.asarray(m))
    return "\n".join(
        indent + "[" + ", ".join(fmt_complex(v) for v in row) + "]" for row in m
    )


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
