"""Command-line interface.

Subcommands: product, analyze, certify-rcp, norm.  Exit codes: 0 ok/RCP,
1 NOT_RCP, 2 parse error, 3 analysis refused or certificate violated,
4 undecided.  Every library error (:class:`BlockprodError`) maps to one of
them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import sys
import tempfile

import numpy as np

from .analyzer import (
    DEFAULT_ATOL,
    AnalyzerConfig,
    Finite,
    Periodic,
    _certificate_for_members,
    analyze,
    certify_rcp,
)
from .errors import (
    BlockprodError,
    CertificateViolationError,
    NoContractingNormError,
    ParseError,
)
from .matrixcore import BUILTIN_NORMS, lyapunov_scaling, norm_value, spectral_certificate
from .product import _dense_cycle_product, _run, trace_row
from .seqfile import (
    SequenceDocument,
    fmt_float,
    fmt_matrix,
    format_rcp_verdict,
    format_report,
    norm_by_name,
    parse_matrix_file,
    parse_sequence_file,
    trace_csv_line,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_NOT_RCP = 1
EXIT_PARSE = 2
EXIT_REFUSED = 3
EXIT_UNDECIDED = 4


def _load_sequence(path, want_set: bool) -> SequenceDocument:
    doc = parse_sequence_file(path)
    if want_set and doc.kind != "set":
        raise ParseError("this command needs a file of kind 'set'")
    if not want_set and doc.kind == "set":
        raise ParseError("kind 'set' is only valid for certify-rcp")
    return doc


def cmd_product(args) -> int:
    doc = _load_sequence(args.input, want_set=False)
    if args.n < 1:
        raise ParseError("--n must be >= 1")
    cert = _certificate_for_members(doc.members, doc.certificate)
    # a finite file's last member repeats forever
    split = 0 if doc.kind == "periodic" else len(doc.members) - 1
    prefix, cycle = doc.members[:split], doc.members[split:]
    factors = itertools.chain(prefix, itertools.cycle(cycle))
    # the trace lines go to an anonymous temporary file as they are stepped,
    # so memory does not grow with --n, and reach the target only after the
    # engine has finished, so an engine failure writes nothing
    spool = None
    if args.trace:
        spool = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    with spool or contextlib.nullcontext():
        for _, _, done in _run(factors, cert, args.n):
            if spool:
                spool.writelines(trace_csv_line(trace_row(st, cert)) for st in done.states)
        if spool:  # before the report, so that a path it cannot write prints none
            spool.seek(0)
            write_trace_csv(args.trace, spool)
    state = done.states[-1]  # every step was taken, and --n >= 1
    dense = _dense_cycle_product(prefix, cycle, args.n)
    blocks = ((dense[: doc.s, doc.s :], state.x), (dense[doc.s :, doc.s :], state.gamma))
    diffs = [float(np.abs(d - b).max()) for d, b in blocks]
    # the rounding of both products grows with the entries of P_n, so where
    # the absolute rule fails each block's difference is held to 1e-11 max(1,
    # |entry|) of that block, and the line names the rule it was last held to
    rule, ok = "|diff| <= 1e-11", all(e <= 1e-11 for e in diffs)
    if not ok:
        rule = "|diff| <= 1e-11 max(1, |entry|)"
        ok = all(
            e <= 1e-11 * max(1.0, float(np.abs(d).max())) for e, (d, _) in zip(diffs, blocks)
        )
    out = [
        f"n = {state.n}",
        f"certificate: {cert.describe()}",
        "X:",
        fmt_matrix(state.x),
        "gamma:",
        fmt_matrix(state.gamma),
        "L:",
        fmt_matrix(state.l),
        f"deviation bound: {fmt_float(state.bound)}",
        f"dense cross-check: {'OK' if ok else 'FAILED'} ({rule})",
    ]
    print("\n".join(out))
    return EXIT_OK if ok else EXIT_REFUSED


def cmd_analyze(args) -> int:
    doc = _load_sequence(args.input, want_set=False)
    cfg = AnalyzerConfig(eps=args.eps)
    seq = Periodic(doc.members) if doc.kind == "periodic" else Finite(doc.members)
    report = analyze(seq, cfg, cert=doc.certificate)
    sys.stdout.write(format_report(report))
    return EXIT_OK


def cmd_certify_rcp(args) -> int:
    doc = _load_sequence(args.input, want_set=True)
    verdict = certify_rcp(list(doc.members), atol=args.atol)
    sys.stdout.write(format_rcp_verdict(verdict))
    return EXIT_OK if verdict.is_rcp else EXIT_NOT_RCP


def cmd_norm(args) -> int:
    m = parse_matrix_file(args.input)
    if args.kind == "lyapunov":
        norm = lyapunov_scaling(m)
    else:
        given = None if args.kind == "auto" else norm_by_name(args.kind)
        cert = spectral_certificate(m, given)
        if cert is None:
            raise NoContractingNormError(
                "no contraction certificate found "
                "(spectral radius >= 1 suspected, not proven)"
            )
        print(f"certificate: {cert.describe()}")
        norm = cert.norm
    if norm.kind == "lyapunov":
        print("lyapunov scaling P:")
        print(fmt_matrix(norm.scaling))
    print(f"norm value: {fmt_float(norm_value(m, norm))}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared by
    every call, so it must not be changed: parsing does not change it.  It
    names the subcommand and holds no command function, so :func:`main`
    looks the function up at call time."""
    parser = argparse.ArgumentParser(
        prog="blockprod",
        description="Analyze infinite products of block upper-triangular matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="compute a partial right product")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trace", default=None, help="write per-step CSV trace here")

    p = sub.add_parser("analyze", help="decide convergence of the product")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, default=AnalyzerConfig.eps)

    p = sub.add_parser("certify-rcp", help="certify the RCP property of a set")
    p.add_argument("--input", required=True)
    p.add_argument("--atol", type=float, default=DEFAULT_ATOL)

    p = sub.add_parser("norm", help="certify contraction of a single matrix")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--kind",
        choices=("auto", *(norm.kind for norm in BUILTIN_NORMS), "lyapunov"),
        default="auto",
    )
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place where errors become exit codes."""
    args = build_parser().parse_args(argv)
    command = {
        "product": cmd_product,
        "analyze": cmd_analyze,
        "certify-rcp": cmd_certify_rcp,
        "norm": cmd_norm,
    }[args.command]
    try:
        return command(args)
    except ParseError as exc:
        code, message = EXIT_PARSE, f"parse error: {exc}"
    except CertificateViolationError as exc:
        code, message = EXIT_REFUSED, f"certificate violated: {exc}"
    except NoContractingNormError as exc:
        code, message = EXIT_UNDECIDED, f"undecided: {exc}"
    except BlockprodError as exc:
        code, message = EXIT_REFUSED, f"analysis refused: {exc}"
    print(message, file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
