"""Run the blockprod CLI and stream analyses of one source tree on a fixed
set of inputs, and compare the outputs of two trees.

    python tools/differential.py run --src DIR --out FILE
    python tools/differential.py compare A B

``run`` imports ``blockprod`` from DIR (the directory that holds the
package, such as a checkout's ``src``) in this one process and calls
``blockprod.cli.main`` once per run.  The runs are ``product`` (with
``--trace`` to a temporary file), ``analyze``, ``certify-rcp`` and ``norm
--kind`` of each kind, on every file in ``tests/fixtures/`` beside this
script and on seeded periodic, finite and set files: s <= 3, m <= 5, dense,
triangular and nilpotent C-blocks, real or complex, with or without a
declared certificate, and every B-block scaled by 2^k for k in
{-30, 0, 20, 40, 997}; and on exact dyadic pairs, as periodic and set
files (``exact.dyadic_pair`` of ``tests/exact.py``: B = L (I - C) exactly
in binary, with equal or, in every third pair, distinct exact limit
candidates).  Then come library runs of
``analyze(Stream(...), AnalyzerConfig(horizon=n), cert)`` on seeded
streams, s, m <= 4 and n <= 120: converging, period-2 and fresh random
streams, and faulty ones with a violating, a singular or a nonconforming
factor, under declared built-in and Lyapunov certificates, with the same
scales of B; where every C-block is one matrix, ``corollary1_analyze`` of
the stream runs as well.  Their argv is ``analyze(Stream)`` or
``corollary1_analyze(Stream)``, ``--case`` and the case's name, their
stdout the factors read, the verdict, certificate, limit, bound, witness
and trace rows, every float by ``float.hex``, and a library error is
recorded as the code ``error <type>`` with its text on stderr.  The
inputs depend only on SEEDS and on numpy, so two trees get the same
inputs.  FILE gets one JSON line per run: the
argv, the exit code, stdout, stderr and the trace CSV, with file paths
replaced by placeholders and the paths and line numbers of warnings
dropped.  Warnings are shown once per run and place, as a fresh process
shows them, and an exception that is not a library error is recorded as
the code ``raised <type>``.  An ``analyze`` run of a periodic or finite
file and a ``certify-rcp`` run of a set file with m <= 4 also record the
exact verdict of ``tests/exact.py``: whether the limit candidates of the
cycle (a finite file's last member) or of the set are equal.

``compare`` prints the runs whose records differ, grouped by subcommand
and exit-code transition, with the first line that moved in each output,
and exits 1 if any run moved or is in one file only.  For each file it
also prints how many certified verdicts (``CertifiedConverged``,
``CertifiedDiverged``, ``RCP``, ``NOT_RCP``) disagree with the exact one.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import re
import sys
import tempfile
import traceback
import warnings
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

TESTS = Path(__file__).resolve().parents[1] / "tests"
sys.path.append(str(TESTS))
import exact  # noqa: E402  (tests/exact.py, the exact oracle)

FIXTURES = TESTS / "fixtures"
SEEDS = (1, 2)
CASES = 40  # seeded bases per seed
DYADIC_PAIRS = 12  # exact dyadic pairs per seed
SCALE_EXPONENTS = (-30, 0, 20, 40, 997)
STREAM_CASES = 18  # seeded streams per seed, each run at every scale of B
STREAM_KINDS = ("converging", "period-2", "fresh", "violating", "singular",
                "nonconforming")  # fmt: skip
CERT_KINDS = ("inf", "one", "fro", "lyapunov")
#: the rate of the singular streams' inf certificate; C = RATE_NEAR_ONE I
#: passes it, and I - C has the pivots 2^-50 < 1e-14
RATE_NEAR_ONE = 1 - 2.0**-50
NORM_KINDS = ("auto", "inf", "one", "fro", "lyapunov")
FILE_KINDS = ("periodic", "finite", "set")
C_SHAPES = ("dense", "triangular", "nilpotent")
# "/any/dir/name.py:123: " as a warning starts, kept as "name.py: "
WARNING_PLACE = re.compile(r"(?:[^\s:]*[/\\])?([^\s/\\:]+\.py):\d+:")


def _entries(a: np.ndarray):
    """*a* as the nested lists of a sequence file: [re, im] where complex."""
    if not np.iscomplexobj(a):
        return a.tolist()
    return [[[z.real, z.imag] for z in row] for row in a.tolist()]


def _c_block(rng: np.random.Generator, m: int, shape: str, draw) -> np.ndarray:
    if shape == "nilpotent":
        return np.triu(draw(m, m), 1)
    if shape == "triangular":
        # a contracting diagonal under a strong off-diagonal part: the
        # built-in norms often fail, and powers or a Stein solve certify it
        c = np.triu(draw(m, m), 1) * rng.uniform(0.5, 5.0)
        c[np.diag_indices(m)] = rng.uniform(-0.95, 0.95, m)
        return c
    c = draw(m, m)
    radius = np.abs(np.linalg.eigvals(c)).max()
    # spectral radii from 0.2 to 1.05: some sets expand, and are refused
    return c * (rng.uniform(0.2, 1.05) / radius) if radius else c


def _norm(c: np.ndarray, kind: str, lt: np.ndarray | None = None) -> float:
    """The norm *kind* of *c* by numpy alone; a Lyapunov norm, with P = L L*
    and *lt* = L*, is ||L* C L^-*||_2."""
    if kind == "inf":
        return np.abs(c).sum(axis=1).max()
    if kind == "one":
        return np.abs(c).sum(axis=0).max()
    if kind == "fro":
        return np.sqrt((np.abs(c) ** 2).sum())
    return np.linalg.norm(lt @ c @ np.linalg.inv(lt), 2)


def _declared(rng: np.random.Generator, cs: list[np.ndarray]) -> dict:
    """No certificate in a third of the cases, else a declared built-in
    norm whose rate is the largest member norm rounded up to three digits.
    Where that is not below 1, no certificate or the violated rate 0.95,
    half each."""
    if rng.integers(3) == 0:
        return {}
    kind = ("inf", "one", "fro")[rng.integers(3)]
    rate = float(f"{max(_norm(c, kind) for c in cs):.3g}") + 0.001
    if rate >= 1 and rng.integers(2):
        return {}
    return {"norm": kind, "rate": rate if rate < 1 else 0.95}


def generate(directory: Path) -> list[list[str]]:
    """Write the seeded files into *directory* and return the argv of every
    run on them, with *directory* written as ``<gen>``."""
    runs = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for case in range(CASES):
            kind = FILE_KINDS[case % 3]
            s, m, k = (int(v) for v in rng.integers(1, (4, 6, 5)))
            complex_ = bool(rng.integers(2))

            def draw(*size):
                x = rng.standard_normal(size)
                return x + 1j * rng.standard_normal(size) if complex_ else x

            shape = C_SHAPES[rng.integers(3)]
            cs = [_c_block(rng, m, shape, draw) for _ in range(k)]
            if k > 1 and rng.random() < 0.3:  # one C-block shared by all
                cs = [cs[0]] * k
            bs = [draw(s, m) for _ in range(k)]
            cert = {} if kind == "set" else _declared(rng, cs)
            n = int(rng.integers(1, 61))
            stem = f"s{seed}-case{case}-{kind}-{shape}"
            for e in SCALE_EXPONENTS:
                matrices = [
                    {"B": _entries(b * 2.0**e), "C": _entries(c)}
                    for b, c in zip(bs, cs)
                ]
                doc = {"kind": kind, "s": s, "d": s + m, **cert, "matrices": matrices}
                name = f"{stem}-b2^{e}.json"
                (directory / name).write_text(json.dumps(doc))
                path = f"<gen>/{name}"
                if kind == "set":
                    runs.append(["certify-rcp", "--input", path])
                else:
                    runs.append(["product", "--input", path, "--n", str(n)])
                    runs.append(["analyze", "--input", path])
            name = f"{stem}-c.json"
            (directory / name).write_text(json.dumps({"matrix": _entries(cs[0])}))
            path = f"<gen>/{name}"
            runs.extend(["norm", "--input", path, "--kind", k] for k in NORM_KINDS)
        rng = np.random.default_rng([seed, 2])
        for case in range(DYADIC_PAIRS):
            s, m = int(rng.integers(1, 3)), int(rng.integers(1, 5))
            pair = exact.dyadic_pair(rng, s, m, apart=case % 3 == 2)
            matrices = [{"B": _entries(b), "C": _entries(c)} for b, c in pair]
            for kind in ("periodic", "set"):
                name = f"s{seed}-dyadic{case}-{kind}.json"
                doc = {"kind": kind, "s": s, "d": s + m, "matrices": matrices}
                (directory / name).write_text(json.dumps(doc))
                path = f"<gen>/{name}"
                if kind == "set":
                    runs.append(["certify-rcp", "--input", path])
                else:
                    runs.append(["product", "--input", path, "--n", "9"])
                    runs.append(["analyze", "--input", path])
    return runs


def exact_verdict(argv: list[str], path: str) -> str | None:
    """``equal`` or ``distinct``: the exact limit candidates of the cycle
    that ``analyze`` reads from the file at *path*, or of the set that
    ``certify-rcp`` reads; None for any other run, a file whose kind the
    command refuses or that does not read as numbers, m > 4, or a
    singular I - C."""
    if argv[0] not in ("analyze", "certify-rcp"):
        return None
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        kind, blocks = doc["kind"], [(m["B"], m["C"]) for m in doc["matrices"]]
        if (argv[0] == "certify-rcp") != (kind == "set"):
            return None
        members = [(_array(b), _array(c)) for b, c in blocks]
        if kind == "finite":
            members = members[-1:]
        if not members or any(len(c) > exact.MAX_ORDER for _, c in members):
            return None
        same = exact.same_candidates(members)
    except (KeyError, TypeError, ValueError, OverflowError, IndexError):
        return None
    return None if same is None else "equal" if same else "distinct"


def _array(entries) -> np.ndarray:
    """The nested lists of a sequence file as an array: [re, im] pairs are
    complex entries."""
    a = np.array(entries, dtype=float)
    return a[..., 0] + 1j * a[..., 1] if a.ndim == 3 else a


class StreamCase(NamedTuple):
    """A seeded stream: its (B, C) blocks, the horizon, the certificate (a
    built-in norm's name, or "lyapunov" with the Stein solution P) and its
    rate, and whether every C-block is one matrix."""

    name: str
    blocks: list[tuple[np.ndarray, np.ndarray]]
    horizon: int
    norm: str
    p: np.ndarray | None
    rate: float
    constant: bool


def _stein(c: np.ndarray) -> np.ndarray:
    """The Hermitian solution P of P - C* P C = I, by numpy alone: its
    columns stacked solve (I - C^T kron C*) vec P = vec I."""
    m = len(c)
    k = np.eye(m * m) - np.kron(c.T, c.conj().T)
    p = np.linalg.solve(k, np.eye(m).ravel(order="F")).reshape(m, m, order="F")
    return 0.5 * (p + p.conj().T)


def stream_cases() -> list[StreamCase]:
    """The seeded streams, from generators of their own, so that the CLI
    files stay as they are.  Every C-block but a faulty one is scaled to a
    norm between 0.3 and 0.95 times the rate; a converging stream has the
    candidates L + r^n E; a faulty one is a converging one whose factor v
    has a C-block 5% past the rate, C = RATE_NEAR_ONE I under an inf rate
    of RATE_NEAR_ONE, or a C-block of order m + 1."""
    cases = []
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 1])
        for case in range(STREAM_CASES):
            kind = STREAM_KINDS[case % len(STREAM_KINDS)]
            s, m = (int(v) for v in rng.integers(1, 5, 2))
            complex_ = bool(rng.integers(2))

            def draw(*size):
                x = rng.standard_normal(size)
                return x + 1j * rng.standard_normal(size) if complex_ else x

            horizon = int(rng.integers(21, 121))
            length = int(rng.integers(horizon - 10, horizon + 10))
            norm = "inf" if kind == "singular" else CERT_KINDS[rng.integers(4)]
            rate = round(rng.uniform(0.5, 0.95), 3)
            if kind == "singular":
                rate = RATE_NEAR_ONE
            p = lt = None
            if norm == "lyapunov":
                p = _stein(_c_block(rng, m, "triangular", draw))
                lt = np.linalg.cholesky(p).conj().T

            def contracting(size=m, factor=None):
                c = draw(size, size)
                if size != m:  # a nonconforming C-block, in the inf norm
                    return c * (0.5 / _norm(c, "inf"))
                value = _norm(c, norm, lt)
                factor = rng.uniform(0.3, 0.95) if factor is None else factor
                return c * (rate * factor / value) if value else c

            constant = bool(rng.random() < 0.4)
            one_c = contracting()
            cs = [one_c if constant else contracting() for _ in range(length)]
            if kind == "period-2":
                pair = [(draw(s, m), cs[0]), (draw(s, m), cs[1])]
                blocks = [pair[i % 2] for i in range(length)]
            elif kind == "fresh":
                blocks = [(draw(s, m), c) for c in cs]
            else:
                l, e, r = draw(s, m), draw(s, m), rng.uniform(0.2, 0.7)
                blocks = [
                    ((l + r**i * e) @ (np.eye(m) - c), c)
                    for i, c in enumerate(cs, start=1)
                ]
            if kind in ("violating", "singular", "nonconforming"):
                v = int(rng.integers(length))
                if kind == "violating":
                    blocks[v] = (blocks[v][0], contracting(factor=1.05))
                elif kind == "singular":
                    blocks[v] = (blocks[v][0], RATE_NEAR_ONE * np.eye(m))
                else:
                    blocks[v] = (draw(s, m + 1), contracting(m + 1))
            constant &= kind in ("converging", "period-2", "fresh", "nonconforming")
            shape = "constant-c" if constant else "varying-c"
            name = f"s{seed}-stream{case}-{kind}-{norm}-{shape}-s{s}-m{m}-n{horizon}"
            cases.append(StreamCase(name, blocks, horizon, norm, p, rate, constant))
    return cases


def _hex(a) -> str:
    """The entries of *a* row by row, each as the float.hex of its real and
    of its imaginary part."""
    rows = np.atleast_2d(np.asarray(a, dtype=np.complex128)).tolist()
    return " / ".join(
        " ".join(f"{z.real.hex()},{z.imag.hex()}" for z in row) for row in rows
    )


def _print_report(report) -> None:
    print(f"verdict {report.verdict.value}")
    cert = report.certificate
    power = getattr(cert, "power", "")
    print(f"certificate {cert.kind} {cert.norm.kind} {cert.rate.hex()} {power}")
    if cert.norm.kind == "lyapunov":
        print(f"scaling {_hex(cert.norm.scaling)}")
    if report.limit is not None:
        print(f"limit {_hex(report.limit)}")
    if report.deviation_bound is not None:
        print(f"bound {report.deviation_bound.hex()}")
    if report.witness is not None:
        print(f"witness {report.witness.description}")
        for point in report.witness.points:
            print(f"point {_hex(point)}")
    for row in report.trace:
        print("trace", row.n, *(float(v).hex() for v in row[1:]))


def _stream_run(blockprod, case: StreamCase, e: int, corollary: bool):
    """One stream analysis of *case* with B scaled by 2^*e*, printed: 0, or
    ``error <type>`` for a library error, whose text goes to stderr."""
    read = 0

    def factors():
        nonlocal read
        for b, c in case.blocks:
            read += 1
            yield blockprod.BlockUpperTriangular(len(b), b * 2.0**e, c)

    cfg = blockprod.AnalyzerConfig(horizon=case.horizon)
    try:
        if corollary:
            c_limit = case.blocks[0][1]
            stream = blockprod.Stream(factors())
            report = blockprod.corollary1_analyze(stream, c_limit, cfg)
        else:
            if case.p is None:
                norm, kind = blockprod.MatrixNorm(case.norm), "declared"
            else:
                norm, kind = blockprod.lyapunov_norm(case.p), "lyapunov"
            cert = blockprod.ContractionCertificate(norm, case.rate, kind)
            report = blockprod.analyze(blockprod.Stream(factors()), cfg, cert)
    except blockprod.BlockprodError as exc:
        print(f"read {read}")
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return f"error {type(exc).__name__}"
    print(f"read {read}")
    _print_report(report)
    return 0


def stream_runs(blockprod) -> list[tuple[list[str], object]]:
    """The argv and the call of every stream run."""
    runs = []
    for case in stream_cases():
        for e in SCALE_EXPONENTS:
            name = f"{case.name}-b2^{e}"
            for corollary in (False, True)[: 1 + case.constant]:
                command = "corollary1_analyze" if corollary else "analyze"
                call = functools.partial(_stream_run, blockprod, case, e, corollary)
                runs.append(([f"{command}(Stream)", "--case", name], call))
    return runs


def fixture_runs() -> list[list[str]]:
    runs = []
    for path in sorted(FIXTURES.glob("*.json")):
        name = f"<fixtures>/{path.name}"
        runs.append(["product", "--input", name, "--n", "7"])
        runs.append(["analyze", "--input", name])
        runs.append(["certify-rcp", "--input", name])
        runs.extend(["norm", "--input", name, "--kind", k] for k in NORM_KINDS)
    return runs


def _call(run) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # a fresh filter state forgets the warnings already shown
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            try:
                code = run()
            except SystemExit as exc:  # argparse's errors
                code = exc.code
            except Exception as exc:  # a defect: recorded, not raised
                code = f"raised {type(exc).__name__}"
                err.write(traceback.format_exception_only(exc)[-1])
    return code, out.getvalue(), err.getvalue()


def cmd_run(args) -> int:
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import blockprod.cli

    if Path(blockprod.cli.__file__).resolve().parents[1] != src:
        sys.exit(f"blockprod was imported from {blockprod.cli.__file__}, not {src}")
    runs = fixture_runs()
    with tempfile.TemporaryDirectory() as tmp:
        gen = Path(tmp) / "gen"
        gen.mkdir()
        runs += generate(gen)
        trace = Path(tmp) / "trace.csv"
        places = {"<fixtures>": str(FIXTURES), "<gen>": str(gen), "<trace>": str(trace)}

        def expand(arg: str) -> str:
            token = arg.split("/")[0]
            return places[token] + arg[len(token) :] if token in places else arg

        def normalise(text: str) -> str:
            for token, path in places.items():
                text = text.replace(path, token)
            return WARNING_PLACE.sub(r"\1:", text)

        calls = []
        for argv in runs:
            verdict = exact_verdict(argv, expand(argv[2]))
            if argv[0] == "product":
                argv = [*argv, "--trace", "<trace>"]
            call = functools.partial(blockprod.cli.main, [*map(expand, argv)])
            calls.append((argv, call, verdict))
        calls += [(argv, call, None) for argv, call in stream_runs(blockprod)]
        with open(args.out, "w", encoding="utf-8") as fh:
            for argv, call, verdict in calls:
                trace.unlink(missing_ok=True)
                code, out, err = _call(call)
                csv = trace.read_text(encoding="utf-8") if trace.exists() else None
                record = {"argv": argv, "code": code, "stdout": normalise(out),
                          "stderr": normalise(err), "csv": csv,
                          "exact": verdict}  # fmt: skip
                fh.write(json.dumps(record) + "\n")
    print(f"{len(calls)} runs of {src} written to {args.out}")
    return 0


def _load(path) -> dict[tuple, dict]:
    with open(path, encoding="utf-8") as fh:
        return {tuple(r["argv"]): r for r in map(json.loads, fh)}


def _first_moved_line(a: str | None, b: str | None) -> str:
    left = [] if a is None else a.splitlines()
    right = [] if b is None else b.splitlines()
    for i, (x, y) in enumerate(itertools.zip_longest(left, right)):
        if x != y:
            return f"line {i + 1}: {x!r} -> {y!r}"
    return "line endings"


#: the certified verdicts of analyze and certify-rcp, by the first line of
#: their stdout, and the exact verdict each one claims
CLAIMS = {
    "verdict: CertifiedConverged": "equal",
    "verdict: CertifiedDiverged": "distinct",
    "RCP": "equal",
    "NOT_RCP": "distinct",
}


def false_certificates(records) -> tuple[int, int]:
    """How many runs give a certified verdict where an exact verdict is
    recorded, and how many of those disagree with it."""
    claims = [
        (CLAIMS.get(r["stdout"].partition("\n")[0]), r["exact"])
        for r in records
        if r.get("exact") is not None
    ]
    claims = [(claim, truth) for claim, truth in claims if claim is not None]
    return len(claims), sum(claim != truth for claim, truth in claims)


def cmd_compare(args) -> int:
    a, b = _load(args.a), _load(args.b)
    groups = defaultdict(list)
    for argv in sorted(a.keys() & b.keys()):
        ra, rb = a[argv], b[argv]
        fields = [f for f in ("stdout", "stderr", "csv") if ra[f] != rb[f]]
        if fields or ra["code"] != rb["code"]:
            groups[argv[0], ra["code"], rb["code"]].append((argv, fields))
    only = sorted(a.keys() ^ b.keys())
    moved = sum(map(len, groups.values()))
    print(f"{len(a.keys() & b.keys())} runs in both; {moved} moved; "
          f"{len(only)} in one file only")  # fmt: skip
    for path, records in ((args.a, a), (args.b, b)):
        certified, false = false_certificates(records.values())
        print(f"{path}: {false} of {certified} certified verdicts disagree "
              "with the exact verdict")  # fmt: skip
    for (command, code_a, code_b), items in sorted(groups.items(), key=str):
        print(f"{command}, exit {code_a} -> {code_b}: {len(items)} moved")
        for argv, fields in items:
            print("  " + " ".join(argv))
            for f in fields:
                print(f"    {f} {_first_moved_line(a[argv][f], b[argv][f])}")
    for argv in only:
        print(f"only in {args.a if argv in a else args.b}: {' '.join(argv)}")
    return 1 if moved or only else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run one tree's CLI on every input")
    p.add_argument("--src", required=True, help="the directory holding blockprod/")
    p.add_argument("--out", required=True, help="the JSON-lines file to write")
    p = sub.add_parser("compare", help="list the runs that moved from A to B")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
