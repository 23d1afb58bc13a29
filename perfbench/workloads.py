"""The three benchmark workloads: seeded inputs, one operation, output checks.

Each workload is a class built from ``(seed, workdir)``.  ``make_input(k)``
returns the input of operation k (the same for the same seed and k),
``run(inp)`` performs the operation through blockprod's public API or
``blockprod.cli.main`` in-process, and ``check(inp, out)`` returns the names
of the output checks that failed, computed independently of the program.

- ``stream``: ``analyze`` of a freshly generated stream of n = 200 factors at
  s = m = 4 under a declared inf-norm certificate.  The input is the raw
  seeded (B, C) arrays; the factors are constructed inside the operation.
  No factor repeats, so nothing the program could cache is reused: the step
  engine is measured at small order, where per-call overhead dominates.
- ``product``: ``blockprod product --n 100`` on period-4 files at s = m = 32.
  Every member's I - C is solved again 25 times per operation; JSON parsing,
  17-digit formatting and the dense cross-check are on the blocking path.
- ``certify``: one round of five CLI operations on m = 16 sets whose C-blocks
  exceed 1 in every built-in norm but share a Stein scaling: certify-rcp on
  an RCP set and on a non-RCP set, analyze of a periodic cycle, and norm
  --kind lyapunov and --kind auto on one member.  Certificate search with no
  step engine at all.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import blockprod
import blockprod.cli as cli
from blockprod import AnalyzerConfig, BlockUpperTriangular, ContractionCertificate

#: relative tolerance of every numeric comparison with a reference
RTOL = 1e-8


def complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def inf_norms(c: np.ndarray) -> np.ndarray:
    """Max row abs sum of each matrix in a stack of shape (k, m, m)."""
    return np.abs(c).sum(axis=-1).max(axis=-1)


def contracting_stack(rng, k: int, m: int, lo: float, hi: float) -> np.ndarray:
    """k random complex m x m matrices with inf norms drawn from [lo, hi]."""
    c = complex_normal(rng, (k, m, m))
    c *= (rng.uniform(lo, hi, k) / inf_norms(c))[:, None, None]
    return c


def close(actual, expected, rtol: float = RTOL) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        return False
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    return float(np.abs(actual - expected).max(initial=0.0)) <= rtol * scale


def recurrence(members, n: int) -> tuple[np.ndarray, np.ndarray]:
    """X_n and Gamma_n of the periodic product by the plain recurrence."""
    b0, c0 = members[0]
    x = np.zeros_like(b0)
    gamma = np.eye(c0.shape[0], dtype=np.complex128)
    for k in range(n):
        b, c = members[k % len(members)]
        x = b + x @ c
        gamma = gamma @ c
    return x, gamma


def encode(a: np.ndarray) -> list:
    """A complex matrix in the sequence-file encoding ([re, im] scalars)."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def write_sequence(path: Path, kind: str, members) -> None:
    s, m = members[0][0].shape
    doc = {
        "kind": kind,
        "s": s,
        "d": s + m,
        "matrices": [{"B": encode(b), "C": encode(c)} for b, c in members],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``blockprod.cli.main(argv)`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def parse_matrix(text: str, header: str) -> np.ndarray | None:
    """The matrix printed on the lines after the line *header*, or None."""
    lines = text.splitlines()
    if header not in lines:
        return None
    rows = []
    for line in lines[lines.index(header) + 1 :]:
        if not line.startswith("  ["):
            break
        rows.append([complex(tok) for tok in line.strip()[1:-1].split(", ")])
    return np.array(rows, dtype=np.complex128) if rows else None


def line_value(text: str, prefix: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :]
    return None


class StreamWorkload:
    name = "stream"
    n = steps_per_op = 200
    s = m = 4
    max_inf = 0.85
    rate = 0.9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cert = ContractionCertificate(blockprod.INF_NORM, self.rate, "declared")
        self.cfg = AnalyzerConfig(horizon=self.n)

    def make_input(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The (B, C) stacks of operation k, each of n seeded matrices."""
        rng = np.random.default_rng([self.seed, 0, k])
        b = complex_normal(rng, (self.n, self.s, self.m))
        c = contracting_stack(rng, self.n, self.m, 0.5, self.max_inf)
        if inf_norms(c).max() > self.max_inf * (1 + 1e-12):
            raise RuntimeError("stream factor exceeds its declared rate")
        if len({b[i].tobytes() + c[i].tobytes() for i in range(self.n)}) != self.n:
            raise RuntimeError("stream factors are not pairwise distinct")
        return b, c

    def factors(self, inp):
        """The factors of *inp*, constructed (and validated) one by one."""
        b, c = inp
        return (BlockUpperTriangular(self.s, b[i], c[i]) for i in range(self.n))

    def run(self, inp):
        return blockprod.analyze(
            blockprod.Stream(self.factors(inp)), self.cfg, cert=self.cert
        )

    def check(self, inp, report) -> list[str]:
        bad = []
        if report.verdict is not blockprod.Verdict.INCONCLUSIVE:
            bad.append("stream.verdict")
        if len(report.trace) != self.n:
            bad.append("stream.trace_length")
            return bad
        if any(r.bound * (1 + 1e-9) < r.norm_D for r in report.trace):
            bad.append("stream.bound_covers_deviation")
        x = blockprod.explicit_sum(list(self.factors(inp)), self.n)
        expected = float(inf_norms(x[None])[0])
        if abs(report.trace[-1].norm_X - expected) > RTOL * max(1.0, expected):
            bad.append("stream.norm_X_matches_explicit_sum")
        return bad


class ProductWorkload:
    name = "product"
    n = steps_per_op = 100
    s = m = 32
    period = 4
    pool = 8
    max_inf = 0.9

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for i in range(self.pool):
            b = complex_normal(rng, (self.period, self.s, self.m))
            c = contracting_stack(rng, self.period, self.m, 0.6, self.max_inf)
            if inf_norms(c).max() >= 1.0:
                raise RuntimeError("product members would not contract in inf norm")
            members = list(zip(b, c))
            path = workdir / f"product_{i}.json"
            write_sequence(path, "periodic", members)
            self.inputs.append((str(path), members))
        self._reference = {}

    def make_input(self, k: int):
        return self.inputs[k % self.pool]

    def run(self, inp):
        return run_cli(["product", "--input", inp[0], "--n", str(self.n)])

    def reference(self, inp):
        if inp[0] not in self._reference:
            self._reference[inp[0]] = recurrence(inp[1], self.n)
        return self._reference[inp[0]]

    def check(self, inp, out) -> list[str]:
        code, text = out
        bad = []
        if code != 0:
            bad.append("product.exit_code")
        if "dense cross-check: OK (|diff| <= 1e-11)" not in text.splitlines():
            bad.append("product.dense_cross_check")
        x_ref, gamma_ref = self.reference(inp)
        x = parse_matrix(text, "X:")
        if x is None or not close(x, x_ref):
            bad.append("product.X_matches_recurrence")
        gamma = parse_matrix(text, "gamma:")
        if gamma is None or not close(gamma, gamma_ref):
            bad.append("product.gamma_matches_recurrence")
        return bad


class CertifyWorkload:
    name = "certify"
    steps_per_op = 0
    s = m = 16
    members = 3
    pool = 4
    diag_max = 0.3
    superdiag = 0.8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.rounds = []
        for i in range(self.pool):
            cs = self._c_blocks(rng)
            eye = np.eye(self.m)
            limit = complex_normal(rng, (self.s, self.m))
            limits = complex_normal(rng, (self.members, self.s, self.m))
            rcp = [(limit @ (eye - c), c) for c in cs]
            not_rcp = [(l @ (eye - c), c) for l, c in zip(limits, cs)]
            paths = {key: workdir / f"certify_{i}_{key}.json" for key in
                     ("rcp", "not_rcp", "cycle", "matrix")}
            write_sequence(paths["rcp"], "set", rcp)
            write_sequence(paths["not_rcp"], "set", not_rcp)
            write_sequence(paths["cycle"], "periodic", not_rcp)
            paths["matrix"].write_text(json.dumps(encode(cs[0])), encoding="utf-8")
            self.rounds.append(
                ({k: str(p) for k, p in paths.items()}, limit, limits)
            )

    def _c_blocks(self, rng) -> list[np.ndarray]:
        """C_i = q (D_i + N) q^T: q orthogonal and shared, |D_i| <= 0.3, N
        the nilpotent shift with superdiagonal 0.8."""
        m = self.m
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        shift = np.diag(np.full(m - 1, self.superdiag), 1)
        cs = []
        for _ in range(self.members):
            d = rng.uniform(0, self.diag_max, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            cs.append(q @ (np.diag(d) + shift) @ q.T)
        for norm in blockprod.BUILTIN_NORMS:
            if max(blockprod.norm_value(c, norm) for c in cs) < 1.0:
                raise RuntimeError(
                    f"certify C-blocks contract in the built-in {norm.kind} norm"
                )
        return cs

    def make_input(self, k: int):
        return self.rounds[k % self.pool]

    def run(self, inp):
        paths = inp[0]
        return [
            run_cli(["certify-rcp", "--input", paths["rcp"]]),
            run_cli(["certify-rcp", "--input", paths["not_rcp"]]),
            run_cli(["analyze", "--input", paths["cycle"]]),
            run_cli(["norm", "--input", paths["matrix"], "--kind", "lyapunov"]),
            run_cli(["norm", "--input", paths["matrix"], "--kind", "auto"]),
        ]

    def check(self, inp, out) -> list[str]:
        _, limit, limits = inp
        (rc, rcp), (nc, nrcp), (ac, ana), (lc, lyap), (gc, gelf) = out
        s = self.s
        bad = []
        common = parse_matrix(rcp, "common limit:")
        if rc != 0 or rcp.splitlines()[:1] != ["RCP"]:
            bad.append("certify.rcp_verdict")
        elif common is None or not close(common[:s, s:], limit):
            bad.append("certify.rcp_common_limit")
        if nc != 1 or nrcp.splitlines()[:1] != ["NOT_RCP"]:
            bad.append("certify.not_rcp_verdict")
        else:
            pair = line_value(nrcp, "violating pair: ")
            i, j = (int(v) for v in pair.strip("()").split(", ")) if pair else (0, 0)
            li, lj = parse_matrix(nrcp, f"L[{i}]:"), parse_matrix(nrcp, f"L[{j}]:")
            if (
                i == j
                or li is None
                or lj is None
                or not close(li, limits[i])
                or not close(lj, limits[j])
                or parse_matrix(nrcp, "witness point 1:") is None
            ):
                bad.append("certify.not_rcp_witness")
        if (
            ac != 0
            or line_value(ana, "verdict: ") != "CertifiedDiverged"
            or not (line_value(ana, "certificate: ") or "").startswith("lyapunov ")
            or parse_matrix(ana, "witness point 1:") is None
        ):
            bad.append("certify.analyze_diverged")
        value = line_value(lyap, "norm value: ")
        if lc != 0 or value is None or not float(value) < 1.0:
            bad.append("certify.lyapunov_norm_below_1")
        cert = line_value(gelf, "certificate: ") or ""
        rate = cert.rpartition("rate=")[2]
        if gc != 0 or not cert.startswith("gelfand k=") or not 0 <= float(rate or 1) < 1:
            bad.append("certify.gelfand_certificate")
        return bad


WORKLOADS = {w.name: w for w in (StreamWorkload, ProductWorkload, CertifyWorkload)}
