"""Convergence verdicts for sequences of block upper-triangular matrices and
RCP certification for finite sets.

The right product A_1 A_2 ... converges exactly when the limit candidates
L_n = B_n (I - C_n)^{-1} converge, provided the C-blocks contract uniformly
in one submultiplicative norm.  Periodic and eventually-constant sequences
admit exact verdicts; streams get numerical verdicts with an Inconclusive
escape hatch.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .blockform import BlockUpperTriangular, _conforming, block_mul
from .errors import AnalysisRefusedError, NoContractingNormError, ParseError, ShapeError
from .matrixcore import (
    FROBENIUS,
    ContractionCertificate,
    GelfandCertificate,
    _certificate_search,
    _is_number,
    _norms,
    _stack,
    as_matrix,
    norm_value,  # noqa: F401  (not called here; perfbench/tracing.py patches it)
    require_per_factor,
)
from .product import TraceRow, _run, _stream_chunks, step, trace_row

__all__ = [
    "Periodic",
    "Finite",
    "Stream",
    "AnalyzerConfig",
    "Verdict",
    "Witness",
    "AnalysisReport",
    "RcpVerdict",
    "uniform_certificate",
    "analyze",
    "corollary1_analyze",
    "certify_rcp",
    "cycle_accumulation_points",
]


@dataclass(frozen=True)
class Periodic:
    """The infinite sequence cycling through a fixed finite list, read from
    any iterable of factors."""

    cycle: tuple[BlockUpperTriangular, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycle", tuple(_conforming(self.cycle, "cycle")))


@dataclass(frozen=True)
class Finite:
    """An eventually-constant sequence: the listed members, then the last
    member repeated forever."""

    members: tuple[BlockUpperTriangular, ...]

    def __post_init__(self):
        members = tuple(_conforming(self.members, "finite presentation"))
        object.__setattr__(self, "members", members)

    @property
    def cycle(self) -> tuple[BlockUpperTriangular, ...]:
        """The one-member cycle the sequence ends in."""
        return self.members[-1:]


@dataclass
class Stream:
    """An externally fed sequence; consumed up to the analysis horizon."""

    factors: Iterable[BlockUpperTriangular]


#: consecutive steps a stream's streak test must hold before it fires
_STREAK_WINDOW = 20
DEFAULT_ATOL = 1e-9  # the tolerance of certify_rcp and CLI certify-rcp by default


@dataclass(frozen=True)
class AnalyzerConfig:
    """The tolerance *eps* > 0 of every verdict, and the number of stream
    factors read, an integer >= the streak window of 20; else ParseError.

    Every *eps* test is a Frobenius distance between limit candidates (for
    Corollary 1's streams, between B-blocks; a stream's ball test takes
    their Frobenius norm), whatever the certificate."""

    eps: float = 1e-10
    horizon: int = 10000

    def __post_init__(self):
        if not (_is_number(self.eps) and 0 < self.eps < math.inf):
            raise ParseError(f"eps must be a finite number > 0, got {self.eps!r}")
        window, horizon = _STREAK_WINDOW, self.horizon
        if not (_is_number(horizon, numbers.Integral) and horizon >= window):
            raise ParseError(f"horizon must be an integer >= {window}, got {horizon!r}")


class Verdict(enum.Enum):
    CERTIFIED_CONVERGED = "CertifiedConverged"
    CERTIFIED_DIVERGED = "CertifiedDiverged"
    CONVERGED_NUMERICALLY = "ConvergedNumerically"
    DIVERGED_NUMERICALLY = "DivergedNumerically"
    INCONCLUSIVE = "Inconclusive"


_CONVERGED = (Verdict.CERTIFIED_CONVERGED, Verdict.CONVERGED_NUMERICALLY)


@dataclass(frozen=True, eq=False)
class Witness:
    """Divergence evidence: accumulation points or an unboundedness note."""

    description: str
    points: tuple[np.ndarray, ...] = ()


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    verdict: Verdict
    limit: np.ndarray | None = None
    certificate: ContractionCertificate | GelfandCertificate | None = None
    witness: Witness | None = None
    trace: tuple[TraceRow, ...] = ()
    deviation_bound: float | None = None

    def __post_init__(self):
        if (self.limit is not None) != (self.verdict in _CONVERGED):
            raise ParseError("limit present iff the verdict is a convergence")


def _limit_dense(l: np.ndarray) -> np.ndarray:
    """The limit [[I, L], [0, 0]] of a product whose candidates tend to L."""
    m = l.shape[1]
    return BlockUpperTriangular(l.shape[0], l, np.zeros((m, m))).to_dense()


def uniform_certificate(cs: Sequence[np.ndarray]) -> ContractionCertificate | None:
    """A single norm contracting every matrix in *cs*, or None: the search
    without powers (the built-in norms, then a common Lyapunov scaling).
    A convenience for callers; the library runs the search itself, so that
    a refusal names the search's reason."""
    try:
        return _certificate_search(cs)
    except NoContractingNormError:
        return None


def cycle_accumulation_points(
    cycle: Iterable[BlockUpperTriangular],
) -> list[np.ndarray]:
    """Exact limits of the phase subsequences X_{kp+j} of a periodic product.

    A cycle that repeats a shorter one is read as that one.  The first limit
    is the fixed point of the period's affine map x -> x (C_1 ... C_p) + S,
    the limit candidate of A_1 ... A_p; each next one is one step
    x -> B_j + x C_j from the one before, so the cycle costs one LU solve.
    Every distinct phase limit is returned, in phase order; only exact
    duplicates are dropped.  The cycle is checked as :class:`Periodic`
    checks it.
    """
    cycle = tuple(_conforming(cycle, "cycle"))
    p = next(p for p in range(1, len(cycle) + 1) if cycle[p:] + cycle[:p] == cycle)
    x = functools.reduce(block_mul, cycle[:p]).limit
    points = [x]
    for a in cycle[: p - 1]:
        x = a.b + x @ a.c
        if not any(np.array_equal(x, q) for q in points):
            points.append(x)
    return points


def _certificate_for_members(
    members: Sequence[BlockUpperTriangular],
    cert: ContractionCertificate | None,
    powers: bool = False,
) -> ContractionCertificate | GelfandCertificate:
    """Check a given certificate against every member, by one
    ``_violation`` call on their stacked C-blocks as the step engine makes
    for a chunk, or search the C-blocks for one, with powers of a lone
    distinct C-block if *powers* is set.  A given certificate that is not a
    :class:`ContractionCertificate` raises :class:`InvalidCertificateError`."""
    if cert is not None:
        cert = require_per_factor(cert)
        violation = cert._violation(_stack([a.c for a in members]), 1)
        if violation is not None:
            raise violation
        return cert
    try:
        return _certificate_search([a.c for a in members], powers=powers)
    except NoContractingNormError as exc:
        raise AnalysisRefusedError(
            f"no uniform contraction certificate found for the presentation: {exc}"
        ) from None


def _worst_candidate_pair(
    members: Sequence[BlockUpperTriangular], tol: float
) -> tuple[list[np.ndarray], tuple[int, int] | None]:
    """The limit candidates L_i = B_i (I - C_i)^{-1} of *members*, and the
    pair (i, j), i < j, farthest apart in Frobenius distance when that
    distance exceeds *tol* (the first pair within 1e-15 of it), else None.

    Member i's distances to the members j > i are one ``_norms`` call on
    their differences, so k members take k - 1 calls and never more than
    k - 1 differences at once; a distance whose sum of squares overflows is
    still finite.  Two finite candidates' difference overflows only where a
    part of an entry reaches 2^1023; there the candidates are halved, which
    is exact, and half gaps are ranked against half *tol*, so the farthest
    pair of finite candidates is found at any scale of B."""
    ls = [a.limit for a in members]
    st = _stack(ls)
    scale = 1.0
    if max(np.abs(st.real).max(initial=0), np.abs(st.imag).max(initial=0)) >= 2.0**1023:
        scale, st = 0.5, st * 0.5
    gaps = [
        gap
        for i in range(len(ls) - 1)
        for gap in _norms(st[i] - st[i + 1 :], FROBENIUS).tolist()
    ]
    worst = max(gaps, default=0.0)
    if worst <= tol * scale:
        return ls, None
    pairs = itertools.combinations(range(len(ls)), 2)
    tie = worst - 1e-15 * scale
    return ls, next(pair for pair, gap in zip(pairs, gaps) if gap >= tie)


def _analyze_cycle(
    seq: Periodic | Finite, cfg: AnalyzerConfig, cert: ContractionCertificate | None
) -> AnalysisReport:
    """The Theorem's verdict on the cycle of *seq* under :func:`analyze`'s
    certificate rule; a lone C-block's products are its powers."""
    cycle = seq.cycle
    # a given certificate must hold on every listed member; a search covers the cycle
    listed = seq.members if cert is not None and isinstance(seq, Finite) else cycle
    cert = _certificate_for_members(listed, cert, powers=True)
    ls, pair = _worst_candidate_pair(cycle, cfg.eps)
    if pair is None:
        return AnalysisReport(
            verdict=Verdict.CERTIFIED_CONVERGED,
            limit=_limit_dense(ls[0]),
            certificate=cert,
        )
    return AnalysisReport(
        verdict=Verdict.CERTIFIED_DIVERGED,
        certificate=cert,
        witness=Witness(
            "distinct limit candidates across the cycle; the phase "
            "subsequences of the top-right block accumulate at the listed points",
            tuple(cycle_accumulation_points(cycle)),
        ),
    )


@dataclass
class _StreakDetector:
    """Numerical verdicts on a stream of values v_1, v_2, ... that converge
    exactly when the product does.

    ``update`` takes the next values, a stack, and returns the index of the
    first value at which a test fires with its report: |v_n| leaves the
    ball of radius 1/eps (diverged); 20 consecutive gaps |v_n - v_{n-1}|
    are below eps (converged); 20 consecutive values return near v_{n-2}
    while far from v_{n-1} (diverged, with two accumulation points).  Every
    size and distance is a Frobenius norm, whatever the certificate, so the
    verdict does not depend on the norm that licenses it; all of them are
    evaluated for the whole stack in one ``_norms`` call, and the two
    latest values are carried to the next stack.  *candidate* maps a value
    to its limit candidate.
    """

    cfg: AnalyzerConfig
    cert: ContractionCertificate | GelfandCertificate
    what: str
    candidate: Callable[[np.ndarray], np.ndarray]
    last: list[np.ndarray] = field(default_factory=list)  # the latest two
    small_streak: int = 0
    osc_streak: int = 0

    def update(self, values: np.ndarray) -> tuple[int, AnalysisReport] | None:
        if not len(values):
            return None
        eps = self.cfg.eps
        before = len(self.last)
        # seen[before + i] is values[i], seen[:before] the carried values
        seen = np.concatenate([v[None] for v in self.last] + [values])
        seen.setflags(write=False)
        # |v_n|, v_n - v_{n-1} and v_n - v_{n-2}, in one norm call; a
        # difference past the largest double is inf, a gap no test accepts
        k, t = len(values), len(seen)
        with np.errstate(over="ignore", invalid="ignore"):
            steps = [values, seen[1:] - seen[:-1], seen[2:] - seen[:-2]]
        norms = _norms(np.concatenate(steps), FROBENIUS).tolist()
        sizes, back1, back2 = norms[:k], norms[k : k + t - 1], norms[k + t - 1 :]
        self.last = list(seen[-2:])
        for i, j in enumerate(range(before, t)):
            if sizes[i] > 1.0 / eps:
                return i, AnalysisReport(
                    verdict=Verdict.DIVERGED_NUMERICALLY,
                    certificate=self.cert,
                    witness=Witness(f"{self.what} left the ball of radius 1/eps"),
                )
            if j < 1:
                continue
            self.small_streak = self.small_streak + 1 if back1[j - 1] < eps else 0
            if self.small_streak >= _STREAK_WINDOW:
                return i, AnalysisReport(
                    verdict=Verdict.CONVERGED_NUMERICALLY,
                    limit=_limit_dense(self.candidate(seen[j])),
                    certificate=self.cert,
                )
            if j < 2:
                continue
            # near v_{n-2} while far from v_{n-1}
            oscillating = back2[j - 2] < eps and back1[j - 1] > 100 * eps
            self.osc_streak = self.osc_streak + 1 if oscillating else 0
            if self.osc_streak >= _STREAK_WINDOW:
                return i, AnalysisReport(
                    verdict=Verdict.DIVERGED_NUMERICALLY,
                    certificate=self.cert,
                    witness=Witness(
                        f"two persistent accumulation points of the {self.what}",
                        (self.candidate(seen[j - 1]), self.candidate(seen[j])),
                    ),
                )
        return None


def _analyze_stream(
    seq: Stream, cfg: AnalyzerConfig, cert: ContractionCertificate | None
) -> AnalysisReport:
    if cert is None:
        raise AnalysisRefusedError(
            "stream analysis needs a declared (or Lyapunov) contraction "
            "certificate checked at every step"
        )
    detector = _StreakDetector(cfg, cert, "limit candidate", lambda l: l)
    trace: list[TraceRow] = []
    for state, chunk, done in _run(seq.factors, cert, cfg.horizon):
        fired = detector.update(done.ls)
        taken = len(done.states) if fired is None else fired[0] + 1
        # one public step per factor returns the state the chunk computed:
        # perfbench/tracing.py's self-test counts step and trace_row calls
        for a in chunk[:taken]:
            state = step(state, a, cert)
            trace.append(trace_row(state, cert))
        if fired is not None:
            report = fired[1]
            bound = state.bound if report.limit is not None else None
            return replace(report, trace=tuple(trace), deviation_bound=bound)
    return AnalysisReport(
        verdict=Verdict.INCONCLUSIVE, certificate=cert, trace=tuple(trace)
    )


def analyze(
    seq: Periodic | Finite | Stream,
    cfg: AnalyzerConfig | None = None,
    cert: ContractionCertificate | None = None,
) -> AnalysisReport:
    """Decide convergence of the right product presented by *seq*.

    Periodic and Finite presentations share one branch, a Finite being the
    one-member cycle of its last member.  A given *cert* is checked on every
    listed member.  Else the cycle's C-blocks are searched for one: the
    built-in norms, then powers up to 64 if the cycle has one distinct
    C-block, then a common Lyapunov scaling.
    The verdict is Certified: the cycle converges iff its limit candidates
    lie within ``cfg.eps`` of each other (Frobenius), whatever member it
    starts at; a divergence witness lists every distinct phase limit.
    Streams get numerical verdicts up to the horizon from the step engine,
    which :mod:`blockprod.product` reads and drives in chunks of up to 20
    factors: a stream may be read up to 19 factors past the step where a
    verdict fires (never past the horizon), and a failure at a later step of
    that chunk, raised by a check or by the stream itself, is not raised.
    Every ``cfg.eps`` test, on a cycle or a stream, is a Frobenius distance
    between limit candidates (a stream's size test their Frobenius norm),
    whatever the certificate: the certificate licenses the verdict and
    bounds the deviation, but does not move it.  Raises
    :class:`AnalysisRefusedError` when no certificate is obtained or a limit
    candidate is not finite, :class:`CertificateViolationError` when the data
    contradict a given one, and :class:`InvalidCertificateError` when a given
    one is not a :class:`ContractionCertificate` (a Gelfand certificate bounds
    no factor).
    """
    cfg = cfg or AnalyzerConfig()
    if isinstance(seq, (Periodic, Finite)):
        return _analyze_cycle(seq, cfg, cert)
    if isinstance(seq, Stream):
        return _analyze_stream(seq, cfg, cert)
    raise ParseError(f"unsupported presentation {type(seq).__name__}")


def corollary1_analyze(
    seq: Periodic | Finite | Stream,
    c_limit,
    cfg: AnalyzerConfig | None = None,
) -> AnalysisReport:
    """Convergence test when the C-blocks tend to a fixed matrix *c_limit* of
    spectral radius below one: the product converges iff the B-blocks do, and
    the limit uses B (I - C)^{-1} with the limit C.

    On Periodic and Finite presentations the hypothesis holds only if every
    cycle C-block (for Finite, the last member's) equals *c_limit*; otherwise
    this raises :class:`AnalysisRefusedError` (:class:`ShapeError` if the
    orders differ), and else returns :func:`analyze` of *seq*.  Streams get
    the streak tests on their B-blocks under a certificate for *c_limit*
    from the search with powers that :func:`spectral_certificate` also
    makes; when it finds none, this raises :class:`AnalysisRefusedError`
    naming the search's last reason.  A stream that runs out is
    Inconclusive.
    """
    cfg = cfg or AnalyzerConfig()
    c_limit = as_matrix(c_limit)
    if isinstance(seq, (Periodic, Finite)):
        if seq.cycle[0].c.shape != c_limit.shape:
            raise ShapeError("the C-blocks do not conform to c_limit")
        if not all(np.array_equal(a.c, c_limit) for a in seq.cycle):
            raise AnalysisRefusedError(
                "the C-blocks of a periodic or eventually constant sequence "
                "tend to c_limit only if they equal it"
            )
        return analyze(seq, cfg)
    if not isinstance(seq, Stream):
        raise ParseError(f"unsupported presentation {type(seq).__name__}")
    try:
        cert = _certificate_search([c_limit], powers=True)
    except NoContractingNormError as exc:
        raise AnalysisRefusedError(
            f"could not certify that the limit C-block has spectral radius < 1: {exc}"
        ) from None
    detector = _StreakDetector(
        cfg,
        cert,
        "B-blocks",
        lambda b: BlockUpperTriangular(b.shape[0], b, c_limit).limit,
    )
    read = 0
    for chunk in _stream_chunks(seq.factors, cfg.horizon):
        fired = detector.update(np.array([a.b for a in chunk]))
        if fired is None:
            read += len(chunk)
            continue
        i, report = fired
        a = chunk[i]
        if a.c.shape != c_limit.shape:
            raise ShapeError("the C-blocks do not conform to c_limit")
        with np.errstate(over="ignore"):  # past the doubles, the distance is inf
            if not _norms((a.c - c_limit)[None], FROBENIUS)[0] <= cfg.eps:  # or NaN
                raise AnalysisRefusedError(
                    f"the C-block of stream factor {read + i + 1} is farther than "
                    "eps from c_limit"
                )
        return report
    return AnalysisReport(verdict=Verdict.INCONCLUSIVE, certificate=cert)


@dataclass(frozen=True, eq=False)
class RcpVerdict:
    """Outcome of the finite-set RCP test."""

    is_rcp: bool
    certificate: ContractionCertificate
    l_values: tuple[np.ndarray, ...]
    limit: np.ndarray | None = None
    violating_pair: tuple[int, int] | None = None
    witness: Witness | None = None


def certify_rcp(
    sigma: Iterable[BlockUpperTriangular], atol: float = DEFAULT_ATOL
) -> RcpVerdict:
    """Certify whether every infinite right product from *sigma* converges.

    The set has the property exactly when all members share the same limit
    candidate B (I - C)^{-1}, to within *atol*, a finite number >= 0 (else
    :class:`ParseError`), in every pair: :func:`analyze`'s rule for a
    cycle, on Frobenius distances from ``matrixcore._norms``, finite at any
    scale of B.  A candidate that is not finite raises
    :class:`AnalysisRefusedError`.  On failure, the farthest pair (the
    first within 1e-15 of it) is reported with every distinct phase limit
    of its alternating product as a divergence witness.  Requires one
    common contracting norm over the whole set.
    """
    if not (_is_number(atol) and 0 <= atol < math.inf):
        raise ParseError(f"atol must be a finite number >= 0, got {atol!r}")
    sigma = tuple(_conforming(sigma, "set"))
    cert = _certificate_for_members(sigma, None)
    ls, pair = _worst_candidate_pair(sigma, atol)
    if pair is None:
        return RcpVerdict(
            is_rcp=True,
            certificate=cert,
            l_values=tuple(ls),
            limit=_limit_dense(ls[0]),
        )
    i, j = pair
    return RcpVerdict(
        is_rcp=False,
        certificate=cert,
        l_values=tuple(ls),
        violating_pair=pair,
        witness=Witness(
            f"members {i} and {j} have different limit candidates; the "
            "alternating product accumulates at the listed points",
            tuple(cycle_accumulation_points([sigma[i], sigma[j]])),
        ),
    )
