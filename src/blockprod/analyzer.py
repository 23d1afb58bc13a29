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
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .blockform import BlockUpperTriangular, block_mul
from .errors import AnalysisRefusedError, NoContractingNormError, ShapeError
from .matrixcore import (
    BUILTIN_NORMS,
    ContractionCertificate,
    GelfandCertificate,
    _stein_certificate,
    as_matrix,
    norm_value,
    require_per_factor,
    spectral_certificate,
)
from .product import TraceRow, initial_state, limit_candidate, step, trace_row

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


def _check_conforming(members: Sequence[BlockUpperTriangular], what: str):
    if not members:
        raise ShapeError(f"{what} must be nonempty")
    s, m = members[0].s, members[0].csize
    for a in members[1:]:
        if a.s != s or a.csize != m:
            raise ShapeError(f"all members of a {what} must share the same (s, d)")


@dataclass(frozen=True)
class Periodic:
    """The infinite sequence cycling through a fixed finite list."""

    cycle: tuple[BlockUpperTriangular, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycle", tuple(self.cycle))
        _check_conforming(self.cycle, "cycle")


@dataclass(frozen=True)
class Finite:
    """An eventually-constant sequence: the listed members, then the last
    member repeated forever."""

    members: tuple[BlockUpperTriangular, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        _check_conforming(self.members, "finite presentation")


@dataclass
class Stream:
    """An externally fed sequence; consumed up to the analysis horizon."""

    factors: Iterable[BlockUpperTriangular]


@dataclass(frozen=True)
class AnalyzerConfig:
    eps: float = 1e-10
    horizon: int = 10000
    window: int = 20

    def __post_init__(self):
        counts = (self.horizon, self.window)
        if not all(isinstance(v, numbers.Integral) for v in counts):
            raise ValueError("horizon and window must be integers")
        values = (self.eps, self.horizon, self.window)
        if not all(0 < v < math.inf for v in values):
            raise ValueError("all configuration values must be positive and finite")
        if self.window > self.horizon:
            raise ValueError("window must not exceed horizon")


class Verdict(enum.Enum):
    CERTIFIED_CONVERGED = "CertifiedConverged"
    CERTIFIED_DIVERGED = "CertifiedDiverged"
    CONVERGED_NUMERICALLY = "ConvergedNumerically"
    DIVERGED_NUMERICALLY = "DivergedNumerically"
    INCONCLUSIVE = "Inconclusive"


_CONVERGED = (Verdict.CERTIFIED_CONVERGED, Verdict.CONVERGED_NUMERICALLY)


@dataclass(frozen=True)
class Witness:
    """Divergence evidence: accumulation points or an unboundedness note."""

    description: str
    points: tuple[np.ndarray, ...] = ()


@dataclass(frozen=True)
class AnalysisReport:
    verdict: Verdict
    limit: np.ndarray | None = None
    certificate: ContractionCertificate | GelfandCertificate | None = None
    witness: Witness | None = None
    trace: tuple[TraceRow, ...] = ()
    deviation_bound: float | None = None

    def __post_init__(self):
        if (self.limit is not None) != (self.verdict in _CONVERGED):
            raise ValueError("limit present iff the verdict is a convergence")


def _limit_dense(l: np.ndarray) -> np.ndarray:
    """The limit [[I, L], [0, 0]] of a product whose candidates tend to L."""
    m = l.shape[1]
    return BlockUpperTriangular(l.shape[0], l, np.zeros((m, m))).to_dense()


def uniform_certificate(cs: Sequence[np.ndarray]) -> ContractionCertificate | None:
    """A single norm contracting every matrix in *cs*, or None.

    Tries the built-in norms first (rate = the largest member norm), then a
    common Lyapunov scaling P - sum_i C_i* P C_i = I over the distinct
    members, whose solution, when positive definite, contracts every member
    simultaneously.
    """
    cs = list({(c.shape, c.tobytes()): c for c in map(as_matrix, cs)}.values())
    if not cs:
        raise ValueError("need at least one matrix")
    for norm in BUILTIN_NORMS:
        r = max(norm_value(c, norm) for c in cs)
        if r < 1.0:
            return ContractionCertificate(norm, r, "declared")
    try:
        return _stein_certificate(cs)
    except NoContractingNormError:
        return None


def cycle_accumulation_points(
    cycle: Sequence[BlockUpperTriangular],
) -> list[np.ndarray]:
    """Exact limits of the phase subsequences X_{kp+j} of a periodic product.

    Over one period the top-right block evolves by the affine map
    x -> x (C_{j+1} ... C_{j+p}) + S_j, the blocks of the period's product
    A_{j+1} ... A_{j+p}; each phase limit is the map's fixed point, that
    product's limit candidate.  Every distinct phase limit is returned, in
    first-seen order; only exact duplicates are dropped.
    """
    points: list[np.ndarray] = []
    for j in range(len(cycle)):
        period = functools.reduce(block_mul, [*cycle[j:], *cycle[:j]])
        fixed = limit_candidate(period.b, period.c)
        if not any(np.array_equal(fixed, q) for q in points):
            points.append(fixed)
    return points


def _certificate_for_members(
    members: Sequence[BlockUpperTriangular],
    cert: ContractionCertificate | None,
) -> ContractionCertificate:
    """Check a given certificate against every member, or find one."""
    if cert is not None:
        for i, a in enumerate(members, start=1):
            cert.check(a.c, i)
        return cert
    found = uniform_certificate([a.c for a in members])
    if found is None:
        raise AnalysisRefusedError(
            "no uniform contraction certificate found for the presentation"
        )
    return found


def _worst_candidate_pair(
    members: Sequence[BlockUpperTriangular], tol: float
) -> tuple[list[np.ndarray], tuple[int, int] | None]:
    """The limit candidates L_i = B_i (I - C_i)^{-1} of *members*, and the
    pair (i, j), i < j, farthest apart in Frobenius distance when that
    distance exceeds *tol* (the first pair within 1e-15 of it), else None."""
    ls = [limit_candidate(a.b, a.c) for a in members]
    pairs = itertools.combinations(range(len(ls)), 2)
    gaps = {(i, j): float(np.linalg.norm(ls[i] - ls[j])) for i, j in pairs}
    worst = max(gaps.values(), default=0.0)
    if worst <= tol:
        return ls, None
    return ls, next(pair for pair, gap in gaps.items() if gap >= worst - 1e-15)


def _analyze_periodic(
    cycle: Sequence[BlockUpperTriangular],
    cfg: AnalyzerConfig,
    cert: ContractionCertificate | GelfandCertificate,
) -> AnalysisReport:
    """The Theorem's verdict on a cycle, given a certificate *cert* that
    contracts its C-blocks."""
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


def _stream_factors(
    factors: Iterable[BlockUpperTriangular], horizon: int
) -> Iterator[BlockUpperTriangular]:
    """The first *horizon* factors of a stream, which must all share the
    block orders (s, m) of the first."""
    split = None
    for n, a in enumerate(itertools.islice(factors, horizon), start=1):
        if split is None:
            split = (a.s, a.csize)
        elif (a.s, a.csize) != split:
            raise ShapeError(
                f"stream factor {n} has (s, m) = ({a.s}, {a.csize}); "
                f"the stream began with {split}"
            )
        yield a


@dataclass
class _StreakDetector:
    """Numerical verdicts on a stream of values v_1, v_2, ... that converge
    exactly when the product does.

    ``update`` takes the next value and returns a report once a test fires:
    |v_n| leaves the ball of radius 1/eps (diverged); ``window`` consecutive
    steps have ``step_norm(v_n - v_{n-1}) < eps`` (converged); ``window``
    consecutive values return near v_{n-2} while far from v_{n-1} (diverged,
    with two accumulation points).  *candidate* maps a value to its limit
    candidate.
    """

    cfg: AnalyzerConfig
    cert: ContractionCertificate | GelfandCertificate
    what: str
    step_norm: Callable[[np.ndarray], float]
    candidate: Callable[[np.ndarray], np.ndarray]
    last: list[np.ndarray] = field(default_factory=list)  # the latest three
    small_streak: int = 0
    osc_streak: int = 0

    def update(self, v: np.ndarray) -> AnalysisReport | None:
        eps, window = self.cfg.eps, self.cfg.window
        if float(np.linalg.norm(v)) > 1.0 / eps:
            return AnalysisReport(
                verdict=Verdict.DIVERGED_NUMERICALLY,
                certificate=self.cert,
                witness=Witness(f"{self.what} left the ball of radius 1/eps"),
            )
        last = self.last = self.last[-2:] + [v]
        if len(last) < 2:
            return None
        small = self.step_norm(v - last[-2]) < eps
        self.small_streak = self.small_streak + 1 if small else 0
        if self.small_streak >= window:
            return AnalysisReport(
                verdict=Verdict.CONVERGED_NUMERICALLY,
                limit=_limit_dense(self.candidate(v)),
                certificate=self.cert,
            )
        if len(last) < 3:
            return None
        near_two_back = np.linalg.norm(v - last[0]) < eps
        far_one_back = np.linalg.norm(v - last[1]) > 100 * eps
        self.osc_streak = self.osc_streak + 1 if near_two_back and far_one_back else 0
        if self.osc_streak >= window:
            return AnalysisReport(
                verdict=Verdict.DIVERGED_NUMERICALLY,
                certificate=self.cert,
                witness=Witness(
                    f"two persistent accumulation points of the {self.what}",
                    (self.candidate(last[1]), self.candidate(last[2])),
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
    detector = _StreakDetector(
        cfg, cert, "limit candidate", lambda y: norm_value(y, cert.norm), lambda l: l
    )
    state = None
    trace: list[TraceRow] = []
    for a in _stream_factors(seq.factors, cfg.horizon):
        if state is None:
            state = initial_state(a.s, a.csize)
        state = step(state, a, cert)
        trace.append(trace_row(state, cert))
        report = detector.update(state.l)
        if report is not None:
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

    Periodic and Finite presentations get exact (Certified) verdicts: a cycle
    converges iff its limit candidates all lie within ``cfg.eps`` of each
    other (Frobenius), so the verdict does not depend on the member the cycle
    starts at, and a divergence witness lists every distinct phase limit.  A
    Finite presentation is decided as the one-member cycle of its last
    member.  Streams get numerical verdicts from running the product engine
    up to the horizon.  Raises
    :class:`AnalysisRefusedError` when no contraction certificate can be
    obtained, :class:`CertificateViolationError` when a given one is
    contradicted by the data, and :class:`InvalidCertificateError` when a
    given one is not a :class:`ContractionCertificate` (a Gelfand
    certificate bounds no single factor).
    """
    cfg = cfg or AnalyzerConfig()
    if cert is not None:
        require_per_factor(cert)
    if isinstance(seq, Periodic):
        return _analyze_periodic(
            seq.cycle, cfg, _certificate_for_members(seq.cycle, cert)
        )
    if isinstance(seq, Finite):
        tail = seq.members[-1:]
        if cert is not None:
            cert = _certificate_for_members(seq.members, cert)
        elif (cert := spectral_certificate(tail[0].c)) is None:
            raise AnalysisRefusedError(
                "could not certify contraction of the eventual constant factor"
            )
        return _analyze_periodic(tail, cfg, cert)
    if isinstance(seq, Stream):
        return _analyze_stream(seq, cfg, cert)
    raise TypeError(f"unsupported presentation {type(seq).__name__}")


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
    orders differ).  They then get :func:`analyze`'s verdict, certified by
    the contraction of *c_limit*.  Streams get the streak tests on their
    B-blocks.  Raises :class:`AnalysisRefusedError` when the spectral radius
    of *c_limit* cannot be certified below one.
    """
    cfg = cfg or AnalyzerConfig()
    c_limit = as_matrix(c_limit)
    tail = None
    if isinstance(seq, (Periodic, Finite)):
        tail = seq.cycle if isinstance(seq, Periodic) else seq.members[-1:]
        if tail[0].c.shape != c_limit.shape:
            raise ShapeError("the C-blocks do not conform to c_limit")
        if not all(np.array_equal(a.c, c_limit) for a in tail):
            raise AnalysisRefusedError(
                "the C-blocks of a periodic or eventually constant sequence "
                "tend to c_limit only if they equal it"
            )
    cert = spectral_certificate(c_limit)
    if cert is None:
        raise AnalysisRefusedError(
            "could not certify that the limit C-block has spectral radius < 1"
        )
    if tail is not None:
        return _analyze_periodic(tail, cfg, cert)

    # stream: the streak tests on the B-blocks alone
    detector = _StreakDetector(
        cfg,
        cert,
        "B-blocks",
        lambda y: float(np.linalg.norm(y)),
        lambda b: limit_candidate(b, c_limit),
    )
    for n, a in enumerate(_stream_factors(seq.factors, cfg.horizon), start=1):
        report = detector.update(a.b)
        if report is None:
            continue
        if a.c.shape != c_limit.shape:
            raise ShapeError("the C-blocks do not conform to c_limit")
        if np.linalg.norm(a.c - c_limit) > cfg.eps:
            raise AnalysisRefusedError(
                f"the C-block of stream factor {n} is farther than eps from c_limit"
            )
        return report
    return AnalysisReport(verdict=Verdict.INCONCLUSIVE, certificate=cert)


@dataclass(frozen=True)
class RcpVerdict:
    """Outcome of the finite-set RCP test."""

    is_rcp: bool
    certificate: ContractionCertificate
    l_values: tuple[np.ndarray, ...]
    limit: np.ndarray | None = None
    violating_pair: tuple[int, int] | None = None
    witness: Witness | None = None


def certify_rcp(
    sigma: Sequence[BlockUpperTriangular], atol: float = 1e-9
) -> RcpVerdict:
    """Certify whether every infinite right product from *sigma* converges.

    The set has the property exactly when all members share the same limit
    candidate B (I - C)^{-1}, to within *atol* in every pair (the rule
    :func:`analyze` applies to a cycle).  On failure, the first worst pair
    is reported with every distinct phase limit of its alternating product
    as a divergence witness.  Requires one common contracting norm over the
    whole set.
    """
    if not 0 <= atol < math.inf:
        raise ValueError(f"atol must be a finite number >= 0, got {atol!r}")
    sigma = list(sigma)
    _check_conforming(sigma, "set")
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
