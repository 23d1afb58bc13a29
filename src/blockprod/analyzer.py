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
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .blockform import BlockUpperTriangular
from .errors import AnalysisRefusedError, NoContractingNormError, ShapeError
from .matrixcore import (
    BUILTIN_NORMS,
    ContractionCertificate,
    _stein_certificate,
    norm_value,
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
    k_max: int = 64

    def __post_init__(self):
        values = (self.eps, self.horizon, self.window, self.k_max)
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
    certificate: ContractionCertificate | None = None
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
    common Lyapunov scaling P - sum_i C_i* P C_i = I, whose solution, when
    positive definite, contracts every member simultaneously.
    """
    cs = list(cs)
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
    cycle: Sequence[BlockUpperTriangular], dedupe_tol: float = 1e-9
) -> list[np.ndarray]:
    """Exact limits of the phase subsequences X_{kp+j} of a periodic product.

    Over one period the top-right block evolves by the affine map
    x -> x (C_{j+1} ... C_{j+p}) + S_j; each phase limit is the map's fixed
    point, obtained by a linear solve.  Distinct points (beyond *dedupe_tol*
    in Frobenius distance) are returned in first-seen order.
    """
    p = len(cycle)
    points: list[np.ndarray] = []
    for j in range(p):
        s_acc = np.zeros_like(cycle[0].b)
        gamma = np.eye(cycle[0].csize, dtype=np.complex128)
        for t in range(p):
            a = cycle[(j + t) % p]
            s_acc = a.b + s_acc @ a.c
            gamma = gamma @ a.c
        fixed = limit_candidate(s_acc, gamma)
        if all(np.linalg.norm(fixed - q) > dedupe_tol for q in points):
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


def _analyze_periodic(
    seq: Periodic, cfg: AnalyzerConfig, cert: ContractionCertificate | None
) -> AnalysisReport:
    cert = _certificate_for_members(seq.cycle, cert)
    ls = [limit_candidate(a.b, a.c) for a in seq.cycle]
    spread = max(float(np.linalg.norm(l - ls[0])) for l in ls)
    if spread <= cfg.eps:
        return AnalysisReport(
            verdict=Verdict.CERTIFIED_CONVERGED,
            limit=_limit_dense(ls[0]),
            certificate=cert,
        )
    points = cycle_accumulation_points(seq.cycle, dedupe_tol=100 * cfg.eps)
    return AnalysisReport(
        verdict=Verdict.CERTIFIED_DIVERGED,
        certificate=cert,
        witness=Witness(
            "distinct limit candidates across the cycle; the phase "
            "subsequences of the top-right block accumulate at the listed points",
            tuple(points),
        ),
    )


def _analyze_finite(
    seq: Finite, cfg: AnalyzerConfig, cert: ContractionCertificate | None
) -> AnalysisReport:
    last = seq.members[-1]
    if cert is not None:
        cert = _certificate_for_members(seq.members, cert)
    else:
        cert = spectral_certificate(last.c, cfg.k_max)
        if cert is None:
            raise AnalysisRefusedError(
                "could not certify contraction of the eventual constant factor"
            )
    return AnalysisReport(
        verdict=Verdict.CERTIFIED_CONVERGED,
        limit=_limit_dense(limit_candidate(last.b, last.c)),
        certificate=cert,
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
    cert: ContractionCertificate
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

    Periodic and Finite presentations get exact (Certified) verdicts driven
    by equality of the limit candidates; Streams get numerical verdicts from
    running the product engine up to the horizon.  Raises
    :class:`AnalysisRefusedError` when no contraction certificate can be
    obtained, :class:`CertificateViolationError` when a given one is
    contradicted by the data, and :class:`InvalidCertificateError` when a
    given one is a Gelfand certificate, which bounds no single factor.
    """
    cfg = cfg or AnalyzerConfig()
    if isinstance(seq, Periodic):
        return _analyze_periodic(seq, cfg, cert)
    if isinstance(seq, Finite):
        return _analyze_finite(seq, cfg, cert)
    if isinstance(seq, Stream):
        return _analyze_stream(seq, cfg, cert)
    raise TypeError(f"unsupported presentation {type(seq).__name__}")


def corollary1_analyze(
    seq: Periodic | Finite | Stream,
    c_limit,
    cfg: AnalyzerConfig | None = None,
) -> AnalysisReport:
    """Convergence test when the C-blocks tend to a fixed matrix of spectral
    radius below one: the product converges iff the B-blocks do, and the
    limit uses B (I - C)^{-1} with the limit C."""
    cfg = cfg or AnalyzerConfig()
    c_limit = np.asarray(c_limit, dtype=np.complex128)
    cert = spectral_certificate(c_limit, cfg.k_max)
    if cert is None:
        raise AnalysisRefusedError(
            "could not certify that the limit C-block has spectral radius < 1"
        )
    if isinstance(seq, (Periodic, Finite)):
        members = seq.cycle if isinstance(seq, Periodic) else seq.members
        bs = [a.b for a in members]
        if isinstance(seq, Finite) or max(
            float(np.linalg.norm(b - bs[0])) for b in bs
        ) <= cfg.eps:
            return AnalysisReport(
                verdict=Verdict.CERTIFIED_CONVERGED,
                limit=_limit_dense(limit_candidate(bs[-1], c_limit)),
                certificate=cert,
            )
        points: list[np.ndarray] = []
        for b in bs:
            pt = limit_candidate(b, c_limit)
            if all(np.linalg.norm(pt - q) > 100 * cfg.eps for q in points):
                points.append(pt)
        return AnalysisReport(
            verdict=Verdict.CERTIFIED_DIVERGED,
            certificate=cert,
            witness=Witness(
                "top-right blocks do not settle; accumulation points listed",
                tuple(points),
            ),
        )

    # stream: the streak tests on the B-blocks alone
    detector = _StreakDetector(
        cfg,
        cert,
        "B-blocks",
        lambda y: float(np.linalg.norm(y)),
        lambda b: limit_candidate(b, c_limit),
    )
    for a in _stream_factors(seq.factors, cfg.horizon):
        report = detector.update(a.b)
        if report is not None:
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
    candidate B (I - C)^{-1}.  On failure, the worst pair is reported with
    the accumulation points of its alternating product as a divergence
    witness.  Requires one common contracting norm over the whole set.
    """
    if not 0 <= atol < math.inf:
        raise ValueError(f"atol must be a finite number >= 0, got {atol!r}")
    sigma = list(sigma)
    _check_conforming(sigma, "set")
    cert = uniform_certificate([a.c for a in sigma])
    if cert is None:
        raise AnalysisRefusedError(
            "no common contracting norm found; the set is not certifiably "
            "uniformly contracting"
        )
    ls = [limit_candidate(a.b, a.c) for a in sigma]
    worst = 0.0
    pair = (0, 0)
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            gap = float(np.linalg.norm(ls[i] - ls[j]))
            if gap > worst + 1e-15:
                worst, pair = gap, (i, j)
    if worst <= atol:
        return RcpVerdict(
            is_rcp=True,
            certificate=cert,
            l_values=tuple(ls),
            limit=_limit_dense(ls[0]),
        )
    i, j = pair
    points = cycle_accumulation_points([sigma[i], sigma[j]], dedupe_tol=atol)
    return RcpVerdict(
        is_rcp=False,
        certificate=cert,
        l_values=tuple(ls),
        violating_pair=pair,
        witness=Witness(
            f"members {i} and {j} have different limit candidates; the "
            "alternating product accumulates at the listed points",
            tuple(points),
        ),
    )
