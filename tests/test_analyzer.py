import functools
import itertools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blockprod import (
    AnalysisRefusedError,
    AnalyzerConfig,
    BlockUpperTriangular,
    CertificateViolationError,
    ContractionCertificate,
    Finite,
    GelfandCertificate,
    INF_NORM,
    InvalidCertificateError,
    Periodic,
    ShapeError,
    Stream,
    Verdict,
    analyze,
    block_mul,
    certify_rcp,
    corollary1_analyze,
    cycle_accumulation_points,
    dense_partial_product,
    lyapunov_norm,
    lyapunov_scaling,
    norm_value,
    spectral_certificate,
    uniform_certificate,
)
from blockprod.analyzer import _certificate_for_members, _worst_candidate_pair
from blockprod.matrixcore import FROBENIUS, ONE_NORM
from blockprod.seqfile import format_report, parse_sequence_file
from conftest import gelfand_only_c, random_block, random_complex, random_contracting

FIXTURES = Path(__file__).parent / "fixtures"

A_HALF = BlockUpperTriangular(1, [[1.0]], [[0.5]])
A_TWO = BlockUpperTriangular(1, [[2.0]], [[0.5]])
A_QUARTER = BlockUpperTriangular(1, [[1.5]], [[0.25]])
NILPOTENT = np.array([[0.0, 2.0], [0.0, 0.0]])
BAD_TOLERANCES = [float("nan"), -1.0, float("inf")]


def mixed_split_stream():
    """A 1x1 factor followed by an s = 2 factor."""
    return Stream(
        iter([A_HALF, BlockUpperTriangular(2, [[1.0], [2.0]], [[0.5]])])
    )


def period_two_stream():
    """Candidates 2 and 6 in turn (s = 2, m = 1), which diverge, under
    P = 1."""
    c = np.array([[0.5]])
    factors = [BlockUpperTriangular(2, [[b], [b]], c) for b in (1.0, 3.0)] * 50
    return factors, c, np.eye(1)


def settling_stream():
    """B_k = (L + 0.7^k N_k)(I - c), k < 300, with ||c||_inf = 0.5: candidates
    that settle at L, under the Stein scaling of c."""
    rng = np.random.default_rng(3)
    c = rng.standard_normal((3, 3))
    c *= 0.5 / norm_value(c, INF_NORM)
    l = rng.standard_normal((2, 3))
    noise = [0.7**k * rng.standard_normal((2, 3)) for k in range(300)]
    factors = [BlockUpperTriangular(2, (l + n) @ (np.eye(3) - c), c) for n in noise]
    return factors, c, lyapunov_scaling(c).scaling


def closest(points, target):
    return min(float(np.abs(p - target).max()) for p in points)


def with_candidate(l, c):
    """The member [[I, L (I - C)], [0, C]], whose limit candidate is L."""
    l, c = np.atleast_2d(l), np.atleast_2d(c)
    return BlockUpperTriangular(l.shape[0], l @ (np.eye(c.shape[0]) - c), c)


@st.composite
def near_tie_cycles(draw, eps=1e-10):
    """Cycles of 1-4 members, s, m <= 3, with C-blocks contracting in the
    inf norm.  The limit candidates are a common L plus multiples of eps
    along one direction, so their pairwise gaps fall on both sides of eps
    (and of the gap to the first member)."""
    s, m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_complex(rng, s, m)
    direction = random_complex(rng, s, m)
    direction /= np.linalg.norm(direction)
    offsets = st.sampled_from([0.0, 0.45, 0.9, -0.9, 1.5, 1e6])
    return tuple(
        with_candidate(base + k * eps * direction, random_contracting(rng, m))
        for k in draw(st.lists(offsets, min_size=p, max_size=p))
    )


class TestAnalyzePeriodic:
    def test_singleton_converges(self):
        report = analyze(Periodic((A_HALF,)))
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        assert np.abs(report.limit - [[1.0, 2.0], [0.0, 0.0]]).max() < 1e-12

    def test_pair_diverges_with_witness(self):
        report = analyze(Periodic((A_HALF, A_TWO)))
        assert report.verdict is Verdict.CERTIFIED_DIVERGED
        assert report.limit is None
        assert closest(report.witness.points, 8 / 3) < 1e-12
        assert closest(report.witness.points, 10 / 3) < 1e-12

    def test_pair_with_matching_candidates_converges(self):
        report = analyze(Periodic((A_HALF, A_QUARTER)))
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        assert np.abs(report.limit - [[1.0, 2.0], [0.0, 0.0]]).max() < 1e-12

    def test_refuses_without_certificate(self):
        grow = BlockUpperTriangular(1, [[1.0]], [[1.5]])
        with pytest.raises(AnalysisRefusedError):
            analyze(Periodic((grow,)))

    def test_declared_violation(self):
        cert = ContractionCertificate(INF_NORM, 0.3, "declared")
        with pytest.raises(CertificateViolationError):
            analyze(Periodic((A_HALF,)), cert=cert)

    def test_gelfand_certificate_refused(self):
        # the Gelfand certificate of the first member says nothing about the
        # second, whose C-block expands: X_40 is about -6649, not 2
        a2 = BlockUpperTriangular(1, [[-4.0]], [[3.0]])
        with pytest.raises(InvalidCertificateError):
            analyze(Periodic((A_HALF, a2)), cert=GelfandCertificate(INF_NORM, 0.5, 2))

    def test_verdict_independent_of_starting_member(self):
        # candidates 2 and 2 +- 0.9e-10: each lies within eps = 1e-10 of 2,
        # but the outer two are 1.8e-10 apart
        a, b, c = (with_candidate(2.0 + d, 0.5) for d in (0.0, 0.9e-10, -0.9e-10))
        for cycle in ((a, b, c), (b, c, a), (c, a, b)):
            report = analyze(Periodic(cycle))
            assert report.verdict is Verdict.CERTIFIED_DIVERGED
            assert len(report.witness.points) == 3
        assert not certify_rcp([a, b, c], atol=1e-10).is_rcp

    def test_witness_lists_phase_limits_closer_than_eps(self):
        # L = 10 and 10 + 5e-10 are 5 eps apart, but the phase limits
        # 10 + 5e-11 / 0.19 and 10 + 4.5e-11 / 0.19 differ by only 2.6e-11
        p = BlockUpperTriangular(1, [[1.0]], [[0.9]])
        q = BlockUpperTriangular(1, [[1.0 + 5e-11]], [[0.9]])
        report = analyze(Periodic((p, q)))
        verdict = certify_rcp([p, q], atol=1e-10)
        assert report.verdict is Verdict.CERTIFIED_DIVERGED
        assert not verdict.is_rcp
        for witness in (report.witness, verdict.witness):
            assert len(witness.points) == 2
            assert closest(witness.points, 10 + 5e-11 / 0.19) < 1e-13
            assert closest(witness.points, 10 + 4.5e-11 / 0.19) < 1e-13

    def test_candidates_factor_each_member_once(self, lu_solves):
        converging = Periodic(tuple(with_candidate(2.0, c) for c in (0.5, 0.25, 0.75)))
        for _ in range(2):
            assert analyze(converging).verdict is Verdict.CERTIFIED_CONVERGED
        assert len(lu_solves) == 3
        # a diverging cycle adds one solve, for the period product's limit;
        # every other phase limit is an affine step of the one before
        lu_solves.clear()
        diverging = Periodic(tuple(with_candidate(l, 0.5) for l in (2.0, 4.0, 3.0)))
        assert analyze(diverging).verdict is Verdict.CERTIFIED_DIVERGED
        assert len(lu_solves) == 3 + 1

    def test_nilpotent_cycle_uses_gelfand(self):
        a = BlockUpperTriangular(1, [[1.0, 1.0]], NILPOTENT)
        report = analyze(Periodic((a,)))
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        assert report.certificate.kind == "gelfand"
        assert np.abs(report.limit[0, 1:] - [1.0, 3.0]).max() < 1e-12


class TestAnalyzeFinite:
    def test_limit_from_last_member(self):
        report = analyze(Finite((A_TWO, A_HALF)))
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        assert np.abs(report.limit - [[1.0, 2.0], [0.0, 0.0]]).max() < 1e-12

    def test_refused_when_tail_uncertifiable(self):
        grow = BlockUpperTriangular(1, [[1.0]], [[1.2]])
        with pytest.raises(AnalysisRefusedError):
            analyze(Finite((A_HALF, grow)))


class TestOneCandidateComparison:
    EPS = 1e-10

    @settings(max_examples=60, deadline=None)
    @given(cycle=near_tie_cycles(eps=EPS))
    def test_cycles_and_sets_share_one_rule(self, cycle):
        cfg = AnalyzerConfig(eps=self.EPS)
        reports = [
            analyze(Periodic(cycle[k:] + cycle[:k]), cfg) for k in range(len(cycle))
        ]
        assert len({r.verdict for r in reports}) == 1
        rcp = certify_rcp(cycle, atol=self.EPS)
        assert (reports[0].verdict is Verdict.CERTIFIED_CONVERGED) == rcp.is_rcp
        for witness in [r.witness for r in reports] + [rcp.witness]:
            assert witness is None or len(witness.points) >= 2

    def test_finite_is_its_one_member_tail(self):
        declared = ContractionCertificate(INF_NORM, 0.5, "declared")
        for cert in (None, declared):
            finite = analyze(Finite((A_TWO, A_HALF)), cert=cert)
            tail = analyze(Periodic((A_HALF,)), cert=cert)
            assert finite.verdict is tail.verdict is Verdict.CERTIFIED_CONVERGED
            assert np.array_equal(finite.limit, tail.limit)
            assert finite.certificate == tail.certificate
        # a declared certificate is checked on every member and kept
        assert finite.certificate is tail.certificate is declared


#: C = 0.5 with B = 1 and B = 1 + 5e-12: the exact limit candidates 2 and
#: 2 + 1e-11 differ, so the exact product of the cycle oscillates
NEAR_TIE = (A_HALF, BlockUpperTriangular(1, [[1 + 5e-12]], [[0.5]]))


class TestExactCandidates:
    """A gap between limit candidates below the tolerance is certified today
    (ROADMAP item 1); these pin the defect until it is mended."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_near_tie_cycle_is_not_certified_converged(self):
        report = analyze(Periodic(NEAR_TIE))
        assert report.verdict is not Verdict.CERTIFIED_CONVERGED

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_near_tie_set_is_not_certified_rcp(self):
        assert certify_rcp(NEAR_TIE).is_rcp is not True

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: the same radii merge the rounding-distinct phase points",
    )
    def test_rounding_distinct_phase_points_are_one_point(self):
        # three members L (I - C_i) built in floating point: their candidates
        # differ from L only by rounding, and the phase points today are 3,
        # within 1.6e-16 of each other
        rng = np.random.default_rng(0)
        l = random_complex(rng, 1, 3)
        cs = [random_complex(rng, 3, 3, 0.15) for _ in range(3)]
        cycle = [BlockUpperTriangular(1, l @ (np.eye(3) - c), c) for c in cs]
        assert len(cycle_accumulation_points(cycle)) == 1


class TestOneCycleRule:
    @pytest.mark.parametrize(
        "c,kind",
        [(gelfand_only_c(), "gelfand"), ([[0.5]], "declared"), (NILPOTENT, "gelfand")],
        ids=["gelfand_k50", "half", "nilpotent"],
    )
    def test_one_matrix_presentations_agree(self, c, kind):
        a = BlockUpperTriangular(1, np.ones((1, np.shape(c)[0])), c)
        reports = [
            analyze(seq) for seq in (Periodic((a,)), Periodic((a, a)), Finite((a,)))
        ]
        for report in reports:
            assert report.verdict is Verdict.CERTIFIED_CONVERGED
            assert report.certificate == reports[0].certificate
            assert np.array_equal(report.limit, reports[0].limit)
        assert reports[0].certificate.kind == kind

    def test_prefix_is_not_searched(self):
        # only the tail must contract; a given certificate covers the prefix
        grow = BlockUpperTriangular(1, [[1.0]], [[1.5]])
        report = analyze(Finite((grow, A_HALF)))
        assert report.certificate == analyze(Periodic((A_HALF,))).certificate
        with pytest.raises(CertificateViolationError):
            analyze(Finite((grow, A_HALF)), cert=ContractionCertificate(INF_NORM, 0.5))

    def test_distinct_c_blocks_get_no_single_matrix_fallback(self):
        # each C-block alone has spectral radius 0.5; their product does not
        c1 = np.array([[0.5, 4.0], [0.0, 0.5]])
        cycle = Periodic(
            tuple(BlockUpperTriangular(1, [[1.0, 1.0]], c) for c in (c1, c1.T))
        )
        assert np.abs(np.linalg.eigvals(c1 @ c1.T)).max() > 1
        with pytest.raises(AnalysisRefusedError, match="no uniform contraction"):
            analyze(cycle)


@st.composite
def square_matrices(draw, max_order=4):
    """Real or complex C of order m <= 4: dense, nilpotent (strictly upper
    triangular), or Jordan-like (lambda I plus a scaled shift), each rotated
    by a random orthogonal Q, with entries of modulus up to about 10."""
    m = draw(st.integers(1, max_order))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["dense", "nilpotent", "jordan"]))
    scale = draw(st.sampled_from([0.1, 0.5, 0.9, 1.0, 2.0, 10.0]))
    if shape == "dense":
        c = scale * random_complex(rng, m, m) / m
    elif shape == "nilpotent":
        c = scale * np.triu(rng.standard_normal((m, m)), 1)
    else:
        lam = draw(st.sampled_from([0.0, 0.3, -0.6, 0.95j, 1.0]))
        c = lam * np.eye(m) + scale * np.eye(m, k=1)
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        c = q @ c @ q.T
    return c


class TestCertificateSearch:
    """Every caller makes the one search: built-in norms, then powers of a
    lone matrix, then Stein."""

    @pytest.mark.parametrize(
        "c,solves",
        [(gelfand_only_c(), 0), (NILPOTENT, 0), ([[1.5]], 1)],
        ids=["gelfand_only", "nilpotent", "expanding"],
    )
    def test_stein_solves_per_one_matrix_cycle(self, stein_solves, c, solves):
        a = BlockUpperTriangular(1, np.ones((1, np.shape(c)[0])), c)
        try:
            analyze(Periodic((a,)))
        except AnalysisRefusedError:
            assert solves == 1
        assert stein_solves == ["schur"] * solves

    def test_distinct_cycle_makes_one_assembled_solve(self, stein_solves):
        cs = (NILPOTENT, 0.5 * NILPOTENT, 0.1 * NILPOTENT.T)
        cycle = Periodic(tuple(BlockUpperTriangular(1, [[1.0, 1.0]], c) for c in cs))
        assert analyze(cycle).certificate.kind == "lyapunov"
        assert stein_solves == ["assembled"]

    def test_refusal_names_the_set_cap(self):
        m = 49
        c = 0.5 * np.eye(m) + 0.9 * np.eye(m, k=1)
        members = [BlockUpperTriangular(1, np.ones((1, m)), x) for x in (c, c.T)]
        with pytest.raises(
            AnalysisRefusedError,
            match="^no uniform contraction certificate found for the presentation: "
            ".*sets are solved up to m = 48",
        ):
            certify_rcp(members)

    def test_declared_k1_is_accepted_per_factor(self):
        cert = spectral_certificate([[0.5]])
        report = analyze(Stream(iter([A_HALF, A_TWO])), cert=cert)
        assert report.verdict is Verdict.INCONCLUSIVE

    @settings(max_examples=80, deadline=None)
    @given(c=square_matrices())
    def test_spectral_certificate_is_the_cycle_certificate(self, c):
        a = BlockUpperTriangular(1, np.ones((1, c.shape[0])), c)
        try:
            found = analyze(Periodic((a,))).certificate
        except AnalysisRefusedError:
            found = None
        assert spectral_certificate(c) == found


class TestPresentationShapes:
    @pytest.mark.parametrize(
        "build", [Periodic, Finite, certify_rcp], ids=["periodic", "finite", "set"]
    )
    def test_empty_refused(self, build):
        with pytest.raises(ShapeError, match="nonempty"):
            build(())

    @pytest.mark.parametrize(
        "build", [Periodic, Finite, certify_rcp], ids=["periodic", "finite", "set"]
    )
    @pytest.mark.parametrize(
        "other",
        [
            BlockUpperTriangular(2, [[1.0], [2.0]], [[0.5]]),
            BlockUpperTriangular(1, [[1.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]]),
        ],
        ids=["other_s", "other_m"],
    )
    def test_mixed_split_refused(self, build, other):
        # the message a stream gets: the item's (s, m), then the first's
        split = re.escape(f" factor 2 has (s, m) = {other.b.shape}; the ")
        with pytest.raises(ShapeError, match=split + r".+ began with \(1, 1\)$"):
            build((A_HALF, other))


class TestAnalyzeStream:
    CERT = ContractionCertificate(INF_NORM, 0.5, "declared")

    def test_requires_certificate(self):
        with pytest.raises(AnalysisRefusedError):
            analyze(Stream(iter([A_HALF])))

    def test_decaying_perturbation_converges(self):
        factors = (
            BlockUpperTriangular(1, [[1.0 + 1.0 / n]], [[0.5]])
            for n in itertools.count(1)
        )
        cfg = AnalyzerConfig(eps=1e-7, horizon=20000)
        report = analyze(Stream(factors), cfg, cert=self.CERT)
        assert report.verdict is Verdict.CONVERGED_NUMERICALLY
        assert report.limit[0, 1].real == pytest.approx(2.0, abs=1e-3)
        assert report.deviation_bound is not None
        assert report.trace[-1].bound >= report.trace[-1].norm_D - 1e-10

    def test_oscillation_detected(self):
        factors = (A_HALF if n % 2 else A_TWO for n in range(10000))
        cfg = AnalyzerConfig(eps=1e-9, horizon=5000)
        report = analyze(Stream(factors), cfg, cert=self.CERT)
        assert report.verdict is Verdict.DIVERGED_NUMERICALLY
        assert len(report.witness.points) == 2

    def test_unbounded_candidate_detected(self):
        factors = (
            BlockUpperTriangular(1, [[2.0**n]], [[0.5]]) for n in range(200)
        )
        cfg = AnalyzerConfig(eps=1e-3, horizon=200)
        report = analyze(Stream(factors), cfg, cert=self.CERT)
        assert report.verdict is Verdict.DIVERGED_NUMERICALLY

    @pytest.mark.parametrize(
        "stream, verdict, n",
        [
            (period_two_stream, Verdict.DIVERGED_NUMERICALLY, 22),
            (settling_stream, Verdict.CONVERGED_NUMERICALLY, 88),
        ],
        ids=["period_two", "settling"],
    )
    def test_verdict_does_not_depend_on_the_certificate(self, stream, verdict, n):
        # every certificate that holds licenses the same verdict, at the same
        # n, with the same limit and witness bits: each streak test is a
        # Frobenius distance between candidates, whatever the norm
        factors, c, p = stream()
        outcomes = set()
        lyapunov = [lyapunov_norm(p), lyapunov_norm(1e30 * p)]
        for norm in [INF_NORM, ONE_NORM, FROBENIUS, *lyapunov]:
            rate = min(1.01 * norm_value(c, norm), 0.999)
            kind = "lyapunov" if norm.kind == "lyapunov" else "declared"
            cert = ContractionCertificate(norm, rate, kind)
            report = analyze(Stream(factors), AnalyzerConfig(horizon=300), cert)
            limit = None if report.limit is None else report.limit.tobytes()
            points = report.witness.points if report.witness else ()
            witness = tuple(q.tobytes() for q in points)
            outcomes.add((report.verdict, report.trace[-1].n, limit, witness))
        assert len(outcomes) == 1
        assert outcomes.pop()[:2] == (verdict, n)

    def test_gelfand_certificate_refused_on_empty_stream(self):
        with pytest.raises(InvalidCertificateError):
            analyze(Stream(iter([])), cert=GelfandCertificate(INF_NORM, 0.5, 2))

    def test_exhausted_stream_inconclusive(self):
        report = analyze(Stream(iter([A_HALF, A_TWO])), cert=self.CERT)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_mixed_split_raises(self):
        with pytest.raises(ShapeError):
            analyze(mixed_split_stream(), cert=self.CERT)

    def test_overflowing_first_candidate_is_refused(self):
        overflow = BlockUpperTriangular(1, [[1e308]], [[0.5]])  # L = 2e308
        with pytest.raises(AnalysisRefusedError, match="not finite"):
            analyze(Stream(iter([overflow, A_HALF])), cert=self.CERT)


@st.composite
def constant_or_geometric_streams(draw):
    """(factors, cert): 120 factors with one C-block and B_n = B, or
    B + q^n N, s, m <= 3 and entries of order 1, under the declared rate
    ||C|| of a built-in norm, which holds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    norm = draw(st.sampled_from([INF_NORM, ONE_NORM, FROBENIUS]))
    c = random_complex(rng, m, m)
    c *= draw(st.floats(0.1, 0.9)) / norm_value(c, norm)
    b, noise = random_complex(rng, s, m), random_complex(rng, s, m)
    q = draw(st.one_of(st.just(0.0), st.floats(0.3, 0.8)))  # 0: constant
    bs = [b + (q**n if q else 0.0) * noise for n in range(120)]
    factors = [BlockUpperTriangular(s, bn, c) for bn in bs]
    return factors, ContractionCertificate(norm, norm_value(c, norm))


HALVES = [BlockUpperTriangular(1, [[1.0 + 0.5**n]], [[0.5]]) for n in range(120)]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
@settings(max_examples=40, deadline=None, report_multiple_bugs=False)
@example(stream=([A_HALF] * 120, TestAnalyzeStream.CERT), k=37)  # left the ball at n = 1
@example(stream=(HALVES, TestAnalyzeStream.CERT), k=-30)  # fires at n = 25, not 55
@example(stream=(HALVES, TestAnalyzeStream.CERT), k=20)  # fires at n = 74, not 55
@given(stream=constant_or_geometric_streams(), k=st.integers(-40, 40))
def test_stream_verdicts_do_not_depend_on_the_units_of_b(stream, k):
    # scaling every B-block by 2^k is exact, and scales X_n, L_n, D_n, Y_n,
    # the limit and the bound by 2^k while Gamma_n stays as it is; the
    # streak tests compare absolute distances with eps, so the verdict moves
    factors, cert = stream
    scale, s = 2.0**k, factors[0].s
    scaled = [BlockUpperTriangular(s, a.b * scale, a.c) for a in factors]
    cfg = AnalyzerConfig(horizon=120)
    base, got = analyze(Stream(factors), cfg, cert), analyze(Stream(scaled), cfg, cert)
    assert got.verdict is base.verdict and len(got.trace) == len(base.trace)
    if base.limit is not None:
        assert np.array_equal(got.limit[:s, s:], base.limit[:s, s:] * scale)
        assert got.deviation_bound == base.deviation_bound * scale
    points = [(p * scale).tobytes() for p in (base.witness.points if base.witness else ())]
    assert [q.tobytes() for q in (got.witness.points if got.witness else ())] == points
    for row, twin in zip(base.trace, got.trace):
        assert twin.n == row.n and twin.norm_gamma == row.norm_gamma
        assert twin[1:5] == tuple(v * scale for v in row[1:5])


class TestAnalyzerConfig:
    @pytest.mark.parametrize("eps", BAD_TOLERANCES + [0.0])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError):
            AnalyzerConfig(eps=eps)

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", 20.5), ("horizon", 100.0)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError):
            AnalyzerConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = AnalyzerConfig(horizon=np.int64(50))
        report = analyze(Stream(iter([A_HALF] * 3)), cfg, cert=TestAnalyzeStream.CERT)
        assert report.verdict is Verdict.INCONCLUSIVE


class TestCorollary1:
    def test_constant_b(self):
        a = BlockUpperTriangular(1, [[3.0]], [[0.5]])
        report = corollary1_analyze(Periodic((a,)), [[0.5]])
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        assert report.limit[0, 1].real == pytest.approx(6.0)

    def test_oscillating_b_diverges(self):
        factors = (
            BlockUpperTriangular(1, [[(-1.0) ** n]], [[0.5]]) for n in range(5000)
        )
        cfg = AnalyzerConfig(eps=1e-9, horizon=4000)
        report = corollary1_analyze(Stream(factors), [[0.5]], cfg)
        assert report.verdict is Verdict.DIVERGED_NUMERICALLY

    def test_nilpotent_limit_c(self):
        a = BlockUpperTriangular(1, [[1.0, 1.0]], NILPOTENT)
        report = corollary1_analyze(Periodic((a,)), NILPOTENT)
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        # (I - C)^{-1} = [[1, 2], [0, 1]]
        assert np.abs(report.limit[0, 1:] - [1.0, 3.0]).max() < 1e-12

    def test_refused_for_expanding_limit(self):
        with pytest.raises(AnalysisRefusedError):
            corollary1_analyze(Periodic((A_HALF,)), [[1.5]])
        grow = BlockUpperTriangular(1, [[1.0]], [[1.5]])
        for seq in (Periodic((grow,)), Finite((A_HALF, grow))):
            with pytest.raises(AnalysisRefusedError):
                corollary1_analyze(seq, [[1.5]])
        # the refusal names the reason of the certificate search
        with pytest.raises(AnalysisRefusedError) as info:
            corollary1_analyze(Stream(iter([grow])), [[1.5]])
        assert str(info.value) == (
            "could not certify that the limit C-block has spectral radius < 1: "
            "Stein solution is not positive definite; spectral radius >= 1 suspected"
        )

    @pytest.mark.parametrize("presentation", [Periodic, Finite])
    def test_refuses_c_blocks_other_than_the_limit(self, presentation):
        # with C = 0.5 the product tends to 3 / (1 - 0.5) = 6, not 3 / 0.9
        a = BlockUpperTriangular(1, [[3.0]], [[0.5]])
        with pytest.raises(AnalysisRefusedError):
            corollary1_analyze(presentation((a,)), [[0.1]])

    def test_limit_order_mismatch_raises(self):
        with pytest.raises(ShapeError):
            corollary1_analyze(Periodic((A_HALF,)), NILPOTENT)

    def test_stream_c_block_past_the_doubles_from_the_limit_is_refused(self):
        # C - c_limit = [[0, 0], [-2e308, 0]] overflows: its Frobenius norm
        # read NaN, which no "> eps" test refuses, so the stream converged
        # numerically, after "overflow encountered in subtract"
        c = np.array([[0.0, 0.0], [-1e308, 0.0]])
        factors = [BlockUpperTriangular(1, [[1.0, 1.0]], c)] * 40
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                AnalysisRefusedError,
                match="the C-block of stream factor 21 is farther than eps from c_limit",
            ):
                corollary1_analyze(Stream(factors), -c, AnalyzerConfig(horizon=40))

    def test_witness_is_the_phase_limits(self):
        report = corollary1_analyze(Periodic((A_HALF, A_TWO)), [[0.5]])
        assert report.verdict is Verdict.CERTIFIED_DIVERGED
        assert len(report.witness.points) == 2
        assert closest(report.witness.points, 8 / 3) < 1e-12
        assert closest(report.witness.points, 10 / 3) < 1e-12

    def test_gelfand_only_limit_certifies_cycle(self):
        c = gelfand_only_c()
        a = BlockUpperTriangular(1, np.ones((1, 7)), c)
        report = corollary1_analyze(Periodic((a,)), c)
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        assert report.certificate.kind == "gelfand"

    def test_mixed_split_stream_raises(self):
        with pytest.raises(ShapeError):
            corollary1_analyze(mixed_split_stream(), [[0.5]])

    def test_exhausted_stream_inconclusive(self):
        report = corollary1_analyze(Stream(iter([A_HALF, A_TWO])), [[0.5]])
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.certificate == spectral_certificate([[0.5]])

    def test_cycles_are_analyze(self):
        for seq in (Periodic((A_HALF, A_TWO)), Finite((A_TWO, A_HALF))):
            report, direct = corollary1_analyze(seq, [[0.5]]), analyze(seq)
            assert report.verdict is direct.verdict
            assert report.certificate == direct.certificate
            assert format_report(report) == format_report(direct)

    def test_stream_refuses_c_blocks_other_than_the_limit(self):
        # the B-blocks settle at once, but with C = 0.5 the product tends to
        # 3 / (1 - 0.5) = 6, not the 3 / 0.9 that c_limit would give
        a = BlockUpperTriangular(1, [[3.0]], [[0.5]])
        with pytest.raises(AnalysisRefusedError, match="stream factor 21"):
            corollary1_analyze(Stream(itertools.repeat(a, 100)), [[0.1]])

    def test_stream_limit_order_mismatch_raises(self):
        # the unbounded test fires without building a candidate from c_limit
        factors = (BlockUpperTriangular(1, [[2.0**n]], [[0.5]]) for n in range(200))
        cfg = AnalyzerConfig(eps=1e-3, horizon=200)
        with pytest.raises(ShapeError):
            corollary1_analyze(Stream(factors), NILPOTENT, cfg)

    def test_finite_uses_the_limit_certificate(self):
        report = corollary1_analyze(Finite((A_TWO, A_HALF)), [[0.5]])
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        assert report.certificate == analyze(Finite((A_TWO, A_HALF))).certificate
        assert np.array_equal(report.limit, analyze(Finite((A_TWO, A_HALF))).limit)
        grow = BlockUpperTriangular(1, [[1.0]], [[1.5]])
        with pytest.raises(AnalysisRefusedError, match="spectral radius"):
            corollary1_analyze(Finite((A_HALF, grow)), [[1.5]])

    def test_agrees_with_analyze_on_shared_hypotheses(self, rng):
        for _ in range(20):
            s = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            c = random_contracting(rng, m)
            members = []
            same_b = bool(rng.integers(0, 2))
            first_b = None
            for _ in range(int(rng.integers(1, 4))):
                a = random_block(rng, s, m)
                b = a.b if first_b is None or not same_b else first_b
                first_b = b if first_b is None else first_b
                members.append(BlockUpperTriangular(s, b, c))
            seq = Periodic(tuple(members))
            assert analyze(seq).verdict is corollary1_analyze(seq, c).verdict


class TestTheoremEquivalence:
    def test_forward_random_eventually_constant(self, rng):
        for _ in range(15):
            s = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            prefix = [random_block(rng, s, m) for _ in range(int(rng.integers(0, 5)))]
            tail = random_block(rng, s, m)
            report = analyze(Finite(tuple(prefix) + (tail,)))
            assert report.verdict is Verdict.CERTIFIED_CONVERGED
            seq = prefix + [tail] * 400
            diff = np.linalg.norm(dense_partial_product(seq, 400) - report.limit)
            assert diff <= 1e-8

    def test_refutation_periodic(self, rng):
        report = analyze(Periodic((A_HALF, A_TWO)))
        assert report.verdict is Verdict.CERTIFIED_DIVERGED
        seq = [A_HALF, A_TWO] * 150
        # consecutive partial products alternate between the two accumulation
        # points, so they stay far apart at every large index
        gaps = [
            np.linalg.norm(
                dense_partial_product(seq, n) - dense_partial_product(seq, n + 1)
            )
            for n in range(200, 260)
        ]
        assert all(g >= 10 * 1e-10 for g in gaps)

    def test_limit_structure(self, rng):
        for _ in range(10):
            s = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            members = tuple(random_block(rng, s, m) for _ in range(3))
            report = analyze(Finite(members))
            assert np.array_equal(report.limit[:s, :s], np.eye(s))
            assert np.all(report.limit[s:, :s] == 0)
            assert np.all(report.limit[s:, s:] == 0)


class TestCycleAccumulationPoints:
    def test_alternating_pair(self):
        points = cycle_accumulation_points([A_HALF, A_TWO])
        assert len(points) == 2
        assert closest(points, 8 / 3) < 1e-12
        assert closest(points, 10 / 3) < 1e-12

    def test_drops_only_exact_duplicates(self):
        p = BlockUpperTriangular(1, [[1.0]], [[0.9]])
        q = BlockUpperTriangular(1, [[1.0 + 5e-11]], [[0.9]])
        assert len(cycle_accumulation_points([p, q])) == 2
        assert len(cycle_accumulation_points([p, p, p])) == 1

    def test_repeated_cycle_is_its_shortest_period(self, rng):
        a, b = random_block(rng, 2, 3), random_block(rng, 2, 3)
        assert len(cycle_accumulation_points([a, a, a, a])) == 1
        points = cycle_accumulation_points([a, b, a, b])
        assert len(points) == 2
        for p, q in zip(points, cycle_accumulation_points([a, b])):
            assert np.array_equal(p, q)

    def test_one_solve_per_call(self, rng, lu_solves):
        cycle = [random_block(rng, 2, 3) for _ in range(4)]
        points = cycle_accumulation_points(cycle)
        assert len(lu_solves) == 1 and len(points) == 4
        # phase j's limit is the fixed point of the period started at member j
        for j, point in enumerate(points):
            rotated = [*cycle[j:], *cycle[:j]]
            fixed = functools.reduce(block_mul, rotated)
            assert np.abs(point - fixed.b - point @ fixed.c).max() < 1e-12

    def test_convergent_cycle_single_point(self):
        points = cycle_accumulation_points([A_HALF, A_QUARTER])
        assert len(points) == 1
        assert points[0][0, 0].real == pytest.approx(2.0)


class TestCertifyRcp:
    def test_overflowing_candidate_is_refused(self):
        # the candidates 1e308 / 0.1 and 1.5e308 / 0.5 are inf; their gap
        # was NaN, and no pair was found
        members = [
            BlockUpperTriangular(1, [[1e308]], [[0.9]]),
            BlockUpperTriangular(1, [[1.5e308]], [[0.5]]),
            A_HALF,
        ]
        with pytest.raises(AnalysisRefusedError, match="not finite"):
            certify_rcp(members)
        with pytest.raises(AnalysisRefusedError, match="not finite"):
            analyze(Periodic(members))

    def test_singleton(self):
        verdict = certify_rcp([A_HALF])
        assert verdict.is_rcp
        assert np.abs(verdict.limit - [[1.0, 2.0], [0.0, 0.0]]).max() < 1e-12

    def test_not_rcp_pair(self):
        verdict = certify_rcp([A_HALF, A_TWO])
        assert not verdict.is_rcp
        assert verdict.violating_pair == (0, 1)
        assert verdict.l_values[0][0, 0].real == pytest.approx(2.0)
        assert verdict.l_values[1][0, 0].real == pytest.approx(4.0)
        assert closest(verdict.witness.points, 8 / 3) < 1e-12
        assert closest(verdict.witness.points, 10 / 3) < 1e-12

    def test_rcp_pair(self):
        verdict = certify_rcp([A_HALF, A_QUARTER])
        assert verdict.is_rcp
        assert np.abs(verdict.limit - [[1.0, 2.0], [0.0, 0.0]]).max() < 1e-12

    def test_order_invariance(self):
        for sigma in itertools.permutations([A_HALF, A_TWO, A_QUARTER]):
            verdict = certify_rcp(list(sigma))
            assert not verdict.is_rcp
            i, j = verdict.violating_pair
            pair = {sigma[i], sigma[j]}
            # the worst pair is always {A_HALF or A_QUARTER, A_TWO} as a set
            assert A_TWO in pair

    def test_duplicate_members_reduce_to_singleton(self):
        verdict = certify_rcp([A_HALF, A_HALF])
        assert verdict.is_rcp
        # spectral radius 0.9, but a scaling of 100 defeats the built-in
        # norms; a repeated C-block must not count twice in the Stein equation
        rot = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
        c = np.diag([1.0, 100.0]) @ (0.9 * rot) @ np.diag([1.0, 0.01])
        a = BlockUpperTriangular(1, [[1.0, 2.0]], c)
        single = uniform_certificate([c])
        assert single.kind == "lyapunov"
        assert uniform_certificate([c, c]) == single
        assert certify_rcp([a, a]).is_rcp
        assert certify_rcp([a, a]).certificate == single

    def test_common_lyapunov_norm_route(self):
        a1 = BlockUpperTriangular(1, [[1.0, 1.0]], NILPOTENT)
        a2 = BlockUpperTriangular(1, [[0.0, 1.0]], 0.5 * NILPOTENT)
        verdict = certify_rcp([a1, a2])
        assert verdict.certificate.kind == "lyapunov"
        assert not verdict.is_rcp

    def test_lyapunov_set_fixture_has_an_exact_stein_solution(self, stein_solves):
        # C_1 = [[0, 1+i], [0, 0]] and C_2 = [[0, 0], [0.5, 0]] have norms
        # sqrt(2) and 0.5 in all three built-in norms, so no built-in norm
        # contracts both; P - C_1* P C_1 - C_2* P C_2 = I is solved by
        # P = diag(2.5, 6), whose rate is sqrt(5/6)
        doc = parse_sequence_file(FIXTURES / "lyapunov_set.json")
        verdict = certify_rcp(list(doc.members))
        assert stein_solves == ["assembled"]
        assert verdict.is_rcp
        cert = verdict.certificate
        assert cert.kind == "lyapunov"
        assert np.array_equal(cert.norm.scaling, np.diag([2.5, 6.0]))
        assert cert.rate == pytest.approx((5 / 6) ** 0.5, rel=1e-15)

    def test_refused_without_common_norm(self):
        grow = BlockUpperTriangular(1, [[1.0]], [[1.5]])
        with pytest.raises(AnalysisRefusedError):
            certify_rcp([A_HALF, grow])

    @pytest.mark.parametrize("atol", BAD_TOLERANCES)
    def test_rejects_bad_atol(self, atol):
        with pytest.raises(ValueError):
            certify_rcp([A_HALF, A_TWO], atol=atol)


class TestUniformCertificate:
    def test_builtin_route(self):
        cert = uniform_certificate([np.array([[0.5]]), np.array([[0.25]])])
        assert cert.kind == "declared"
        assert cert.rate == pytest.approx(0.5)

    def test_lyapunov_route_contracts_all(self):
        cs = [NILPOTENT, 0.1 * NILPOTENT.T]
        cert = uniform_certificate(cs)
        assert cert is not None and cert.kind == "lyapunov"
        for c in cs:
            assert norm_value(c, cert.norm) <= cert.rate < 1.0

    def test_agrees_with_lyapunov_scaling(self):
        # spectral radius 0.5, but a Jordan-like shift of 3.5 makes P badly
        # scaled (||P|| ~ 4.6e9) and the rate about 1 - 1e-10
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 7)))
        c = q @ (0.5 * np.eye(7) + 3.5 * np.eye(7, k=1)) @ q.T
        norm = lyapunov_scaling(c)
        cert = uniform_certificate([c])
        assert cert is not None and cert.kind == "lyapunov"
        assert np.array_equal(cert.norm.scaling, norm.scaling)
        assert cert.rate == norm_value(c, norm) < 1.0
        assert certify_rcp([BlockUpperTriangular(1, np.ones((1, 7)), c)]).is_rcp

    def test_none_when_hopeless(self):
        assert uniform_certificate([np.array([[2.0]])]) is None


def reference_pair(members, tol):
    """The worst pair by one np.linalg.norm call per pair: the first pair
    within 1e-15 of the largest gap, if that exceeds *tol*."""
    ls = [a.limit for a in members]
    pairs = itertools.combinations(range(len(ls)), 2)
    gaps = {(i, j): float(np.linalg.norm(ls[i] - ls[j])) for i, j in pairs}
    worst = max(gaps.values(), default=0.0)
    if worst <= tol:
        return gaps, None
    return gaps, next(pair for pair, gap in gaps.items() if gap >= worst - 1e-15)


@st.composite
def candidate_sets(draw):
    """1-5 members, s, m <= 4, with C-blocks contracting in the inf norm and
    limit candidates on one line through a base point: the offsets repeat,
    tie within 1e-15 and vary in size, and the scale reaches 1e150, where
    every sum of squares is still finite."""
    k, s, m = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-30, 1e-3, 1.0, 1e20, 1e150]))
    base, direction = random_complex(rng, s, m), random_complex(rng, s, m)
    offsets = st.sampled_from([0.0, 1.0, -1.0, 2.0, 1.0 + 4e-16, -1.0 - 4e-16, 3.0])
    return tuple(
        with_candidate(scale * (base + t * direction), random_contracting(rng, m))
        for t in draw(st.lists(offsets, min_size=k, max_size=k))
    )


class TestWorstCandidatePair:
    @settings(max_examples=150, deadline=None)
    @given(members=candidate_sets(), tol_choice=st.integers(0, 12))
    def test_matches_a_loop_over_pairs(self, members, tol_choice):
        gaps, _ = reference_pair(members, 0.0)
        # no tolerance, a tolerance that is one of the gaps, or a loose one
        values = sorted(gaps.values())
        tol = [0.0, *values, 1e300][tol_choice % (len(values) + 2)]
        _, expected = reference_pair(members, tol)
        ls, pair = _worst_candidate_pair(members, tol)
        assert pair == expected
        assert all(np.array_equal(l, a.limit) for l, a in zip(ls, members))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_one_norm_call_per_member_but_the_last(self, rng, norm_calls, k):
        members = [random_block(rng, 2, 3) for _ in range(k)]
        norm_calls.clear()  # the norms that scaled the random C-blocks
        _worst_candidate_pair(members, 0.0)
        # member i's gaps to the k - 1 - i members after it
        assert norm_calls == list(range(k - 1, 0, -1))

    def test_given_certificate_is_checked_by_one_norm_call(self, rng, norm_calls):
        members = [random_block(rng, 2, 3, cnorm=0.8) for _ in range(4)]
        cert = ContractionCertificate(INF_NORM, 0.8)
        norm_calls.clear()  # the norms that scaled the random C-blocks
        assert _certificate_for_members(members, cert) is cert
        assert norm_calls == [4]
        # the first member above the rate is named, as by check on each
        norm_calls.clear()
        members[2] = BlockUpperTriangular(2, members[2].b, 0.9 * np.eye(3))
        members[3] = BlockUpperTriangular(2, members[3].b, 0.95 * np.eye(3))
        with pytest.raises(CertificateViolationError) as exc:
            _certificate_for_members(members, cert)
        assert (exc.value.step, exc.value.value) == (3, 0.9)
        assert norm_calls == [4]

    @pytest.mark.parametrize("name", ["huge_b_cycle.json", "huge_b_set.json"])
    def test_huge_candidates_name_the_farthest_pair(self, name):
        # every gap of these candidates near 2^997 overflows a plain sum of
        # squares; scaled by 2^-1000 the plain norms rank them
        members = parse_sequence_file(FIXTURES / name).members
        ls, pair = _worst_candidate_pair(members, 1e-10)
        scaled = {
            (i, j): np.linalg.norm((ls[i] - ls[j]) * 2.0**-1000)
            for i, j in itertools.combinations(range(len(ls)), 2)
        }
        assert pair == max(scaled, key=scaled.get) == (1, 2)
        assert certify_rcp(members).violating_pair == pair
        assert analyze(Periodic(members)).verdict is Verdict.CERTIFIED_DIVERGED

    @pytest.mark.parametrize("unit", [1.0, 1j])
    def test_differences_above_the_largest_double(self, unit):
        # the gaps (0, 1) and (1, 2) are 3e308 and 3.1e308, beyond the
        # largest double, and a plain difference of the candidates overflows
        c = np.zeros((1, 1))
        members = [
            BlockUpperTriangular(1, np.array([[b * unit]]), c)
            for b in (1.5e308, -1.5e308, 1.6e308)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, pair = _worst_candidate_pair(members, 1e-10)
            assert pair == (1, 2)
            assert _worst_candidate_pair(members, 1e308)[1] == (1, 2)
            assert _worst_candidate_pair(members[:1] * 2, 1e-10)[1] is None
