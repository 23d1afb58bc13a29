import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockprod import (
    AnalysisRefusedError,
    AnalyzerConfig,
    BlockUpperTriangular,
    CertificateViolationError,
    ContractionCertificate,
    Finite,
    INF_NORM,
    InvalidCertificateError,
    Periodic,
    ShapeError,
    Stream,
    Verdict,
    analyze,
    certify_rcp,
    corollary1_analyze,
    cycle_accumulation_points,
    dense_partial_product,
    lyapunov_scaling,
    norm_value,
    spectral_certificate,
    uniform_certificate,
)
from conftest import random_block, random_complex, random_contracting

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
            analyze(Periodic((A_HALF, a2)), cert=spectral_certificate(A_HALF.c))

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

    def test_nilpotent_cycle_uses_lyapunov(self):
        a = BlockUpperTriangular(1, [[1.0, 1.0]], NILPOTENT)
        report = analyze(Periodic((a,)))
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        assert report.certificate.kind == "lyapunov"
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
        # a declared certificate is checked on every member and kept
        assert finite.certificate is tail.certificate is declared


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

    def test_gelfand_certificate_refused_on_empty_stream(self):
        with pytest.raises(InvalidCertificateError):
            analyze(Stream(iter([])), cert=spectral_certificate([[0.5]]))

    def test_exhausted_stream_inconclusive(self):
        report = analyze(Stream(iter([A_HALF, A_TWO])), cert=self.CERT)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_mixed_split_raises(self):
        with pytest.raises(ShapeError):
            analyze(mixed_split_stream(), cert=self.CERT)


class TestAnalyzerConfig:
    @pytest.mark.parametrize("eps", BAD_TOLERANCES + [0.0])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError):
            AnalyzerConfig(eps=eps)

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", 20.5), ("horizon", 100.0), ("window", 2.5), ("window", "5")],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError):
            AnalyzerConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = AnalyzerConfig(horizon=np.int64(50), window=np.int32(5))
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

    @pytest.mark.parametrize("presentation", [Periodic, Finite])
    def test_refuses_c_blocks_other_than_the_limit(self, presentation):
        # with C = 0.5 the product tends to 3 / (1 - 0.5) = 6, not 3 / 0.9
        a = BlockUpperTriangular(1, [[3.0]], [[0.5]])
        with pytest.raises(AnalysisRefusedError):
            corollary1_analyze(presentation((a,)), [[0.1]])

    def test_limit_order_mismatch_raises(self):
        with pytest.raises(ShapeError):
            corollary1_analyze(Periodic((A_HALF,)), NILPOTENT)

    def test_witness_is_the_phase_limits(self):
        report = corollary1_analyze(Periodic((A_HALF, A_TWO)), [[0.5]])
        assert report.verdict is Verdict.CERTIFIED_DIVERGED
        assert len(report.witness.points) == 2
        assert closest(report.witness.points, 8 / 3) < 1e-12
        assert closest(report.witness.points, 10 / 3) < 1e-12

    def test_gelfand_only_limit_certifies_cycle(self):
        # spectral radius 0.5, but only ||C^50|| < 1 shows it, and the Stein
        # solve that analyze() relies on fails
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 7)))
        c = q @ (0.5 * np.eye(7) + 10.0 * np.eye(7, k=1)) @ q.T
        a = BlockUpperTriangular(1, np.ones((1, 7)), c)
        report = corollary1_analyze(Periodic((a,)), c)
        assert report.verdict is Verdict.CERTIFIED_CONVERGED
        assert report.certificate.kind == "gelfand"

    def test_mixed_split_stream_raises(self):
        with pytest.raises(ShapeError):
            corollary1_analyze(mixed_split_stream(), [[0.5]])

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
        assert report.certificate == spectral_certificate([[0.5]])
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

    def test_convergent_cycle_single_point(self):
        points = cycle_accumulation_points([A_HALF, A_QUARTER])
        assert len(points) == 1
        assert points[0][0, 0].real == pytest.approx(2.0)


class TestCertifyRcp:
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
        single = analyze(Periodic((a,)))
        assert single.certificate.kind == "lyapunov"
        assert analyze(Periodic((a, a))).certificate == single.certificate
        assert certify_rcp([a, a]).is_rcp

    def test_common_lyapunov_norm_route(self):
        a1 = BlockUpperTriangular(1, [[1.0, 1.0]], NILPOTENT)
        a2 = BlockUpperTriangular(1, [[0.0, 1.0]], 0.5 * NILPOTENT)
        verdict = certify_rcp([a1, a2])
        assert verdict.certificate.kind == "lyapunov"
        assert not verdict.is_rcp

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
