"""The exact oracle of tests/exact.py, and the north star's correctness
claims stated against it: a Certified verdict and a certified deviation
bound hold for the exact inputs."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import exact
from blockprod import (
    BlockUpperTriangular,
    ContractionCertificate,
    INF_NORM,
    Periodic,
    Verdict,
    analyze,
    certify_rcp,
    initial_state,
    step,
)
from conftest import random_complex


def as_float(l) -> np.ndarray:
    return np.array([[complex(float(z.re), float(z.im)) for z in row] for row in l])


class TestOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_candidates_agree_with_the_library_to_rounding(self, rng, m):
        for s in (1, 3):
            a = BlockUpperTriangular(
                s, random_complex(rng, s, m), random_complex(rng, m, m, 0.2)
            )
            got = as_float(exact.candidate(a))
            assert np.abs(got - a.limit).max() <= 1e-13 * max(1.0, np.abs(got).max())

    def test_an_exact_solution_is_exact(self):
        # B = L (I - C) in binary: L = 2 exactly, and the limit candidate too
        c = np.array([[0.5, 0.25], [0.0, 0.75]])
        b = np.array([[2.0, 2.0]]) @ (np.eye(2) - c)
        assert exact.candidate((b, c)) == exact.matrix([[2.0, 2.0]])
        assert exact.same_candidates([(b, c), ([[1.0, 0.5]], [[0.5, 0.0], [0.0, 0.75]])])

    def test_singular_i_minus_c_has_no_candidate(self):
        assert exact.candidate(([[1.0]], [[1.0]])) is None
        assert exact.same_candidates([([[1.0]], [[0.5]]), ([[1.0]], [[1.0]])]) is None

    def test_a_one_ulp_gap_is_seen(self):
        b = 1.0 + 2.0**-52
        assert exact.same_candidates([([[1.0]], [[0.5]]), ([[b]], [[0.5]])]) is False

    def test_deviations_agree_with_the_engine_to_rounding(self, rng):
        cert = ContractionCertificate(INF_NORM, 0.9)
        factors = [
            BlockUpperTriangular(2, random_complex(rng, 2, 3), random_complex(rng, 3, 3, 0.1))
            for _ in range(6)
        ]
        state = initial_state(2, 3)
        for a, d in zip(factors, exact.deviations(factors)):
            state = step(state, a, cert)
            assert np.abs(as_float(d) - state.d_dev).max() <= 1e-13

    @pytest.mark.parametrize("apart", [False, True])
    def test_dyadic_pairs_are_exact(self, apart):
        pair = exact.dyadic_pair(np.random.default_rng(0), 2, 4, apart)
        assert exact.same_candidates(pair) is (not apart)
        for b, c in pair:
            assert np.abs(c).sum(axis=1).max() < 0.95
            assert np.array_equal(c * 1024, np.round(c * 1024))

    def test_complex_dyadic_pairs_are_exact(self):
        pair = exact.complex_dyadic_pair(np.random.default_rng(0), 2, 4)
        assert exact.same_candidates(pair) is True
        for b, c in pair:
            assert np.abs(c).sum(axis=1).max() < 0.71
            assert np.array_equal(c * 1024, np.round(c * 1024))

    def test_inf_norm_is_exact_for_real_entries(self):
        # the exact sum of the doubles 0.1 and 0.2, which exceeds the double 0.3
        m = exact.matrix([[0.1, -0.2], [0.3, 0.0]])
        assert exact.inf_norm(m) == Fraction(0.1) + Fraction(0.2)
        with pytest.raises(ValueError):
            exact.inf_norm(exact.matrix([[1j]]))


@st.composite
def dyadic_pairs(draw):
    """The family of :func:`exact.dyadic_pair`, drawn by hypothesis."""
    s, m = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    row = st.lists(st.integers(-256, 256), min_size=m, max_size=m).filter(
        lambda r: sum(map(abs, r)) < 0.95 * 1024
    )
    cs = [np.array(draw(st.lists(row, min_size=m, max_size=m))) / 1024 for _ in range(2)]
    entries = st.integers(-7_400_000, 7_400_000)
    l = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=s, max_size=s))
    return exact.dyadic_members(np.array(l, dtype=float), cs, draw(st.booleans()))


def assert_certified_verdicts_hold(pair):
    """The cycle verdict of *pair*'s members and their RCP outcome agree
    with the exact oracle."""
    members = [BlockUpperTriangular(len(b), b, c) for b, c in pair]
    equal = exact.same_candidates(pair)
    verdict = analyze(Periodic(members)).verdict
    if verdict is Verdict.CERTIFIED_CONVERGED:
        assert equal
    if verdict is Verdict.CERTIFIED_DIVERGED:
        assert not equal
    assert certify_rcp(members).is_rcp is equal


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@settings(max_examples=60, deadline=None)
@example(pair=exact.dyadic_pair(np.random.default_rng(5), 1, 4))
@given(pair=dyadic_pairs())
def test_certified_cycle_and_set_verdicts_hold_exactly(pair):
    # the computed candidates of exactly equal ones differ by up to about
    # 1e-8 at these scales, above eps and atol, and are certified distinct
    assert_certified_verdicts_hold(pair)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@settings(max_examples=60, deadline=None)
@example(b=1.0, gap=5e-12, c=0.5)
@given(b=st.floats(0.5, 2.0), gap=st.floats(0.0, 1e-10), c=st.floats(0.05, 0.95))
def test_near_ties_are_certified_as_they_are(b, gap, c):
    # candidates b / (1 - c) and (b + gap) / (1 - c): a gap within eps is
    # certified as convergence, although the exact product oscillates
    assert_certified_verdicts_hold([([[b]], [[c]]), ([[b + gap]], [[c]])])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@settings(max_examples=60, deadline=None)
@example(seed=0)
@given(seed=st.integers(0, 2**32 - 1))
def test_members_built_in_floating_point_are_certified_as_they_are(seed):
    # three members L (I - C_i) rounded in floating point: their exact
    # candidates differ from L by rounding and are distinct, yet the cycle
    # is certified convergent (seeds 0-49, all 50)
    rng = np.random.default_rng(seed)
    l = random_complex(rng, 1, 3)
    cs = [random_complex(rng, 3, 3, 0.15) for _ in range(3)]
    assert_certified_verdicts_hold([(l @ (np.eye(3) - c), c) for c in cs])


@st.composite
def complex_dyadic_pairs(draw):
    """The family of :func:`exact.complex_dyadic_pair`, drawn by hypothesis."""
    s, m = draw(st.integers(1, 2)), draw(st.integers(1, 4))

    def matrix(parts, rows):
        n = 2 * rows * m
        k = np.array(draw(st.lists(parts, min_size=n, max_size=n)))
        return (k[::2] + 1j * k[1::2]).reshape(rows, m)

    cs = [matrix(st.integers(-127, 127), m) / 1024 for _ in range(2)]
    return exact.dyadic_members(matrix(st.integers(-7_000_000, 7_000_000), s), cs)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@settings(max_examples=60, deadline=None)
@example(pair=exact.complex_dyadic_pair(np.random.default_rng(5), 1, 4))
@given(pair=complex_dyadic_pairs())
def test_complex_dyadic_pairs_are_certified_as_they_are(pair):
    # exact complex data with equal exact candidates: certified divergent in
    # 100 of 100 default_rng(5) draws at s = 1, m = 4
    assert_certified_verdicts_hold(pair)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
@settings(max_examples=60, deadline=None)
@example(b=1.9375250434929365, c=0.06388922925545298, n=1)
@given(b=st.floats(0.5, 2.0), c=st.floats(0.05, 0.95), n=st.integers(1, 30))
def test_every_bound_covers_the_exact_deviation(b, c, n):
    # a constant scalar stream under a declared inf rate of exactly |C|,
    # where the bound recursion is tight and rounding decides
    a = BlockUpperTriangular(1, [[b]], [[c]])
    cert = ContractionCertificate(INF_NORM, c)
    state = initial_state(1, 1)
    for d in exact.deviations([a] * n):
        state = step(state, a, cert)
        assert Fraction(state.bound) >= exact.inf_norm(d)
