"""The chunked step engine: chunk splits, the order of failures inside a
chunk, and how far a stream is read past a verdict."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blockprod import (
    BUILTIN_NORMS,
    AnalysisRefusedError,
    AnalyzerConfig,
    BlockUpperTriangular,
    CertificateViolationError,
    ContractionCertificate,
    DeviationIdentityError,
    GelfandCertificate,
    INF_NORM,
    InvalidCertificateError,
    MatrixNorm,
    ParseError,
    ShapeError,
    SingularMatrixError,
    Stream,
    Verdict,
    analyze,
    corollary1_analyze,
    initial_state,
    lyapunov_norm,
    lyapunov_scaling,
    norm_value,
    solve_right,
    step,
    trace_row,
)
from blockprod.matrixcore import _norms
from blockprod.product import IDENTITY_TOL, TraceRow, _advance, _chunk_length, _run
from conftest import random_block, random_complex

A_HALF = BlockUpperTriangular(1, [[1.0]], [[0.5]])
#: ||C|| = 1 - 2e-15 <= the rate of RATE_NEAR_ONE, but I - C is singular to
#: working precision
SINGULAR = BlockUpperTriangular(1, [[1.0]], [[1 - 2e-15]])
RATE_NEAR_ONE = ContractionCertificate(INF_NORM, 1 - 1e-15, "declared")
#: members whose candidates +-1.62e308 are finite, but whose difference is not
OVERFLOW_PAIR = [
    BlockUpperTriangular(1, [[1.7e308]], [[-0.05]]),
    BlockUpperTriangular(1, [[-1.7e308]], [[-0.05]]),
]
LYAPUNOV_HALF = ContractionCertificate(lyapunov_norm([[2.0]]), 0.5, "lyapunov")


def reference_run(seq, cert, state):
    """The engine as a plain loop of single steps, in the public norm and
    solve: the states, and the error that stopped it (or None)."""
    states = []
    for a in seq:
        n = state.n + 1
        if a.b.shape != state.x.shape:
            return states, ShapeError(
                f"factor {n} has (s, m) = {a.b.shape}; the product has {state.x.shape}"
            )
        val = norm_value(a.c, cert.norm)
        if val > cert.rate:
            return states, CertificateViolationError(n, val, cert.rate)
        x = a.b + state.x @ a.c
        gamma = state.gamma @ a.c
        norm_gamma = norm_value(gamma, cert.norm)
        try:
            l = solve_right(a.b, np.eye(a.csize) - a.c)
        except SingularMatrixError as exc:
            return states, exc
        d = x - l
        norm_x, norm_d = norm_value(x, cert.norm), norm_value(d, cert.norm)
        if state.n == 0:
            y, norm_y, bound, residual = None, 0.0, norm_d, 0.0
        else:
            y = l - state.l
            norm_y = norm_value(y, cert.norm)
            bound = (state.bound + norm_y) * cert.rate
            residual = norm_value(d - (state.d_dev - y) @ a.c, cert.norm)
            tol = IDENTITY_TOL * max(1.0, norm_x, state.norm_x, norm_d)
            if not (np.isfinite(residual) and residual <= tol):
                return states, DeviationIdentityError(
                    f"deviation identity violated at step {n}: residual {residual:.3e}"
                )
        state = replace(
            state, n=n, x=x, gamma=gamma, l=l, d_dev=d, y_prev=y, bound=bound,
            identity_residual=residual, norm_x=norm_x, norm_d=norm_d, norm_y=norm_y,
            norm_gamma=norm_gamma,
        )
        states.append(state)
    return states, None


def same_arrays(u, v):
    if u is None or v is None:
        return u is None and v is None
    return u.tobytes() == v.tobytes() and u.shape == v.shape


def same_state(u, v):
    return (
        u.n == v.n
        and all(
            same_arrays(getattr(u, f), getattr(v, f))
            for f in ("x", "gamma", "l", "d_dev", "y_prev")
        )
        and all(
            float(getattr(u, f)).hex() == float(getattr(v, f)).hex()
            for f in ("bound", "identity_residual", "norm_x", "norm_d", "norm_y",
                      "norm_gamma")
        )
    )


def same_error(u, v):
    return type(u) is type(v) and str(u) == str(v)


@st.composite
def engine_cases(draw):
    """A certificate in a built-in or Lyapunov norm, a sequence of up to 80
    conforming factors with s, m <= 5, and perhaps one fault: a factor that
    violates the certificate, has another (s, m), or has a singular I - C,
    or a corrupted deviation after the first step."""
    s, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["inf", "one", "fro", "lyapunov"]))
    if kind == "lyapunov":
        c0 = random_complex(rng, m, m)
        c0 *= 0.9 / max(abs(np.linalg.eigvals(c0)).max(), 1e-3)
        norm = lyapunov_scaling(c0)
        rate = norm_value(c0, norm)
        scales = rng.uniform(0.2, 0.99, 80)
        cs = [c0 * u for u in scales]
    else:
        norm = next(n for n in BUILTIN_NORMS if n.kind == kind)
        rate = draw(st.floats(0.1, 0.95))
        cs = []
        for _ in range(80):
            c = random_complex(rng, m, m)
            cs.append(c * (rate * rng.uniform(0.2, 1.0) / norm_value(c, norm)))
    kind = "lyapunov" if kind == "lyapunov" else "declared"
    cert = ContractionCertificate(norm, rate, kind)
    # a repeated member now and then, as in a periodic product
    seq = [BlockUpperTriangular(s, random_complex(rng, s, m), c) for c in cs]
    length = draw(st.integers(1, 80))
    seq = [seq[i // 3] if i % 5 == 0 else seq[i] for i in range(length)]
    fault = draw(st.sampled_from(["none", "violation", "shape", "singular", "corrupt"]))
    at = draw(st.integers(0, len(seq) - 1))
    if fault == "violation":
        seq[at] = BlockUpperTriangular(s, seq[at].b, np.full((m, m), 2.0))
    elif fault == "shape":
        seq[at] = BlockUpperTriangular(s + 1, np.ones((s + 1, m)), cs[0])
    elif fault == "singular" and kind != "lyapunov":
        cert = replace(RATE_NEAR_ONE, norm=norm)
        c = np.zeros((m, m))
        c[0, 0] = 1 - 2e-15
        seq[at] = BlockUpperTriangular(s, seq[at].b, c)
    splits = draw(st.lists(st.integers(1, 25), min_size=1, max_size=40))
    return cert, seq, fault == "corrupt", splits


def start(seq, corrupt, cert):
    """The initial state, or with *corrupt* the state after the first factor
    with a perturbed deviation, and the factors still to step."""
    state = initial_state(seq[0].s, seq[0].csize)
    if not corrupt or seq[0].b.shape != state.x.shape:
        return state, seq
    try:
        state = step(state, seq[0], cert)
    except (CertificateViolationError, SingularMatrixError):
        return initial_state(seq[0].s, seq[0].csize), seq
    return replace(state, d_dev=state.d_dev + 1e-3), seq[1:]


class TestChunkSplits:
    @settings(max_examples=150, deadline=None)
    @given(case=engine_cases())
    def test_every_split_matches_single_steps_and_the_reference(self, case):
        cert, seq, corrupt, splits = case
        state0, todo = start(seq, corrupt, cert)

        ref_states, ref_error = reference_run(todo, cert, state0)

        single, single_error, state = [], None, state0
        for a in todo:
            try:
                state = step(state, a, cert)
            except Exception as exc:
                single_error = exc
                break
            single.append(state)

        # _advance takes the factors of the product's (s, m) only: the stream
        # reader and step refuse the others
        conforming = list(
            itertools.takewhile(lambda a: a.b.shape == state0.x.shape, todo)
        )
        chunked, chunk_error, rows, state, i = [], None, [], state0, 0
        for size in itertools.cycle(splits):
            if i >= len(conforming) or chunk_error is not None:
                break
            done = _advance(state, conforming[i : i + size], cert)
            chunked += done.states
            rows += [trace_row(st, cert) for st in done.states]
            assert len(done.ls) == len(done.states)
            chunk_error, i = done.error, i + size
            state = done.states[-1] if done.states else state

        assert len(ref_states) == len(single) == len(chunked)
        for r, u, v in zip(ref_states, single, chunked):
            assert same_state(r, u) and same_state(r, v)
        assert same_error(ref_error, single_error)
        if isinstance(ref_error, ShapeError):
            assert chunk_error is None
        else:
            assert same_error(ref_error, chunk_error)
        # each row reads ||Gamma_n|| from its state, the public norm_value's
        for row, st in zip(rows, ref_states):
            expected = TraceRow(
                st.n, st.norm_x, st.norm_y, st.norm_d, st.bound,
                norm_value(st.gamma, cert.norm),
            )
            assert [float(v).hex() for v in row] == [float(v).hex() for v in expected]

    @settings(max_examples=100, deadline=None)
    @given(case=engine_cases())
    def test_run_matches_the_reference(self, case):
        cert, seq, _, _ = case
        state0 = initial_state(seq[0].s, seq[0].csize)
        ref_states, ref_error = reference_run(seq, cert, state0)
        states, error = [], None
        try:
            for _, _, done in _run(iter(seq), cert, len(seq)):
                states += done.states
        except Exception as exc:
            error = exc
        assert len(states) == len(ref_states)
        assert all(same_state(r, u) for r, u in zip(ref_states, states))
        assert type(error) is type(ref_error)


class TestChunkFailures:
    def test_failure_ends_the_chunk_at_its_step(self):
        seq = [A_HALF] * 4 + [SINGULAR] + [A_HALF] * 3
        done = _advance(initial_state(1, 1), seq, RATE_NEAR_ONE)
        assert len(done.states) == 4 and isinstance(done.error, SingularMatrixError)

    def test_earlier_step_fails_first_and_certificate_before_limit(self):
        violating = BlockUpperTriangular(1, [[1.0]], [[2.0]])
        seq = [A_HALF, A_HALF, violating, SINGULAR]
        done = _advance(initial_state(1, 1), seq, RATE_NEAR_ONE)
        assert len(done.states) == 2
        assert str(done.error).startswith("step 3:")
        seq = [A_HALF, SINGULAR, violating]
        done = _advance(initial_state(1, 1), seq, RATE_NEAR_ONE)
        assert len(done.states) == 1 and isinstance(done.error, SingularMatrixError)

    def test_overflowing_candidate_ends_the_chunk_before_its_step(self):
        # B (I - C)^-1 = 1e308 / 0.1 overflows; the candidate is not kept
        overflow = BlockUpperTriangular(1, [[1e308]], [[0.9]])
        seq = [A_HALF] * 3 + [overflow] + [A_HALF] * 2
        done = _advance(initial_state(1, 1), seq, RATE_NEAR_ONE)
        assert len(done.states) == 3 and len(done.ls) == 3
        assert isinstance(done.error, AnalysisRefusedError)
        assert "not finite" in str(done.error)
        assert "_limit" not in vars(overflow)

    def test_identity_violation_inside_a_chunk(self, rng):
        # a wrong limit candidate kept on factor 6 breaks D_6 = (D_5 - Y_6) C_6
        seq = [random_block(rng, 2, 3) for _ in range(10)]
        vars(seq[5])["_limit"] = seq[5].limit + 1e-3
        cert = ContractionCertificate(INF_NORM, 0.9)
        for first in (0, 3):
            state = initial_state(2, 3)
            for a in seq[:first]:
                state = step(state, a, cert)
            done = _advance(state, seq[first:], cert)
            assert len(done.states) == 5 - first
            assert isinstance(done.error, DeviationIdentityError)
            assert "at step 6" in str(done.error)
        state = initial_state(2, 3)
        with pytest.raises(DeviationIdentityError, match="at step 6"):
            for a in seq:
                state = step(state, a, cert)

    def test_overflowing_increment_fails_the_identity_without_warnings(self):
        # L_1 and L_2 are +-1.62e308, so Y_2 = L_2 - L_1 overflows: step 2
        # returned a NaN identity residual and bound, with RuntimeWarnings
        state = initial_state(1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            done = _advance(state, OVERFLOW_PAIR * 3, LYAPUNOV_HALF)
            assert len(done.states) == 1
            assert isinstance(done.error, DeviationIdentityError)
            assert "at step 2" in str(done.error)
            state = step(state, OVERFLOW_PAIR[0], LYAPUNOV_HALF)
            with pytest.raises(DeviationIdentityError, match="at step 2"):
                step(state, OVERFLOW_PAIR[1], LYAPUNOV_HALF)
            # the candidate leaves the ball of radius 1/eps at step 1, and so
            # do the B-blocks, whose differences overflow
            cfg = AnalyzerConfig(horizon=50)
            stream = Stream(itertools.cycle(OVERFLOW_PAIR))
            report = analyze(stream, cfg, LYAPUNOV_HALF)
            assert report.verdict is Verdict.DIVERGED_NUMERICALLY
            stream = Stream(itertools.cycle(OVERFLOW_PAIR))
            report = corollary1_analyze(stream, [[-0.05]], cfg)
            assert report.verdict is Verdict.DIVERGED_NUMERICALLY

    @settings(max_examples=150, deadline=None)
    @given(
        bs=st.lists(st.floats(-15.99, 15.99), min_size=1, max_size=4),
        cs=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
        k=st.integers(0, 1020),
    )
    @example(bs=[1.7e308 / 2.0**1020, -1.7e308 / 2.0**1020], cs=[-0.05] * 4, k=1020)
    @example(bs=[0.0, 9.0], cs=[0.0] * 4, k=1020)
    def test_run_returns_only_finite_states(self, bs, cs, k):
        # a cycle of m = 1 members with B = b 2^k: whatever fails, every state
        # taken before it has a finite bound, identity residual and norms.  In
        # the second example the bound tends to ||Y_n|| = 9 2^1020, and the sum
        # bound + ||Y_n|| it is taken from is past the largest double
        cycle = [
            BlockUpperTriangular(1, [[b * 2.0**k]], [[c]]) for b, c in zip(bs, cs)
        ]
        states = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                for _, _, done in _run(itertools.cycle(cycle), LYAPUNOV_HALF, 12):
                    states += done.states
            except (AnalysisRefusedError, DeviationIdentityError):
                pass
        for state in states:
            values = [state.bound, state.identity_residual, state.norm_x,
                      state.norm_d, state.norm_y, state.norm_gamma]  # fmt: skip
            assert all(np.isfinite(values)), state

    def test_first_deviation_past_the_largest_double_reads_inf(self):
        # D_1 = B - L_1 has an entry past the largest double, and no identity
        # is checked at step 1: the Lyapunov norm of D_1, and so the bound,
        # read NaN, as L^-* times an inf entry has NaN entries
        c = np.array([[0.0, 0.38, -0.58], [0.0, 0.0, -1.36], [0.0, 0.0, 0.0]])
        a = BlockUpperTriangular(1, [[6.7e307, 9e307, 6.2e307]], c)
        cert = ContractionCertificate(lyapunov_scaling(c), 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = step(initial_state(1, 3), a, cert)
        assert np.isinf(state.d_dev).any()
        assert state.norm_d == state.bound == np.inf

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(2, 3),
        members=st.integers(1, 3),
        kind=st.sampled_from(["inf", "one", "fro", "lyapunov"]),
        bs=st.lists(st.floats(-15.99, 15.99), min_size=9, max_size=9),
        cs=st.lists(st.floats(-0.25, 0.25), min_size=27, max_size=27),
        k=st.integers(1016, 1020),
    )
    @example(m=2, members=1, kind="inf", bs=[1.7e308 / 2.0**1020] * 9,
             cs=[-0.05, 0.0, 0.0, -0.05] * 7, k=1020)  # fmt: skip
    @example(m=3, members=1, kind="fro", bs=[10.0] * 9,
             cs=[-0.05, 0.0, 0.0, 0.0] * 6 + [0.0] * 3, k=1020)  # fmt: skip
    @example(m=3, members=1, kind="lyapunov", bs=[10.0] * 9,
             cs=[-0.05, 0.0, 0.0, 0.0] * 6 + [0.0] * 3, k=1020)  # fmt: skip
    def test_run_reads_inf_only_past_the_largest_double(
        self, m, members, kind, bs, cs, k
    ):
        # s = 1 and m = 2, 3, ||C|| <= 0.75 in every kind: a state's norms
        # may be past the largest double where the identity residual is not,
        # and read inf there, as does a bound past it; no field is NaN.  A
        # norm read inf is one whose matrix, scaled by 2^-2 (exactly, the
        # parts apart), has a norm of at least 2^1021
        norm = lyapunov_norm(np.eye(m) / 2) if kind == "lyapunov" else MatrixNorm(kind)
        cert = ContractionCertificate(norm, 0.9)
        cycle = [
            BlockUpperTriangular(
                1,
                np.reshape(bs[i * m : (i + 1) * m], (1, m)) * 2.0**k,
                np.reshape(cs[i * m * m : (i + 1) * m * m], (m, m)),
            )
            for i in range(members)
        ]
        states = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                for _, _, done in _run(itertools.cycle(cycle), cert, 12):
                    states += done.states
            except (AnalysisRefusedError, DeviationIdentityError):
                pass
        for state in states:
            values = [state.bound, state.identity_residual, state.norm_x,
                      state.norm_d, state.norm_y, state.norm_gamma]  # fmt: skip
            assert not np.isnan(values).any(), state
            for value, matrix in ((state.norm_x, state.x), (state.norm_d, state.d_dev),
                                  (state.norm_y, state.y_prev),
                                  (state.norm_gamma, state.gamma)):  # fmt: skip
                if value == np.inf:
                    parts = np.ascontiguousarray(matrix)[None].view(np.float64)
                    quarter = (parts / 4).view(np.complex128)
                    assert _norms(quarter, norm)[0] >= 2.0**1021

    def test_step_returns_the_state_a_chunk_computed(self):
        state = initial_state(1, 1)
        done = _advance(state, [A_HALF, A_HALF], RATE_NEAR_ONE)
        assert step(state, A_HALF, RATE_NEAR_ONE) is done.states[0]
        assert step(done.states[0], A_HALF, RATE_NEAR_ONE) is done.states[1]
        # another factor, or a copy of the state, is stepped afresh
        other = BlockUpperTriangular(1, [[1.0]], [[0.5]])
        assert step(state, other, RATE_NEAR_ONE) is not done.states[0]
        assert step(replace(state), A_HALF, RATE_NEAR_ONE) is not done.states[0]

    def test_run_checks_the_certificate_where_it_enters(self):
        gelfand = GelfandCertificate(INF_NORM, 0.5, 2)
        with pytest.raises(InvalidCertificateError, match="gelfand"):
            next(_run(iter([A_HALF]), gelfand, 5))

    def test_repeated_factor_is_factored_once(self, lu_solves):
        a = BlockUpperTriangular(2, np.ones((2, 3)), 0.1 * np.eye(3))
        _advance(initial_state(2, 3), [a, a, a], ContractionCertificate(INF_NORM, 0.5))
        assert lu_solves == [3]

    @pytest.mark.parametrize("m, length", [(1, 20), (4, 20), (14, 20), (16, 16),
                                           (32, 4), (45, 2), (46, 1), (64, 1)])
    def test_chunk_length(self, m, length):
        assert _chunk_length(m) == length


class Counting:
    """An iterator over *factors* that counts what it hands out and raises
    at *fail_at* (1-based) if given."""

    def __init__(self, factors, fail_at=None):
        self.factors, self.fail_at, self.read = iter(factors), fail_at, 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.read + 1 == self.fail_at:
            raise RuntimeError(f"feed failed at factor {self.fail_at}")
        a = next(self.factors)
        self.read += 1
        return a


def growing(n):
    """Factors whose limit candidates 2, 4, 6, ... fire no test."""
    return [BlockUpperTriangular(1, [[float(k)]], [[0.5]]) for k in range(1, n + 1)]


#: what factor 25 is, in the chunk of factors 21-40, and what it raises
FAULTS = {
    "violation": (
        BlockUpperTriangular(1, [[1.0]], [[1.5]]),
        CertificateViolationError,
        "step 25",
    ),
    "singular": (SINGULAR, SingularMatrixError, "singular"),
    "shape": (
        BlockUpperTriangular(2, [[1.0], [1.0]], [[0.5]]),
        ShapeError,
        "stream factor 25",
    ),
    "iterator": (None, RuntimeError, "factor 25"),
    "not_a_factor": ("x", ParseError, "expected a BlockUpperTriangular, got str"),
}


def faulty(prefix, fault):
    factor = FAULTS[fault][0]
    tail = [A_HALF] * 30 if factor is None else [factor] + [A_HALF] * 29
    return Counting(prefix + tail, fail_at=25 if factor is None else None)


class TestStreamReading:
    CFG = AnalyzerConfig(eps=1e-9, horizon=100)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_verdict_before_a_fault_in_its_chunk_is_returned(self, fault):
        # A_HALF from the first step: gaps 0 from step 2, so the
        # convergence test fires at step 21
        feed = faulty([A_HALF] * 24, fault)
        report = analyze(Stream(feed), self.CFG, cert=RATE_NEAR_ONE)
        assert report.verdict is Verdict.CONVERGED_NUMERICALLY
        assert len(report.trace) == 21 and report.trace[-1].n == 21
        assert report.deviation_bound == report.trace[-1].bound
        assert _chunk_length(1) == 20 and feed.read <= 40

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_without_a_verdict_is_raised(self, fault):
        _, error, text = FAULTS[fault]
        with pytest.raises(error, match=text):
            analyze(Stream(faulty(growing(24), fault)), self.CFG, cert=RATE_NEAR_ONE)

    @pytest.mark.parametrize("fault", ["shape", "iterator"])
    def test_corollary1_reads_the_same_way(self, fault):
        feed = faulty([A_HALF] * 24, fault)
        report = corollary1_analyze(Stream(feed), [[0.5]], self.CFG)
        assert report.verdict is Verdict.CONVERGED_NUMERICALLY
        _, error, text = FAULTS[fault]
        with pytest.raises(error, match=text):
            corollary1_analyze(Stream(faulty(growing(24), fault)), [[0.5]], self.CFG)

    @pytest.mark.parametrize("horizon", [20, 21, 30, 40, 100])
    def test_read_ahead_is_below_a_chunk_and_within_the_horizon(self, horizon):
        feed = Counting(itertools.repeat(A_HALF))
        cfg = AnalyzerConfig(eps=1e-9, horizon=horizon)
        report = analyze(Stream(feed), cfg, cert=RATE_NEAR_ONE)
        assert feed.read <= horizon
        if report.verdict is Verdict.CONVERGED_NUMERICALLY:
            assert len(report.trace) == 21 and feed.read - 21 <= 19
        else:
            assert horizon < 21 and len(report.trace) == horizon


@st.composite
def value_streams(draw):
    """Streams of 1 x 2 values that settle, oscillate, grow or wander, and a
    way to split them into chunks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    pattern = draw(st.sampled_from(["settle", "oscillate", "grow", "wander"]))
    start = draw(st.integers(0, 30))
    values = random_complex(rng, n, 2).reshape(n, 1, 2)
    for i in range(start, n):
        if pattern == "settle":
            values[i] = values[start]
        elif pattern == "oscillate":
            values[i] = values[start + (i - start) % 2]
        elif pattern == "grow":
            values[i] *= 10.0 ** (i - start)
    splits = draw(st.lists(st.integers(1, 25), min_size=1, max_size=20))
    return values, splits


class TestStreakDetector:
    @settings(max_examples=100, deadline=None)
    @given(case=value_streams())
    def test_chunks_fire_where_single_values_fire(self, case):
        from blockprod.analyzer import _StreakDetector

        values, splits = case
        cfg = AnalyzerConfig(eps=1e-9, horizon=1000)

        def fire(sizes):
            detector = _StreakDetector(cfg, RATE_NEAR_ONE, "value", lambda v: v)
            i = 0
            for size in sizes:
                if i >= len(values):
                    return None
                fired = detector.update(values[i : i + size])
                if fired is not None:
                    at, report = fired
                    points = report.witness.points if report.witness else ()
                    limit = None if report.limit is None else report.limit.tobytes()
                    return i + at, report.verdict, limit, [p.tobytes() for p in points]
                i += size
            return None

        single = fire(itertools.repeat(1, len(values)))
        assert fire(itertools.cycle(splits)) == single
