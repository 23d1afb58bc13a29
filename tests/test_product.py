from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockprod import (
    BUILTIN_NORMS,
    BlockUpperTriangular,
    BlockprodError,
    CertificateViolationError,
    ContractionCertificate,
    DeviationIdentityError,
    FROBENIUS,
    GelfandCertificate,
    INF_NORM,
    InvalidCertificateError,
    ProductState,
    ShapeError,
    dense_partial_product,
    explicit_sum,
    initial_state,
    left_product_init,
    left_product_step,
    lyapunov_norm,
    norm_value,
    spectral_certificate,
    step,
    trace_row,
    uniform_certificate,
)
from blockprod.product import _dense_cycle_product
from conftest import random_block, random_complex

A_HALF = BlockUpperTriangular(1, [[1.0]], [[0.5]])
A_TWO = BlockUpperTriangular(1, [[2.0]], [[0.5]])
CERT_HALF = ContractionCertificate(INF_NORM, 0.5, "declared")
CERT_09 = ContractionCertificate(INF_NORM, 0.9, "declared")


def error_bound_series(y_norms, d1_norm, rate, n):
    """The deviation bound r^{n-1} ||D_1|| + sum_i ||Y_{n-i}|| r^i, from
    ``y_norms`` = ||Y_1|| ... ||Y_{n-1}||, as an explicit sum."""
    return rate ** (n - 1) * d1_norm + sum(
        y_norms[n - 1 - i] * rate**i for i in range(1, n)
    )


def run(seq, cert):
    state = initial_state(seq[0].s, seq[0].csize)
    states = []
    for a in seq:
        state = step(state, a, cert)
        states.append(state)
    return states


class TestProductState:
    FIELDS = ["n", "x", "gamma", "l", "d_dev", "y_prev", "bound"]
    FIELDS += ["identity_residual", "norm_x", "norm_d", "norm_y", "norm_gamma"]

    def test_constructor_takes_every_field_by_position_or_keyword(self):
        x, gamma = np.ones((1, 2), dtype=complex), np.eye(2, dtype=complex)
        args = (3, x, gamma, 2 * x, -x, x / 4, 0.5, 1e-17, 1.0, 2.0, 0.25, 1.5)
        assert [f.name for f in fields(ProductState) if f.init] == self.FIELDS
        by_position = ProductState(*args)
        by_keyword = ProductState(**dict(zip(self.FIELDS, args)))
        for state in (by_position, by_keyword):
            assert all(getattr(state, f) is a for f, a in zip(self.FIELDS, args))
            assert state._next is None
        assert repr(by_position) == repr(by_keyword)
        assert repr(by_position).startswith("ProductState(n=3, x=array(")
        with pytest.raises(FrozenInstanceError):
            by_position.n = 4

    def test_defaults_and_replace(self):
        x = np.zeros((1, 1), dtype=complex)
        state = ProductState(0, x, x, x, x, None, 0.0)
        assert (state.identity_residual, state.norm_x, state.norm_d) == (0, 0, 0)
        assert state.norm_y == 0.0 and state.norm_gamma is None
        done = run([A_HALF], CERT_HALF)[0]
        again = replace(done, bound=1.0)
        assert again.bound == 1.0 and again.x is done.x and again._next is None
        assert again.norm_gamma == done.norm_gamma == 0.5


class TestStep:
    def test_zero_sequence(self):
        zero = BlockUpperTriangular(1, [[0.0]], [[0.0]])
        cert = ContractionCertificate(INF_NORM, 0.0, "declared")
        state = run([zero], cert)[-1]
        assert state.x[0, 0] == 0 and state.l[0, 0] == 0
        assert state.d_dev[0, 0] == 0 and state.bound == 0.0

    def test_constant_three_steps(self):
        states = run([A_HALF] * 3, CERT_HALF)
        # hand recursion: X1 = 1, X2 = 1.5, X3 = 1.75
        assert [s.x[0, 0].real for s in states] == [1.0, 1.5, 1.75]
        final = states[-1]
        assert final.l[0, 0] == pytest.approx(2.0)
        assert final.d_dev[0, 0] == pytest.approx(-0.25)
        assert final.bound == pytest.approx(0.25)  # r^2 ||D_1|| with ||D_1|| = 1
        # oracle: dense product of the assembled forms
        dense = dense_partial_product([A_HALF] * 3, 3)
        assert dense[0, 1] == pytest.approx(final.x[0, 0])

    def test_alternating_fixed_points(self):
        seq = [A_HALF if n % 2 == 0 else A_TWO for n in range(200)]
        states = run(seq, CERT_HALF)
        # odd steps accumulate at 8/3, even steps at 10/3
        assert states[-1].x[0, 0].real == pytest.approx(10 / 3, abs=1e-10)
        assert states[-2].x[0, 0].real == pytest.approx(8 / 3, abs=1e-10)

    def test_declared_violation_names_step(self):
        bad = BlockUpperTriangular(1, [[1.0]], [[0.8]])
        with pytest.raises(CertificateViolationError) as exc:
            run([A_HALF, bad], CERT_HALF)
        assert exc.value.step == 2

    def test_gelfand_certificate_refused(self):
        # C^2 = 0 gives a Gelfand rate of 0, yet ||D_n||_inf stays 2: the
        # one-step bound recursion needs ||C|| <= rate, which fails here
        c = np.array([[0.0, 2.0], [0.0, 0.0]])
        cert = spectral_certificate(c)
        assert cert.kind == "gelfand"
        seq = [
            BlockUpperTriangular(1, [[1.0, 0.0]] if n % 2 == 0 else [[0.0, 1.0]], c)
            for n in range(6)
        ]
        with pytest.raises(InvalidCertificateError):
            run(seq, cert)

    @pytest.mark.parametrize(
        "cert,message",
        [
            (None, "expected a ContractionCertificate, got NoneType"),
            (INF_NORM, "expected a ContractionCertificate, got MatrixNorm"),
            (GelfandCertificate(INF_NORM, 0.5, 2), "a gelfand certificate bounds"),
        ],
        ids=["none", "norm", "gelfand"],
    )
    def test_refusal_names_the_certificate_received(self, cert, message):
        with pytest.raises(InvalidCertificateError, match=message):
            step(initial_state(1, 1), A_HALF, cert)

    def test_rejects_factor_of_other_shape(self):
        tall = BlockUpperTriangular(2, [[1.0], [2.0]], [[0.5]])
        for state in [initial_state(1, 1), *run([A_HALF], CERT_HALF)]:
            with pytest.raises(ShapeError):
                step(state, tall, CERT_HALF)

    def test_corrupted_deviation_raises_typed_error(self):
        state = run([A_HALF], CERT_HALF)[-1]
        corrupted = replace(state, d_dev=state.d_dev + 1e-3)
        with pytest.raises(DeviationIdentityError, match="step 2") as exc:
            step(corrupted, A_HALF, CERT_HALF)
        assert isinstance(exc.value, BlockprodError)
        assert isinstance(exc.value, ArithmeticError)

    @pytest.mark.parametrize("b", [1e6, 1e8])
    def test_identity_tolerance_scales_with_x(self, b):
        # D_n tends to 0 while the rounding of X_n - L_n grows with ||X||;
        # a tolerance scaled by ||D_n|| alone refused step 40 (b = 1e6)
        a = BlockUpperTriangular(1, [[b]], [[0.5]])
        last = run([a] * 60, CERT_HALF)[-1]
        assert last.norm_x == pytest.approx(2 * b)
        assert last.identity_residual <= 1e-10 * last.norm_x

    def test_identity_residual_recorded(self, rng):
        seq = [random_block(rng, 2, 3) for _ in range(30)]
        for state in run(seq, CERT_09):
            assert state.identity_residual <= 1e-10

    def test_bound_matches_series_form(self, rng):
        seq = [random_block(rng, 2, 2) for _ in range(25)]
        states = run(seq, CERT_09)
        y_norms = [norm_value(s.y_prev, INF_NORM) for s in states[1:]]
        d1 = norm_value(states[0].d_dev, INF_NORM)
        for n in range(1, len(states) + 1):
            series = error_bound_series(y_norms, d1, 0.9, n)
            assert states[n - 1].bound == pytest.approx(series, rel=1e-12)

    def test_bound_soundness(self, rng):
        for _ in range(20):
            seq = [random_block(rng, 2, 2) for _ in range(40)]
            for state in run(seq, CERT_09):
                assert norm_value(state.d_dev, INF_NORM) <= state.bound + 1e-10

    def test_gamma_decays_at_declared_rate(self, rng):
        seq = [random_block(rng, 1, 3) for _ in range(40)]
        for state in run(seq, CERT_09):
            assert norm_value(state.gamma, INF_NORM) <= 0.9**state.n + 1e-10

    def test_resolvent_bound(self, rng):
        for _ in range(50):
            a = random_block(rng, 1, 4)
            resolvent = np.linalg.inv(np.eye(4) - a.c)
            assert norm_value(resolvent, INF_NORM) <= 1 / (1 - 0.9) + 1e-10


@st.composite
def lyapunov_only_sequences(draw):
    """Factors with s != m whose upper-triangular C-blocks have eigenvalues
    of modulus <= 0.4 but a corner entry of 3, so no built-in norm contracts
    them, while a common Lyapunov scaling does; and an order to step them in."""
    s, m = draw(st.sampled_from([(1, 2), (3, 2), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        c = np.triu(random_complex(rng, m, m), 1)
        radii, angles = 0.4 * rng.uniform(0, 1, m), 2 * np.pi * rng.uniform(0, 1, m)
        c[np.diag_indices(m)] = radii * np.exp(1j * angles)
        c[0, m - 1] = 3.0
        members.append(BlockUpperTriangular(s, random_complex(rng, s, m), c))
    order = draw(st.lists(st.integers(0, len(members) - 1), min_size=1, max_size=30))
    return members, [members[i] for i in order]


class TestLyapunovStepping:
    @settings(max_examples=40, deadline=None)
    @given(case=lyapunov_only_sequences())
    def test_bound_dominates_deviation(self, case):
        members, seq = case
        cert = uniform_certificate([a.c for a in members])
        assert cert.kind == "lyapunov"
        for state in run(seq, cert):
            assert state.bound >= norm_value(state.d_dev, cert.norm) - 1e-10
            assert state.identity_residual <= 1e-10


@st.composite
def declared_sequences(draw):
    """A declared certificate in one built-in norm, and 1-30 factors with
    s, m <= 4 whose C-blocks contract in that norm at or below its rate."""
    norm = draw(st.sampled_from(BUILTIN_NORMS))
    rate = draw(st.floats(0.1, 0.95))
    s, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seq = []
    for _ in range(draw(st.integers(1, 30))):
        c = random_complex(rng, m, m)
        c *= rate * rng.uniform(0.2, 1.0) / norm_value(c, norm)
        seq.append(BlockUpperTriangular(s, random_complex(rng, s, m), c))
    return ContractionCertificate(norm, rate, "declared"), seq


class TestDeclaredStepping:
    @settings(max_examples=60, deadline=None)
    @given(case=declared_sequences())
    def test_states_and_trace_rows(self, case):
        cert, seq = case
        gamma = np.eye(seq[0].csize, dtype=np.complex128)
        for n, (a, state) in enumerate(zip(seq, run(seq, cert)), start=1):
            gamma = gamma @ a.c
            x = explicit_sum(seq, n)
            assert np.abs(state.x - x).max() <= 1e-10 * max(1.0, np.abs(x).max())
            scale = max(1.0, np.abs(gamma).max())
            assert np.abs(state.gamma - gamma).max() <= 1e-10 * scale
            assert state.bound >= norm_value(state.d_dev, cert.norm) - 1e-10
            assert state.identity_residual <= 1e-10
            # the norms step keeps on the state are the public norm_value's
            row = trace_row(state, cert)
            y = 0.0 if state.y_prev is None else norm_value(state.y_prev, cert.norm)
            assert row == (
                n,
                norm_value(state.x, cert.norm),
                y,
                norm_value(state.d_dev, cert.norm),
                state.bound,
                norm_value(state.gamma, cert.norm),
            )


class TestExplicitSum:
    def test_single_term(self, rng):
        seq = [random_block(rng, 2, 2) for _ in range(3)]
        assert np.array_equal(explicit_sum(seq, 1), seq[0].b)

    def test_constant_geometric(self):
        assert explicit_sum([A_HALF] * 3, 3)[0, 0] == pytest.approx(1.75)

    def test_matches_recurrence(self, rng):
        seq = [random_block(rng, 2, 3) for _ in range(6)]
        states = run(seq, CERT_09)
        for n in range(1, 7):
            assert np.abs(explicit_sum(seq, n) - states[n - 1].x).max() < 1e-11

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            explicit_sum([A_HALF], 2)


class TestDensePartialProduct:
    def test_single(self):
        assert np.array_equal(dense_partial_product([A_HALF], 1), A_HALF.to_dense())

    def test_constant_two(self):
        out = dense_partial_product([A_HALF] * 2, 2)
        assert np.abs(out - [[1.0, 1.5], [0.0, 0.25]]).max() < 1e-15

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            dense_partial_product([A_HALF], 2)

    def test_structure_preserved_exactly(self, rng):
        for _ in range(20):
            s = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            seq = [random_block(rng, s, m) for _ in range(8)]
            out = dense_partial_product(seq, 8)
            assert np.array_equal(out[:s, :s], np.eye(s))
            assert np.all(out[s:, :s] == 0)


class TestDenseCycleProduct:
    """The O(log n) dense oracle of the CLI against the brute-force one on
    the materialised sequence."""

    @staticmethod
    def materialised(prefix, cycle, n):
        return [*prefix, *(cycle[k % len(cycle)] for k in range(n))][:n]

    @pytest.mark.parametrize("bscale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize(
        "plen, period",
        [(0, 1), (0, 2), (0, 4), (1, 1), (3, 1), (2, 3)],
        ids=lambda v: str(v),
    )
    def test_matches_dense_partial_product(self, rng, plen, period, bscale):
        s, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        prefix = [random_block(rng, s, m, bscale) for _ in range(plen)]
        cycle = [random_block(rng, s, m, bscale) for _ in range(period)]
        ns = {1, period - 1, period, period + 1, 7 * period + period // 2}
        ns |= {plen + n for n in set(ns)} | {plen - 1}  # n in and past the prefix
        for n in sorted(k for k in ns if k >= 1):
            got = _dense_cycle_product(prefix, cycle, n)
            want = dense_partial_product(self.materialised(prefix, cycle, n), n)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n
            assert np.array_equal(got[:s, :s], np.eye(s))
            assert np.all(got[s:, :s] == 0)

    def test_first_members_exactly(self, rng):
        # below one period past the prefix no power is taken: the same
        # products in the same order
        prefix = [random_block(rng, 2, 3) for _ in range(3)]
        cycle = [random_block(rng, 2, 3) for _ in range(4)]
        for n in range(1, 7):
            seq = self.materialised(prefix, cycle, n)
            assert np.array_equal(
                _dense_cycle_product(prefix, cycle, n), dense_partial_product(seq, n)
            )

    def test_assembles_each_member_once(self, rng, monkeypatch):
        prefix = [random_block(rng, 1, 2) for _ in range(2)]
        cycle = [random_block(rng, 1, 2) for _ in range(3)]
        calls = []
        original = BlockUpperTriangular.to_dense
        monkeypatch.setattr(
            BlockUpperTriangular, "to_dense", lambda a: calls.append(a) or original(a)
        )
        _dense_cycle_product(prefix, cycle, 10**6 + 1)
        assert len(calls) == len(prefix) + len(cycle)

    def test_n_below_one(self):
        with pytest.raises(IndexError):
            _dense_cycle_product([], [A_HALF], 0)


class TestOracleEquivalence:
    def test_structured_matches_dense(self, rng):
        for _ in range(30):
            s = int(rng.integers(1, 7))
            m = int(rng.integers(1, 8 - s + 1)) if s < 7 else 1
            length = int(rng.integers(1, 51))
            seq = [random_block(rng, s, m) for _ in range(length)]
            state = run(seq, CERT_09)[-1]
            dense = dense_partial_product(seq, length)
            assert np.linalg.norm(dense[:s, s:] - state.x) < 1e-11
            assert np.linalg.norm(dense[s:, s:] - state.gamma) < 1e-11


class TestLeftProduct:
    def test_first_step(self, rng):
        a = random_block(rng, 2, 2)
        z, gamma = left_product_step(left_product_init(2, 2), a)
        assert np.array_equal(z, a.b)
        assert np.array_equal(gamma, a.c)

    @pytest.mark.parametrize("s,m", [(2, 1), (1, 2)])
    def test_nonconforming_state_is_shape_error(self, s, m):
        with pytest.raises(ShapeError, match="block split"):
            left_product_step(left_product_init(s, m), A_HALF)

    def test_constant_geometric_series(self):
        state = left_product_init(1, 1)
        for _ in range(120):
            state = left_product_step(state, A_HALF)
        assert state[0][0, 0].real == pytest.approx(2.0, abs=1e-12)

    def test_matches_dense_left_product_and_decays(self, rng):
        for _ in range(10):
            s = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            seq = [random_block(rng, s, m, bscale=3.0) for _ in range(25)]
            bmax = max(norm_value(a.b, INF_NORM) for a in seq)
            state = left_product_init(s, m)
            dense = np.eye(s + m, dtype=complex)
            prev_z = state[0]
            for n, a in enumerate(seq, start=1):
                state = left_product_step(state, a)
                dense = a.to_dense() @ dense
                assert np.abs(dense[:s, s:] - state[0]).max() < 1e-11
                assert np.abs(dense[s:, s:] - state[1]).max() < 1e-11
                increment = norm_value(state[0] - prev_z, INF_NORM)
                assert increment <= bmax * 0.9 ** (n - 1) + 1e-12
                prev_z = state[0]


class TestTraceRow:
    def test_fields(self):
        states = run([A_HALF] * 2, CERT_HALF)
        row = trace_row(states[-1], CERT_HALF)
        assert row.n == 2
        assert row.norm_X == pytest.approx(1.5)
        assert row.norm_Y == 0.0
        assert row.norm_D == pytest.approx(0.5)
        assert row.bound == pytest.approx(0.5)
        assert row.norm_gamma == pytest.approx(0.25)
        assert row.bound >= row.norm_D - 1e-10

    @pytest.mark.parametrize("kind", ["inf", "fro", "lyapunov"])
    def test_evaluates_the_norm_of_gamma_where_none_was_kept(self, rng, kind):
        norms = {n.kind: n for n in BUILTIN_NORMS}
        norms["lyapunov"] = lyapunov_norm([[2.0, 0.5], [0.5, 1.0]])
        cert = ContractionCertificate(norms[kind], 0.5)
        empty = initial_state(1, 2)
        assert empty.norm_gamma is None
        assert trace_row(empty, cert).norm_gamma == norm_value(np.eye(2), cert.norm)
        x, gamma = np.zeros((1, 2), dtype=complex), random_complex(rng, 2, 2)
        by_hand = ProductState(3, x, gamma, x, x, None, 0.0)
        assert trace_row(by_hand, cert).norm_gamma == norm_value(gamma, cert.norm)
