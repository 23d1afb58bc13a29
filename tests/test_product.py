import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockprod import (
    BlockUpperTriangular,
    CertificateViolationError,
    ContractionCertificate,
    FROBENIUS,
    INF_NORM,
    InvalidCertificateError,
    ShapeError,
    dense_partial_product,
    explicit_sum,
    initial_state,
    left_product_init,
    left_product_step,
    norm_value,
    spectral_certificate,
    step,
    trace_row,
    uniform_certificate,
)
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

    def test_rejects_factor_of_other_shape(self):
        tall = BlockUpperTriangular(2, [[1.0], [2.0]], [[0.5]])
        for state in [initial_state(1, 1), *run([A_HALF], CERT_HALF)]:
            with pytest.raises(ShapeError):
                step(state, tall, CERT_HALF)

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

    def test_structure_preserved_exactly(self, rng):
        for _ in range(20):
            s = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            seq = [random_block(rng, s, m) for _ in range(8)]
            out = dense_partial_product(seq, 8)
            assert np.array_equal(out[:s, :s], np.eye(s))
            assert np.all(out[s:, :s] == 0)


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
