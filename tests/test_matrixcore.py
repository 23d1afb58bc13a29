import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from blockprod import (
    AnalysisRefusedError,
    BUILTIN_NORMS,
    BlockprodError,
    BlockUpperTriangular,
    CertificateViolationError,
    ContractionCertificate,
    FROBENIUS,
    GelfandCertificate,
    INF_NORM,
    InvalidCertificateError,
    MatrixNorm,
    NoContractingNormError,
    ONE_NORM,
    ShapeError,
    SingularMatrixError,
    Stream,
    analyze,
    as_matrix,
    lyapunov_norm,
    lyapunov_scaling,
    norm_value,
    solve_right,
    spectral_certificate,
    uniform_certificate,
)
from blockprod import matrixcore
from blockprod.matrixcore import (
    _STEIN_SET_MAX_ORDER,
    _certificate_search,
    _norms,
    _solve_right_each,
    _stein_assembled,
    _stein_certificate,
    _schur,
    _stein_schur,
)
from conftest import random_complex

FIXTURES = Path(__file__).parent / "fixtures"

NILPOTENT = np.array([[0.0, 2.0], [0.0, 0.0]])
BIG = np.finfo(np.float64).max


def triple_loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestMatmul:
    def test_identity(self, rng):
        m = random_complex(rng, 2, 2)
        assert np.array_equal(np.eye(2) @ m, m)

    def test_nilpotent_square(self):
        assert np.array_equal(NILPOTENT @ NILPOTENT, np.zeros((2, 2)))

    def test_against_triple_loop(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        assert np.abs(a @ b - triple_loop_matmul(a, b)).max() < 1e-13

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            random_complex(rng, 2, 3) @ random_complex(rng, 2, 3)


def with_entry(value, part, at, shape=(2, 2)):
    """A finite complex matrix of *shape* whose first or last entry has
    *value* in its real or imaginary part."""
    m = np.full(shape, 0.25 + 0.5j)
    m.flat[0 if at == "first" else -1] = complex(
        *((value, 0.5) if part == "real" else (0.25, value))
    )
    return m


FINITE_EXTREMES = pytest.mark.parametrize(
    "value", [0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]
)


class TestAsMatrix:
    def test_rejects_nonfinite(self):
        # NaN, +inf and -inf in the real or the imaginary part of the first
        # or the last entry, through every construction point
        for value, part, at in itertools.product(
            (np.nan, np.inf, -np.inf), ("real", "imag"), ("first", "last")
        ):
            m = with_entry(value, part, at)
            p = np.eye(2, dtype=np.complex128)
            p.flat[0 if at == "first" else -1] = m.flat[0 if at == "first" else -1]
            for build in (
                lambda: as_matrix(m),
                lambda: BlockUpperTriangular(2, m, 0.5 * np.eye(2)),
                lambda: BlockUpperTriangular(2, np.ones((2, 2)), m),
                lambda: lyapunov_norm(p),
            ):
                with pytest.raises(ShapeError, match="matrix entries must be finite"):
                    build()

    @FINITE_EXTREMES
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("at", ["first", "last"])
    def test_accepts_signed_zeros_and_the_largest_doubles(self, value, part, at):
        m = with_entry(value, part, at)
        assert np.array_equal(as_matrix(m), m)
        a = BlockUpperTriangular(2, m, 0.5 * np.eye(2))
        assert np.array_equal(a.b, m)
        assert np.array_equal(BlockUpperTriangular(2, np.ones((2, 2)), m).c, m)

    def test_scaling_accepts_signed_zeros(self):
        p = np.array([[1.0, -0.0], [0.0, 2.0]])
        assert np.array_equal(lyapunov_norm(p).scaling, p)

    def test_refuses_scalars_and_vectors(self):
        with pytest.raises(ShapeError):
            as_matrix(3.0)
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    @pytest.mark.parametrize(
        "data",
        [
            "x", [[1.0], [1.0, 2.0]], [[1.0, "a"]], [[object()]], [[10**400]], {"a": 1},
            [[None]], np.array([[1.0, None]], dtype=object),
        ],
        ids=["string", "ragged", "word_entry", "object_entry", "huge_int", "dict",
             "none_entry", "none_in_object_array"],
    )  # fmt: skip
    def test_refuses_what_numpy_cannot_read(self, data):
        # through every construction point, with no numpy error escaping;
        # numpy reads None as NaN, which is no number here either
        for build in (
            lambda: as_matrix(data),
            lambda: BlockUpperTriangular(1, data, [[0.5]]),
            lambda: BlockUpperTriangular(1, [[1.0]], data),
            lambda: lyapunov_norm(data),
            lambda: norm_value(data, INF_NORM),
            lambda: solve_right(data, [[0.5]]),
        ):
            with pytest.raises(ShapeError, match="^matrix entries must be numbers in rows"):
                build()

    def test_a_complex_matrix_is_not_copied(self):
        m = np.asfortranarray(np.ones((2, 3), dtype=np.complex128))
        assert as_matrix(m) is m


class TestSolveRight:
    def test_scalar_division(self):
        assert solve_right([[1.0]], [[0.5]])[0, 0] == pytest.approx(2.0)

    def test_identity(self, rng):
        b = random_complex(rng, 2, 3)
        out = solve_right(b, np.eye(3))
        assert np.abs(out - b).max() < 1e-14

    def test_explicit_2x2(self):
        # inverse of [[0.5, -0.25], [0, 0.5]] is [[2, 1], [0, 2]]
        out = solve_right([[1.0, 0.0]], [[0.5, -0.25], [0.0, 0.5]])
        assert np.abs(out - [[2.0, 1.0]]).max() < 1e-14

    def test_residual_contract(self, rng):
        for _ in range(50):
            n = rng.integers(1, 7)
            m = random_complex(rng, n, n) + 3 * np.eye(n)
            b = random_complex(rng, rng.integers(1, 5), n)
            x = solve_right(b, m)
            assert np.linalg.norm(x @ m - b) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_a_solution_that_is_not_finite_is_refused(self):
        # the solve of BlockUpperTriangular.limit, which keeps its own message
        b, m = [[1e308, 1e308]], [[0.5, 0.0], [0.0, 0.5]]
        with pytest.raises(AnalysisRefusedError, match=r"^solution X of X m = b has"):
            solve_right(b, m)
        with pytest.raises(AnalysisRefusedError, match=r"^limit candidate B \(I - C\)"):
            BlockUpperTriangular(1, b, np.eye(2) - m).limit

    def test_singular_raises_with_pivot(self):
        with pytest.raises(SingularMatrixError) as exc:
            solve_right([[1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]])
        assert exc.value.pivot >= 0.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_leaves_its_operands_unchanged(self, rng, order):
        m = np.array(random_complex(rng, 4, 4) + 3 * np.eye(4), order=order)
        b = np.array(random_complex(rng, 3, 4), order=order)
        m0, b0 = m.copy(), b.copy()
        solve_right(b, m)
        assert np.array_equal(m, m0) and np.array_equal(b, b0)

    def test_shape_errors(self, rng):
        with pytest.raises(ShapeError):
            solve_right([[1.0]], random_complex(rng, 2, 3))
        with pytest.raises(ShapeError):
            solve_right([[1.0, 2.0, 3.0]], np.eye(2))


#: the reference arithmetic of _solve_right_each: an LU factorization, then
#: the solve with it, as two LAPACK calls
GETRF, GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def getrf_getrs_reference(bs, ms):
    """_solve_right_each by one getrf and one getrs call per pair: the
    solutions up to the first m_i whose pivots fail the rule
    min |u_jj| <= 1e-14 max(1, max |u_jj|), that index, and its smallest
    pivot (None, None when every m_i passes)."""
    xs = []
    for i, (b, m) in enumerate(zip(bs, ms)):
        lu, piv, _ = GETRF(m.T)
        pivots = np.abs(np.diagonal(lu))
        low, high = float(pivots.min()), float(pivots.max())
        if low <= 1e-14 * max(1.0, high):
            return xs, i, low
        xs.append(GETRS(lu, piv, b.T)[0].T)
    return xs, None, None


@st.composite
def solve_lists(draw):
    """Up to eight pairs (b, m), b of shape s x m and m of order m, s <= 6 and
    m <= 12, C-ordered as the step engine passes them.  A member of m is
    regular, exactly singular (a zero row), singular to working precision (a
    row that is a combination of the others) or badly scaled."""
    s, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(
        st.lists(
            st.sampled_from(["regular", "zero_row", "dependent", "scaled"]),
            min_size=1,
            max_size=8,
        )
    )
    bs, ms = [], []
    for kind in kinds:
        m = random_complex(rng, n, n)
        if kind == "zero_row":
            m[rng.integers(n)] = 0.0
        elif kind == "dependent":
            w = random_complex(rng, 1, n)
            w[0, -1] = 0.0
            m[-1] = (w @ m)[0]
        elif kind == "scaled":
            m *= 10.0 ** rng.uniform(-20, 20)
        bs.append(random_complex(rng, s, n))
        ms.append(m)
    return bs, np.array(ms)


class TestSolveRightEach:
    def test_stops_at_the_first_singular_matrix(self, rng):
        ms = [random_complex(rng, 3, 3) + 4 * np.eye(3) for _ in range(4)]
        ms[2] = np.ones((3, 3), dtype=np.complex128)
        bs = [random_complex(rng, 2, 3) for _ in range(4)]
        xs, singular = _solve_right_each(bs, ms)
        assert len(xs) == 2
        for x, b, m in zip(xs, bs, ms):
            assert np.array_equal(x, solve_right(b, m))
        with pytest.raises(SingularMatrixError) as exc:
            solve_right(bs[2], ms[2])
        assert singular.pivot == exc.value.pivot

    def test_all_regular(self, rng):
        ms = [random_complex(rng, 2, 2) + 3 * np.eye(2) for _ in range(3)]
        xs, singular = _solve_right_each([np.eye(2)] * 3, np.array(ms))
        assert singular is None and len(xs) == 3

    @settings(max_examples=200, deadline=None)
    @given(case=solve_lists())
    def test_bit_identical_to_getrf_and_getrs(self, case):
        bs, ms = case
        xs, singular = _solve_right_each(bs, ms)
        want, at, pivot = getrf_getrs_reference(bs, ms)
        assert len(xs) == len(want) == (len(bs) if at is None else at)
        for x, w in zip(xs, want):
            assert x.tobytes() == w.tobytes()
        if at is None:
            assert singular is None
        else:
            assert singular.pivot == pivot


@st.composite
def matrix_stacks(draw):
    k = draw(st.integers(1, 20))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-8, 8, (k, 1, 1))
    return scale * random_complex(rng, k * rows, cols).reshape(k, rows, cols)


def scaling_matrix(rng, n, max_cond=1e12):
    """A random Hermitian positive definite n x n matrix of condition number
    up to *max_cond*, times a random power of ten."""
    q, _ = np.linalg.qr(random_complex(rng, n, n))
    p = (q * 10.0 ** rng.uniform(0.0, np.log10(max_cond), n)) @ q.conj().T
    return (p + p.conj().T) * 10.0 ** rng.integers(-20, 20)


@st.composite
def lyapunov_stacks(draw):
    """A Lyapunov norm of order m <= 12 and a stack of k <= 20 matrices,
    square or r x m, the shapes the step engine measures."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    r = m if draw(st.booleans()) else draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-8, 8, (k, 1, 1))
    norm = lyapunov_norm(scaling_matrix(rng, m))
    return scale * random_complex(rng, k * r, m).reshape(k, r, m), norm


class TestStackedNorms:
    @settings(max_examples=60, deadline=None)
    @given(st_=matrix_stacks())
    def test_bit_identical_to_one_matrix(self, st_):
        # the step engine relies on this for bit-identical traces; the
        # reference is np.linalg.norm, the formula of each built-in kind
        for kind, order in zip(BUILTIN_NORMS, (np.inf, 1, None)):
            got = _norms(st_, kind).tolist()
            assert got == [float(np.linalg.norm(m, order)) for m in st_]

    @settings(max_examples=60, deadline=None)
    @given(case=lyapunov_stacks())
    def test_lyapunov(self, case):
        st_, norm = case
        assert _norms(st_, norm).tolist() == [norm_value(m, norm) for m in st_]


class TestNormValue:
    def test_inf_single_row(self):
        assert norm_value(NILPOTENT, INF_NORM) == 2.0

    def test_one_is_max_column_sum(self):
        assert norm_value([[1, -3], [2, 1]], ONE_NORM) == 4.0

    def test_frobenius_identity(self):
        assert norm_value(np.eye(3), FROBENIUS) == pytest.approx(np.sqrt(3))

    def test_lyapunov_matches_grid_oracle(self, rng):
        p = np.diag([1.0, 5.0])
        kind = lyapunov_norm(p)
        got = norm_value(NILPOTENT, kind)
        # maximize |Mx|_P / |x|_P over many random directions
        best = 0.0
        for _ in range(4000):
            x = random_complex(rng, 2, 1)
            num = np.sqrt((NILPOTENT @ x).conj().T @ p @ (NILPOTENT @ x)).real.item()
            den = np.sqrt(x.conj().T @ p @ x).real.item()
            best = max(best, num / den)
        assert got == pytest.approx(2 / np.sqrt(5), abs=1e-12)
        assert best <= got + 1e-9
        assert best == pytest.approx(got, abs=1e-3)

    def test_lyapunov_shape_mismatch(self):
        kind = lyapunov_norm(np.eye(3))
        with pytest.raises(ShapeError):
            norm_value(NILPOTENT, kind)

    def test_lyapunov_rejects_bad_scaling(self):
        with pytest.raises(ShapeError):
            lyapunov_norm([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian
        with pytest.raises(ShapeError):
            lyapunov_norm([[-1.0]])  # not positive definite
        with pytest.raises(ShapeError, match="nonempty"):
            lyapunov_norm(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "p",
        [
            [[1.0, 1.0], [0.0, 1.0]],
            [[2.0, 1.0], [1.0 + 5e-6, 2.0]],
            [[-1.0]],
            [[1.0, 0.0]],
            [[BIG, -BIG], [BIG, BIG]],  # p - p* overflows: no warning either
        ],
        ids=[
            "not_hermitian",
            "hermitian_only_relatively",
            "not_positive_definite",
            "not_square",
            "huge_not_hermitian",
        ],
    )
    def test_direct_construction_validates_scaling(self, p):
        with pytest.raises(ShapeError):
            MatrixNorm("lyapunov", p)

    def test_direct_construction_symmetrises(self):
        p = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
        kind = MatrixNorm("lyapunov", p)
        assert np.array_equal(kind.scaling, kind.scaling.conj().T)
        assert np.array_equal(kind.scaling, lyapunov_norm(p).scaling)

    @pytest.mark.parametrize(
        "p",
        [
            np.diag([BIG, 1.0]),
            BIG * np.array([[1.0, 0.5], [0.5, 1.0]]),
            BIG * np.array([[1.0, 0.5j], [-0.5j, 1.0]]),
            BIG * np.array([[1.0, 0.9], [0.9, 1.0]]),
        ],
        ids=["diagonal", "real", "complex", "near_singular"],
    )
    def test_scaling_with_the_largest_doubles(self, p):
        # p + p* overflows, so the halves are summed: p itself is stored,
        # with no warning (pytest turns warnings into errors)
        kind = lyapunov_norm(p)
        assert np.array_equal(kind.scaling, p)
        assert norm_value(0.5 * np.eye(2), kind) == pytest.approx(0.5, rel=1e-12)

    def test_symmetrised_sum_is_kept_when_it_is_finite(self):
        # subnormal off-diagonal entries of 1 and 2 units in the last place:
        # 0.5 * (1 + 2) rounds to 2 units, 0.5 * 1 + 0.5 * 2 to 1
        tiny = np.nextafter(0.0, 1.0)
        p = np.array([[1.0, tiny], [2 * tiny, 1.0]])
        stored = lyapunov_norm(p).scaling
        assert stored[0, 1] == stored[1, 0] == 2 * tiny
        assert np.array_equal(stored, 0.5 * (p + p.conj().T))

    @pytest.mark.parametrize(
        "m, p, value, rel",
        [
            (2 * np.eye(2), np.diag([8e307, 1.0]), 2.0, 0),
            (1e200 * np.eye(2), np.eye(2), 1e200, 0),
            (np.diag([3, 1]) * (1 + 1j), np.diag([BIG, 1e-300]), 3 * 2**0.5, 1e-15),
            (np.full((3, 3), complex(BIG, BIG)), BIG * np.eye(3), np.inf, 0),
            (1e200 * np.ones((1, 2)), 1e-300 * np.eye(2), np.inf, 0),
        ],
        ids=[
            "huge_scaling",
            "huge_matrix",
            "both",
            "norm_above_the_largest_double",
            "rectangular_above_the_largest_double",
        ],
    )
    def test_overflowing_gram_product_is_scaled(self, m, p, value, rel):
        # L* M L^-* (M L^-* if M is rectangular) or its SVD is not finite, so
        # the value is 2^k ||2^-k M||, with no warning (pytest turns warnings
        # into errors)
        assert norm_value(m, lyapunov_norm(p)) == pytest.approx(value, rel=rel, abs=0)

    @pytest.mark.parametrize(
        "kind, m, value, rel",
        [
            (FROBENIUS, 1e200 * np.ones((3, 3)), 3e200, 1e-15),
            (FROBENIUS, np.array([[3e300, 4e300j]]), 5e300, 1e-15),
            (FROBENIUS, np.full((2, 2), complex(BIG, BIG)), np.inf, 0),
            (ONE_NORM, np.array([[1e308, 0], [1e308j, 1]]), np.inf, 0),
            (INF_NORM, np.array([[1e308, 1e308], [0, 1]]), np.inf, 0),
            (INF_NORM, np.full((2, 2), complex(BIG, BIG)), np.inf, 0),
        ],
        ids=[
            "huge_matrix",
            "huge_row",
            "norm_above_the_largest_double",
            "one-column_sum_above_the_largest_double",
            "inf-row_sum_above_the_largest_double",
            "inf-moduli_above_the_largest_double",
        ],
    )
    def test_overflowing_frobenius_sum_is_scaled(self, kind, m, value, rel):
        # the sum of squares (a column or row sum of moduli) is not finite,
        # so the value is 2^k ||2^-k M||: inf past the largest double, with
        # no warning (pytest turns warnings into errors)
        assert norm_value(m, kind) == pytest.approx(value, rel=rel, abs=0)

    @pytest.mark.parametrize(
        "kind", [*BUILTIN_NORMS, lyapunov_norm(np.diag([1.0, 5.0]))], ids=lambda k: k.kind
    )
    @pytest.mark.parametrize(
        "entry", [-np.inf, complex(0, np.inf), complex(1e308, -np.inf)],
        ids=["real", "imaginary", "both_parts"],
    )
    def test_an_infinite_entry_reads_inf(self, kind, entry):
        # a step engine quantity past the largest double has such entries;
        # scaling the complex stack by a real 2^-k gave the part beside an
        # infinite one NaN (inf * 0), so the Frobenius norm read NaN, and the
        # Lyapunov product has NaN entries whatever the scaling
        st_ = np.zeros((2, 2, 2), dtype=complex)
        st_[0, 1, 0] = entry
        st_[1] = [[1, 2], [3, 4]]
        got = _norms(st_, kind).tolist()
        assert got == [np.inf, norm_value(st_[1], kind)]

    @pytest.mark.parametrize(
        "kind", [*BUILTIN_NORMS, lyapunov_norm(np.eye(2))], ids=lambda k: k.kind
    )
    def test_a_nan_part_keeps_the_evaluated_value(self, kind):
        # NaN, except where the modulus of an entry with an infinite part,
        # inf, is a row or column sum: the rescue never turns inf into NaN
        st_ = np.array([
            [[np.nan, 0], [0, 1]],
            [[np.inf, 0], [complex(0, np.nan), 1]],
            [[complex(np.inf, np.nan), 0], [0, 1]],
        ])  # fmt: skip
        last = np.inf if kind in (ONE_NORM, INF_NORM) else np.nan
        np.testing.assert_equal(_norms(st_, kind), [np.nan, np.nan, last])

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        exponent=st.integers(-300, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_finite_frobenius_sum_keeps_its_bits(self, rows, cols, exponent, seed):
        m = random_complex(np.random.default_rng(seed), rows, cols) * 10.0**exponent
        f = m.ravel()
        plain = np.sqrt(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag))
        assert norm_value(m, FROBENIUS) == plain

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        exponent=st.integers(-300, 307),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_finite_row_and_column_sums_keep_their_bits(
        self, rows, cols, exponent, seed
    ):
        # some sums with exponent 307 pass the largest double: both read inf
        m = random_complex(np.random.default_rng(seed), rows, cols) * 10.0**exponent
        a = np.abs(m)
        with np.errstate(over="ignore"):
            sums = a.sum(axis=0).max(), a.sum(axis=1).max()
        for kind, plain in zip((ONE_NORM, INF_NORM), sums):
            assert norm_value(m, kind) == plain

    def test_ill_conditioned_scaling(self):
        # the generalized eigensolver read NaN here
        kind = lyapunov_norm(np.diag([1e300, 1e-300]))
        assert norm_value([[0.0, 1e-4], [0.0, 0.0]], kind) == 1e296

    @pytest.mark.parametrize("shape", [(0, 0), (1, 0), (0, 3)])
    @pytest.mark.parametrize("kind", BUILTIN_NORMS, ids=lambda k: k.kind)
    def test_empty_matrix_has_norm_zero(self, shape, kind):
        assert norm_value(np.zeros(shape), kind) == 0.0

    def test_empty_matrix_has_lyapunov_norm_zero(self):
        assert norm_value(np.zeros((0, 3)), lyapunov_norm(np.eye(3))) == 0.0

    def test_ignores_memory_layout(self, rng):
        for _ in range(200):
            rows, cols = rng.integers(1, 40, 2)
            m = random_complex(rng, rows, cols)
            for kind in (*BUILTIN_NORMS, lyapunov_norm(scaling_matrix(rng, cols))):
                assert norm_value(np.asfortranarray(m), kind) == norm_value(m, kind)

    def test_as_accurate_as_the_generalized_eigensolver(self, rng):
        # ||M||_P against the exact value for the float inputs, at 200 bits:
        # within 16 eps of the error of sqrt(lambda_max(M* P M, P)) by eigh
        mpmath = pytest.importorskip("mpmath")
        for _ in range(150):
            n = rng.integers(1, 6)
            norm = lyapunov_norm(scaling_matrix(rng, n))
            m = random_complex(rng, n, n) * 10.0 ** rng.integers(-20, 20)
            p = norm.scaling
            a = m.conj().T @ p @ m
            w = scipy.linalg.eigh(0.5 * (a + a.conj().T), p, eigvals_only=True)
            with mpmath.workprec(200):
                p_, m_ = mpmath.matrix(p.tolist()), mpmath.matrix(m.tolist())
                l_ = mpmath.cholesky(p_)
                w_ = l_.H * m_ * (l_ ** -1).H
                exact = max(mpmath.svd_c(w_, compute_uv=False))
                errors = [
                    float(abs(mpmath.mpf(v) - exact) / exact)
                    for v in (norm_value(m, norm), np.sqrt(w[-1]))
                ]
            assert errors[0] <= errors[1] + 16 * np.finfo(float).eps

    def test_equality_compares_scaling(self):
        # the two norms measure [[0, 1], [0, 0]] as 1 and 0.1
        a, b = lyapunov_norm(np.eye(2)), lyapunov_norm(np.diag([1.0, 100.0]))
        assert a != b
        assert a == lyapunov_norm(np.eye(2)) and hash(a) == hash(b)
        assert ContractionCertificate(a, 0.5) != ContractionCertificate(b, 0.5)
        assert INF_NORM == MatrixNorm("inf") and INF_NORM != ONE_NORM != a

    @pytest.mark.parametrize("kind", BUILTIN_NORMS, ids=lambda k: k.kind)
    def test_submultiplicative_builtin(self, rng, kind):
        for _ in range(100):
            n = rng.integers(1, 6)
            a = random_complex(rng, n, n)
            b = random_complex(rng, n, n)
            assert norm_value(a @ b, kind) <= (
                norm_value(a, kind) * norm_value(b, kind) + 1e-10
            )

    def test_submultiplicative_lyapunov(self, rng):
        p = random_complex(rng, 3, 3)
        kind = lyapunov_norm(p @ p.conj().T + np.eye(3))
        for _ in range(100):
            a = random_complex(rng, 3, 3)
            b = random_complex(rng, 3, 3)
            assert norm_value(a @ b, kind) <= (
                norm_value(a, kind) * norm_value(b, kind) + 1e-10
            )


class TestLyapunovScaling:
    def test_zero_matrix(self):
        kind = lyapunov_scaling(np.zeros((2, 2)))
        assert np.abs(kind.scaling - np.eye(2)).max() < 1e-12
        assert norm_value(np.zeros((2, 2)), kind) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_stein(self):
        kind = lyapunov_scaling([[0.9]])
        assert kind.scaling[0, 0].real == pytest.approx(1 / 0.19)
        assert norm_value([[0.9]], kind) == pytest.approx(0.9, abs=1e-12)

    def test_nilpotent_matches_series(self):
        kind = lyapunov_scaling(NILPOTENT)
        # C^2 = 0, so the series sum_k C*^k C^k is I + C* C
        series = np.eye(2) + NILPOTENT.conj().T @ NILPOTENT
        assert np.abs(kind.scaling - series).max() < 1e-10
        assert norm_value(NILPOTENT, kind) < 1.0

    def test_contracts_random_spectral_radius(self, rng):
        for _ in range(30):
            n = rng.integers(1, 6)
            c = random_complex(rng, n, n)
            rho = max(np.abs(np.linalg.eigvals(c)))
            c *= rng.uniform(0.1, 0.95) / rho
            kind = lyapunov_scaling(c)
            assert norm_value(c, kind) < 1.0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError, match="nonempty"):
            lyapunov_scaling(np.zeros((0, 0)))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError, match="^matrix must be square$"):
            lyapunov_scaling([[0.1, 0.2]])

    def test_rejects_expanding(self):
        with pytest.raises(NoContractingNormError):
            lyapunov_scaling([[1.5]])
        with pytest.raises(NoContractingNormError):
            lyapunov_scaling([[0.0, 1.0], [-1.0, 0.0]])  # spectral radius 1


def kron_stein(cs):
    """Oracle: P - sum_i C_i* P C_i = I solved through the dense
    vectorization vec(C* P C) = (C^T kron C*) vec(P), column-major vec."""
    n = cs[0].shape[0]
    op = np.eye(n * n, dtype=complex) - sum(np.kron(c.T, c.conj().T) for c in cs)
    return np.linalg.solve(op, np.eye(n).flatten("F")).reshape((n, n), order="F")


def rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


@st.composite
def stein_members(draw):
    """1-3 random complex m x m matrices, m <= 14, scaled so the spectral
    radius of P -> sum_i C_i* P C_i (for one matrix, the square of its
    spectral radius) is at most 0.95, so a positive definite solution exists."""
    m, k = draw(st.integers(1, 14)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cs = [random_complex(rng, m, m) for _ in range(k)]
    rho = max(abs(np.linalg.eigvals(sum(np.kron(c.T, c.conj().T) for c in cs))))
    scale = np.sqrt(draw(st.floats(0.1, 0.95)) / rho)
    return [c * scale for c in cs]


class TestSteinSolve:
    @settings(max_examples=60, deadline=None)
    @given(cs=stein_members())
    def test_matches_kron_oracle_and_is_accepted(self, cs):
        p = _stein_schur(cs[0]) if len(cs) == 1 else _stein_assembled(cs)
        expected = kron_stein(cs)
        assert np.abs(p - expected).max() <= 1e-8 * np.abs(expected).max()
        if len(cs) > 1:  # solved over the real coordinates of a Hermitian P
            assert np.array_equal(p, p.conj().T)
        cert = _stein_certificate(cs)
        assert cert.kind == "lyapunov" and cert.rate < 1.0
        assert np.abs(cert.norm.scaling - p).max() <= 1e-8 * np.abs(p).max()

    def test_certifies_near_minus_one_at_m_12(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 12)))
        c = q @ np.diag([-1 + 1e-9] + [0.5] * 11) @ q.T
        kind = lyapunov_scaling(c)
        assert norm_value(c, kind) == pytest.approx(1 - 1e-9, abs=1e-12)

    def test_certifies_nilpotent_shift_at_m_12(self):
        c = np.eye(12, k=1)
        kind = lyapunov_scaling(c)
        # C^12 = 0, so P = sum_k C*^k C^k = diag(1, 2, ..., 12)
        assert np.abs(kind.scaling - np.diag(np.arange(1.0, 13.0))).max() < 1e-12
        assert norm_value(c, kind) < 1.0

    @pytest.mark.parametrize(
        "c",
        [
            np.eye(12),
            -np.eye(12),
            scipy.linalg.block_diag(*map(rotation, (0.3, 0.7, 1.0, 2.0, 2.5, 3.0))),
            np.exp(0.7j) * (np.eye(12) + np.eye(12, k=1)),
            # ||P|| is so large that a norm squaring its entries overflows
            0.99999999 * (np.eye(12) + 0.3 * np.eye(12, k=1)),
        ],
        ids=["identity", "minus_identity", "rotations", "unit_jordan", "huge_scaling"],
    )
    def test_refuses_unit_circle_without_warning(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoContractingNormError):
                lyapunov_scaling(c)
            assert spectral_certificate(c) is None

    def test_set_above_the_cap_is_refused_before_allocating(self):
        m = _STEIN_SET_MAX_ORDER + 1
        c = 0.5 * np.eye(m) + 0.9 * np.eye(m, k=1)
        tracemalloc.start()
        try:
            assert uniform_certificate([c, c.T]) is None
            with pytest.raises(NoContractingNormError, match=f"m = {m}.*order {m * m}"):
                _stein_certificate([as_matrix(c), as_matrix(c.T)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the system would take 8 m^4 bytes, about 46 MB
        assert peak < 4e6

    def test_singular_set_is_refused_without_warning(self):
        # P - I P I - 0 P 0 = I has no solution: the system is exactly zero
        cs = [np.eye(3), np.zeros((3, 3))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert uniform_certificate(cs) is None
            with pytest.raises(NoContractingNormError, match="singular"):
                _stein_assembled([as_matrix(c) for c in cs])

    def test_set_solve_allocates_no_more_than_its_complex_system(self):
        # an m = 16 set solve took 1049 KiB while its system was complex
        # (16 m^4 bytes); the real system takes 8 m^4 bytes, 512 KiB
        rng = np.random.default_rng(16)
        cs = [0.1 * random_complex(rng, 16, 16) for _ in range(3)]
        _stein_assembled(cs)
        tracemalloc.start()
        try:
            _stein_assembled(cs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1049 * 1024


class TestCertificateSearch:
    @settings(max_examples=60, deadline=None)
    @given(cs=stein_members(), powers=st.booleans())
    def test_found_contraction_passes_its_own_check(self, cs, powers):
        cert = _certificate_search(cs, powers=powers)
        if isinstance(cert, ContractionCertificate):
            assert cert._violation(np.array(cs, dtype=np.complex128), 1) is None

    def test_check_has_no_slack(self):
        cert = ContractionCertificate(INF_NORM, 0.9999999999999)
        above = np.array([[[np.nextafter(cert.rate, 1.0)]]], dtype=np.complex128)
        violation = cert._violation(above, 3)
        # the values differ in the last digit, so all 17 are printed
        assert str(violation) == (
            "step 3: ||C|| = 0.99999999999990008 exceeds declared rate "
            "0.99999999999989997"
        )

    def test_check_under_a_huge_scaling(self):
        # M* P M overflows for C = 2 I under this P; ||C|| is still 2
        cert = ContractionCertificate(lyapunov_norm(np.diag([8e307, 1.0])), 0.5)
        a = BlockUpperTriangular(1, [[1.0, 0.0]], 2 * np.eye(2))
        violation = cert._violation(a.c[None], 1)
        assert str(violation).startswith("step 1: ||C|| = 2 exceeds")
        with pytest.raises(CertificateViolationError, match="step 1: .* = 2 exceeds"):
            analyze(Stream(iter([a] * 3)), cert=cert)

    def test_check_refuses_a_norm_that_evaluates_to_nan(self, monkeypatch):
        # NaN is what the evaluator reads where even the scaled evaluation
        # is not finite; it must not pass as a contraction
        cert = ContractionCertificate(lyapunov_norm(np.eye(2)), 0.5)
        a = BlockUpperTriangular(1, [[1.0, 0.0]], 0.25 * np.eye(2))
        monkeypatch.setattr(
            matrixcore, "_norms", lambda st, kind: np.full(len(st), np.nan)
        )
        assert str(cert._violation(a.c[None], 4)).startswith("step 4: ||C|| = nan")

    def test_matrices_equal_up_to_signed_zeros_are_one(self):
        signed = NILPOTENT.copy()
        signed[1, 0] = -0.0
        cert = _certificate_search([NILPOTENT, signed], powers=True)
        assert cert == GelfandCertificate(INF_NORM, 0.0, 2)

    @pytest.mark.parametrize("norm", [None, INF_NORM], ids=["auto", "inf"])
    def test_contracting_matrix_is_declared(self, norm):
        cert = spectral_certificate([[0.5]], norm)
        assert cert == ContractionCertificate(INF_NORM, 0.5, "declared")


class TestCertificateTypes:
    @pytest.mark.parametrize(
        "build,error",
        [
            (lambda: ContractionCertificate(INF_NORM, 0.5, "gelfand"), ValueError),
            (
                lambda: ContractionCertificate(INF_NORM, 0.5, "declared", power=7),
                TypeError,
            ),
            (lambda: GelfandCertificate(INF_NORM, 0.5, 0), ValueError),
        ],
        ids=["contraction_kind_gelfand", "contraction_power", "gelfand_power_0"],
    )
    def test_refuses_misuse(self, build, error):
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize("rate", [1.0, -0.1, float("nan")])
    @pytest.mark.parametrize(
        "build",
        [
            lambda rate: ContractionCertificate(INF_NORM, rate),
            lambda rate: GelfandCertificate(INF_NORM, rate, 2),
        ],
        ids=["contraction", "gelfand"],
    )
    def test_rate_outside_unit_interval_refused(self, build, rate):
        with pytest.raises(InvalidCertificateError, match="not in"):
            build(rate)


class TestSpectralCertificate:
    def test_zero(self):
        cert = spectral_certificate(np.zeros((2, 2)))
        assert cert.kind == "declared" and cert.rate == 0.0

    def test_nilpotent(self):
        cert = spectral_certificate(NILPOTENT)
        assert cert.kind == "gelfand" and cert.power == 2 and cert.rate == 0.0

    def test_large_offdiagonal_needs_k_12(self):
        c = np.array([[0.5, 100.0], [0.0, 0.5]])
        cert = spectral_certificate(c)
        assert cert.kind == "gelfand" and cert.power == 12
        assert cert.norm.kind == "inf"
        # repeated-multiplication oracle: ||C^k||_inf = 0.5^k + 100 k 0.5^(k-1)
        power = np.eye(2)
        for _ in range(12):
            power = power @ c
        expected = 0.5**12 + 100 * 12 * 0.5**11
        assert norm_value(power, INF_NORM) == pytest.approx(expected)
        assert cert.rate == pytest.approx(expected ** (1 / 12))

    def test_lyapunov_fallback(self):
        # spectral radius 0.9, but ||C^k|| >= 1 in every built-in norm for
        # every power k <= 64, forcing the Lyapunov route
        c = np.array([[0.9, 30.0], [0.0, 0.9]])
        cert = spectral_certificate(c)
        assert cert is not None and cert.kind == "lyapunov"
        assert norm_value(c, cert.norm) <= cert.rate < 1.0

    @pytest.mark.parametrize("norm", BUILTIN_NORMS, ids=lambda k: k.kind)
    def test_given_norm_is_searched_alone(self, norm):
        # without the built-in fallback order and the Lyapunov route
        assert spectral_certificate([[0.9, 30.0], [0.0, 0.9]], norm) is None
        cert = spectral_certificate(NILPOTENT, norm)
        assert cert.norm == norm and cert.power == 2 and cert.rate == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError, match="nonempty"):
            spectral_certificate(np.zeros((0, 0)))
        with pytest.raises(ShapeError, match="nonempty"):
            uniform_certificate([np.zeros((0, 0))])

    def test_rejects_matrices_of_two_orders(self):
        with pytest.raises(ShapeError, match="square and of one order"):
            uniform_certificate([0.5 * np.eye(2), 0.5 * np.eye(3)])

    def test_undecided_is_none(self):
        assert spectral_certificate([[1.5]]) is None
        assert spectral_certificate([[1.0]]) is None

    def test_rate_dominates_spectral_radius(self, rng):
        for _ in range(30):
            n = rng.integers(1, 6)
            c = np.triu(random_complex(rng, n, n))
            c[np.diag_indices(n)] *= rng.uniform(0.1, 0.9) / np.abs(
                np.diag(c)
            ).clip(min=1e-9)
            rho = max(np.abs(np.diag(c)))
            cert = spectral_certificate(c)
            if cert is not None:
                assert cert.rate >= rho - 1e-8


@st.composite
def schur_inputs(draw):
    """A complex m x m matrix, m <= 40: random, times a power of ten;
    nilpotent, a strictly upper triangular matrix in a random unitary basis;
    or with every eigenvalue between 1e-12 and 1e-2 inside the unit circle."""
    m = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "nilpotent", "unit_modulus"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return random_complex(rng, m, m) * 10.0 ** rng.uniform(-8, 8)
    q, _ = np.linalg.qr(random_complex(rng, m, m))
    t = np.triu(random_complex(rng, m, m), 1)
    if kind == "unit_modulus":
        angles = np.exp(2j * np.pi * rng.uniform(size=m))
        t = 0.1 * t + np.diag(angles * (1 - 10.0 ** rng.uniform(-12, -2, m)))
    return q @ t @ q.conj().T


#: run in a fresh process: the CLI on paths that reach every LAPACK routine
#: of matrixcore, then the modules loaded (the scipy package itself is
#: imported on Windows only), then scipy.linalg's own routine objects
#: compared with those matrixcore holds
LOADED_MODULES_SCRIPT = """
import contextlib, io, json, re, sys
import numpy as np
import blockprod, blockprod.cli
from blockprod import matrixcore
fixtures = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        blockprod.cli.main(
            ["product", "--input", fixtures + "/constant.json", "--n", "5"]
        ),
        blockprod.cli.main(
            ["norm", "--input", fixtures + "/nilpotent.json", "--kind", "lyapunov"]
        ),
        blockprod.cli.main(
            ["certify-rcp", "--input", fixtures + "/lyapunov_set.json"]
        ),
    ]
unwanted = {"scipy.linalg", "scipy.linalg._fblas", "numpy.f2py", "numpy.testing"}
if sys.platform != "win32":
    unwanted.add("scipy")
loaded = sorted(unwanted & set(sys.modules))
try:  # the shared objects mapped into this process, where the system lists them
    with open("/proc/self/maps") as fh:
        mapped = sorted(set(re.findall(r"/scipy/linalg/(\\w+)\\.", fh.read())))
except OSError:
    mapped = None
import scipy.linalg
lapack = scipy.linalg.get_lapack_funcs(
    ("getrf", "getrs", "trtrs", "gees"), dtype=np.complex128
) + scipy.linalg.get_lapack_funcs(("gesv",), dtype=np.float64)
held = (matrixcore._GETRF, matrixcore._GETRS, matrixcore._TRTRS,
        matrixcore._GEES, matrixcore._DGESV)
print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "mapped": mapped,
    "same_lapack": [a is b for a, b in zip(lapack, held)],
    "attributes": [hasattr(scipy.linalg, "_flapack"), hasattr(scipy.linalg, "_fblas")],
}))
"""


def run_fresh(script, *args, cwd=None):
    """The last line *script* prints, run by a fresh interpreter that imports
    blockprod from this tree."""
    src = str(Path(matrixcore.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestLapackSource:
    """matrixcore calls SciPy's compiled LAPACK module directly, never
    scipy.linalg's Python layer, with scipy.linalg's arguments."""

    def test_a_process_never_loads_scipy_linalg(self, tmp_path):
        out = run_fresh(LOADED_MODULES_SCRIPT, str(FIXTURES), cwd=tmp_path)
        assert json.loads(out) == {
            "codes": [0, 0, 0],
            "loaded": [],
            "mapped": ["_flapack"] if sys.platform == "linux" else None,
            "same_lapack": [True] * 5,
            "attributes": [True, True],
        }

    def test_an_imported_scipy_linalg_is_left_as_it_is(self):
        script = (
            "import sys, numpy as np, scipy.linalg\n"
            "flapack = sys.modules['scipy.linalg._flapack']\n"
            "from blockprod import matrixcore\n"
            "print(sys.modules.get('scipy.linalg._flapack') is flapack,"
            " matrixcore._GEES is flapack.zgees,"
            " matrixcore._GETRS is"
            " scipy.linalg.get_lapack_funcs('getrs', dtype=np.complex128))"
        )
        assert run_fresh(script) == "True True True"

    @settings(max_examples=80, deadline=None)
    @given(c=schur_inputs())
    def test_schur_is_bit_identical_to_scipy(self, c):
        got_t, got_z = _schur(c)
        want_t, want_z = scipy.linalg.schur(c, output="complex")
        assert got_t.tobytes() == want_t.tobytes()
        assert got_z.tobytes() == want_z.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_inverse_factor_is_bit_identical_to_scipy(self, n, seed):
        norm = lyapunov_norm(scaling_matrix(np.random.default_rng(seed), n, 1e12))
        want = scipy.linalg.solve_triangular(norm._lt, np.eye(n))
        assert norm._lt_inv.tobytes() == want.tobytes()

    @pytest.mark.parametrize("failing", ["query", "factorization"])
    def test_gees_failure_is_refused(self, monkeypatch, failing):
        original = matrixcore._GEES

        def gees(*args, lwork, **kwargs):
            *out, info = original(*args, lwork=lwork, **kwargs)
            return (*out, 3 if (lwork == -1) == (failing == "query") else info)

        monkeypatch.setattr(matrixcore, "_GEES", gees)
        c = 0.5 * np.eye(3) + np.eye(3, k=1)
        with pytest.raises(BlockprodError, match=r"zgees info 3"):
            lyapunov_scaling(c)
        assert uniform_certificate([c]) is None

    @pytest.mark.parametrize("info", [2, -1])
    def test_trtrs_failure_is_refused(self, monkeypatch, info):
        original = matrixcore._TRTRS

        def trtrs(*args, **kwargs):
            return original(*args, **kwargs)[0], info

        monkeypatch.setattr(matrixcore, "_TRTRS", trtrs)
        with pytest.raises(ShapeError, match="positive definite"):
            lyapunov_norm(np.diag([1.0, 5.0]))
        with pytest.raises(NoContractingNormError):
            lyapunov_scaling(NILPOTENT)
