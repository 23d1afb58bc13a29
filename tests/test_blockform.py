import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockprod import AnalysisRefusedError, BlockUpperTriangular, ShapeError, block_mul
from conftest import random_block


def scalar_form(b, c):
    return BlockUpperTriangular(1, [[b]], [[c]])


class TestToDense:
    def test_zero_blocks(self):
        a = scalar_form(0.0, 0.0)
        assert np.array_equal(a.to_dense(), [[1.0, 0.0], [0.0, 0.0]])

    def test_direct_placement(self):
        a = scalar_form(1.0, 0.5)
        assert np.array_equal(a.to_dense(), [[1.0, 1.0], [0.0, 0.5]])


class TestLimit:
    def test_overflowing_candidate_is_refused_every_time(self):
        # 1.5e308 / (1 - 0.5) is past the largest double, and is not kept
        a = scalar_form(1.5e308, 0.5)
        for _ in range(2):
            with pytest.raises(AnalysisRefusedError, match="not finite"):
                a.limit
            assert "_limit" not in vars(a)

    def test_a_factor_before_the_overflow_keeps_its_candidate(self):
        from blockprod.blockform import _limits

        a, overflow = scalar_form(1.0, 0.5), scalar_form(1e308, 0.9)
        ls, error = _limits([a, overflow, a])
        assert [l.tolist() for l in ls] == [[[2.0]]]
        assert isinstance(error, AnalysisRefusedError)
        assert vars(a)["_limit"] is ls[0] and "_limit" not in vars(overflow)


class TestInvariants:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError, match="^identity block order must be >= 1$"):
            BlockUpperTriangular(0, np.zeros((0, 1)), np.zeros((1, 1)))
        with pytest.raises(
            ShapeError, match="^top-right block must be 1x1, got 2x1$"
        ):
            BlockUpperTriangular(1, np.zeros((2, 1)), np.zeros((1, 1)))
        with pytest.raises(
            ShapeError, match="^lower-right block must be square and nonempty$"
        ):
            BlockUpperTriangular(1, np.zeros((1, 2)), np.zeros((2, 3)))
        with pytest.raises(
            ShapeError, match="^lower-right block must be square and nonempty$"
        ):
            BlockUpperTriangular(1, np.zeros((1, 0)), np.zeros((0, 0)))


class TestOwnership:
    def test_caller_writes_do_not_reach_the_factor(self):
        b = np.array([[1.0, 2.0]], dtype=np.complex128)
        c = np.array([[0.5, 0.0], [0.25, 0.5]], dtype=np.complex128)
        fresh = BlockUpperTriangular(1, b.copy(), c.copy())
        a = BlockUpperTriangular(1, b, c)
        b[0, 0] = np.nan
        c[...] = 2.0
        assert np.array_equal(a.b, fresh.b) and np.array_equal(a.c, fresh.c)
        assert np.array_equal(a.limit, fresh.limit)
        with pytest.raises(ValueError):
            a.c[0, 0] = 1
        with pytest.raises(ValueError):
            a.limit[0, 0] = 1

    def test_a_factor_equals_only_a_factor_of_equal_blocks(self):
        a = scalar_form(1.0, 0.5)
        assert a == scalar_form(1.0, 0.5) and a != scalar_form(1.0, 0.25)
        assert a != 1 and a != "x"

    def test_limit_is_the_candidate_computed_once(self):
        a = scalar_form(1.0, 0.5)
        assert a.limit is a.limit
        assert a.limit[0, 0] == 2.0

    def test_blocks_are_c_ordered_copies(self):
        # one copy, in the layout the step engine's stacks have
        c = np.asfortranarray(0.1 * np.eye(3) + 0.01j)
        b = [[1, 2, 3]]
        a = BlockUpperTriangular(1, b, c)
        assert a.c.flags.c_contiguous and a.b.flags.c_contiguous
        assert a.c is not c and np.array_equal(a.c, c)
        assert a.b.dtype == np.complex128

    @pytest.mark.parametrize(
        "b, c, message",
        [
            ([1.0], [[0.5]], "expected a matrix, got ndim=1"),
            ([[np.inf]], [[0.5]], "matrix entries must be finite"),
            ([[1.0]], [[[0.5]]], "expected a matrix, got ndim=3"),
        ],
    )
    def test_invalid_blocks_keep_their_messages(self, b, c, message):
        with pytest.raises(ShapeError, match=message):
            BlockUpperTriangular(1, b, c)


class TestBlockMul:
    def test_zero(self):
        a = scalar_form(0.0, 0.0)
        out = block_mul(a, a)
        assert out.b[0, 0] == 0.0 and out.c[0, 0] == 0.0

    def test_scalar_example(self):
        out = block_mul(scalar_form(1.0, 0.5), scalar_form(2.0, 0.5))
        assert out.b[0, 0] == pytest.approx(2.5)
        assert out.c[0, 0] == pytest.approx(0.25)

    def test_matches_dense_product(self, rng):
        for _ in range(30):
            s = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            a1 = random_block(rng, s, m)
            a2 = random_block(rng, s, m)
            dense = a1.to_dense() @ a2.to_dense()
            assert np.abs(block_mul(a1, a2).to_dense() - dense).max() < 1e-13

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            block_mul(random_block(rng, 1, 2), random_block(rng, 2, 1))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_homomorphism_property(self, data):
        s = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 3))
        nums = st.floats(-5, 5, allow_nan=False)
        draw_mat = lambda r, c: np.array(
            data.draw(st.lists(st.lists(nums, min_size=c, max_size=c),
                               min_size=r, max_size=r))
        )
        a1 = BlockUpperTriangular(s, draw_mat(s, m), draw_mat(m, m))
        a2 = BlockUpperTriangular(s, draw_mat(s, m), draw_mat(m, m))
        dense = a1.to_dense() @ a2.to_dense()
        scale = max(1.0, np.abs(dense).max())
        assert np.abs(block_mul(a1, a2).to_dense() - dense).max() < 1e-13 * scale
