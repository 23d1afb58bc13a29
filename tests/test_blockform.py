import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockprod import BlockUpperTriangular, ShapeError, block_mul
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


class TestInvariants:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            BlockUpperTriangular(0, np.zeros((0, 1)), np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            BlockUpperTriangular(1, np.zeros((2, 1)), np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            BlockUpperTriangular(1, np.zeros((1, 2)), np.zeros((2, 3)))


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
