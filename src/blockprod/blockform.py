"""The block upper-triangular presentation [[I_s, B], [0, C]] and its
structural operations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .matrixcore import as_matrix

__all__ = ["BlockUpperTriangular", "block_mul"]


@dataclass(frozen=True)
class BlockUpperTriangular:
    """A d x d matrix [[I_s, B], [0, C]] stored by its s, B, C data.

    The identity block is implicit.  B is s x (d-s), C is (d-s) x (d-s),
    with s >= 1 and d - s >= 1.  Whether C contracts is certified
    separately, never assumed.
    """

    s: int
    b: np.ndarray = field(compare=False)
    c: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "b", as_matrix(self.b))
        object.__setattr__(self, "c", as_matrix(self.c))
        if self.s < 1:
            raise ShapeError("identity block order must be >= 1")
        if self.c.shape[0] != self.c.shape[1] or self.c.shape[0] < 1:
            raise ShapeError("lower-right block must be square and nonempty")
        if self.b.shape != (self.s, self.c.shape[0]):
            raise ShapeError(
                f"top-right block must be {self.s}x{self.c.shape[0]}, "
                f"got {self.b.shape[0]}x{self.b.shape[1]}"
            )

    @property
    def d(self) -> int:
        return self.s + self.c.shape[0]

    @property
    def csize(self) -> int:
        return self.c.shape[0]

    def __eq__(self, other):
        if not isinstance(other, BlockUpperTriangular):
            return NotImplemented
        return (
            self.s == other.s
            and self.b.shape == other.b.shape
            and np.array_equal(self.b, other.b)
            and np.array_equal(self.c, other.c)
        )

    def to_dense(self) -> np.ndarray:
        """Assemble the full d x d matrix."""
        s, m = self.s, self.csize
        out = np.zeros((s + m, s + m), dtype=np.complex128)
        out[:s, :s] = np.eye(s)
        out[:s, s:] = self.b
        out[s:, s:] = self.c
        return out


def block_mul(a1: BlockUpperTriangular, a2: BlockUpperTriangular) -> BlockUpperTriangular:
    """Product of two presentations, staying in block form.

    The product of [[I, B1],[0, C1]] and [[I, B2],[0, C2]] is
    [[I, B2 + B1 C2], [0, C1 C2]].
    """
    if a1.s != a2.s or a1.csize != a2.csize:
        raise ShapeError("factors must share the same (s, d) split")
    return BlockUpperTriangular(a1.s, a2.b + a1.b @ a2.c, a1.c @ a2.c)
