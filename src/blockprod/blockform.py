"""The block upper-triangular presentation [[I_s, B], [0, C]] and its
structural operations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ShapeError, SingularMatrixError
from .matrixcore import _solve_right_each, _stack, as_matrix

__all__ = ["BlockUpperTriangular", "block_mul"]


def _read_only_copy(data) -> np.ndarray:
    # one C-ordered copy; as_matrix takes it as it is, and checks it
    m = as_matrix(np.array(data, dtype=np.complex128, order="C"))
    m.flags.writeable = False
    return m


def _limits(
    factors: Sequence[BlockUpperTriangular],
) -> tuple[list[np.ndarray], SingularMatrixError | None]:
    """The :attr:`~BlockUpperTriangular.limit` of each of the conforming
    *factors* in order, up to the first whose I - C is singular to working
    precision, and that factor's :class:`SingularMatrixError` (None when
    there is none).

    The distinct factors not solved before get one LU factorization each,
    with the pivot rule checked over all of them in one call, and keep
    their results, so a factor that recurs is factored once.
    """
    todo = [a for a in {id(a): a for a in factors}.values() if "_limit" not in vars(a)]
    singular = None
    if todo:
        eye = np.eye(todo[0].csize, dtype=np.complex128)
        ls, singular = _solve_right_each(
            [a.b for a in todo], eye - _stack([a.c for a in todo])
        )
        for a, l in zip(todo, ls):
            l.flags.writeable = False
            vars(a)["_limit"] = l
    out = []
    for a in factors:
        l = vars(a).get("_limit")
        if l is None:  # the first singular factor
            return out, singular
        out.append(l)
    return out, None


@dataclass(frozen=True)
class BlockUpperTriangular:
    """A d x d matrix [[I_s, B], [0, C]] stored by its s, B, C data.

    The identity block is implicit.  B is s x (d-s), C is (d-s) x (d-s),
    with s >= 1 and d - s >= 1.  Whether C contracts is certified
    separately, never assumed.  B and C are validated once, here, and stored
    as read-only copies, so a later write to the caller's arrays does not
    reach the factor.
    """

    s: int
    b: np.ndarray = field(compare=False)
    c: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "b", _read_only_copy(self.b))
        object.__setattr__(self, "c", _read_only_copy(self.c))
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
    def limit(self) -> np.ndarray:
        """The limit candidate B (I - C)^{-1}, read-only.

        The one-factor case of the engine's limit routine: one LU
        factorization of I - C on first use, kept on the factor, so a factor
        that recurs in a product is factored once, whether it was first
        solved here or in a chunk of the step engine.  Raises
        :class:`SingularMatrixError` when I - C is singular to working
        precision.
        """
        ls, singular = _limits((self,))
        if singular is not None:
            raise singular
        return ls[0]

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
