"""The block upper-triangular presentation [[I_s, B], [0, C]] and its
structural operations."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import AnalysisRefusedError, BlockprodError, ParseError, ShapeError
from .matrixcore import _is_number, _solve_right_each, _stack, as_matrix

__all__ = ["BlockUpperTriangular", "block_mul"]


def _read_only_copy(data) -> np.ndarray:
    m = as_matrix(data).copy()  # C-ordered, whatever the layout of data
    m.setflags(write=False)
    return m


def _limits(
    factors: Sequence[BlockUpperTriangular],
) -> tuple[list[np.ndarray], BlockprodError | None]:
    """The :attr:`~BlockUpperTriangular.limit` of each of the conforming
    *factors* in order, up to the first whose I - C is singular to working
    precision or whose candidate has an entry that is not finite, and that
    factor's :class:`SingularMatrixError` or :class:`AnalysisRefusedError`
    (None when there is none).

    The distinct factors not solved before get one LU factorization each,
    with the pivot rule checked over all of them in one call, and keep
    their finite results, so a factor that recurs is factored once.
    """
    todo = [a for a in {id(a): a for a in factors}.values() if "_limit" not in vars(a)]
    error = None
    if todo:
        eye = np.eye(todo[0].csize, dtype=np.complex128)
        ls, error = _solve_right_each(
            [a.b for a in todo], eye - _stack([a.c for a in todo])
        )
        # one check of all the candidates (np.concatenate copies them faster
        # than np.array); only a failure looks for the first that is not finite
        if ls and not np.isfinite(np.concatenate(ls)).all():
            ls = ls[: next(i for i, l in enumerate(ls) if not np.isfinite(l).all())]
            error = AnalysisRefusedError(
                "limit candidate B (I - C)^-1 has an entry that is not finite"
            )
        for a, l in zip(todo, ls):
            l.setflags(write=False)
            vars(a)["_limit"] = l
    out = []
    for a in factors:
        l = vars(a).get("_limit")
        if l is None:  # the first factor that failed
            return out, error
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
        s, b, c = self.s, _read_only_copy(self.b), _read_only_copy(self.c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        # int first: the abstract-class check alone costs a tenth of a factor at m = 4
        if type(s) is not int and not _is_number(s, numbers.Integral):
            raise ShapeError(f"identity block order must be an integer, got {s!r}")
        if s < 1:
            raise ShapeError("identity block order must be >= 1")
        rows, m = c.shape
        if rows != m or m < 1:
            raise ShapeError("lower-right block must be square and nonempty")
        if b.shape != (s, m):
            raise ShapeError(
                f"top-right block must be {s}x{m}, got {b.shape[0]}x{b.shape[1]}"
            )

    @property
    def limit(self) -> np.ndarray:
        """The limit candidate B (I - C)^{-1}, read-only.

        The one-factor case of the engine's limit routine: one LU
        factorization of I - C on first use, kept on the factor, so a factor
        that recurs in a product is factored once, whether it was first
        solved here or in a chunk of the step engine.  Raises
        :class:`SingularMatrixError` when I - C is singular to working
        precision, and :class:`AnalysisRefusedError` when the candidate has
        an entry that is not finite, which is not kept.
        """
        ls, error = _limits((self,))
        if error is not None:
            raise error
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


def _split(a) -> tuple[int, int]:
    """The block orders (s, m) of the factor *a*, the shape of its B-block:
    the per-item part of :func:`_conforming`.  Raises :class:`ParseError`
    when *a* is not a :class:`BlockUpperTriangular`."""
    if not isinstance(a, BlockUpperTriangular):
        raise ParseError(f"expected a BlockUpperTriangular, got {type(a).__name__}")
    return a.b.shape


def _conforming(
    factors: Iterable[BlockUpperTriangular], what: str, nonempty: bool = True
) -> Iterator[BlockUpperTriangular]:
    """The one check of a list or stream of *factors*, named *what* in the
    messages, which yields each factor as it is read and checked: *factors*
    is iterable (else :class:`ParseError`), each item is a
    :class:`BlockUpperTriangular` (else :class:`ParseError`) with the block
    orders (s, m) of the first (else :class:`ShapeError`), and, if
    *nonempty*, there is one (else :class:`ShapeError`).  Items are read
    one at a time, as they are asked for."""
    try:
        items = iter(factors)
    except TypeError:
        raise ParseError(
            f"a {what} must be an iterable of BlockUpperTriangular, "
            f"got {type(factors).__name__}"
        ) from None
    first = None
    for n, a in enumerate(items, start=1):
        split = _split(a)
        first = first or split
        if split != first:
            raise ShapeError(
                f"{what} factor {n} has (s, m) = {split}; the {what} began with {first}"
            )
        yield a
    if first is None and nonempty:
        raise ShapeError(f"{what} must be nonempty")


def block_mul(a1: BlockUpperTriangular, a2: BlockUpperTriangular) -> BlockUpperTriangular:
    """Product of two presentations, staying in block form.

    The product of [[I, B1],[0, C1]] and [[I, B2],[0, C2]] is
    [[I, B2 + B1 C2], [0, C1 C2]].
    """
    a1, a2 = _conforming((a1, a2), "product")
    return BlockUpperTriangular(a1.s, a2.b + a1.b @ a2.c, a1.c @ a2.c)
