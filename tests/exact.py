"""Exact arithmetic for tests: the limit candidates B (I - C)^-1 of a
cycle's or a set's members, whether they are equal, and the deviations
X_n - L_n of a product, over the Gaussian rationals.

Every double is a dyadic rational, so a complex128 entry is held exactly
by two ``fractions.Fraction`` parts, and no result here is rounded.  The
elimination is plain Gauss-Jordan on fractions: quick for C-block orders
m <= 4, the sizes the property tests and ``tools/differential.py`` use.
A member is a pair (B, C) of array-likes; the functions also take
anything with ``b`` and ``c`` attributes, such as a ``BlockUpperTriangular``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: the largest C-block order the oracle is used for
MAX_ORDER = 4


@dataclass(frozen=True)
class Gaussian:
    """The exact complex number re + im i, with rational parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other):
        return Gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Gaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return Gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        return Gaussian(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __bool__(self):
        return bool(self.re or self.im)


ZERO, ONE = Gaussian(Fraction(0)), Gaussian(Fraction(1))


def matrix(a) -> list[list[Gaussian]]:
    """The entries of the 2-D array-like *a*, exactly."""
    rows = np.asarray(a, dtype=np.complex128).tolist()
    return [[Gaussian(Fraction(z.real), Fraction(z.imag)) for z in row] for row in rows]


def _blocks(member) -> tuple[list[list[Gaussian]], list[list[Gaussian]]]:
    b, c = (member.b, member.c) if hasattr(member, "c") else member
    return matrix(b), matrix(c)


def _mul(x, y):
    cols = list(zip(*y))
    return [[sum((p * q for p, q in zip(row, col)), ZERO) for col in cols] for row in x]


def _add(x, y):
    return [[p + q for p, q in zip(r, s)] for r, s in zip(x, y)]


def _sub(x, y):
    return [[p - q for p, q in zip(r, s)] for r, s in zip(x, y)]


def _solve_right(b, m):
    """X with X m = b, or None when m is singular: Gauss-Jordan on the
    columns of [m; b], which are the rows of [m^T b^T]."""
    n = len(m)
    rows = [list(col) for col in zip(*(m + b))]  # row i: column i of m, then of b
    for j in range(n):
        pivot = next((i for i in range(j, n) if rows[i][j]), None)
        if pivot is None:
            return None
        rows[j], rows[pivot] = rows[pivot], rows[j]
        top = rows[j][j]
        rows[j] = [v / top for v in rows[j]]
        for i in range(n):
            if i != j and rows[i][j]:
                f = rows[i][j]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[j])]
    return [list(col) for col in zip(*(row[n:] for row in rows))]


def candidate(member):
    """L = B (I - C)^-1 of one member, or None when I - C is singular."""
    b, c = _blocks(member)
    eye = [[ONE if i == j else ZERO for j in range(len(c))] for i in range(len(c))]
    return _solve_right(b, _sub(eye, c))


def same_candidates(members) -> bool | None:
    """Whether every member has the same limit candidate: the Theorem's test
    for a cycle's product, and the RCP property of a set, given a uniform
    contraction.  None when some I - C is singular."""
    ls = [candidate(a) for a in members]
    if any(l is None for l in ls):
        return None
    return all(l == ls[0] for l in ls[1:])


def deviations(factors) -> list:
    """D_n = X_n - L_n for n = 1, 2, ... over *factors* in order, with
    X_n = B_n + X_{n-1} C_n and X_0 = 0 (None from the first singular
    I - C on)."""
    out, x = [], None
    for a in factors:
        b, c = _blocks(a)
        x = b if x is None else _add(b, _mul(x, c))
        l = candidate(a)
        if l is None:
            return out + [None]
        out.append(_sub(x, l))
    return out


def inf_norm(m) -> Fraction:
    """The largest row sum of moduli of an exact matrix with real entries."""
    if any(z.im for row in m for z in row):
        raise ValueError("the modulus of a complex entry is not rational")
    return max(sum(abs(z.re) for z in row) for row in m)


def dyadic_pair(rng: np.random.Generator, s: int, m: int, apart: bool = False):
    """Two members (B_i, C_i) with C_i = K_i / 2^10, integers |K_i| <= 2^8
    and ||C_i||_inf < 0.95, and B_i = L_i (I - C_i) for an integer s x m L_1
    with entries up to 7.4e6, and L_2 = L_1, or L_1 plus one in its first
    entry if *apart*.  Every B_i is exact in double precision, so the exact
    candidates are L_1 and L_2: equal, or one apart."""
    cs = []
    while len(cs) < 2:
        c = rng.integers(-256, 257, (m, m)) / 1024
        if np.abs(c).sum(axis=1).max() < 0.95:
            cs.append(c)
    l = rng.integers(-7_400_000, 7_400_001, (s, m)).astype(float)
    return dyadic_members(l, cs, apart)


def complex_dyadic_pair(rng: np.random.Generator, s: int, m: int):
    """Two members (B_i, C_i) with complex C_i = (K_i + i K'_i) / 2^10 for
    integers |K_i|, |K'_i| < 2^7, so ||C_i||_inf < 4 sqrt(2) 2^-3 < 0.71 at
    m <= 4, and B_i = L (I - C_i) for one s x m L of Gaussian integers with
    parts up to 7e6.  Every B_i is exact in double precision, so both exact
    candidates are L."""
    k = rng.integers(-127, 128, (2, 2, m, m))
    l = rng.integers(-7_000_000, 7_000_001, (2, s, m))
    return dyadic_members(l[0] + 1j * l[1], (k[:, 0] + 1j * k[:, 1]) / 1024)


def dyadic_members(l: np.ndarray, cs, apart: bool = False):
    """The members (L_i (I - C_i), C_i) of :func:`dyadic_pair`."""
    shifted = l.copy()
    shifted[0, 0] += 1.0
    ls = (l, shifted if apart else l)
    return [(li @ (np.eye(len(c)) - c), c) for li, c in zip(ls, cs)]
