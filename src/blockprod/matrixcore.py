"""Dense complex matrix primitives: validation, submultiplicative norms,
right linear solves, and contraction certification.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  The helpers
here enforce the invariants (2-D, finite entries) at construction points; all
operations are pure.  The public :func:`norm_value` and :func:`solve_right`
validate their inputs and then call the private ``_norm`` and
``_solve_right``, which the step engine calls directly on matrices that were
validated when their factor was built.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np
import scipy.linalg

from .errors import (
    CertificateViolationError,
    InvalidCertificateError,
    NoContractingNormError,
    ShapeError,
    SingularMatrixError,
)

if TYPE_CHECKING:
    from .blockform import BlockUpperTriangular

__all__ = [
    "as_matrix",
    "MatrixNorm",
    "ONE_NORM",
    "INF_NORM",
    "FROBENIUS",
    "lyapunov_norm",
    "norm_value",
    "solve_right",
    "lyapunov_scaling",
    "ContractionCertificate",
    "GelfandCertificate",
    "spectral_certificate",
    "BUILTIN_NORMS",
]


def as_matrix(data) -> np.ndarray:
    """Coerce *data* to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class MatrixNorm:
    """A submultiplicative matrix norm.

    ``kind`` is one of ``"one"`` (max column abs sum), ``"inf"`` (max row abs
    sum), ``"fro"`` (Frobenius), or ``"lyapunov"``.  A Lyapunov-scaled norm
    carries the Hermitian positive definite scaling matrix P and measures a
    square matrix M as the operator norm of x -> Mx between the vector norms
    |x|_P = sqrt(x* P x).  P is checked (:class:`ShapeError` unless square,
    Hermitian to 1e-12 and positive definite) and stored symmetrised.  Two
    norms are equal when their kinds and scalings are.
    """

    kind: str
    scaling: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("one", "inf", "fro", "lyapunov"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if (self.kind == "lyapunov") != (self.scaling is not None):
            raise ValueError("lyapunov norms carry a scaling matrix; others do not")
        if self.scaling is None:
            return
        p = as_matrix(self.scaling)
        if p.shape[0] != p.shape[1]:
            raise ShapeError("scaling matrix must be square")
        if not np.allclose(p, p.conj().T, atol=1e-12):
            raise ShapeError("scaling matrix must be Hermitian (atol 1e-12)")
        try:
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            raise ShapeError("scaling matrix must be positive definite") from None
        object.__setattr__(self, "scaling", 0.5 * (p + p.conj().T))

    def __eq__(self, other):
        # the generated hash covers only ``kind``, which equal norms share
        if not isinstance(other, MatrixNorm):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.scaling, other.scaling)

    def describe(self) -> str:
        return self.kind


ONE_NORM = MatrixNorm("one")
INF_NORM = MatrixNorm("inf")
FROBENIUS = MatrixNorm("fro")

#: search order used by certificate construction
BUILTIN_NORMS = (INF_NORM, ONE_NORM, FROBENIUS)


def lyapunov_norm(p) -> MatrixNorm:
    """Build a Lyapunov-scaled norm from a Hermitian positive definite P."""
    return MatrixNorm("lyapunov", p)


def _lyapunov_value(m: np.ndarray, p: np.ndarray) -> float:
    if m.shape[1] != p.shape[0]:
        raise ShapeError(
            f"matrix with {m.shape[1]} columns does not conform to "
            f"{p.shape[0]}x{p.shape[0]} scaling"
        )
    if m.shape[0] == m.shape[1]:
        # induced norm between |.|_P and itself: largest generalized
        # eigenvalue of (M* P M, P)
        a = m.conj().T @ p @ m
        w = scipy.linalg.eigh(0.5 * (a + a.conj().T), p, eigvals_only=True)
        return float(np.sqrt(max(w[-1], 0.0)))
    # rectangular carrier: operator norm from |.|_P into the Euclidean norm;
    # still consistent with the square case on the right (||MC|| <= ||M|| ||C||_P)
    l = np.linalg.cholesky(p)
    x = scipy.linalg.solve_triangular(l, m.conj().T, lower=True).conj().T
    return float(np.linalg.norm(x, 2))


def norm_value(m, kind: MatrixNorm) -> float:
    """Evaluate the norm *kind* on matrix *m*."""
    return _norm(as_matrix(m), kind)


def _norm(m: np.ndarray, kind: MatrixNorm) -> float:
    """:func:`norm_value` of a validated complex 2-D array."""
    if kind.kind == "one":
        return float(np.abs(m).sum(axis=0).max()) if m.size else 0.0
    if kind.kind == "inf":
        return float(np.abs(m).sum(axis=1).max()) if m.size else 0.0
    if kind.kind == "fro":
        return float(np.linalg.norm(m))
    return _lyapunov_value(m, kind.scaling)


def solve_right(b, m) -> np.ndarray:
    """Solve X @ m = b for X by a partial-pivoted LU factorization of m.

    Never forms an explicit inverse.  Raises :class:`SingularMatrixError`
    (carrying the smallest pivot magnitude) when m is singular to working
    precision.
    """
    b = as_matrix(b)
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError("right factor must be square")
    if b.shape[1] != m.shape[0]:
        raise ShapeError(
            f"operand columns ({b.shape[1]}) must match factor order ({m.shape[0]})"
        )
    return _solve_right(b, m)


_GETRF, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def _solve_right(b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """:func:`solve_right` of validated complex arrays of conforming shapes."""
    # X m = b  <=>  m^T X^T = b^T; the transposes of C-ordered arrays are
    # Fortran-ordered views, as LAPACK wants them
    lu, piv, _ = _GETRF(m.T)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= 1e-14 * max(1.0, pivots.max()):
        raise SingularMatrixError(float(pivots.min()))
    x, _ = _GETRS(lu, piv, b.T)
    return x.T


#: largest C-block order m for which the Stein system of a set is assembled:
#: its m^2 x m^2 complex matrix takes 16 m^4 bytes, about 85 MB at m = 48
_STEIN_SET_MAX_ORDER = 48

_TRTRS, _GESV = scipy.linalg.get_lapack_funcs(("trtrs", "gesv"), dtype=np.complex128)


_STEIN_SINGULAR = "Stein equation is singular; spectral radius >= 1 suspected"


def _stein_schur(c: np.ndarray) -> np.ndarray:
    """Solve P - C* P C = I by the Bartels-Stewart column recurrence on the
    complex Schur form C = Z T Z* (Barraud 1977), in O(m^3) time and O(m^2)
    memory.

    X = Z* P Z solves X - T* X T = I, and its column j solves the
    lower-triangular system (I - t_jj T*) x_j = e_j + T* X[:, :j] T[:j, j].
    A zero diagonal entry 1 - t_jj conj(t_ii) means two eigenvalues whose
    product is one, and the equation is singular.  Where that product is
    within rounding of modulus one, each column divides by a pivot near zero
    and X can overflow; a non-finite X is refused the same way.
    """
    t, z = scipy.linalg.schur(c, output="complex")
    n = t.shape[0]
    th = t.conj().T
    eye = np.eye(n, dtype=np.complex128)
    x = np.empty((n, n), dtype=np.complex128, order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            rhs = eye[:, j] + th @ (x[:, :j] @ t[:j, j])
            x[:, j], info = _TRTRS(eye - t[j, j] * th, rhs, lower=1)
            if info > 0:
                raise NoContractingNormError(_STEIN_SINGULAR)
    if not np.isfinite(x).all():
        raise NoContractingNormError(_STEIN_SINGULAR)
    return z @ x @ z.conj().T


def _stein_assembled(cs: list[np.ndarray]) -> np.ndarray:
    """Solve P - sum_i C_i* P C_i = I for two or more matrices through the
    m^2 x m^2 system (I - sum_i C_i^T kron C_i*) vec(P) = vec(I), with a
    column-major vec.

    The sum is assembled by one product over the stacked members, straight
    into its final layout, and solved in place, so the system is the one
    array of size m^4.  Orders above :data:`_STEIN_SET_MAX_ORDER` are refused
    before anything of that size is allocated.
    """
    n = cs[0].shape[0]
    if n > _STEIN_SET_MAX_ORDER:
        raise NoContractingNormError(
            f"the Stein system of a set at m = {n} has order {n * n}; "
            f"sets are solved up to m = {_STEIN_SET_MAX_ORDER}"
        )
    a = np.stack(cs)
    # op[(p, q), (r, s)] = sum_i C_i[r, p] conj(C_i[s, q]); the C-ordered
    # transpose built here is op in the Fortran order LAPACK reads
    op_t = np.einsum("irp,isq->rspq", a, a.conj(), order="C").reshape(n * n, n * n)
    op_t *= -1
    op_t.flat[:: n * n + 1] += 1
    rhs = np.eye(n, dtype=np.complex128).reshape(-1)
    _, _, vec_p, info = _GESV(op_t.T, rhs, overwrite_a=1, overwrite_b=1)
    if info > 0:
        raise NoContractingNormError(_STEIN_SINGULAR)
    return vec_p.reshape((n, n), order="F")


def _stein_certificate(cs: list[np.ndarray]) -> ContractionCertificate:
    """A Lyapunov certificate contracting every matrix in *cs* at once.

    Solves the Stein equation P - sum_i C_i* P C_i = I: by the Schur
    recurrence of :func:`_stein_schur` for one matrix, and by the assembled
    system of :func:`_stein_assembled` for two or more.  Accepts the
    solution only when, after symmetrisation, its relative residual is at
    most 1e-10, it is positive definite, and the largest member norm it
    induces (the rate) is below one.  Otherwise, or when the equation is
    singular or a set is too large to assemble, raises
    :class:`NoContractingNormError`.
    """
    p = _stein_schur(cs[0]) if len(cs) == 1 else _stein_assembled(cs)
    n = p.shape[0]
    p = 0.5 * (p + p.conj().T)
    residual = np.linalg.norm(p - sum(c.conj().T @ p @ c for c in cs) - np.eye(n))
    if residual > 1e-10 * max(1.0, np.linalg.norm(p)):
        raise NoContractingNormError(
            f"Stein residual {residual:.3e} too large; no contracting norm found"
        )
    try:
        norm = lyapunov_norm(p)
    except ShapeError:
        raise NoContractingNormError(
            "Stein solution is not positive definite; spectral radius >= 1 suspected"
        ) from None
    rate = max(norm_value(c, norm) for c in cs)
    if rate >= 1.0:
        raise NoContractingNormError("constructed norm does not contract the matrix")
    return ContractionCertificate(norm, rate, "lyapunov")


def lyapunov_scaling(c) -> MatrixNorm:
    """Construct a norm under which *c* is a strict contraction.

    Solves the Stein equation P - C* P C = I by the Bartels-Stewart
    recurrence on the complex Schur form of c, in O(m^3) time and O(m^2)
    memory, and returns the Lyapunov-scaled norm built from P.  Succeeds
    exactly when the spectral radius of c is below one; otherwise raises
    :class:`NoContractingNormError`.
    """
    c = as_matrix(c)
    if c.shape[1] != c.shape[0]:
        raise ShapeError("matrix must be square")
    return _stein_certificate([c]).norm


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise InvalidCertificateError(f"rate {rate} not in [0, 1)")


@dataclass(frozen=True)
class ContractionCertificate:
    """Witness that ``norm_value(C, norm) <= rate < 1`` for every factor's
    C-block: ``"declared"`` (given, or found among the built-in norms) or
    ``"lyapunov"`` (a Stein-equation scaling)."""

    norm: MatrixNorm
    rate: float
    kind: str = "declared"

    def __post_init__(self):
        _check_rate(self.rate)
        if self.kind not in ("declared", "lyapunov"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def check(self, a: BlockUpperTriangular, step: int) -> None:
        """Check the C-block of factor *a*, validated when *a* was built,
        against this certificate; a C-block whose norm exceeds the rate
        raises :class:`CertificateViolationError` naming *step*."""
        val = _norm(a.c, self.norm)
        if val > self.rate * (1 + 1e-12) + 1e-15:
            raise CertificateViolationError(step, val, self.rate)

    def describe(self) -> str:
        return f"{self.kind} norm={self.norm.describe()} rate={self.rate:.17g}"


@dataclass(frozen=True)
class GelfandCertificate:
    """Witness that ``||C^power|| <= rate^power`` for one matrix C, so its
    spectral radius is at most rate < 1.  It bounds no factor in one norm,
    so :func:`require_per_factor` refuses it."""

    norm: MatrixNorm
    rate: float
    power: int
    kind: ClassVar[str] = "gelfand"

    def __post_init__(self):
        _check_rate(self.rate)
        if not isinstance(self.power, numbers.Integral) or self.power < 1:
            raise ValueError(f"power must be an integer >= 1, got {self.power!r}")

    def describe(self) -> str:
        return f"gelfand k={self.power} norm={self.norm.describe()} rate={self.rate:.17g}"


def require_per_factor(cert) -> ContractionCertificate:
    """Return *cert* if it bounds every factor's C-block in one norm; raise
    :class:`InvalidCertificateError` for anything else, such as a Gelfand
    certificate, which bounds powers of one matrix."""
    if isinstance(cert, ContractionCertificate):
        return cert
    if isinstance(cert, GelfandCertificate):
        raise InvalidCertificateError(
            "a gelfand certificate bounds powers of one matrix, not each factor"
        )
    raise InvalidCertificateError(
        f"expected a ContractionCertificate, got {type(cert).__name__}"
    )


def spectral_certificate(
    c,
    k_max: int = 64,
    norms: tuple[MatrixNorm, ...] = BUILTIN_NORMS,
    fallback: bool = True,
) -> GelfandCertificate | ContractionCertificate | None:
    """Certify that the spectral radius of *c* is below one.

    Searches powers k = 1, 2, 4, 6, ... up to *k_max* for a built-in norm
    with ||C^k|| < 1, giving a :class:`GelfandCertificate` with rate
    ||C^k||^(1/k); falls back to a Lyapunov :class:`ContractionCertificate`.
    Returns None when undecided; None is *not* a proof that the spectral
    radius is >= 1.
    """
    c = as_matrix(c)
    if c.shape[0] != c.shape[1]:
        raise ShapeError("matrix must be square")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    c2 = None
    power = c
    k = 1
    while k <= k_max:
        if not np.all(np.isfinite(power)):
            break
        for norm in norms:
            val = norm_value(power, norm)
            if val < 1.0:
                return GelfandCertificate(norm, float(val ** (1.0 / k)), k)
        if k == 1:
            c2 = c @ c
            power, k = c2, 2
        else:
            power, k = power @ c2, k + 2
    if not fallback:
        return None
    try:
        return _stein_certificate([c])
    except NoContractingNormError:
        return None
