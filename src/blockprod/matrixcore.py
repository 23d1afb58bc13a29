"""Dense complex matrix primitives: validation, submultiplicative norms,
right linear solves, and contraction certification.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  The helpers
here enforce the invariants (2-D, finite entries) at construction points; all
operations are pure.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.linalg

from .errors import (
    CertificateViolationError,
    InvalidCertificateError,
    NoContractingNormError,
    ShapeError,
    SingularMatrixError,
)

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
    m = as_matrix(m)
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
    # X m = b  <=>  m^T X^T = b^T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m.T, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= 1e-14 * max(1.0, pivots.max()):
        raise SingularMatrixError(float(pivots.min()))
    return scipy.linalg.lu_solve((lu, piv), b.T, check_finite=False).T


def _stein_certificate(cs: list[np.ndarray]) -> ContractionCertificate:
    """A Lyapunov certificate contracting every matrix in *cs* at once.

    Solves the Stein equation P - sum_i C_i* P C_i = I by dense vectorization
    and accepts the solution only when, after symmetrisation, its relative
    residual is at most 1e-10, it is positive definite, and the largest member
    norm it induces (the rate) is below one.  Otherwise raises
    :class:`NoContractingNormError`.
    """
    n = cs[0].shape[0]
    # vec(C* P C) = (C^T kron C*) vec(P), column-major vec
    op = np.eye(n * n, dtype=np.complex128)
    for c in cs:
        op -= np.kron(c.T, c.conj().T)
    try:
        vec_p = np.linalg.solve(op, np.eye(n, dtype=np.complex128).flatten("F"))
    except np.linalg.LinAlgError:
        raise NoContractingNormError(
            "Stein equation is singular; spectral radius >= 1 suspected"
        ) from None
    p = vec_p.reshape((n, n), order="F")
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

    Solves the Stein equation P - C* P C = I by dense vectorization and
    returns the Lyapunov-scaled norm built from P.  Succeeds exactly when the
    spectral radius of c is below one; otherwise raises
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

    def check(self, c, step: int) -> None:
        """Check one factor's C-block against this certificate; a C-block
        whose norm exceeds the rate raises :class:`CertificateViolationError`
        naming *step*."""
        val = norm_value(c, self.norm)
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
    if not isinstance(cert, ContractionCertificate):
        raise InvalidCertificateError(
            "a gelfand certificate bounds powers of one matrix, not each factor"
        )
    return cert


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
