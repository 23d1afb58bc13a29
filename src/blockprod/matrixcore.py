"""Dense complex matrix primitives: validation, submultiplicative norms,
right linear solves, and contraction certification.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  The helpers
here enforce the invariants (2-D, finite entries) at construction points; all
operations are pure.  The public :func:`norm_value` and :func:`solve_right`
validate their inputs and then call the private ``_norms``, the one norm
evaluator, on a one-matrix stack, and ``_solve_right_each``.  The step
engine calls both directly on stacks of matrices that were validated when
their factor was built.

The five LAPACK routines used here, one per job (``zgetrf`` and ``zgetrs``
for limit candidates, ``ztrtrs``, ``zgees``, and ``dgesv`` for the real Stein
system of a set), are taken from ``_flapack``, the one compiled extension
module of SciPy's ``linalg`` package that is loaded, straight from its file,
and are called with the arguments that package's functions pass, so the
results are its results bit for bit.  Importing the package itself would run
its Python layer, which pulls in ``numpy.f2py``, ``numpy.testing`` and more,
and would double a process's start-up; the file is found without running
``scipy/__init__.py`` either, except on Windows.  Nothing is added to
``sys.modules``, so a program that imports the package later gets the same
routine objects.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import numbers
import os
import sys
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import (
    AnalysisRefusedError,
    CertificateViolationError,
    InvalidCertificateError,
    NoContractingNormError,
    ParseError,
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


def _scipy_extension(name: str):
    """SciPy's compiled module ``scipy.linalg.<name>``, loaded from its file
    without running ``scipy/__init__.py`` or ``scipy/linalg/__init__.py``;
    the one already imported, if any."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    if sys.platform == "win32":
        # SciPy's Windows wheels add the DLL directory of their bundled
        # OpenBLAS in scipy/__init__.py, which must run before the load
        import scipy  # noqa: F401
    for location in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "linalg", name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(fullname, path)
                spec = importlib.util.spec_from_loader(fullname, loader)
                module = importlib.util.module_from_spec(spec)
                # CPython records a single-phase extension in sys.modules as
                # it loads it; a later import of the package would then find
                # the module there and not set it as its attribute
                if sys.modules.get(fullname) is module:
                    del sys.modules[fullname]
                return module
    raise ImportError(f"no compiled module {fullname} was found", name=fullname)


_FLAPACK = _scipy_extension("_flapack")
_GETRF, _GETRS, _TRTRS = _FLAPACK.zgetrf, _FLAPACK.zgetrs, _FLAPACK.ztrtrs
_GEES, _DGESV = _FLAPACK.zgees, _FLAPACK.dgesv


def _is_number(x, kind=numbers.Real) -> bool:
    """Whether *x* is a number of the abstract *kind*: a bool is none, here
    as in the file reader."""
    return isinstance(x, kind) and not isinstance(x, bool)


#: entry types numpy converts to numbers that are not numbers here
_NOT_NUMBERS = (bool, np.bool_, str, bytes)
_NOT_A_MATRIX = "matrix entries must be numbers in rows of one length"


def _holds_non_numbers(data) -> bool:
    """Whether the array-like *data*, which numpy read as a matrix, has an
    entry that is a bool, a string or bytes: an ndarray by its dtype (an
    object array by its entries), anything else by its entries, since numpy
    reads [[True, 0.5]] as float64 and the bool is lost."""
    if isinstance(data, np.ndarray) and data.dtype.kind != "O":
        return data.dtype.kind in "bSU"
    return any(isinstance(x, _NOT_NUMBERS) for x in np.asarray(data, dtype=object).flat)


def as_matrix(data) -> np.ndarray:
    """Coerce 2-D *data* to a complex128 array, rejecting with
    :class:`ShapeError` what numpy cannot read as one (entries that are not
    numbers, rows of different lengths), bool, string and bytes entries,
    every other number of dimensions (a vector is not read as a row) and
    NaN/Inf entries: the one coercion of matrix data.  A complex128 ndarray
    is returned as it is, not copied, and its entries' types are not
    inspected."""
    try:
        m = np.asarray(data, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise ShapeError(_NOT_A_MATRIX) from None
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if m is not data and _holds_non_numbers(data):
        raise ShapeError(_NOT_A_MATRIX)
    if np.count_nonzero(np.isfinite(m)) != m.size:
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
    nonempty, Hermitian to 1e-12 and positive definite) and stored
    symmetrised, with its Cholesky factor.  Two norms are equal when their
    kinds and scalings are.
    """

    kind: str
    scaling: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("one", "inf", "fro", "lyapunov"):
            raise ParseError(f"unknown norm kind {self.kind!r}")
        if (self.kind == "lyapunov") != (self.scaling is not None):
            raise ParseError("lyapunov norms carry a scaling matrix; others do not")
        if self.scaling is None:
            return
        p = as_matrix(self.scaling)
        if p.shape[0] != p.shape[1]:
            raise ShapeError("scaling matrix must be square")
        if not p.size:
            raise ShapeError("scaling matrix must be nonempty")
        with np.errstate(over="ignore", invalid="ignore"):  # p -/+ p* may overflow
            if not np.allclose(p, p.conj().T, rtol=0, atol=1e-12):
                raise ShapeError("scaling matrix must be Hermitian (atol 1e-12)")
            h = 0.5 * (p + p.conj().T)
        if np.count_nonzero(np.isfinite(h)) != h.size:
            h = 0.5 * p + 0.5 * p.conj().T  # exactly Hermitian, and finite
        try:
            lt = np.linalg.cholesky(h).conj().T
        except np.linalg.LinAlgError:
            raise ShapeError("scaling matrix must be positive definite") from None
        object.__setattr__(self, "scaling", h)
        # P = L L*, so |x|_P = |L* x|_2; private attributes, not fields
        object.__setattr__(self, "_lt", lt)
        # lt is Fortran-ordered: the call SciPy's solve_triangular makes
        lt_inv, info = _TRTRS(lt, np.eye(len(h)), lower=0, trans=0, unitdiag=0)
        if info != 0:
            raise ShapeError("scaling matrix must be positive definite")
        object.__setattr__(self, "_lt_inv", lt_inv)

    def __eq__(self, other):
        # the generated hash covers only ``kind``, which equal norms share
        if not isinstance(other, MatrixNorm):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.scaling, other.scaling)


ONE_NORM = MatrixNorm("one")
INF_NORM = MatrixNorm("inf")
FROBENIUS = MatrixNorm("fro")

#: search order used by certificate construction
BUILTIN_NORMS = (INF_NORM, ONE_NORM, FROBENIUS)


def lyapunov_norm(p) -> MatrixNorm:
    """Build a Lyapunov-scaled norm from a Hermitian positive definite P."""
    return MatrixNorm("lyapunov", p)


def norm_value(m, kind: MatrixNorm) -> float:
    """Evaluate the norm *kind* on matrix *m*, whatever its memory layout."""
    if not isinstance(kind, MatrixNorm):
        raise ParseError(f"expected a MatrixNorm, got {type(kind).__name__}")
    return float(_norms(np.ascontiguousarray(as_matrix(m))[None], kind)[0])


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The conforming *arrays* as one stack: a view for one array, else a
    copy by np.array, which takes less than half the time of np.stack."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _norms(st: np.ndarray, kind: MatrixNorm) -> np.ndarray:
    """The norms *kind* of the matrices of a C-contiguous stack *st* of shape
    (k, r, c), each bit-identical to that of its matrix as a one-matrix stack.
    With P = L L*, a Lyapunov norm is ||L* M L^-*||_2 on a square M (from
    |.|_P to itself) and ||M L^-*||_2 on a rectangular one (from |.|_P to the
    Euclidean norm, consistent on the right: ||MC|| <= ||M|| ||C||_P).  One
    rule for every kind, with no warning: a value that is not finite is
    2^e ||2^-e M|| with 2^-e M of unit size if M's parts are finite (inf
    exactly above the largest double), inf if one is infinite and none NaN,
    else as evaluated, so inf never turns into NaN; finite values keep their bits."""
    if kind.kind == "lyapunov" and st.shape[2] != len(kind.scaling):
        n = len(kind.scaling)
        raise ShapeError(
            f"matrix with {st.shape[2]} columns does not conform to {n}x{n} scaling"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        values = _plain_norms(st, kind)
        bad = ~np.isfinite(values)
        if bad.any():
            m = st[bad].view(np.float64)  # the real and imaginary parts
            top = abs(m).max(axis=(1, 2))  # NaN if a part is NaN
            e = np.frexp(top)[1]
            m = (m * np.ldexp(1.0, -e)[:, None, None]).view(np.complex128)
            plain = np.ldexp(_plain_norms(m, kind), e)
            values[bad] = np.where(top < np.inf, plain, np.fmax(values[bad], top))
    return values


def _plain_norms(st: np.ndarray, kind: MatrixNorm) -> np.ndarray:
    """The norms *kind* of the stack *st* as they evaluate, inf or NaN where
    a sum or product leaves the doubles: the one place the kinds differ."""
    if kind.kind == "one":
        return np.abs(st).sum(axis=-2).max(axis=-1, initial=0.0)
    if kind.kind == "inf":
        return np.abs(st).sum(axis=-1).max(axis=-1, initial=0.0)
    if kind.kind == "fro":
        # np.linalg.norm's sum: BLAS dot products of the parts' flat views
        f = st.reshape(len(st), -1)
        return np.sqrt(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag))
    w = st @ kind._lt_inv
    if st.shape[1] == len(kind.scaling):
        w = kind._lt @ w
    finite = np.isfinite(w).all(axis=(1, 2))
    w[~finite] = 0.0  # an SVD of inf raises
    return np.where(finite, np.linalg.norm(w, 2, axis=(1, 2)), np.nan)


def solve_right(b, m) -> np.ndarray:
    """Solve X @ m = b for X by a partial-pivoted LU factorization of m.

    Never forms an explicit inverse.  Raises :class:`SingularMatrixError`
    (carrying the smallest pivot magnitude) when m is singular to working
    precision, and :class:`AnalysisRefusedError` when X has an entry that
    is not finite.
    """
    b = as_matrix(b)
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError("right factor must be square")
    if b.shape[1] != m.shape[0]:
        raise ShapeError(
            f"operand columns ({b.shape[1]}) must match factor order ({m.shape[0]})"
        )
    xs, singular = _solve_right_each([b], [m])
    if singular is not None:
        raise singular
    if not np.isfinite(xs[0]).all():
        raise AnalysisRefusedError("solution X of X m = b has an entry that is not finite")
    return xs[0]


def _solve_right_each(
    bs: Sequence[np.ndarray], ms: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], SingularMatrixError | None]:
    """Solve X_i m_i = b_i for each pair in order, up to the first m_i that
    is singular to working precision, and return the solutions with that
    one's :class:`SingularMatrixError` (None when every m_i is regular).

    Each m_i is factored by one ``getrf`` call, the pivot rule is checked
    on all the factorizations in one call, and only the pairs before the
    first failure are solved, by one ``getrs`` call each."""
    # X m = b  <=>  m^T X^T = b^T; the transposes of C-ordered arrays are
    # Fortran-ordered views, as LAPACK wants them
    factors = [_GETRF(m.T) for m in ms]
    pivots = np.abs(np.diagonal(_stack([lu for lu, _, _ in factors]), axis1=1, axis2=2))
    xs = []
    for b, (lu, piv, _), low, high in zip(
        bs, factors, pivots.min(axis=1).tolist(), pivots.max(axis=1).tolist()
    ):
        if low <= 1e-14 * max(1.0, high):
            return xs, SingularMatrixError(low)
        xs.append(_GETRS(lu, piv, b.T)[0].T)
    return xs, None


#: largest C-block order m for which the Stein system of a set is assembled:
#: its m^2 x m^2 real matrix takes 8 m^4 bytes, about 42 MB at m = 48
_STEIN_SET_MAX_ORDER = 48

_STEIN_SINGULAR = "Stein equation is singular; spectral radius >= 1 suspected"


def _no_selection(w):
    """zgees' eigenvalue selection, which an unsorted call never calls."""
    return None


def _schur(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The complex Schur form C = Z T Z* of a complex128 matrix as (T, Z),
    by the zgees calls of SciPy's schur(c, output="complex"): one
    workspace query, then the unsorted factorization.  A nonzero info
    raises :class:`NoContractingNormError`."""
    *_, work, info = _GEES(_no_selection, c, lwork=-1)
    if info == 0:
        lwork = work[0].real.astype(np.int_)
        t, _, _, z, _, info = _GEES(
            _no_selection, c, lwork=lwork, overwrite_a=0, sort_t=0
        )
    if info != 0:
        raise NoContractingNormError(f"no complex Schur form found (zgees info {info})")
    return t, z


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
    t, z = _schur(c)
    n = t.shape[0]
    th = t.conj().T
    eye = np.eye(n, dtype=np.complex128)
    x = np.empty((n, n), dtype=np.complex128, order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            rhs = eye[:, j] + th @ (x[:, :j] @ t[:j, j])
            x[:, j], info = _TRTRS(eye - t[j, j] * th, rhs, lower=1)
            if info != 0:
                raise NoContractingNormError(_STEIN_SINGULAR)
    if not np.isfinite(x).all():
        raise NoContractingNormError(_STEIN_SINGULAR)
    return z @ x @ z.conj().T


def _stein_assembled(cs: list[np.ndarray]) -> np.ndarray:
    """Solve P - sum_i C_i* P C_i = I for two or more matrices over
    Hermitian P, as one real system of order m^2 solved by ``dgesv``.

    The unknowns are the real coordinates of P = X + iY (the
    half-vectorisation of Magnus and Neudecker): x_rr for each r, then x_rs
    and y_rs side by side for each r < s, row by row.  The equations are the
    real parts of the upper triangle and the imaginary parts of the strict
    upper triangle, in the same order, so the system is I - L with L the
    matrix of P -> sum_i C_i* P C_i.  With V = sum_i C_i* E_rs C_i, the
    column of L for x_rs holds the coordinates of V + V*, that for y_rs
    those of i(V - V*), and that for x_rr those of V.
    Writing C_i = A_i + iB_i, with G_r = [A_r B_r] and H_r = [B_r -A_r] the
    m x 2k matrices whose rows u are the entries (r, u) of the A_i and B_i,
    Re V = G_r G_s^T and Im V = G_r H_s^T, so each coordinate is the sum of
    two entries of Re V, Im V or their negatives.  For each r, one product
    of rank 2k gives these for every s > r; the columns go into the rows of
    the C-ordered transpose that LAPACK reads as the system, which is solved
    in place.  So the system of 8 m^4 bytes is the one large array, and the
    P returned is exactly Hermitian.  Orders above
    :data:`_STEIN_SET_MAX_ORDER` are refused before it is allocated.
    """
    n = cs[0].shape[0]
    if n > _STEIN_SET_MAX_ORDER:
        raise NoContractingNormError(
            f"the Stein system of a set at m = {n} has order {n * n}; "
            f"sets are solved up to m = {_STEIN_SET_MAX_ORDER}"
        )
    nn = n * n
    a = np.array(cs)
    g = np.concatenate((a.real, a.imag)).transpose(1, 2, 0)  # g[r] = G_r
    h = np.concatenate((a.imag, -a.real)).transpose(1, 2, 0)  # h[r] = H_r
    # gh[(s, b, v)] is row v of block b of [G_s; H_s; -G_s; -H_s], so that
    # gh @ G_r^T holds, for each s, the 4m x m blocks [Re V; Im V; -Re V;
    # -Im V] transposed, and entry (u, v) of block b lies at b m^2 + v m + u
    gh = np.concatenate((g, h, -g, -h), axis=1).reshape(4 * nn, -1)
    iu, iv = np.nonzero(~np.tri(n, dtype=bool))  # r < s, row by row
    # equation j: the real part, or the imaginary part where im[j] = 1, of
    # entry (u, v) of P; mirror holds the places of (u, v) and of (v, u)
    im = np.zeros(nn, dtype=np.intp)
    im[n + 1 :: 2] = 1
    mirror = np.empty((2, nn), dtype=np.intp)
    mirror[:, :n] = np.arange(n) * (n + 1)
    mirror[0, n::2] = mirror[0, n + 1 :: 2] = iv * n + iu
    mirror[1, n::2] = mirror[1, n + 1 :: 2] = iu * n + iv
    # the blocks of the two entries that make up each coordinate of the
    # negated columns of x (first row) and of y (second row):
    # Re -(V + V*) = -Re V[u, v] - Re V[v, u], Im -(V + V*) = -Im V[u, v] +
    # Im V[v, u], Re -i(V - V*) = Im V[u, v] + Im V[v, u] and
    # Im -i(V - V*) = -Re V[u, v] + Re V[v, u]
    first = (np.array([[2, 3], [1, 2]])[:, im] * nn + mirror[0]).ravel()
    second = (np.array([[2, 1], [1, 0]])[:, im] * nn + mirror[1]).ravel()
    q = np.empty((nn, nn))  # row j is column j of the system
    # take writes straight into out in the "clip" mode (every index is in
    # range); in the default mode it writes to a buffer and copies that
    with np.errstate(over="ignore", invalid="ignore"):
        w = gh.reshape(n, 4 * n, -1) @ g.transpose(0, 2, 1)  # s = r
        np.take(w.reshape(n, -1), first[:nn], axis=1, out=q[:n], mode="clip")
        lo = n
        for r in range(n - 1):
            w = (gh[(r + 1) * 4 * n :] @ g[r].T).reshape(n - 1 - r, -1)
            out = q[lo : lo + 2 * len(w)].reshape(len(w), -1)
            lo += 2 * len(w)
            np.take(w, first, axis=1, out=out, mode="clip")
            out += np.take(w, second, axis=1, mode="clip")
    q.flat[:: nn + 1] += 1
    rhs = np.zeros(nn)
    rhs[:n] = 1.0
    _, _, x, info = _DGESV(q.T, rhs, overwrite_a=1, overwrite_b=1)
    if info > 0:
        raise NoContractingNormError(_STEIN_SINGULAR)
    p = np.zeros((n, n), dtype=np.complex128)
    p.real[np.diag_indices(n)] = x[:n]
    p.real[iu, iv] = p.real[iv, iu] = x[n::2]
    p.imag[iu, iv] = x[n + 1 :: 2]
    p.imag[iv, iu] = -x[n + 1 :: 2]
    return p


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
    # the residual and ||P||_F in one call, scaled where a sum of squares
    # overflows; the threshold is never below 1e-10, so no underflow decides
    r = p - sum(c.conj().T @ p @ c for c in cs) - np.eye(n)
    residual, size = _norms(np.array([r, p]), FROBENIUS).tolist()
    if not residual <= 1e-10 * max(1.0, size):  # refuses NaN too
        raise NoContractingNormError(
            f"Stein residual {residual:.3e} too large; no contracting norm found"
        )
    try:
        norm = lyapunov_norm(p)
    except ShapeError:
        raise NoContractingNormError(
            "Stein solution is not positive definite; spectral radius >= 1 suspected"
        ) from None
    rate = float(_norms(np.array(cs), norm).max())
    if not rate < 1.0:  # refuses NaN too
        raise NoContractingNormError("constructed norm does not contract the matrix")
    return ContractionCertificate(norm, rate, "lyapunov")


def lyapunov_scaling(c) -> MatrixNorm:
    """The Lyapunov-scaled norm of the solution P of P - C* P C = I, under
    which *c* is a strict contraction (by :func:`_stein_schur`, in O(m^3)
    time).  Succeeds exactly when the spectral radius of c is below one;
    otherwise raises :class:`NoContractingNormError`."""
    c = as_matrix(c)
    if c.shape[1] != c.shape[0]:
        raise ShapeError("matrix must be square")
    if not c.size:
        raise ShapeError("matrix must be nonempty")
    return _stein_certificate([c]).norm


def _check_certificate(norm: MatrixNorm, rate: float) -> None:
    if not isinstance(norm, MatrixNorm):
        raise InvalidCertificateError(f"expected a MatrixNorm, got {type(norm).__name__}")
    if not (_is_number(rate) and 0.0 <= rate < 1.0):
        raise InvalidCertificateError(f"rate {rate} not in [0, 1)")


@dataclass(frozen=True)
class ContractionCertificate:
    """Witness that ``norm_value(C, norm) <= rate < 1`` for every factor's
    C-block: ``"declared"`` (given, or found among the built-in norms) or
    ``"lyapunov"`` (a Stein-equation scaling).  A found certificate's rate is
    the largest member norm itself, so it passes its own check."""

    norm: MatrixNorm
    rate: float
    kind: str = "declared"

    def __post_init__(self):
        _check_certificate(self.norm, self.rate)
        if self.kind not in ("declared", "lyapunov"):
            raise InvalidCertificateError(f"unknown certificate kind {self.kind!r}")

    def _violation(
        self, cs: np.ndarray, first: int
    ) -> CertificateViolationError | None:
        """The violation of this certificate by the first C-block of the
        stack *cs*, the C-blocks of steps *first*, *first* + 1, ..., whose
        norm is not at most the rate (no slack; NaN fails), or None."""
        for i, val in enumerate(_norms(cs, self.norm).tolist()):
            if not val <= self.rate:
                return CertificateViolationError(first + i, val, self.rate)
        return None

    def describe(self) -> str:
        return f"{self.kind} norm={self.norm.kind} rate={self.rate:.17g}"


@dataclass(frozen=True)
class GelfandCertificate:
    """Witness that ``||C^power|| <= rate^power`` for one matrix C, so its
    spectral radius is at most rate < 1.  The search gives it for even
    powers only; a contracting C is a declared certificate.  It bounds no
    factor in one norm, so :func:`require_per_factor` refuses it."""

    norm: MatrixNorm
    rate: float
    power: int
    kind: ClassVar[str] = "gelfand"

    def __post_init__(self):
        _check_certificate(self.norm, self.rate)
        if not (_is_number(self.power, numbers.Integral) and self.power >= 1):
            raise InvalidCertificateError(
                f"power must be an integer >= 1, got {self.power!r}"
            )

    def describe(self) -> str:
        return f"gelfand k={self.power} norm={self.norm.kind} rate={self.rate:.17g}"


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


#: the highest power of a lone matrix that :func:`_certificate_search` evaluates
_GELFAND_MAX_POWER = 64


def _certificate_search(
    cs, norm: MatrixNorm | None = None, powers: bool = False
) -> ContractionCertificate | GelfandCertificate:
    """The one certificate search, over the distinct matrices of *cs*, in
    this order: each norm (the given *norm*, else :data:`BUILTIN_NORMS`) on
    every matrix, whose largest value below 1 is a ``"declared"`` rate; with
    *powers* and one distinct matrix C, ||C^k|| < 1 for k = 2, 4, ..., 64 in
    the same norms, a :class:`GelfandCertificate`; with no given *norm*, a
    common Stein scaling, ``"lyapunov"``.  Raises
    :class:`NoContractingNormError` with the last attempt's reason."""
    # + 0 turns -0.0 into 0.0, so matrices that compare equal are one
    cs = list({(c.shape, (c + 0).tobytes()): c for c in map(as_matrix, cs)}.values())
    if not cs:
        raise ShapeError("need at least one matrix")
    n = cs[0].shape[0]
    if any(c.shape != (n, n) for c in cs):
        raise ShapeError("matrices must be square and of one order")
    if not n:
        raise ShapeError("matrices must be nonempty")
    if norm is not None and not isinstance(norm, MatrixNorm):
        raise ParseError(f"expected a MatrixNorm or None, got {type(norm).__name__}")
    norms = BUILTIN_NORMS if norm is None else (norm,)
    st = np.array(cs)
    for candidate in norms:
        rate = float(_norms(st, candidate).max())
        if rate < 1.0:
            return ContractionCertificate(candidate, rate, "declared")
    if powers and len(cs) == 1:
        # a power past the largest double is inf, or NaN, and ends the search
        with np.errstate(over="ignore", invalid="ignore"):
            power = c2 = cs[0] @ cs[0]
            k = 2
            while k <= _GELFAND_MAX_POWER and np.isfinite(power).all():
                for candidate in norms:
                    val = float(_norms(power[None], candidate)[0])
                    if val < 1.0:
                        return GelfandCertificate(candidate, val ** (1.0 / k), k)
                power, k = power @ c2, k + 2
    if norm is not None:
        raise NoContractingNormError(f"no {norm.kind} norm below 1 was found")
    return _stein_certificate(cs)


def spectral_certificate(
    c, norm: MatrixNorm | None = None
) -> GelfandCertificate | ContractionCertificate | None:
    """Certify that the spectral radius of *c* is below one by the search
    with powers: a contracting norm of C (``"declared"``), else of a power
    C^k, k = 2, 4, ..., 64 (``"gelfand"``), else a Lyapunov scaling.  A
    given *norm* is searched alone, with no Lyapunov step.  Returns None
    when undecided, which is *not* a proof that the spectral radius is >= 1.
    """
    try:
        return _certificate_search([c], norm, powers=True)
    except NoContractingNormError:
        return None
