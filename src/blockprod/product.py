"""Incremental right partial products, certified deviation bounds, left
products, and brute-force oracles.

For a sequence A_1, A_2, ... of block upper-triangular matrices the partial
product P_n = A_1 A_2 ... A_n has the form [[I, X_n], [0, Gamma_n]] with

    X_n = B_n + X_{n-1} C_n,        Gamma_n = C_1 C_2 ... C_n.

The limit candidate is L_n = B_n (I - C_n)^{-1}; the deviation
D_n = X_n - L_n satisfies D_{n+1} = (D_n - Y_n) C_{n+1} with
Y_n = L_{n+1} - L_n, which yields the certified geometric error bound
propagated alongside the product.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .blockform import BlockUpperTriangular, _conforming, _limits, _split
from .errors import BlockprodError, DeviationIdentityError, ShapeError
from .matrixcore import (
    ContractionCertificate,
    _norms,
    _stack,
    require_per_factor,
)

# not called here: perfbench/tracing.py patches norm_value in every blockprod
# module that binds it, and its self-test expects this module to be one
from .matrixcore import norm_value  # noqa: F401

__all__ = [
    "ProductState",
    "initial_state",
    "step",
    "explicit_sum",
    "dense_partial_product",
    "left_product_init",
    "left_product_step",
    "TraceRow",
    "trace_row",
]

#: relative slack allowed on the algebraic deviation identity
IDENTITY_TOL = 1e-10


@dataclass(frozen=True, init=False, eq=False)
class ProductState:
    """Immutable snapshot of a partial right product.

    ``x`` and ``gamma`` are the top-right and bottom-right blocks of P_n,
    ``l`` the current limit candidate (the last factor's read-only
    :attr:`~BlockUpperTriangular.limit`), ``d_dev = x - l`` the deviation,
    ``y_prev`` the latest limit-candidate increment (so the previous
    candidate is ``l - y_prev``), and ``bound`` a
    certified upper bound on the deviation in the certificate norm.
    ``identity_residual`` records how well the one-step deviation identity
    was satisfied numerically.  ``norm_x``, ``norm_d``, ``norm_y`` and
    ``norm_gamma`` are the norms of ``x``, ``d_dev``, ``y_prev`` and ``gamma``
    in the certificate norm the state was stepped under, computed once by the
    step engine (0, and ``norm_gamma`` None, unless the engine stepped it;
    ``norm_y`` 0 while ``y_prev`` is None).  A state the engine computed may
    be a view into the buffers of its chunk; no later chunk writes to them.
    """

    n: int
    x: np.ndarray
    gamma: np.ndarray
    l: np.ndarray
    d_dev: np.ndarray
    y_prev: np.ndarray | None
    bound: float
    identity_residual: float = 0.0
    norm_x: float = 0.0
    norm_d: float = 0.0
    norm_y: float = 0.0
    norm_gamma: float | None = None
    #: the step :func:`_advance` took from this state, as (factor,
    #: certificate, weak reference to the next state), for :func:`step`
    _next: tuple | None = field(default=None, init=False, repr=False)

    def __init__(
        self, n, x, gamma, l, d_dev, y_prev, bound,
        identity_residual=0.0, norm_x=0.0, norm_d=0.0, norm_y=0.0, norm_gamma=None,
    ):  # fmt: skip
        # the fields in one update of the instance dict, in half the time of
        # the generated __init__, which sets each by object.__setattr__
        vars(self).update(
            n=n, x=x, gamma=gamma, l=l, d_dev=d_dev, y_prev=y_prev, bound=bound,
            identity_residual=identity_residual, norm_x=norm_x, norm_d=norm_d,
            norm_y=norm_y, norm_gamma=norm_gamma, _next=None,
        )  # fmt: skip


def initial_state(s: int, csize: int) -> ProductState:
    """The empty product: X = 0, Gamma = I."""
    x = np.zeros((s, csize), dtype=np.complex128)
    return ProductState(
        n=0,
        x=x,
        gamma=np.eye(csize, dtype=np.complex128),
        l=x,
        d_dev=x,
        y_prev=None,
        bound=0.0,
    )


#: the engine takes at most 20 factors at once (the streak window of
#: :func:`~blockprod.analyzer.analyze`), so a stream is read at most 19
#: factors past the step where a verdict fires ...
_CHUNK_FACTORS = 20
#: ... and about 4096 C-block entries: at m = 32, chunks of 20 factors were
#: slower than single steps and chunks of 4 faster
_CHUNK_ENTRIES = 4096


def _chunk_length(m: int) -> int:
    """How many factors of C-block order *m* the engine takes at once: 20 up
    to m = 14, 4 at m = 32, and 1 from m = 46."""
    return max(1, min(_CHUNK_FACTORS, _CHUNK_ENTRIES // (m * m)))


def _stream_chunks(
    factors: Iterable[BlockUpperTriangular], horizon: int
) -> Iterator[list[BlockUpperTriangular]]:
    """The first *horizon* factors of a stream, read through
    :func:`~blockprod.blockform._conforming` and never past the horizon, in
    chunks of the step engine's length for their C-block order.  When
    reading raises inside a chunk, the factors read before are yielded
    first, so a consumer that reaches a verdict among them never sees the
    exception."""
    chunk: list[BlockUpperTriangular] = []
    try:
        for a in itertools.islice(_conforming(factors, "stream", False), horizon):
            if not chunk:
                size = _chunk_length(a.csize)
            chunk.append(a)
            if len(chunk) == size:
                yield chunk
                chunk = []
    except Exception:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


class _Steps(NamedTuple):
    """What :func:`_advance` did with a chunk: the state after each step it
    took, those steps' limit candidates L_n as one stack, and the
    failure at the step after them, or None when it took every step."""

    states: list[ProductState]
    ls: np.ndarray
    error: BlockprodError | None


def _advance(
    state: ProductState,
    factors: Sequence[BlockUpperTriangular],
    cert: ContractionCertificate,
) -> _Steps:
    """Append the factors of one chunk, which share the block orders (s, m)
    of the product, with every other check of :func:`step` on every factor.

    Only X_n and Gamma_n are stepped one factor at a time.  The member
    check, the limit candidates, D_n, Y_n, the identity residuals, the
    norms of X_n, D_n, Y_n and the residuals, and the norms of Gamma_n take
    one stacked call each for the chunk.  Each stacked value is
    bit-identical to the one-matrix call, because every matrix in a stack
    is C-contiguous, as the arrays of a single step are.  A failing check
    ends the chunk at its step, in the order certificate, limit, identity
    within a step.  The failure is returned, not raised, so that a caller
    can first use the steps before it.  *state* and each state taken keep a
    weak reference to their successor, which :func:`step` returns while it
    is alive.  *cert* must be a :class:`ContractionCertificate`; :func:`step`
    and :func:`_run` check that where it enters.
    """
    n0 = state.n
    cs = _stack([a.c for a in factors])
    error: BlockprodError | None = cert._violation(cs, n0 + 1)
    k = len(factors) if error is None else error.step - n0 - 1
    ls, failed = _limits(factors[:k])
    if failed is not None:
        k, error = len(ls), failed
    if not k:
        return _Steps([], np.empty((0, *state.x.shape), dtype=np.complex128), error)

    l = _stack(ls)
    # X_n, D_n = X_n - L_n, Y_n = L_n - L_{n-1} and the identity residual
    # D_n - (D_{n-1} - Y_n) C_n, in one buffer for one norm call; an entry
    # past the largest double is inf or NaN, and fails the identity check
    quantities = np.empty((4, k, *state.x.shape), dtype=np.complex128)
    xs, d, y, residual = quantities
    x, gamma, gammas = state.x, state.gamma, []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, a in enumerate(factors[:k]):
            x = np.add(a.b, x @ a.c, out=xs[i])
            gamma = gamma @ a.c
            gammas.append(gamma)
        np.subtract(xs, l, out=d)
        np.subtract(l[0], state.l, out=y[0])
        np.subtract(l[1:], l[:-1], out=y[1:])
        np.subtract(state.d_dev, y[0], out=residual[0])
        np.subtract(d[:-1], y[1:], out=residual[1:])
        np.subtract(d, residual @ cs[:k], out=residual)
    norms = _norms(quantities.reshape(4 * k, *x.shape), cert.norm).reshape(4, k)
    norm_x, norm_d, norm_y, norm_r = norms.tolist()
    norm_gamma = _norms(_stack(gammas), cert.norm).tolist()

    states, prev = [], state
    for i in range(k):
        n = n0 + i + 1
        if n == 1:  # no Y_1, and no identity to check
            y_prev, norm_y[i], norm_r[i], bound = None, 0.0, 0.0, norm_d[i]
        elif not (
            math.isfinite(norm_r[i])
            and norm_r[i] <= IDENTITY_TOL * max(1.0, norm_x[i], prev.norm_x, norm_d[i])
        ):
            error = DeviationIdentityError(
                f"deviation identity violated at step {n}: residual {norm_r[i]:.3e}"
            )
            break
        else:
            y_prev, bound = y[i], (prev.bound + norm_y[i]) * cert.rate
            if bound == math.inf:  # the sum, not the bound, is past the largest double
                bound = prev.bound * cert.rate + norm_y[i] * cert.rate
        new = ProductState(
            n, xs[i], gammas[i], ls[i], d[i], y_prev, bound,
            norm_r[i], norm_x[i], norm_d[i], norm_y[i], norm_gamma[i],
        )  # fmt: skip
        object.__setattr__(prev, "_next", (factors[i], cert, weakref.ref(new)))
        states.append(new)
        prev = new
    return _Steps(states, l[: len(states)], error)


def _run(
    factors: Iterable[BlockUpperTriangular],
    cert: ContractionCertificate,
    horizon: int,
) -> Iterator[tuple[ProductState, list[BlockUpperTriangular], _Steps]]:
    """The engine on the first *horizon* factors that :func:`_stream_chunks`
    reads, from the empty product: per chunk, the state before it, the chunk
    and its :class:`_Steps`.  A chunk's or the reader's failure is raised
    only when the next chunk is asked for, after the consumer used this one."""
    cert, state = require_per_factor(cert), None
    for chunk in _stream_chunks(factors, horizon):
        if state is None:
            state = initial_state(chunk[0].s, chunk[0].csize)
        done = _advance(state, chunk, cert)
        yield state, chunk, done
        if done.error is not None:
            raise done.error
        state = done.states[-1]


def step(
    state: ProductState, a: BlockUpperTriangular, cert: ContractionCertificate
) -> ProductState:
    """Append one factor to the partial product: the step engine on a chunk
    of one factor.  When the engine already stepped *state* by *a* under
    *cert*, in a chunk or in an earlier call, and that state is still
    alive, it is returned.

    A certificate that is not a :class:`ContractionCertificate` raises
    :class:`InvalidCertificateError`, a factor that is not a
    :class:`BlockUpperTriangular` :class:`ParseError`, and a factor whose
    B-block does not have the shape of X :class:`ShapeError`.  A factor
    whose C-block's norm is above the rate or NaN raises
    :class:`CertificateViolationError` naming the step, one whose I - C is
    singular :class:`SingularMatrixError`, and one whose limit candidate is
    not finite :class:`AnalysisRefusedError`.
    The deviation identity D' = (D - Y) C is verified at every step past the
    first, to within ``IDENTITY_TOL`` max(1, ||X_n||, ||X_{n-1}||, ||D_n||);
    a residual above that or not finite raises :class:`DeviationIdentityError`.

    The factor's blocks were validated when it was built, so nothing is
    validated again here: the limit candidate is the factor's cached
    :attr:`~BlockUpperTriangular.limit`, and ||X_n||, ||D_n||, ||Y_n|| and
    ||Gamma_n|| are evaluated once each and kept on the returned state.
    :func:`_run` drives the same engine on chunks of up to 20 factors for
    stream ``analyze`` and CLI ``product``, with bit-identical states.
    """
    ahead = state._next
    if ahead is not None and ahead[0] is a and ahead[1] is cert:
        new = ahead[2]()
        if new is not None:
            return new
    cert = require_per_factor(cert)
    split = _split(a)
    if split != state.x.shape:
        raise ShapeError(
            f"factor {state.n + 1} has (s, m) = {split}; "
            f"the product has {state.x.shape}"
        )
    done = _advance(state, (a,), cert)
    if done.error is not None:
        raise done.error
    return done.states[0]


def explicit_sum(seq: Iterable[BlockUpperTriangular], n: int) -> np.ndarray:
    """X_n by the explicit telescoped sum sum_i B_{n-i} (C_{n+1-i} ... C_n).

    The i = 0 term carries the empty product (the identity).  Agrees with
    the step recurrence to rounding.  *seq* may be any iterable, and is
    checked as a cycle is.
    """
    seq = tuple(_conforming(seq, "sequence"))
    if not 1 <= n <= len(seq):
        raise IndexError(f"n={n} out of range for sequence of length {len(seq)}")
    acc = np.zeros_like(seq[0].b)
    suffix = np.eye(seq[0].csize, dtype=np.complex128)
    for i in range(n):
        acc = acc + seq[n - 1 - i].b @ suffix
        suffix = seq[n - 1 - i].c @ suffix
    return acc


def dense_partial_product(seq: Iterable[BlockUpperTriangular], n: int) -> np.ndarray:
    """Brute-force P_n by left-to-right dense multiplication (the oracle);
    *seq* may be any iterable, and is checked as a cycle is."""
    seq = tuple(_conforming(seq, "sequence"))
    if not 1 <= n <= len(seq):
        raise IndexError(f"n={n} out of range for sequence of length {len(seq)}")
    out = seq[0].to_dense()
    for a in seq[1:n]:
        out = out @ a.to_dense()
    return out


def _dense_cycle_product(
    prefix: Sequence[BlockUpperTriangular],
    cycle: Sequence[BlockUpperTriangular],
    n: int,
) -> np.ndarray:
    """P_n of *prefix* followed by *cycle* repeated forever, in O(log n)
    dense products: the prefix cut to n, then the dense product of one
    period raised to the power q by repeated squaring, then the first r
    members of the cycle, where q, r = divmod(n - len(prefix), len(cycle)).

    Dense like :func:`dense_partial_product`, so independent of the step
    engine, and equal to it up to rounding.
    """
    if n < 1:
        raise IndexError(f"n={n} out of range")
    prefix = prefix[:n]
    q, r = divmod(n - len(prefix), len(cycle))
    dense = [a.to_dense() for a in cycle[: len(cycle) if q else r]]
    factors = [a.to_dense() for a in prefix]
    if q:
        factors.append(np.linalg.matrix_power(reduce(np.matmul, dense), q))
    return reduce(np.matmul, factors + dense[:r])


def left_product_init(s: int, csize: int) -> tuple[np.ndarray, np.ndarray]:
    """Z_0 = 0, Gamma_0 = I for the left product A_n ... A_1."""
    return np.zeros((s, csize), dtype=np.complex128), np.eye(csize, dtype=np.complex128)


def left_product_step(
    zstate: tuple[np.ndarray, np.ndarray], a: BlockUpperTriangular
) -> tuple[np.ndarray, np.ndarray]:
    """One left-multiplication: Z' = Z + B Gamma, Gamma' = C Gamma."""
    z, gamma = zstate
    s, m = _split(a)
    if z.shape != (s, m) or gamma.shape != (m, m):
        raise ShapeError("state does not conform to the factor's block split")
    return z + a.b @ gamma, a.c @ gamma


class TraceRow(NamedTuple):
    """One per-step diagnostics record, all norms in the certificate norm."""

    n: int
    norm_X: float
    norm_Y: float
    norm_D: float
    bound: float
    norm_gamma: float


def trace_row(state: ProductState, cert: ContractionCertificate) -> TraceRow:
    """The diagnostics of *state*, which must have been stepped under *cert*:
    the norms :func:`step` kept on it.  Only when it kept no ||Gamma_n||, on
    the empty product and a state built by hand, is that evaluated here."""
    norm_gamma = state.norm_gamma
    if norm_gamma is None:
        gamma = np.ascontiguousarray(state.gamma)[None]
        norm_gamma = float(_norms(gamma, cert.norm)[0])
    return TraceRow(
        state.n, state.norm_x, state.norm_y, state.norm_d, state.bound, norm_gamma
    )
