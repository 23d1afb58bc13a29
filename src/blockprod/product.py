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

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .blockform import BlockUpperTriangular
from .errors import ShapeError
from .matrixcore import (
    ContractionCertificate,
    norm_value,
    require_per_factor,
    solve_right,
)

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

#: numerical slack allowed on the algebraic deviation identity
IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class ProductState:
    """Immutable snapshot of a partial right product.

    ``x`` and ``gamma`` are the top-right and bottom-right blocks of P_n,
    ``l`` the current limit candidate, ``d_dev = x - l`` the deviation,
    ``y_prev`` the latest limit-candidate increment (so the previous
    candidate is ``l - y_prev``), and ``bound`` a
    certified upper bound on the deviation in the certificate norm.
    ``identity_residual`` records how well the one-step deviation identity
    was satisfied numerically.
    """

    n: int
    x: np.ndarray
    gamma: np.ndarray
    l: np.ndarray
    d_dev: np.ndarray
    y_prev: np.ndarray | None
    bound: float
    identity_residual: float = 0.0


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


def limit_candidate(b, c) -> np.ndarray:
    """The limit candidate B (I - C)^{-1}, by a right solve."""
    return solve_right(b, np.eye(c.shape[0], dtype=np.complex128) - c)


def step(
    state: ProductState, a: BlockUpperTriangular, cert: ContractionCertificate
) -> ProductState:
    """Append one factor to the partial product.

    A certificate that is not a :class:`ContractionCertificate` raises
    :class:`InvalidCertificateError`.  The factor's C-block is checked
    against it by :meth:`ContractionCertificate.check`, so a violation
    raises :class:`CertificateViolationError` naming the step.  A factor
    whose B-block does not have the shape of X raises :class:`ShapeError`.
    The deviation identity D' = (D - Y) C is verified to within
    ``IDENTITY_TOL`` at every step past the first.
    """
    n = state.n + 1
    if a.b.shape != state.x.shape:
        raise ShapeError(
            f"factor {n} has (s, m) = {a.b.shape}; the product has {state.x.shape}"
        )
    require_per_factor(cert).check(a.c, n)
    x = a.b + state.x @ a.c
    gamma = state.gamma @ a.c
    l = limit_candidate(a.b, a.c)
    d_dev = x - l
    if state.n == 0:
        y, bound, residual = None, norm_value(d_dev, cert.norm), 0.0
    else:
        y = l - state.l
        bound = (state.bound + norm_value(y, cert.norm)) * cert.rate
        residual = norm_value(d_dev - (state.d_dev - y) @ a.c, cert.norm)
        if residual > IDENTITY_TOL * max(1.0, norm_value(d_dev, cert.norm)):
            raise ArithmeticError(
                f"deviation identity violated at step {n}: residual {residual:.3e}"
            )
    return ProductState(
        n=n,
        x=x,
        gamma=gamma,
        l=l,
        d_dev=d_dev,
        y_prev=y,
        bound=bound,
        identity_residual=residual,
    )


def explicit_sum(seq: Sequence[BlockUpperTriangular], n: int) -> np.ndarray:
    """X_n by the explicit telescoped sum sum_i B_{n-i} (C_{n+1-i} ... C_n).

    The i = 0 term carries the empty product (the identity).  Agrees with
    the step recurrence to rounding.
    """
    if not 1 <= n <= len(seq):
        raise IndexError(f"n={n} out of range for sequence of length {len(seq)}")
    acc = np.zeros_like(seq[0].b)
    suffix = np.eye(seq[0].csize, dtype=np.complex128)
    for i in range(n):
        acc = acc + seq[n - 1 - i].b @ suffix
        suffix = seq[n - 1 - i].c @ suffix
    return acc


def dense_partial_product(seq: Sequence[BlockUpperTriangular], n: int) -> np.ndarray:
    """Brute-force P_n by left-to-right dense multiplication (the oracle)."""
    if not 1 <= n <= len(seq):
        raise IndexError(f"n={n} out of range for sequence of length {len(seq)}")
    out = seq[0].to_dense()
    for a in seq[1:n]:
        out = out @ a.to_dense()
    return out


def left_product_init(s: int, csize: int) -> tuple[np.ndarray, np.ndarray]:
    """Z_0 = 0, Gamma_0 = I for the left product A_n ... A_1."""
    return np.zeros((s, csize), dtype=np.complex128), np.eye(csize, dtype=np.complex128)


def left_product_step(
    zstate: tuple[np.ndarray, np.ndarray], a: BlockUpperTriangular
) -> tuple[np.ndarray, np.ndarray]:
    """One left-multiplication: Z' = Z + B Gamma, Gamma' = C Gamma."""
    z, gamma = zstate
    if z.shape != (a.s, a.csize) or gamma.shape != (a.csize, a.csize):
        raise ValueError("state does not conform to the factor's block split")
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
    return TraceRow(
        n=state.n,
        norm_X=norm_value(state.x, cert.norm),
        norm_Y=0.0 if state.y_prev is None else norm_value(state.y_prev, cert.norm),
        norm_D=norm_value(state.d_dev, cert.norm),
        bound=state.bound,
        norm_gamma=norm_value(state.gamma, cert.norm),
    )
