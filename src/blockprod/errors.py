"""Exception types shared across the package."""


class BlockprodError(Exception):
    """Base class for all package errors."""


class ShapeError(BlockprodError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(BlockprodError):
    """A linear solve hit a pivot that is zero to working precision."""

    def __init__(self, pivot: float):
        super().__init__(f"matrix singular to working precision (min pivot {pivot:.3e})")
        self.pivot = pivot


class NoContractingNormError(BlockprodError):
    """No scaled norm making the matrix a contraction could be constructed
    (the spectral radius is >= 1, or the construction failed numerically)."""


class InvalidCertificateError(BlockprodError, ValueError):
    """A supplied certificate cannot bound every factor: its rate is outside
    [0, 1), its norm is not a norm, its kind or power is unknown, it is a
    Gelfand certificate, or it is not a certificate."""


class CertificateViolationError(BlockprodError):
    """A matrix fed to the product engine exceeds the declared contraction rate."""

    def __init__(self, step: int, value: float, rate: float):
        super().__init__(
            f"step {step}: ||C|| = {value:.17g} exceeds declared rate {rate:.17g}"
        )
        self.step = step
        self.value = value
        self.rate = rate


class DeviationIdentityError(BlockprodError, ArithmeticError):
    """The product engine's deviation identity D' = (D - Y) C failed beyond
    its rounding tolerance."""


class AnalysisRefusedError(BlockprodError):
    """No contraction certificate is obtainable, or a limit candidate is not
    finite, so the convergence test hypothesis cannot be verified; or the
    solution of :func:`~blockprod.matrixcore.solve_right` is not finite."""


class ParseError(BlockprodError, ValueError):
    """A sequence or matrix file is malformed or cannot be read, a trace file
    cannot be written, or a parameter is out of range or of the wrong type."""
