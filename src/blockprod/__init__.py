"""Analysis of infinite products of block upper-triangular matrices
[[I, B], [0, C]] with contracting C-blocks: efficient partial products,
limit prediction, certified convergence/divergence verdicts, and RCP
certification of finite matrix sets."""

from .analyzer import (
    AnalysisReport,
    AnalyzerConfig,
    Finite,
    Periodic,
    RcpVerdict,
    Stream,
    Verdict,
    Witness,
    analyze,
    certify_rcp,
    corollary1_analyze,
    cycle_accumulation_points,
    uniform_certificate,
)
from .blockform import BlockUpperTriangular, block_mul
from .errors import (
    AnalysisRefusedError,
    BlockprodError,
    CertificateViolationError,
    DeviationIdentityError,
    InvalidCertificateError,
    NoContractingNormError,
    ParseError,
    ShapeError,
    SingularMatrixError,
)
from .matrixcore import (
    BUILTIN_NORMS,
    ContractionCertificate,
    FROBENIUS,
    GelfandCertificate,
    INF_NORM,
    MatrixNorm,
    ONE_NORM,
    as_matrix,
    lyapunov_norm,
    lyapunov_scaling,
    norm_value,
    solve_right,
    spectral_certificate,
)
from .product import (
    ProductState,
    TraceRow,
    dense_partial_product,
    explicit_sum,
    initial_state,
    left_product_init,
    left_product_step,
    step,
    trace_row,
)

__version__ = "0.1.0"
