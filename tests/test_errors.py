"""A malformed parameter, matrix datum or list of factors given to a public
function raises a typed :class:`BlockprodError`, worded per parameter, and
never a bare ``ValueError``, ``TypeError``, ``AttributeError`` or
``StopIteration``, nor broadcasts."""

import numpy as np
import pytest

from blockprod import (
    AnalysisRefusedError,
    AnalyzerConfig,
    BlockUpperTriangular,
    BlockprodError,
    ContractionCertificate,
    Finite,
    GelfandCertificate,
    INF_NORM,
    InvalidCertificateError,
    MatrixNorm,
    ParseError,
    Periodic,
    ShapeError,
    Stream,
    analyze,
    as_matrix,
    block_mul,
    certify_rcp,
    corollary1_analyze,
    cycle_accumulation_points,
    dense_partial_product,
    explicit_sum,
    initial_state,
    left_product_init,
    left_product_step,
    lyapunov_norm,
    norm_value,
    solve_right,
    spectral_certificate,
    step,
    uniform_certificate,
)
from blockprod.analyzer import DEFAULT_ATOL
from blockprod.cli import build_parser

A_HALF = BlockUpperTriangular(1, [[1.0]], [[0.5]])
A_TWO = BlockUpperTriangular(1, [[2.0]], [[0.5]])
A_S1 = BlockUpperTriangular(1, [[1.0, 0.0]], 0.5 * np.eye(2))
A_S2 = BlockUpperTriangular(2, np.eye(2), 0.5 * np.eye(2))
CERT = ContractionCertificate(INF_NORM, 0.9)

MALFORMED = [
    ("rate_not_a_number", lambda: ContractionCertificate(INF_NORM, "x"),
     InvalidCertificateError),
    ("unknown_certificate_kind", lambda: ContractionCertificate(INF_NORM, 0.5, kind="y"),
     InvalidCertificateError),
    ("gelfand_power_not_an_integer", lambda: GelfandCertificate(INF_NORM, 0.5, power=1.5),
     InvalidCertificateError),
    ("identity_order_not_a_number", lambda: BlockUpperTriangular("a", [[1.0]], [[0.5]]),
     ShapeError),
    ("no_matrices_to_certify", lambda: uniform_certificate([]), ShapeError),
    ("unknown_norm_kind", lambda: MatrixNorm("two"), ParseError),
    ("scaling_on_a_builtin_norm", lambda: MatrixNorm("inf", np.eye(2)), ParseError),
    ("norm_given_by_name", lambda: norm_value(np.eye(2), "inf"), ParseError),
    ("not_a_presentation", lambda: analyze(object()), ParseError),
    ("corollary1_not_a_presentation", lambda: corollary1_analyze(object(), [[0.5]]),
     ParseError),
    ("certificate_norm_by_name", lambda: ContractionCertificate("inf", 0.5),
     InvalidCertificateError),
    ("gelfand_norm_by_name", lambda: GelfandCertificate("inf", 0.5, 2),
     InvalidCertificateError),
    ("search_norm_by_name", lambda: spectral_certificate(0.5 * np.eye(2), "inf"),
     ParseError),
    ("eps_not_a_number", lambda: AnalyzerConfig(eps="x"), ParseError),
    ("horizon_not_a_number", lambda: AnalyzerConfig(horizon="x"), ParseError),
    ("atol_not_a_number", lambda: certify_rcp([A_HALF, A_TWO], atol="x"), ParseError),
    # matrix data, lists of factors, results and flags that escaped as
    # numpy's or Python's own error, broadcast, or were accepted (a Stream is
    # read, so analyze refuses it, with a certificate)
    ("explicit_sum_of_two_splits", lambda: explicit_sum([A_S1, A_S2], 2), ShapeError),
    ("dense_product_of_two_splits", lambda: dense_partial_product([A_S1, A_S2], 2),
     ShapeError),
    ("explicit_sum_of_a_non_factor", lambda: explicit_sum([1], 1), ParseError),
    ("empty_cycle_points", lambda: cycle_accumulation_points([]), ShapeError),
    ("periodic_non_factor", lambda: Periodic([A_HALF, 1]), ParseError),
    ("finite_non_factor", lambda: Finite(["x"]), ParseError),
    ("set_non_factor", lambda: certify_rcp([A_HALF, None]), ParseError),
    ("block_mul_non_factor", lambda: block_mul(A_HALF, 2.0), ParseError),
    ("step_non_factor", lambda: step(initial_state(1, 1), "x", CERT), ParseError),
    ("left_step_non_factor", lambda: left_product_step(left_product_init(1, 1), 3),
     ParseError),
    ("stream_non_factor", lambda: analyze(Stream([A_HALF, 1]), cert=CERT), ParseError),
    ("non_numeric_block", lambda: BlockUpperTriangular(1, "x", [[0.5]]), ShapeError),
    ("non_numeric_scaling", lambda: lyapunov_norm("x"), ShapeError),
    ("object_entry", lambda: as_matrix([[object()]]), ShapeError),
    ("ragged_block", lambda: BlockUpperTriangular(1, [[1], [1, 2]], [[0.5]]),
     ShapeError),
    ("solve_right_not_finite",
     lambda: solve_right([[1e308, 1e308]], [[0.5, 0], [0, 0.5]]), AnalysisRefusedError),
    ("eps_true", lambda: AnalyzerConfig(eps=True), ParseError),
    ("atol_true", lambda: certify_rcp([A_HALF, A_TWO], atol=True), ParseError),
    ("rate_false", lambda: ContractionCertificate(INF_NORM, False),
     InvalidCertificateError),
    ("gelfand_power_true", lambda: GelfandCertificate(INF_NORM, 0.5, power=True),
     InvalidCertificateError),
    ("identity_order_true", lambda: BlockUpperTriangular(True, [[1.0]], [[0.5]]),
     ShapeError),
]  # fmt: skip


@pytest.mark.parametrize(
    "build,error", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_parameters_raise_typed_errors(build, error):
    with pytest.raises(BlockprodError) as info:
        build()
    assert type(info.value) is error
    # every parameter error is one; a refused result is not
    assert isinstance(info.value, ValueError) is (error is not AnalysisRefusedError)


EPS = "eps must be a finite number > 0, got "
HORIZON = "horizon must be an integer >= 20, got "


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: AnalyzerConfig(eps=float("nan")), EPS + "nan"),
        (lambda: AnalyzerConfig(eps=0.0), EPS + "0.0"),
        (lambda: AnalyzerConfig(horizon=19), HORIZON + "19"),
        (lambda: AnalyzerConfig(horizon=20.0), HORIZON + "20.0"),
        (
            lambda: certify_rcp([A_HALF, A_TWO], atol=-1.0),
            "atol must be a finite number >= 0, got -1.0",
        ),
    ],
    ids=["eps_nan", "eps_zero", "horizon_19", "horizon_float", "atol_negative"],
)
def test_each_parameter_names_itself(build, message):
    with pytest.raises(ParseError) as info:
        build()
    assert str(info.value) == message


def test_cli_defaults_are_the_library_defaults():
    parser = build_parser()
    assert parser.parse_args(["analyze", "--input", "f"]).eps == AnalyzerConfig().eps
    assert parser.parse_args(["certify-rcp", "--input", "f"]).atol == DEFAULT_ATOL
    assert certify_rcp.__defaults__ == (DEFAULT_ATOL,)
