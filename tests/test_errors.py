"""A malformed parameter, matrix datum or list of factors given to a public
function raises a typed :class:`BlockprodError`, worded per parameter, and
never a bare ``ValueError``, ``TypeError``, ``AttributeError`` or
``StopIteration``, nor broadcasts; and the records that hold matrices
compare and hash without raising."""

from dataclasses import replace

import numpy as np
import pytest

from blockprod import (
    AnalysisRefusedError,
    AnalysisReport,
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
    Verdict,
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
    # a factor where a list or stream of factors belongs, and booleans and
    # strings in matrix data, which numpy reads as numbers
    ("periodic_of_a_factor", lambda: Periodic(A_HALF), ParseError),
    ("finite_of_a_factor", lambda: Finite(A_HALF), ParseError),
    ("set_of_a_factor", lambda: certify_rcp(A_HALF), ParseError),
    ("cycle_points_of_a_factor", lambda: cycle_accumulation_points(A_HALF), ParseError),
    ("explicit_sum_of_a_factor", lambda: explicit_sum(A_HALF, 1), ParseError),
    ("dense_product_of_a_factor", lambda: dense_partial_product(A_HALF, 1),
     ParseError),
    ("stream_of_an_int", lambda: analyze(Stream(5), cert=CERT), ParseError),
    ("corollary1_stream_of_an_int", lambda: corollary1_analyze(Stream(5), [[0.5]]),
     ParseError),
    ("bool_and_string_blocks", lambda: BlockUpperTriangular(1, [[True]], [["0.5"]]),
     ShapeError),
    ("string_c_block", lambda: BlockUpperTriangular(1, [[1.0]], [["0.5"]]), ShapeError),
    ("norm_of_strings", lambda: norm_value([["0.5"]], INF_NORM), ShapeError),
    ("bool_among_floats", lambda: as_matrix([[True, 0.5]]), ShapeError),
    ("bytes_entry", lambda: as_matrix([[b"1"]]), ShapeError),
    ("bool_array", lambda: as_matrix(np.array([[True]])), ShapeError),
    ("string_array", lambda: as_matrix(np.array([["1"]])), ShapeError),
    ("bool_in_object_array", lambda: as_matrix(np.array([[1, np.True_]], dtype=object)),
     ShapeError),
    ("converged_report_without_limit",
     lambda: AnalysisReport(Verdict.CERTIFIED_CONVERGED), ParseError),
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
        (
            lambda: Periodic(5),
            "a cycle must be an iterable of BlockUpperTriangular, got int",
        ),
        (
            lambda: analyze(Stream(A_HALF), cert=CERT),
            "a stream must be an iterable of BlockUpperTriangular, "
            "got BlockUpperTriangular",
        ),
    ],
    ids=["eps_nan", "eps_zero", "horizon_19", "horizon_float", "atol_negative",
         "cycle_not_iterable", "stream_not_iterable"],
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


def test_records_holding_matrices_compare_and_hash_by_identity():
    # a limit of more than one entry, a witness with points, a state: a
    # generated __eq__ compared their arrays inside a tuple, and raised
    a = BlockUpperTriangular(1, [[1.0, 2.0]], 0.5 * np.eye(2))
    report = analyze(Periodic([a]))
    verdict = certify_rcp([A_HALF, A_TWO])
    state = step(initial_state(1, 1), A_HALF, CERT)
    assert report.limit.size > 1 and verdict.witness.points
    for record in (report, verdict, verdict.witness, state):
        twin = replace(record)
        assert record == record and record != twin
        assert hash(record) == hash(record) != hash(twin)
    assert analyze(Periodic([a])) != report
