"""A malformed parameter of a public function raises a typed
:class:`BlockprodError`, worded per parameter, and never a bare
``ValueError``, ``TypeError`` or ``AttributeError``."""

import numpy as np
import pytest

from blockprod import (
    AnalyzerConfig,
    BlockUpperTriangular,
    BlockprodError,
    ContractionCertificate,
    GelfandCertificate,
    INF_NORM,
    InvalidCertificateError,
    MatrixNorm,
    ParseError,
    ShapeError,
    analyze,
    certify_rcp,
    corollary1_analyze,
    norm_value,
    spectral_certificate,
    uniform_certificate,
)
from blockprod.analyzer import DEFAULT_ATOL
from blockprod.cli import build_parser

A_HALF = BlockUpperTriangular(1, [[1.0]], [[0.5]])
A_TWO = BlockUpperTriangular(1, [[2.0]], [[0.5]])

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
]  # fmt: skip


@pytest.mark.parametrize(
    "build,error", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_parameters_raise_typed_errors(build, error):
    with pytest.raises(BlockprodError) as info:
        build()
    assert type(info.value) is error
    assert isinstance(info.value, ValueError)  # every parameter error is one


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
