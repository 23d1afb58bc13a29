import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import blockprod
from blockprod import (
    CertificateViolationError,
    DeviationIdentityError,
    NoContractingNormError,
    ParseError,
    ShapeError,
    SingularMatrixError,
)
from blockprod import (
    INF_NORM,
    BlockUpperTriangular,
    ContractionCertificate,
    cli,
    initial_state,
    step,
)
from blockprod.cli import main
from blockprod.seqfile import TRACE_HEADER, fmt_matrix
from conftest import gelfand_only_c

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (argv, expected exit code, golden stdout file)
GOLDEN_CASES = [
    (("product", "--input", str(FIXTURES / "constant.json"), "--n", "3"),
     0, "product_constant.txt"),
    (("analyze", "--input", str(FIXTURES / "constant.json")),
     0, "analyze_constant.txt"),
    (("certify-rcp", "--input", str(FIXTURES / "pair_not_rcp.json")),
     1, "certify_pair_not_rcp.txt"),
    (("certify-rcp", "--input", str(FIXTURES / "pair_rcp.json")),
     0, "certify_pair_rcp.txt"),
    (("certify-rcp", "--input", str(FIXTURES / "lyapunov_set.json")),
     0, "certify_lyapunov_set.txt"),
    (("norm", "--input", str(FIXTURES / "nilpotent.json"), "--kind", "lyapunov"),
     0, "norm_nilpotent.txt"),
    (("analyze", "--input", str(FIXTURES / "huge_b_cycle.json")),
     0, "analyze_huge_b_cycle.txt"),
    (("certify-rcp", "--input", str(FIXTURES / "huge_b_set.json")),
     1, "certify_huge_b_set.txt"),
    (("analyze", "--input", str(FIXTURES / "violation.json")),
     3, "analyze_violation.txt"),
    (("analyze", "--input", str(FIXTURES / "malformed.json")),
     2, "analyze_malformed.txt"),
    (("product", "--input", str(FIXTURES / "overflow_row_sum_cycle.json"), "--n", "3"),
     0, "product_overflow_row_sum_cycle.txt"),
]


@pytest.mark.parametrize(
    "argv,expected_code,golden", GOLDEN_CASES, ids=lambda v: str(v)[:40]
)
def test_golden_fixtures(capsys, argv, expected_code, golden):
    code, out, _err = run(capsys, *argv)
    assert code == expected_code
    assert out == (GOLDEN / golden).read_text()


def test_golden_lyapunov_norm_is_correctly_rounded():
    # ||[[0, 2], [0, 0]]|| under P = diag(1, 5) is 2/sqrt(5): the printed d
    # is the double nearest to it, (d - ulp/2)^2 < 4/5 < (d + ulp/2)^2
    line = (GOLDEN / "norm_nilpotent.txt").read_text().splitlines()[-1]
    d = float(line.removeprefix("norm value: "))
    half = Fraction(math.ulp(d)) / 2
    assert (Fraction(d) - half) ** 2 < Fraction(4, 5) < (Fraction(d) + half) ** 2


class TestProduct:
    def test_prints_first_member_at_n_1(self, capsys):
        code, out, _ = run(
            capsys, "product", "--input", str(FIXTURES / "constant.json"), "--n", "1"
        )
        assert code == 0
        assert "X:\n  [1]" in out
        assert "gamma:\n  [0.5]" in out

    def test_trace_csv(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        code, _, _ = run(
            capsys,
            "product", "--input", str(FIXTURES / "constant.json"),
            "--n", "3", "--trace", str(trace),
        )
        assert code == 0
        assert trace.read_text() == (GOLDEN / "trace_constant.csv").read_text()
        assert trace.read_text().splitlines()[0] == TRACE_HEADER

    def test_unwritable_trace_is_parse_error(self, capsys, tmp_path):
        trace = tmp_path / "missing" / "t.csv"
        code, out, err = run(
            capsys,
            "product", "--input", str(FIXTURES / "constant.json"),
            "--n", "3", "--trace", str(trace),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: cannot write {trace}: ")

    def test_read_only_trace_is_parse_error(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("kept\n")
        trace.chmod(0o444)
        if os.access(trace, os.W_OK):
            pytest.skip("file permissions do not bind this user")
        code, out, err = run(
            capsys, "product", "--input", str(FIXTURES / "constant.json"),
            "--n", "3", "--trace", str(trace),
        )  # fmt: skip
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: cannot write {trace}: [Errno 13] ")
        assert trace.read_text() == "kept\n"

    def test_trace_to_the_null_device(self, capsys):
        before = os.stat(os.devnull)
        code, out, _ = run(
            capsys, "product", "--input", str(FIXTURES / "constant.json"),
            "--n", "3", "--trace", os.devnull,
        )  # fmt: skip
        assert code == 0 and "dense cross-check: OK (|diff| <= 1e-11)" in out
        after = os.stat(os.devnull)
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_trace_through_a_symbolic_link(self, capsys, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        try:
            link.symlink_to(target)
        except OSError:
            pytest.skip("no symbolic links here")
        code, _, _ = run(
            capsys, "product", "--input", str(FIXTURES / "constant.json"),
            "--n", "3", "--trace", str(link),
        )  # fmt: skip
        assert code == 0 and link.is_symlink()
        assert target.read_text() == (GOLDEN / "trace_constant.csv").read_text()
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    def test_malformed_no_partial_output(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "product", "--input", str(FIXTURES / "malformed.json"), "--n", "2"
        )
        assert code == 2 and out == "" and "parse error" in err

    def test_set_kind_rejected(self, capsys):
        code, out, _ = run(
            capsys, "product", "--input", str(FIXTURES / "pair_rcp.json"), "--n", "2"
        )
        assert code == 2 and out == ""

    def test_declared_violation_exits_3(self, capsys):
        code, out, err = run(
            capsys, "product", "--input", str(FIXTURES / "violation.json"), "--n", "2"
        )
        assert code == 3 and out == "" and "certificate violated" in err

    def test_lone_rate_is_parse_error(self, capsys, tmp_path):
        # a rate without a norm once printed the searched certificate as declared
        text = (FIXTURES / "constant.json").read_text().replace('"norm": "inf",', "")
        path = tmp_path / "lone_rate.json"
        path.write_text(text)
        code, out, err = run(capsys, "product", "--input", str(path), "--n", "3")
        assert code == 2 and out == "" and err.startswith("parse error:")


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 11])
    def test_finite_file_repeats_its_last_member(self, capsys, tmp_path, n):
        rng = np.random.default_rng(n)
        members = [
            BlockUpperTriangular(1, rng.standard_normal((1, 2)), 0.3 * rng.uniform(-1, 1, (2, 2)))
            for _ in range(3)
        ]
        path = tmp_path / "finite.json"
        path.write_text(json.dumps({
            "kind": "finite", "s": 1, "d": 3, "norm": "inf", "rate": 0.6,
            "matrices": [{"B": a.b.real.tolist(), "C": a.c.real.tolist()} for a in members],
        }))
        state = initial_state(1, 2)
        for k in range(n):
            state = step(state, members[min(k, 2)], ContractionCertificate(INF_NORM, 0.6))
        code, out, _ = run(capsys, "product", "--input", str(path), "--n", str(n))
        assert code == 0 and "dense cross-check: OK (|diff| <= 1e-11)" in out
        assert f"X:\n{fmt_matrix(state.x)}\ngamma:\n{fmt_matrix(state.gamma)}\n" in out

    @staticmethod
    def singular_file(tmp_path):
        # the certificate holds, and the second factor's I - C is singular to
        # working precision, which only the step engine finds, at step 2
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "kind": "finite", "s": 1, "d": 2,
            "matrices": [{"B": [[1]], "C": [[0.5]]}, {"B": [[1]], "C": [[0.999999999999999]]}],
            "norm": "inf", "rate": 0.9999999999999999,
        }))
        return path

    SINGULAR_ERR = (
        "analysis refused: matrix singular to working precision (min pivot 9.992e-16)\n"
    )

    def test_failure_inside_the_engine_writes_nothing(self, capsys, tmp_path):
        path = self.singular_file(tmp_path)
        trace = tmp_path / "out.csv"
        code, out, err = run(
            capsys, "product", "--input", str(path), "--n", "5", "--trace", str(trace)
        )
        assert code == 3 and out == "" and not trace.exists()
        assert err == self.SINGULAR_ERR

    def test_failed_run_leaves_the_trace_target_as_it_was(self, capsys, tmp_path):
        # the rows go to an anonymous temporary file and reach the target only
        # after the engine has run, so the engine's failure comes first, also
        # before a path that cannot be written
        path = self.singular_file(tmp_path)
        trace = tmp_path / "out.csv"
        trace.write_text("kept\n")
        for target in (trace, tmp_path / "missing" / "t.csv"):
            argv = ("product", "--input", str(path), "--n", "5", "--trace", str(target))
            assert run(capsys, *argv) == (3, "", self.SINGULAR_ERR)
        assert trace.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "singular.json"]

    def test_memory_does_not_grow_with_n(self, capsys, tmp_path):
        # the factors are fed one chunk at a time, never as a list of all n,
        # and trace rows are written as they are stepped, never kept
        argv = ("product", "--input", str(FIXTURES / "constant.json"))
        run(capsys, *argv, "--n", "1")  # imports and the parser, once
        trace = ("--trace", str(tmp_path / "t.csv"))
        for options in ((), trace):
            peaks = []
            for n in ("200", "20000"):
                tracemalloc.start()
                try:
                    code, out, _ = run(capsys, *argv, "--n", n, *options)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert code == 0 and "dense cross-check: OK (|diff| <= 1e-11)" in out
            assert peaks[1] < 2 * peaks[0], options
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 20001
        assert os.listdir(tmp_path) == ["t.csv"]


def test_parser_built_once_gives_the_outputs_of_fresh_ones(capsys):
    calls = [
        ("product", "--input", str(FIXTURES / "constant.json"), "--n", "3"),
        ("product", "--n", "3"),  # no --input: argparse exits with 2
        ("norm", "--input", str(FIXTURES / "nilpotent.json"), "--kind", "lyapunov"),
        ("analyze", "--input", str(FIXTURES / "constant.json")),
    ]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [call(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert reused[1][0] == ("exit", 2) and "--input" in reused[1][2]


@pytest.mark.parametrize("b", ["1e6", "1e8"])
def test_large_b_passes_the_deviation_identity(capsys, tmp_path, b):
    # once refused at step 40 (b = 1e6) and 35 (b = 1e8): the identity's
    # tolerance shrank with ||D_n|| while its rounding grows with ||X||
    path = tmp_path / "large_b.json"
    path.write_text(
        '{"kind": "periodic", "s": 1, "d": 2,'
        f' "matrices": [{{"B": [[{b}]], "C": [[0.5]]}}], "norm": "inf", "rate": 0.5}}'
    )
    code, out, err = run(capsys, "product", "--input", str(path), "--n", "60")
    assert code == 0 and err == ""
    assert "dense cross-check: OK (|diff| <= 1e-11)" in out.splitlines()


def three_member_file(tmp_path, scale):
    """Three periodic members, s = 1 and m = 4, with inf norms of C 0.9 and
    B scaled by *scale*."""
    rng = np.random.default_rng(7)
    members = []
    for _ in range(3):
        c = rng.standard_normal((4, 4))
        c *= 0.9 / np.abs(c).sum(axis=1).max()
        b = rng.standard_normal((1, 4)) * scale
        members.append({"B": b.tolist(), "C": c.tolist()})
    path = tmp_path / "three.json"
    doc = {"kind": "periodic", "s": 1, "d": 5, "matrices": members}
    path.write_text(json.dumps(doc))
    return path


SCALED_RULE = "dense cross-check: OK (|diff| <= 1e-11 max(1, |entry|))"


@pytest.mark.parametrize("scale", [1e6, 2.0**40, 1e12])
def test_cross_check_scales_with_the_entries(capsys, tmp_path, scale):
    # the engine and the oracle differ by less than one ulp of the entries,
    # which once failed the absolute bound of 1e-11 from about 1e6 on
    path = three_member_file(tmp_path, scale)
    code, out, err = run(capsys, "product", "--input", str(path), "--n", "200")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == SCALED_RULE


def test_cross_check_keeps_the_absolute_rule_where_it_holds(capsys, tmp_path):
    path = three_member_file(tmp_path, 1e4)
    code, out, _ = run(capsys, "product", "--input", str(path), "--n", "200")
    assert code == 0
    assert out.splitlines()[-1] == "dense cross-check: OK (|diff| <= 1e-11)"


@pytest.mark.parametrize(
    "scale, row, size",
    [(1.0, 0, 1e-9), (1e6, 0, 1e-9), (1e6, -1, 1e-9), (1.0, -1, np.nan)],
    ids=["X-1.0", "X-1e6", "gamma-1e6", "gamma-nan"],
)
def test_cross_check_fails_on_a_wrong_dense_product(
    capsys, tmp_path, monkeypatch, scale, row, size
):
    # row 0 holds an X entry, which scales with B; row -1 a gamma entry,
    # which does not, so its own size (below 1 here) bounds its difference;
    # a NaN in one block fails however small the other block's difference
    def perturbed(prefix, cycle, n):
        dense = original(prefix, cycle, n)
        dense[row, -1] += max(1.0, np.abs(dense[row]).max()) * size
        return dense

    original = cli._dense_cycle_product
    monkeypatch.setattr(cli, "_dense_cycle_product", perturbed)
    path = three_member_file(tmp_path, scale)
    code, out, _ = run(capsys, "product", "--input", str(path), "--n", "200")
    assert code == 3
    # a failure names the scaled rule, the last one it was held to
    assert out.splitlines()[-1] == SCALED_RULE.replace("OK", "FAILED")


def test_product_n_below_one_is_parse_error(capsys):
    code, out, err = run(
        capsys, "product", "--input", str(FIXTURES / "constant.json"), "--n", "0"
    )
    assert code == 2 and out == "" and err == "parse error: --n must be >= 1\n"


def test_declared_rate_outside_unit_interval_is_refused(capsys, tmp_path):
    path = tmp_path / "rate.json"
    path.write_text(
        (FIXTURES / "constant.json").read_text().replace('"rate": 0.5', '"rate": 1.5')
    )
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert code == 3 and out == "" and err.startswith("analysis refused: rate 1.5")


def test_product_factors_each_member_once(capsys, tmp_path, lu_solves):
    rng = np.random.default_rng(4)
    members = []
    for _ in range(4):
        c = rng.uniform(-1, 1, (2, 2))
        c *= 0.8 / np.abs(c).sum(axis=1).max()
        members.append({"B": rng.standard_normal((1, 2)).tolist(), "C": c.tolist()})
    path = tmp_path / "period4.json"
    doc = {"kind": "periodic", "s": 1, "d": 3, "matrices": members}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "product", "--input", str(path), "--n", "100")
    assert code == 0 and "dense cross-check: OK" in out
    assert len(lu_solves) == 4


class TestAnalyze:
    def test_not_rcp_pair_file_diverges(self, capsys, tmp_path):
        text = (FIXTURES / "pair_not_rcp.json").read_text().replace('"set"', '"periodic"')
        path = tmp_path / "pair.json"
        path.write_text(text)
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert "verdict: CertifiedDiverged" in out
        assert "witness point" in out

    def test_refused_without_certificate(self, capsys, tmp_path):
        path = tmp_path / "grow.json"
        path.write_text(
            '{"kind": "periodic", "s": 1, "d": 2,'
            ' "matrices": [{"B": [[1]], "C": [[1.5]]}]}'
        )
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 3 and out == "" and "refused" in err


    @pytest.mark.parametrize("c", [[[0.5]], [[0, 2], [0, 0]]], ids=["half", "nilpotent"])
    def test_one_member_periodic_and_finite_print_the_same(self, capsys, tmp_path, c):
        outs = []
        for kind in ("periodic", "finite"):
            member = {"B": [[1] * len(c)], "C": c}
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps({"kind": kind, "s": 1, "d": 1 + len(c),
                                        "matrices": [member]}))
            code, out, _ = run(capsys, "analyze", "--input", str(path))
            assert code == 0 and out.startswith("verdict: CertifiedConverged")
            outs.append(out)
        assert outs[0] == outs[1]


    def test_declared_rate_below_a_c_block_norm_is_violated(self, capsys, tmp_path):
        # |C| = 1 + 5e-13 once passed the rate 1 - 1e-13 and was certified
        # convergent with the limit -1.9998e12, although X_n grows without bound
        path = tmp_path / "over.json"
        path.write_text(
            '{"kind": "periodic", "s": 1, "d": 2,'
            ' "matrices": [{"B": [[1]], "C": [[1.0000000000005]]}],'
            ' "norm": "inf", "rate": 0.9999999999999}'
        )
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 3 and out == ""
        assert err == (
            "certificate violated: step 1: ||C|| = 1.0000000000005 exceeds "
            "declared rate 0.99999999999989997\n"
        )


@pytest.mark.parametrize(
    "c",
    [[[0, 2], [0, 0]], [[0.5]], gelfand_only_c().tolist()],
    ids=["nilpotent", "half", "gelfand_only"],
)
def test_norm_and_one_member_analyze_print_one_certificate(capsys, tmp_path, c):
    matrix = tmp_path / "c.json"
    matrix.write_text(json.dumps({"matrix": c}))
    code, out, _ = run(capsys, "norm", "--input", str(matrix), "--kind", "auto")
    assert code == 0
    lines = {out.splitlines()[0]}
    for kind in ("periodic", "finite"):
        path = tmp_path / f"{kind}.json"
        member = {"B": [[1] * len(c)], "C": c}
        path.write_text(json.dumps({"kind": kind, "s": 1, "d": 1 + len(c),
                                    "matrices": [member]}))
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        lines.add(out.splitlines()[1])
    assert len(lines) == 1 and lines.pop().startswith("certificate: ")


class TestCertifyRcp:
    def test_requires_set_kind(self, capsys):
        code, out, _ = run(
            capsys, "certify-rcp", "--input", str(FIXTURES / "constant.json")
        )
        assert code == 2 and out == ""

    def test_declared_certificate_refused(self, capsys, tmp_path):
        # certify-rcp searches for its own certificate; a declared one was ignored
        text = (FIXTURES / "pair_rcp.json").read_text().replace(
            '"d": 2,', '"d": 2, "norm": "one", "rate": 0.1,'
        )
        path = tmp_path / "declared_set.json"
        path.write_text(text)
        code, out, err = run(capsys, "certify-rcp", "--input", str(path))
        assert code == 2 and out == "" and err.startswith("parse error:")

    def test_atol_flag_loosens_criterion(self, capsys):
        code, out, _ = run(
            capsys,
            "certify-rcp", "--input", str(FIXTURES / "pair_not_rcp.json"),
            "--atol", "10",
        )
        assert code == 0 and out.startswith("RCP")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--input", str(FIXTURES / "constant.json"), "--eps", "nan"),
        ("analyze", "--input", str(FIXTURES / "constant.json"), "--eps", "-1"),
        ("analyze", "--input", str(FIXTURES / "constant.json"), "--eps", "inf"),
        ("certify-rcp", "--input", str(FIXTURES / "pair_rcp.json"), "--atol", "nan"),
        ("certify-rcp", "--input", str(FIXTURES / "pair_rcp.json"), "--atol", "-1"),
        ("certify-rcp", "--input", str(FIXTURES / "pair_rcp.json"), "--atol", "inf"),
    ],
    ids=lambda v: " ".join(v[3:]),
)
def test_bad_tolerance_is_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("parse error:")


@pytest.mark.parametrize(
    "argv,line",
    [
        (("analyze", "constant.json", "--eps", "nan"),
         "eps must be a finite number > 0, got nan"),
        (("analyze", "constant.json", "--eps", "-1"),
         "eps must be a finite number > 0, got -1.0"),
        (("certify-rcp", "pair_rcp.json", "--atol", "inf"),
         "atol must be a finite number >= 0, got inf"),
    ],
    ids=["eps_nan", "eps_negative", "atol_inf"],
)  # fmt: skip
def test_bad_tolerance_is_worded_by_the_library(capsys, argv, line):
    command, name, *flag = argv
    code, out, err = run(capsys, command, "--input", str(FIXTURES / name), *flag)
    assert (code, out, err) == (2, "", f"parse error: {line}\n")


# an over-range B entry, a boolean s, a NaN rate, an infinite matrix entry,
# and integers past Python's int-conversion digit limit in B and in a matrix
BAD_NUMBER_FILES = [
    ("certify-rcp", '{"kind": "set", "s": 1, "d": 2,'
     ' "matrices": [{"B": [[1e400]], "C": [[0.5]]}]}'),
    ("analyze", '{"kind": "periodic", "s": true, "d": 2,'
     ' "matrices": [{"B": [[1]], "C": [[0.5]]}]}'),
    ("analyze", '{"kind": "periodic", "s": 1, "d": 2,'
     ' "matrices": [{"B": [[1]], "C": [[0.5]]}], "norm": "inf", "rate": NaN}'),
    ("norm", '{"matrix": [[Infinity]]}'),
    ("analyze", '{"kind": "periodic", "s": 1, "d": 2,'
     ' "matrices": [{"B": [[1' + "0" * 5000 + ']], "C": [[0.5]]}]}'),
    ("norm", '{"matrix": [[1' + "0" * 5000 + ']]}'),
]


@pytest.mark.parametrize(
    "command,text", BAD_NUMBER_FILES,
    ids=["B_1e400", "s_true", "rate_nan", "norm_inf", "B_5001_digits", "norm_5001_digits"],
)
def test_bad_numbers_are_parse_errors(capsys, tmp_path, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2 and out == "" and err.startswith("parse error:")


@pytest.mark.parametrize(
    "exc,expected_code,prefix",
    [
        (ParseError("x"), 2, "parse error: x"),
        (CertificateViolationError(2, 0.7, 0.5), 3, "certificate violated: step 2"),
        (NoContractingNormError("x"), 4, "undecided: x"),
        (ShapeError("x"), 3, "analysis refused: x"),
        (SingularMatrixError(0.0), 3, "analysis refused: matrix singular"),
        (DeviationIdentityError("x"), 3, "analysis refused: x"),
    ],
    ids=["ParseError", "CertificateViolationError", "NoContractingNormError",
         "ShapeError", "SingularMatrixError", "DeviationIdentityError"],
)
def test_every_library_error_maps_to_an_exit_code(
    capsys, monkeypatch, exc, expected_code, prefix
):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_norm", fail)
    code, out, err = run(capsys, "norm", "--input", "unused.json")
    assert code == expected_code and out == "" and err.startswith(prefix)


def test_process_exit_status(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"matrix": [[NaN]]}')
    src = str(Path(blockprod.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "blockprod.cli", "norm", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("parse error:")


@pytest.mark.parametrize("argv,expected_code,golden", [
    (("analyze",), 0, "analyze_huge_b_cycle.txt"),
    (("certify-rcp",), 1, "certify_huge_b_set.txt"),
], ids=["analyze", "certify-rcp"])  # fmt: skip
def test_huge_b_runs_without_warnings(argv, expected_code, golden):
    # every gap between the limit candidates near 2^997 overflows a plain
    # sum of squares, which printed numpy's "overflow encountered in dot"
    name = "huge_b_cycle.json" if argv[0] == "analyze" else "huge_b_set.json"
    src = str(Path(blockprod.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "blockprod.cli",
         *argv, "--input", str(FIXTURES / name)],
        capture_output=True, text=True, env=env, timeout=60,
    )  # fmt: skip
    assert (proc.returncode, proc.stderr) == (expected_code, "")
    assert proc.stdout == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv", [
    ("analyze", "--input", "overflow_candidate_cycle.json"),
    ("certify-rcp", "--input", "overflow_candidate_set.json"),
    ("product", "--input", "overflow_candidate_cycle.json", "--n", "5"),
], ids=["analyze", "certify-rcp", "product"])  # fmt: skip
def test_overflowing_candidate_is_refused_without_warnings(argv):
    # B = 1e308 over I - C = 0.1 gives the candidate inf, whose gaps are NaN:
    # analyze and certify-rcp ended in a StopIteration traceback, and product
    # printed L: [inf] and a NaN bound before a failed cross-check
    src = str(Path(blockprod.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "blockprod.cli",
         *argv[:2], str(FIXTURES / argv[2]), *argv[3:]],
        capture_output=True, text=True, env=env, timeout=60,
    )  # fmt: skip
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "analysis refused: limit candidate B (I - C)^-1 has an entry that is "
        "not finite\n"
    )


def test_overflowing_increment_fails_the_identity_without_warnings():
    # the candidates +-1.62e308 are finite, but Y_2 = L_2 - L_1 overflows:
    # product printed two RuntimeWarnings before it refused at step 2, while
    # analyze of the cycle certifies divergence at the finite candidates
    src = str(Path(blockprod.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    path = str(FIXTURES / "overflow_increment_cycle.json")
    product, analyzed = [
        subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "blockprod.cli",
             command, "--input", path, *extra],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for command, extra in (("product", ["--n", "6"]), ("analyze", []))
    ]  # fmt: skip
    assert (product.returncode, product.stdout) == (3, "")
    assert product.stderr.startswith(
        "analysis refused: deviation identity violated at step 2: residual "
    )
    assert product.stderr.count("\n") == 1
    assert (analyzed.returncode, analyzed.stderr) == (0, "")
    assert analyzed.stdout.startswith("verdict: CertifiedDiverged\n")


def test_overflowing_row_sums_read_inf_without_warnings(tmp_path):
    # a row sum past the largest double is inf under the inf norm: product
    # printed "overflow encountered in reduce" before an otherwise normal
    # report, whose norm_X column reads inf, and norm before its undecided
    # line
    src = str(Path(blockprod.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    trace = tmp_path / "t.csv"
    product, norm = [
        subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "blockprod.cli",
             command, "--input", str(FIXTURES / name), *extra],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for command, name, extra in (
            ("product", "overflow_row_sum_cycle.json", ["--n", "3", "--trace", trace]),
            ("norm", "overflow_row_sum_matrix.json", ["--kind", "inf"]),
        )
    ]  # fmt: skip
    assert (product.returncode, product.stderr) == (0, "")
    golden = GOLDEN / "product_overflow_row_sum_cycle.txt"
    assert product.stdout == golden.read_text()
    rows = trace.read_text().splitlines()
    assert rows[0].split(",")[1] == "norm_X"
    assert [row.split(",")[1] for row in rows[1:]] == ["inf"] * 3
    assert (norm.returncode, norm.stdout) == (4, "")
    assert norm.stderr.startswith("undecided:")
    assert len(norm.stderr.splitlines()) == 1


class TestNorm:
    @pytest.mark.parametrize("kind", ["auto", "fro"])
    def test_huge_entries_are_undecided_without_warnings(self, tmp_path, kind):
        # the Frobenius sum of squares and the Gelfand powers overflow
        path = tmp_path / "huge.json"
        path.write_text("[[1e200, 2e200, -3e200], [5e199, 1e200, 1e200],"
                        " [2e200, -1e200, 1e200]]")
        src = str(Path(blockprod.__file__).parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "blockprod.cli", "norm",
             "--input", str(path), "--kind", kind],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr.startswith("undecided:")
        assert len(proc.stderr.splitlines()) == 1

    def test_auto_prefers_gelfand(self, capsys):
        code, out, _ = run(
            capsys, "norm", "--input", str(FIXTURES / "nilpotent.json")
        )
        assert code == 0
        assert "gelfand k=2" in out

    def test_zero_matrix_rate_zero(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text("[[0]]")
        code, out, _ = run(capsys, "norm", "--input", str(path))
        assert code == 0 and "rate=0" in out

    def test_expanding_scalar_undecided(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text("[[1.5]]")
        code, out, err = run(capsys, "norm", "--input", str(path))
        assert code == 4 and out == "" and "undecided" in err

    @pytest.mark.parametrize(
        "kind, reason",
        [
            ("auto", "Stein solution is not positive definite; "
                     "spectral radius >= 1 suspected"),
            ("inf", "no inf norm below 1 was found for C or its even powers"),
        ],
    )  # fmt: skip
    def test_undecided_names_the_search_reason(self, capsys, tmp_path, kind, reason):
        path = tmp_path / "two.json"
        path.write_text("[[2.0]]")
        code, out, err = run(capsys, "norm", "--input", str(path), "--kind", kind)
        assert (code, out, err) == (4, "", f"undecided: {reason}\n")

    def test_auto_falls_back_to_lyapunov(self, capsys, tmp_path):
        # no built-in norm of a power up to 64 falls below 1
        path = tmp_path / "m.json"
        path.write_text('{"matrix": [[0.9, 30], [0, 0.9]]}')
        code, out, _ = run(capsys, "norm", "--input", str(path))
        lines = out.splitlines()
        assert code == 0 and len(lines) == 5
        assert lines[0].startswith("certificate: lyapunov norm=lyapunov rate=")
        assert lines[1] == "lyapunov scaling P:"
        assert lines[4].startswith("norm value: ")
        assert lines[0].endswith("rate=" + lines[4].removeprefix("norm value: "))

    def test_lyapunov_kind_expanding_undecided(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text("[[1.5]]")
        code, out, err = run(capsys, "norm", "--input", str(path), "--kind", "lyapunov")
        assert code == 4 and out == "" and err.startswith("undecided:")

    @pytest.mark.parametrize("kind", [norm.kind for norm in blockprod.BUILTIN_NORMS])
    def test_restricted_kind_never_falls_back(self, capsys, tmp_path, kind):
        # auto certifies this matrix by the Lyapunov fallback
        path = tmp_path / "m.json"
        path.write_text('{"matrix": [[0.9, 30], [0, 0.9]]}')
        code, out, err = run(capsys, "norm", "--input", str(path), "--kind", kind)
        assert code == 4 and out == "" and err.startswith("undecided:")

    def test_restricted_kind(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[0.25]]")
        code, out, _ = run(capsys, "norm", "--input", str(path), "--kind", "one")
        assert code == 0 and "norm=one" in out
