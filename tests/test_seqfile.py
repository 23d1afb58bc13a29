import itertools
import json
import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockprod import (
    BUILTIN_NORMS,
    INF_NORM,
    BlockUpperTriangular,
    ContractionCertificate,
    ParseError,
    Stream,
    Verdict,
    analyze,
)
from blockprod.cli import main
from blockprod.product import TraceRow
from blockprod.seqfile import (
    _array,
    TRACE_HEADER,
    fmt_complex,
    fmt_float,
    fmt_matrix,
    format_report,
    norm_by_name,
    parse_matrix_file,
    parse_sequence_text,
    trace_csv_line,
    write_trace_csv,
)

VALID = """
{
  "kind": "periodic", "s": 1, "d": 3,
  "matrices": [{"B": [[1, [0, -2]]], "C": [[0.5, 0], [0, [0.25, 0.1]]]}],
  "norm": "inf", "rate": 0.9
}
"""


class TestParse:
    def test_valid_document(self):
        doc = parse_sequence_text(VALID)
        assert doc.kind == "periodic" and (doc.s, doc.d) == (1, 3)
        a = doc.members[0]
        assert a.b[0, 1] == -2j
        assert a.c[1, 1] == 0.25 + 0.1j
        cert = doc.certificate
        assert cert.norm.kind == "inf" and cert.rate == 0.9 and cert.kind == "declared"

    def test_no_declared_certificate_for_auto(self):
        doc = parse_sequence_text(VALID.replace('"inf", "rate": 0.9', '"auto"'))
        assert doc.certificate is None

    @pytest.mark.parametrize("norm", BUILTIN_NORMS, ids=lambda k: k.kind)
    def test_every_builtin_norm_name_declares(self, norm):
        doc = parse_sequence_text(VALID.replace('"inf"', f'"{norm.kind}"'))
        assert doc.certificate.norm == norm

    def test_set_file_declares_no_certificate(self):
        # certify-rcp searches for its own certificate
        with pytest.raises(ParseError, match="a set file declares no certificate"):
            parse_sequence_text(VALID.replace('"periodic"', '"set"'))
        searched = VALID.replace('"periodic"', '"set"').replace(
            '"inf", "rate": 0.9', '"auto"'
        )
        assert parse_sequence_text(searched).certificate is None

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace('"periodic"', '"weekly"'),
            lambda t: t.replace('"s": 1', '"s": 3'),
            lambda t: t.replace("[[1, [0, -2]]]", "[[1]]"),  # ragged vs d
            lambda t: t.replace("[0, -2]", "[0, -2, 3]"),  # bad scalar
            lambda t: t.replace('"rate": 0.9', '"rate": "fast"'),
            lambda t: t.replace('"norm": "inf"', '"norm": "spectral"'),
            lambda t: t[:-30],  # truncated JSON
            lambda t: t.replace('"matrices"', '"entries"'),
            lambda t: t.replace("[[0.5, 0]", "[[NaN, 0]"),
            lambda t: t.replace("[0, -2]", "[0, -Infinity]"),
            lambda t: t.replace("0.25", "1e400"),
            lambda t: t.replace("[[1, [0", "[[1" + "0" * 400 + ", [0"),
            lambda t: t.replace("[0.25, 0.1]", "[1" + "0" * 400 + ", 0.1]"),
            # past Python's int-conversion digit limit, which json.loads raises
            lambda t: t.replace("[[1, [0", "[[1" + "0" * 5000 + ", [0"),
            lambda t: t.replace('"s": 1', '"s": true'),
            lambda t: t.replace('"rate": 0.9', '"rate": NaN'),
            lambda t: t.replace('"rate": 0.9', '"rate": 1e400'),
            lambda t: t.replace('"rate": 0.9', '"rate": 1' + "0" * 400),
            lambda t: t.replace("[[1, [0", "[[true, [0"),
            lambda t: "[" * 100000,  # nested past the decoder's recursion limit
            lambda t: t.replace('"norm": "inf", ', ""),  # a lone rate
            lambda t: t.replace(', "rate": 0.9', ""),  # a lone built-in norm
            lambda t: t.replace('"inf"', '"auto"'),  # "auto" with a rate
        ],
    )
    def test_malformed_rejected(self, mutation):
        with pytest.raises(ParseError):
            parse_sequence_text(mutation(VALID))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[]", "top level must be an object"),
            (VALID.replace('"C"', '"D"'), "matrix entry 0 must carry B and C"),
        ],
        ids=["top_level_array", "entry_without_c"],
    )
    def test_structure_message(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_sequence_text(text)

    def test_unknown_norm_name(self):
        with pytest.raises(ParseError, match="^unknown norm name 'two'$"):
            norm_by_name("two")


def _invalid(v: str) -> str:
    return f"invalid scalar {v} (expected a number or [re, im])"


TOO_LARGE = "entry 0 B holds a number too large for a float"


class TestNumberRule:
    """Each bad scalar fails with its own exact message, after a real or a
    pair alike, and the first failure in reading order is the one
    reported."""

    @pytest.mark.parametrize(
        "scalar, message",
        [
            ('"1.5"', _invalid("'1.5'")),
            ("true", _invalid("True")),
            ("null", _invalid("None")),
            ("[1]", _invalid("[1]")),
            ("[1, 2, 3]", _invalid("[1, 2, 3]")),
            ("[true, 0]", _invalid("[True, 0]")),
            ('[0, "1.5"]', _invalid("[0, '1.5']")),
            ("[null, 0]", _invalid("[None, 0]")),
            ("[[1, 2], [3, 4]]", _invalid("[[1, 2], [3, 4]]")),
            ("1" + "0" * 400, TOO_LARGE),
            ("[1" + "0" * 400 + ", 0]", TOO_LARGE),
            ("[0, -1" + "0" * 400 + "]", TOO_LARGE),
            ("[NaN, 0]", "entry 0 B holds a non-finite number"),
        ],
    )
    @pytest.mark.parametrize("first", ["0.5", "[0.5, 0]"], ids=["real", "pair"])
    def test_exact_message(self, first, scalar, message):
        text = VALID.replace("[[1, [0, -2]]]", f"[[{first}, {scalar}]]")
        with pytest.raises(ParseError) as info:
            parse_sequence_text(text)
        assert str(info.value) == message

    def test_ragged_row(self):
        text = VALID.replace("[[0.5, 0], [0, [0.25, 0.1]]]", "[[0.5, 0], [0]]")
        with pytest.raises(ParseError) as info:
            parse_sequence_text(text)
        assert str(info.value) == "entry 0 C row 1 must hold 2 scalars"

    def test_first_failure_in_reading_order(self):
        # a bad scalar in row 0 is reported before a ragged row 1
        text = VALID.replace("[[0.5, 0], [0, [0.25, 0.1]]]", '[[0.5, "x"], [0]]')
        with pytest.raises(ParseError) as info:
            parse_sequence_text(text)
        assert str(info.value) == _invalid("'x'")

    @pytest.mark.parametrize("first", ["1" + "0" * 400, "[1" + "0" * 400 + ", 0]"],
                             ids=["real", "pair"])
    def test_first_failure_within_a_row(self, first):
        # an int beyond a double is reported before a bad scalar after it
        # in its row, and after one before it
        for row, message in ([first, '"x"'], TOO_LARGE), (['"x"', first], _invalid("'x'")):
            text = VALID.replace("[[1, [0, -2]]]", f"[[{', '.join(row)}]]")
            with pytest.raises(ParseError) as info:
                parse_sequence_text(text)
            assert str(info.value) == message

    def test_largest_finite_int_is_read(self):
        big = 2**1024 - 2**970 - 1  # rounds down to the largest double
        top = np.finfo(float).max
        assert _array([[big, -big]], 1, 2, "x").tolist() == [[top, -top]]
        pairs = _array([[[0, big], [big, 0]]], 1, 2, "x")
        assert pairs.tolist() == [[complex(0, top), top]]
        for block in ([[big + 1, 0]], [[[0, big + 1], [0, 0]]]):
            with pytest.raises(ParseError, match="too large"):
                _array(block, 1, 2, "x")


def _reference(data) -> np.ndarray:
    """The block read one scalar at a time with Python's own conversions."""
    return np.array(
        [[complex(*v) if type(v) is list else complex(v) for v in row] for row in data],
        dtype=np.complex128,
    )


REALS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-(2**1023), 2**1023),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, 5e-324, 2**53 + 1]),
)
PAIRS = st.lists(REALS, min_size=2, max_size=2)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    scalars=st.sampled_from([REALS, PAIRS, st.one_of(REALS, PAIRS)]),
    data=st.data(),
)
def test_block_reads_as_per_scalar_reference(shape, scalars, data):
    rows, cols = shape
    block = data.draw(
        st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)
    )
    out = _array(block, rows, cols, "x")
    assert out.shape == shape and out.dtype == np.complex128
    assert out.tobytes() == _reference(block).tobytes()


HUGE = st.sampled_from([10**400, [0, -(10**400)]])
BAD = st.sampled_from([True, False, None, "1", [1], [1, 2, 3], [True, 1], [1, None],
                       [[1, 2], 3], 10**400, [0, -(10**400)], float("inf")])


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    scalars=st.sampled_from([REALS, PAIRS]),
    data=st.data(),
)
def test_bad_scalar_fails_as_per_scalar_reading(shape, scalars, data):
    rows, cols = shape
    block = data.draw(
        st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)
    )
    i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    block[i][j] = data.draw(BAD)
    if j and data.draw(st.booleans()):  # an int beyond a double before it
        block[i][data.draw(st.integers(0, j - 1))] = data.draw(HUGE)
    if data.draw(st.booleans()):  # and a short row after it
        block[-1] = block[-1][:-1]
    expected = None
    try:
        # one scalar at a time, in reading order: its type, then its parts
        for r, row in enumerate(block):
            if len(row) != cols:
                raise ParseError(f"x row {r} must hold {cols} scalars")
            for v in row:
                ok = type(v) in (int, float) or (
                    type(v) is list and len(v) == 2
                    and all(type(p) in (int, float) for p in v)
                )
                if not ok:
                    raise ParseError(_invalid(repr(v)))
                try:
                    for part in v if type(v) is list else [v]:
                        float(part)
                except OverflowError:
                    raise ParseError("x holds a number too large for a float") from None
        raise ParseError("x holds a non-finite number")
    except ParseError as exc:
        expected = str(exc)
    with pytest.raises(ParseError) as info:
        _array(block, rows, cols, "x")
    assert str(info.value) == expected


class TestMatrixFile:
    def test_bare_array(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[0, 2], [0, 0]]")
        assert np.array_equal(parse_matrix_file(path), [[0, 2], [0, 0]])

    def test_wrapped_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"matrix": [[1.5]]}')
        assert parse_matrix_file(path)[0, 0] == 1.5

    @pytest.mark.parametrize("text", ["[[NaN]]", '{"matrix": [[1, [0, 1e400]]]}'])
    def test_rejects_non_finite(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="non-finite"):
            parse_matrix_file(path)

    def test_rejects_undecodable_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff[[1]]")
        with pytest.raises(ParseError, match="cannot read"):
            parse_matrix_file(path)

    def test_rejects_nonsquare(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1, 2]]")
        with pytest.raises(ParseError):
            parse_matrix_file(path)

    def test_rejects_a_matrix_field_that_is_no_array(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"matrix": 5}')
        expected = "expected a 2-D array (or an object with a matrix field)"
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            parse_matrix_file(path)


def _token(negative: bool, digits: str, point: int, exp, upper: bool) -> str:
    """A JSON number with *digits*, the point after *point* of them."""
    whole = digits[:point].lstrip("0") or "0"
    frac = digits[point:]
    return (
        ("-" if negative else "") + whole + ("." + frac if frac else "")
        + ("" if exp is None else ("E" if upper else "e") + str(exp))
    )


def _midpoint(x: float) -> str:
    """The exact decimal halfway between *x* and the next double up."""
    with localcontext() as ctx:
        ctx.prec = 2000
        return str((Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2)


TINY = 2.2250738585072014e-308  # the smallest normal double
TOKENS = st.one_of(
    st.builds(
        _token,
        st.booleans(),
        st.text("0123456789", min_size=1, max_size=40),
        st.integers(0, 40),
        st.none() | st.integers(-340, 340),
        st.booleans(),
    ),
    st.floats(allow_nan=False, allow_infinity=False, max_value=1.7e308).map(_midpoint),
    st.floats(-TINY, TINY).map(_midpoint),
    st.floats(-TINY, TINY).map(repr),
    st.floats(-TINY, TINY).map(lambda x: str(Decimal(x))),
    st.integers(2**64, 2**1024).map(str),
    st.integers(-(2**1024), -(2**63) - 1).map(str),
)


def _integer_literal(token: str) -> bool:
    return not any(c in token for c in ".eE")


def _expected(token: str) -> float:
    """The double *token* reads as: ``float`` of its text, correctly rounded.
    An integer literal is an int first, so -0 reads as +0, as json reads it."""
    return float(int(token)) if _integer_literal(token) else float(token)


def _finite(token: str) -> bool:
    try:
        return math.isfinite(_expected(token))
    except OverflowError:  # an integer beyond the largest double
        return False


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestDecodeBoundary:
    """Numbers, documents and nesting as the file readers decode them."""

    @settings(max_examples=400, deadline=None)
    @given(tokens=st.lists(TOKENS, min_size=1, max_size=4), data=st.data())
    def test_every_number_reads_as_float_of_its_text(self, tokens, data, tmp_path_factory):
        m = len(tokens)
        # B is all reals; each C row mixes a pair with real zeros, so both
        # kinds of scalar are read, alone and mixed in one row
        c_rows = [
            "[" + ", ".join(
                f"[{t}, {tokens[(i + 1) % m]}]" if j == i else "0" for j in range(m)
            ) + "]"
            for i, t in enumerate(tokens)
        ]
        text = (
            '{"kind": "periodic", "s": 1, "d": %d, "matrices": '
            '[{"B": [[%s]], "C": [%s]}]}' % (m + 1, ", ".join(tokens), ", ".join(c_rows))
        )
        path = tmp_path_factory.mktemp("m") / "m.json"
        pairs = [f"[{t}, {tokens[-1 - i]}]" for i, t in enumerate(tokens)]
        path.write_text(
            data.draw(st.sampled_from(["[[%s]]", '{"matrix": [[%s]]}']))
            % "], [".join([", ".join(tokens)] * (m - 1) + [", ".join(pairs)])
        )
        if not all(map(_finite, tokens)):
            with pytest.raises(ParseError, match="non-finite|too large for a float"):
                parse_sequence_text(text)
            with pytest.raises(ParseError, match="non-finite|too large for a float"):
                parse_matrix_file(path)
            return
        want = [_expected(t) for t in tokens]
        a = parse_sequence_text(text).members[0]
        assert [_bits(z) for z in a.b[0]] == [_bits(complex(w)) for w in want]
        assert [_bits(a.c[i, i]) for i in range(m)] == [
            _bits(complex(w, want[(i + 1) % m])) for i, w in enumerate(want)
        ]
        matrix = parse_matrix_file(path)
        for row in matrix[:-1]:
            assert [_bits(z) for z in row] == [_bits(complex(w)) for w in want]
        assert [_bits(z) for z in matrix[-1]] == [
            _bits(complex(w, want[-1 - i])) for i, w in enumerate(want)
        ]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_documents_read_as_json_decodes_them(self, data):
        s, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        finite = TOKENS.filter(_finite)
        scalar = st.one_of(finite, st.tuples(finite, finite).map("[{0[0]}, {0[1]}]".format))

        def block(rows, cols):
            return data.draw(st.lists(
                st.lists(scalar, min_size=cols, max_size=cols).map(", ".join),
                min_size=rows, max_size=rows,
            ))

        members = [
            '{"B": [[%s]], "C": [[%s]]}'
            % ("], [".join(block(s, m)), "], [".join(block(m, m)))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        kind = data.draw(st.sampled_from(["periodic", "finite", "set"]))
        declared = ["", ', "norm": "auto"', ', "norm": "one", "rate": 0.5']
        norm = data.draw(st.sampled_from([""] if kind == "set" else declared))
        text = '{"kind": "%s", "s": %d, "d": %d, "matrices": [%s]%s, "note": "x"}' % (
            kind, s, s + m, ", ".join(members), norm
        )
        doc = parse_sequence_text(text)
        ref = json.loads(text)
        assert (doc.kind, doc.s, doc.d) == (ref["kind"], ref["s"], ref["d"])
        assert len(doc.members) == len(ref["matrices"])
        for a, entry in zip(doc.members, ref["matrices"]):
            assert a.b.tobytes() == _reference(entry["B"]).tobytes()
            assert a.c.tobytes() == _reference(entry["C"]).tobytes()
        rate = ref.get("rate")
        assert (doc.certificate and doc.certificate.rate) == rate

    def test_json_integers_name_the_errors(self):
        # orjson reads integers of 2^64 and more as floats; errors name the ints
        text = VALID.replace('"s": 1, "d": 3', f'"s": {2**64}, "d": {2**64 + 2}')
        with pytest.raises(ParseError) as info:
            parse_sequence_text(text)
        assert str(info.value) == f"entry 0 B must be a list of {2**64} rows"
        text = VALID.replace("[0, -2]", f"[{2**64}, true]")
        with pytest.raises(ParseError) as info:
            parse_sequence_text(text)
        assert str(info.value) == _invalid(f"[{2**64}, True]")

    def test_largest_finite_integer_literal(self):
        big = 2**1024 - 2**970 - 1  # rounds down to the largest double
        doc = parse_sequence_text(VALID.replace("[0, -2]", f"[0, -{big}]"))
        assert doc.members[0].b[0, 1] == complex(0, -np.finfo(float).max)
        with pytest.raises(ParseError) as info:
            parse_sequence_text(VALID.replace("[0, -2]", f"[0, -{big + 1}]"))
        assert str(info.value) == TOO_LARGE

    def test_integer_past_the_digit_limit(self):
        digits = sys.get_int_max_str_digits()
        with pytest.raises(ParseError) as info:
            parse_sequence_text(VALID.replace("[0, -2]", "[0, -1" + "0" * digits + "]"))
        assert str(info.value) == (
            f"number too large for a float: an integer of more than {digits} digits"
        )


def _nested(depth: int) -> str:
    return "[" * depth + "1" + "]" * depth


DEEP_PLACES = {
    "B": lambda v: VALID.replace("[0, -2]", v),
    "C": lambda v: VALID.replace("[0.25, 0.1]", v),
    "kind": lambda v: VALID.replace('"periodic"', v),
    "norm": lambda v: VALID.replace('"inf"', v),
    "unread key": lambda v: VALID.replace('"rate": 0.9', f'"rate": 0.9, "note": {v}'),
    "unread entry key": lambda v: VALID.replace('"B":', f'"note": {v}, "B":'),
}
DEEP_MATRICES = {
    "matrix": lambda v: f"[[0, {v}], [0, 0]]",
    "matrix unread key": lambda v: f'{{"matrix": [[1]], "note": {v}}}',
}


class TestDeepNesting:
    """Nesting that json refuses stays a ParseError (exit 2), wherever it
    lands, although orjson decodes it."""

    @pytest.mark.parametrize("depth", [1500, 100000])
    @pytest.mark.parametrize("place", DEEP_PLACES)
    def test_sequence_file(self, capsys, tmp_path, place, depth):
        text = DEEP_PLACES[place](_nested(depth))
        with pytest.raises(ParseError, match="^invalid JSON: maximum recursion depth"):
            parse_sequence_text(text)
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(["analyze", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("parse error: invalid JSON: maximum recursion")

    @pytest.mark.parametrize("depth", [1500, 100000])
    @pytest.mark.parametrize("place", DEEP_MATRICES)
    def test_matrix_file(self, capsys, tmp_path, place, depth):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_MATRICES[place](_nested(depth)))
        with pytest.raises(ParseError, match="^invalid JSON: maximum recursion depth"):
            parse_matrix_file(path)
        assert main(["norm", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("parse error: invalid JSON: maximum recursion")

    @pytest.mark.parametrize("place", ["B", "C", "kind", "norm"])
    def test_shallower_nesting_keeps_its_message(self, place):
        value = _nested(400)
        with pytest.raises(ParseError) as info:
            parse_sequence_text(DEEP_PLACES[place](value))
        shown = repr(json.loads(value))
        assert str(info.value) == {
            "B": _invalid(shown),
            "C": _invalid(shown),
            "kind": f"kind must be periodic, finite, or set, got {shown}",
            "norm": f"norm must be inf, one, fro, or auto, got {shown}",
        }[place]

    def test_shallower_unread_nesting_is_accepted(self):
        doc = parse_sequence_text(DEEP_PLACES["unread key"](_nested(400)))
        assert doc == parse_sequence_text(VALID)


class TestFormatting:
    def test_float_17_digits(self):
        assert fmt_float(1 / 3) == "0.33333333333333331"
        assert fmt_float(2.0) == "2"

    def test_complex(self):
        assert fmt_complex(2.0) == "2"
        assert fmt_complex(1 - 2j) == "(1-2j)"

    def test_converged_stream_report_prints_its_deviation_bound(self):
        a = BlockUpperTriangular(1, [[1.0]], [[0.5]])
        cert = ContractionCertificate(INF_NORM, 0.5)
        report = analyze(Stream(itertools.repeat(a, 100)), cert=cert)
        assert report.verdict is Verdict.CONVERGED_NUMERICALLY
        line = f"deviation bound: {fmt_float(report.deviation_bound)}\n"
        assert line in format_report(report).splitlines(keepends=True)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        data=st.data(),
        real=st.booleans(),
        transpose=st.booleans(),
    )
    def test_matrix_is_the_join_of_its_entries(self, shape, data, real, transpose):
        parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats())
        entries = data.draw(
            st.lists(st.tuples(parts, parts), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
        )
        m = np.array([complex(re, im) for re, im in entries]).reshape(shape)
        if real:
            m = m.real
        if transpose:
            m = m.T
        expected = "\n".join(
            "  [" + ", ".join(fmt_complex(v) for v in row) + "]" for row in m
        )
        assert fmt_matrix(m) == expected


class TestTraceCsv:
    def test_header_and_row_invariant(self, tmp_path):
        rows = [
            TraceRow(1, 1.0, 0.0, 1.0, 1.0, 0.5),
            TraceRow(2, 1.5, 0.0, 0.5, 0.5, 0.25),
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, map(trace_csv_line, rows))
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[5 - 1]) >= float(fields[4 - 1]) - 1e-10
