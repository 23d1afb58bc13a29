import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockprod import BUILTIN_NORMS, ParseError
from blockprod.product import TraceRow
from blockprod.seqfile import (
    _array,
    TRACE_HEADER,
    fmt_complex,
    fmt_float,
    fmt_matrix,
    parse_matrix_file,
    parse_sequence_text,
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


def _invalid(v: str) -> str:
    return f"invalid scalar {v} (expected a number or [re, im])"


TOO_LARGE = "entry 0 B holds a number too large for a float"


class TestNumberRule:
    """Each bad scalar in a block that is otherwise all reals or all pairs
    (the blocks read as one array) fails with the text of the per-scalar
    reader."""

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
    if data.draw(st.booleans()):  # and a short row after it
        block[-1] = block[-1][:-1]
    expected = None
    try:
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
                _reference([row])
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


class TestFormatting:
    def test_float_17_digits(self):
        assert fmt_float(1 / 3) == "0.33333333333333331"
        assert fmt_float(2.0) == "2"

    def test_complex(self):
        assert fmt_complex(2.0) == "2"
        assert fmt_complex(1 - 2j) == "(1-2j)"

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
        write_trace_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[5 - 1]) >= float(fields[4 - 1]) - 1e-10
