import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockprod import ParseError
from blockprod.product import TraceRow
from blockprod.seqfile import (
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
