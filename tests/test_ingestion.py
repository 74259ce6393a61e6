"""File ingestion formats, round-tripping, and error reporting."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impuritypart import (
    DimensionMismatch,
    IngestWarning,
    InvalidDistribution,
    NegativeEntry,
    NonFinite,
    ParseError,
    ZeroTotal,
    build_joint,
    emit,
    ingest,
)
from impuritypart import ingestion
from impuritypart.ingestion import _read_dense, _read_lines

from helpers import peak_bytes, random_joint


class TestFormats:
    def test_dense_csv_probabilities(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("0.25,0.25\n0.25,0.25\n")
        jd = ingest(path, "dense_csv")
        np.testing.assert_array_equal(jd.p, np.full((2, 2), 0.25))

    def test_counts(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("2,0\n0,2\n")
        jd = ingest(path, "counts")
        np.testing.assert_array_equal(jd.p, [[0.5, 0.0], [0.0, 0.5]])

    def test_sparse_triplets_equivalent_to_counts(self, tmp_path):
        dense = tmp_path / "dense.csv"
        dense.write_text("2,0\n0,2\n")
        sparse = tmp_path / "sparse.txt"
        sparse.write_text("0,0,2\n1,1,2\n")
        a = ingest(dense, "counts")
        b = ingest(sparse, "sparse_triplets")
        np.testing.assert_array_equal(a.p, b.p)

    def test_dense_normalizes_when_total_differs(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,1\n1,1\n")
        jd = ingest(path, "dense_csv")
        np.testing.assert_array_equal(jd.p, np.full((2, 2), 0.25))

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,1\n")
        with pytest.raises(ValueError):
            ingest(path, "parquet")

    @pytest.mark.parametrize("input_format", ["dense_csv", "counts",
                                              "sparse_triplets"])
    def test_byte_order_mark_is_skipped(self, tmp_path, input_format):
        if input_format == "sparse_triplets":
            text = "0,0,2\n1,1,2.5\n0,1,1\n"
        else:
            emitted = tmp_path / "emitted.csv"
            emit(random_joint(np.random.default_rng(62), 5, 3), emitted)
            text = emitted.read_text(encoding="utf-8")
            assert not text.startswith("\ufeff")
        plain = tmp_path / "plain.csv"
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff" + text, encoding="utf-8")
        a = ingest(plain, input_format)
        b = ingest(marked, input_format)
        assert a.p.tobytes() == b.p.tobytes()


class TestRoundTrip:
    def test_dense_csv_bit_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        jd = random_joint(rng, 7, 4)
        path = tmp_path / "out.csv"
        emit(jd, path)
        back = ingest(path, "dense_csv")
        assert (back.p == jd.p).all()


class TestOneNormalization:
    """ingest normalizes by the rule of build_joint, so both give the same
    bytes for the same matrix."""

    def test_emitted_file_equals_build_joint(self, tmp_path):
        rng = np.random.default_rng(83)
        path = tmp_path / "out.csv"
        for _ in range(50):
            jd = random_joint(rng, int(rng.integers(1, 20)), int(rng.integers(2, 7)))
            emit(jd, path)
            back = ingest(path, "dense_csv")
            loaded = build_joint(np.loadtxt(path, delimiter=",", ndmin=2))
            assert back.p.tobytes() == loaded.p.tobytes() == jd.p.tobytes()

    def test_holds_at_most_two_matrices(self, tmp_path):
        # the file's buffer is divided in place; the distribution keeps a copy
        path = tmp_path / "in.csv"
        counts = np.random.default_rng(86).integers(0, 50, size=(20000, 10))
        np.savetxt(path, counts, fmt="%d", delimiter=",")
        peak, _ = peak_bytes(lambda: ingest(path, "counts"))
        assert peak <= 2.5 * counts.size * 8

    def test_overflowing_counts_total_is_named(self, tmp_path):
        # the first row's sum overflows too; neither sum may warn
        path = tmp_path / "in.csv"
        path.write_text("1e308,1e308\n1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDistribution, match="overflow"):
                ingest(path, "counts")


class TestZeroRows:
    def test_dropped_with_warning(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,1\n0,0\n2,2\n")
        with pytest.warns(IngestWarning) as caught:
            jd = ingest(path, "counts")
        assert jd.n_rows == 2
        assert caught[0].message.dropped_rows == [1]

    def test_warning_carries_the_index_array(self, tmp_path):
        few = tmp_path / "few.csv"
        few.write_text("1,1\n0,0\n2,2\n")
        many = tmp_path / "many.csv"
        many.write_text("0,0\n" * 5000 + "1,1\n" + "0,0\n" * 5000)
        messages = []
        for path, dropped in ((few, [1]), (many, [*range(5000), *range(5001, 10001)])):
            with pytest.warns(IngestWarning) as caught:
                ingest(path, "counts")
            rows = caught[0].message.dropped_rows
            assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
            np.testing.assert_array_equal(rows, dropped)
            messages.append(str(caught[0].message))
        # the message gives the count, not the indices
        assert messages == ["dropped 1 zero-mass row(s)",
                            "dropped 10000 zero-mass row(s)"]

    def test_all_rows_zero(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("0,0\n0,0\n")
        with pytest.warns(IngestWarning):
            with pytest.raises(ZeroTotal):
                ingest(path, "counts")


class TestNonFinite:
    def test_nan_row_rejected_not_dropped(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,1\nnan,1\n2,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", IngestWarning)
            with pytest.raises(NonFinite) as info:
                ingest(path, "counts")
        assert info.value.index == (1, 0)

    def test_inf_triplet_rejected(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("0,0,1\n1,1,inf\n")
        with pytest.raises(NonFinite) as info:
            ingest(path, "sparse_triplets")
        assert info.value.index == (1, 1)


class TestErrors:
    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,1\n1,oops\n")
        with pytest.raises(ParseError) as info:
            ingest(path, "dense_csv")
        assert info.value.line == 2

    def test_dense_reader_values_and_messages(self, tmp_path):
        # every value as float() parses its token; blank lines still count
        # toward the line number in a ParseError
        text = "0.1,1e-300,5e-324\n\n 2.5 ,0.30000000000000004,7\n"
        path = tmp_path / "in.csv"
        path.write_text(text)
        expected = [[float(tok) for tok in line.split(",")]
                    for line in text.splitlines() if line.strip()]
        arr = _read_dense(path)
        assert arr.shape == (2, 3)
        assert arr.tobytes() == np.array(expected).tobytes()
        for body, message in (("1,1\n\n1,oops\n", "line 3: not a number in '1,oops'"),
                              ("1,1\n\n1,1,1\n", "line 3: expected 2 columns, got 3")):
            path.write_text(body)
            with pytest.raises(ParseError) as info:
                ingest(path, "dense_csv")
            assert str(info.value) == message

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,1\n1,1,1\n")
        with pytest.raises(ParseError) as info:
            ingest(path, "dense_csv")
        assert info.value.line == 2

    def test_negative_entry(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,1\n1,-2\n")
        with pytest.raises(NegativeEntry) as info:
            ingest(path, "counts")
        assert info.value.index == (1, 1)

    def test_bad_triplet(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("0,0\n")
        with pytest.raises(ParseError):
            ingest(path, "sparse_triplets")
        # blank lines are skipped but still count toward the line number
        path.write_text("0,0,1\n\n1.5,0,1\n")
        with pytest.raises(ParseError, match=r"^line 3: bad triplet '1\.5,0,1'$"):
            ingest(path, "sparse_triplets")

    def test_triplet_negative_index(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("-1,0,2\n")
        with pytest.raises(ParseError):
            ingest(path, "sparse_triplets")

    def test_triplet_index_too_large(self, tmp_path):
        # an index past int64 is named with its line, not an OverflowError
        path = tmp_path / "in.txt"
        path.write_text("0,0,1\n99999999999999999999,1,2\n")
        with pytest.raises(ParseError, match="^line 2: index outside") as info:
            ingest(path, "sparse_triplets")
        assert info.value.line == 2

    def test_triplet_entry_cap(self, tmp_path, monkeypatch):
        # refused at the first line whose indices imply too many entries,
        # before any matrix is built
        monkeypatch.setattr(ingestion, "TRIPLET_ENTRY_CAP", 12)
        path = tmp_path / "in.txt"
        path.write_text("0,0,1\n1,1,1\n2,3,1\n")
        assert ingest(path, "sparse_triplets").p.shape == (3, 4)
        path.write_text("0,0,1\n1,1,1\n\n2,4,1\n0,0,-1\n")
        with pytest.raises(ParseError) as info:
            ingest(path, "sparse_triplets")
        assert str(info.value) == "line 4: 3 x 5 entries exceed cap 12 in '2,4,1'"

    def test_triplet_negative_value(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("0,0,2\n0,1,-1\n")
        with pytest.raises(NegativeEntry) as info:
            ingest(path, "sparse_triplets")
        assert info.value.index == (0, 1)

    def test_triplet_duplicates_accumulate(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("0,0,1\n0,0,1\n1,1,2\n")
        jd = ingest(path, "sparse_triplets")
        np.testing.assert_array_equal(jd.p, [[0.5, 0.0], [0.0, 0.5]])

    def test_triplet_duplicates_add_in_line_order(self, tmp_path):
        # 1 + 1e-16 + 1e-16 is 1 in line order, not 1 + 2e-16
        path = tmp_path / "in.txt"
        path.write_text("0,0,1\n0,0,1e-16\n0,0,1e-16\n1,1,0.5\n1,1,1e-16\n")
        jd = ingest(path, "sparse_triplets")
        total = (1.0 + 1e-16 + 1e-16) + (0.5 + 1e-16)
        assert jd.p.tobytes() == (np.array([[1.0 + 1e-16 + 1e-16, 0.0],
                                            [0.0, 0.5 + 1e-16]]) / total).tobytes()

    def test_overflowing_triplet_duplicates_are_named(self, tmp_path):
        # every value is finite; only their sum overflows
        path = tmp_path / "in.txt"
        path.write_text("0,0,1e308\n0,0,1e308\n1,1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDistribution,
                               match="entries overflow to an infinite total"):
                ingest(path, "sparse_triplets")

    def test_single_column_rejected(self, tmp_path):
        # JointDistribution's message, checked before the entries, in every
        # format
        single = tmp_path / "in.csv"
        single.write_text("1\n2\n")
        nan = tmp_path / "nan.csv"
        nan.write_text("nan\n-2\n")
        triplets = tmp_path / "in.txt"
        triplets.write_text("0,0,1\n1,0,nan\n")
        for path, input_format in ((single, "counts"), (nan, "dense_csv"),
                                   (nan, "counts"), (triplets, "sparse_triplets")):
            with pytest.raises(DimensionMismatch,
                               match="^need at least two class columns, got 1$"):
                ingest(path, input_format)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("\n\n")
        for input_format in ("dense_csv", "sparse_triplets"):
            with pytest.raises(ParseError,
                               match="^line 0: file contains no data rows$"):
                ingest(path, input_format)


# the fields of a dense file: numbers as written, then ASCII token shapes
# (underscores, signs, exponents, 17+ digit decimals, subnormals, -0,
# non-finite spellings, an empty field, embedded NUL), then shapes only
# the line reader reads or names (a BOM mid-file, Arabic-Indic digits, a
# byte that is not UTF-8, written through surrogateescape)
NUMBERS = st.one_of(st.integers(0, 10 ** 20).map(str), st.floats().map(repr))
ASCII_FIELDS = ("1_000", "1__0", "_1", "+3", "-2", "-0", "-0.0", "+.5", "1e5",
                "1E-5", "2.5e+3", "1e", "0.30000000000000004",
                "1.00000000000000011102230246251565404", "5e-324",
                "2.2250738585072011e-308", "1e400", "nan", "-NaN", "inf",
                "Infinity", "", "1\x00", "0x10", "abc")
OTHER_FIELDS = ("\ufeff1", "\u0661\u0662", "\udcff")
# padding around a field: ASCII whitespace, then non-ASCII whitespace
ASCII_PADS = ("", "", " ", "\t", "\x0b", "\x0c")
OTHER_PADS = ("\xa0", "\x85")
# line ends: LF, CRLF, blank and whitespace-only lines, then a lone \r
# and a \x1c or \x1f at a line end, which str.strip strips and float
# does not
ASCII_ENDS = ("\n", "\n", "\r\n", "\n\n", " \n", "\r\r\n", "\n \t\n")
OTHER_ENDS = ("\r", "\r", "\x1c\n", "\x1f\r\n")


@st.composite
def dense_texts(draw):
    """A dense file's text: rows of padded fields, of the first row's
    width unless the file is ragged, with an optional leading BOM. Odd
    field shapes, and non-ASCII whitespace with odd line ends, are each
    drawn for some files only, so that most files read."""
    fields, pads, ends = NUMBERS, ASCII_PADS, ASCII_ENDS
    if draw(st.booleans()):
        fields = st.one_of(NUMBERS, st.sampled_from(ASCII_FIELDS + OTHER_FIELDS))
    if draw(st.booleans()):
        pads, ends = pads + OTHER_PADS, ends + OTHER_ENDS
    width = draw(st.integers(1, 4))
    drift = draw(st.sampled_from(((0,), (0,), (0, 1, -1))))
    text = draw(st.sampled_from(("", "", "\ufeff", "\n")))
    for _ in range(draw(st.integers(1, 6))):
        n = width + draw(st.sampled_from(drift))
        padded = st.tuples(st.sampled_from(pads), fields, st.sampled_from(pads))
        text += ",".join(map("".join, draw(st.lists(padded, min_size=n,
                                                    max_size=n))))
        text += draw(st.sampled_from(ends))
    return text


def outcome(read, path):
    """(shape, bytes) of what read(path) returns, or the (type, message)
    of what it raises."""
    try:
        arr = read(path)
    except ValueError as exc:  # ParseError and UnicodeDecodeError among them
        return type(exc), str(exc)
    return arr.shape, arr.tobytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=dense_texts(), block=st.sampled_from((1, 16, ingestion._LINE_BLOCK_BYTES)))
def test_dense_reader_equals_the_line_reader(tmp_path_factory, text, block):
    # a block of 1 byte reads one line at a time, so rows of other widths
    # and blank-only blocks meet block boundaries
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with mock.patch.object(ingestion, "_LINE_BLOCK_BYTES", block):
        assert outcome(_read_dense, path) == outcome(_read_lines, path)


class TestLineReaderSeam:
    """_read_dense parses plain ASCII itself and hands every other file to
    _read_lines, the specification, once and from the start."""

    @staticmethod
    def counted(monkeypatch):
        calls = []

        def read_lines(path):
            calls.append(path)
            return _read_lines(path)

        monkeypatch.setattr(ingestion, "_read_lines", read_lines)
        return calls

    def test_plain_counts_never_reach_the_line_reader(self, tmp_path, monkeypatch):
        # a fast path that always fell back would fail here
        def refuse(path):
            raise AssertionError("read by the line reader")

        monkeypatch.setattr(ingestion, "_read_lines", refuse)
        counts = np.random.default_rng(36).integers(0, 1000, size=(3000, 7))
        path = tmp_path / "in.csv"
        path.write_bytes(b"\xef\xbb\xbf\n" + b"\r\n".join(
            b",".join(b"%d" % v for v in row) for row in counts) + b"\r\n\n")
        arr = _read_dense(path)
        assert arr.tobytes() == counts.astype(float).tobytes()
        assert ingest(path, "counts").p.tobytes() == build_joint(counts).p.tobytes()

    @pytest.mark.parametrize("text, expected", [
        ("1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\x1c\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("\u0661,2\n3,\u0664\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\n3,4,5\n6\n", "line 2: expected 2 columns, got 3"),
        ("1,2\r,3\n", "line 2: not a number in ',3'"),
        ("1,2\n\n3,x\n", "line 3: not a number in '3,x'"),
    ])
    def test_other_files_reach_the_line_reader_once(self, tmp_path, monkeypatch,
                                                    text, expected):
        # the last two rows of the cancelling-width file hold as many
        # tokens as two rows of two, and as bytes "1,2\r,3" is one row of
        # three numbers
        calls = self.counted(monkeypatch)
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        if isinstance(expected, str):
            with pytest.raises(ParseError) as info:
                _read_dense(path)
            assert str(info.value) == expected
        else:
            assert _read_dense(path).tobytes() == np.array(expected).tobytes()
        assert calls == [path]

    def test_lone_cr_file_is_not_split_whole(self, tmp_path, monkeypatch):
        # a lone-\r file is one long b"\n" line; its token list would take
        # about 100 bytes a row, the line reader's matrix 16
        calls = self.counted(monkeypatch)
        rows = 50_000
        path = tmp_path / "in.csv"
        path.write_bytes(b"12,34\r" * rows)
        peak, arr = peak_bytes(lambda: _read_dense(path))
        assert arr.shape == (rows, 2) and calls == [path]
        assert peak < 40 * rows
