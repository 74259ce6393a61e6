"""File ingestion formats, round-tripping, and error reporting."""

import warnings

import numpy as np
import pytest

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
from impuritypart.ingestion import _read_dense

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
