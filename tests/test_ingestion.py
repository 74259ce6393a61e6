"""File ingestion formats, round-tripping, and error reporting."""

import warnings

import numpy as np
import pytest

from impuritypart import (
    IngestWarning,
    NegativeEntry,
    NonFinite,
    ParseError,
    ZeroTotal,
    emit,
    ingest,
)
from impuritypart.ingestion import _read_dense

from helpers import random_joint


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


class TestRoundTrip:
    def test_dense_csv_bit_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        jd = random_joint(rng, 7, 4)
        path = tmp_path / "out.csv"
        emit(jd, path)
        back = ingest(path, "dense_csv")
        assert (back.p == jd.p).all()


class TestZeroRows:
    def test_dropped_with_warning(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,1\n0,0\n2,2\n")
        with pytest.warns(IngestWarning) as caught:
            jd = ingest(path, "counts")
        assert jd.n_rows == 2
        assert caught[0].message.dropped_rows == [1]

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

    def test_triplet_negative_index(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("-1,0,2\n")
        with pytest.raises(ParseError):
            ingest(path, "sparse_triplets")

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

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1\n2\n")
        from impuritypart import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            ingest(path, "counts")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("\n\n")
        with pytest.raises(ParseError):
            ingest(path, "dense_csv")
