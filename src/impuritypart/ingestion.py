"""Reading joint distributions from files and writing them back.

Three input formats:
  dense_csv       comma-separated floats, one data point per line
  counts          same layout, nonnegative counts, normalized by the total
  sparse_triplets lines "row,col,value" (0-based), missing entries are zero

NaN or infinite entries are rejected. Rows with zero total mass are dropped
with an IngestWarning carrying their 0-based indices. A dense CSV written by
`emit` reads back bit-exactly.
"""

import array
import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    IngestWarning,
    NegativeEntry,
    ParseError,
    ZeroTotal,
)
from .prob import NORMALIZATION_TOL, JointDistribution, check_entries

FORMATS = ("dense_csv", "counts", "sparse_triplets")


def _read_dense(path):
    # one flat buffer of doubles (8 B per value), reshaped once at the end
    values = array.array("d")
    width = None
    n_rows = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            try:
                values.extend(map(float, tokens))
            except ValueError:
                raise ParseError(lineno, f"not a number in {line!r}") from None
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise ParseError(lineno,
                                 f"expected {width} columns, got {len(tokens)}")
            n_rows += 1
    if not n_rows:
        raise ParseError(0, "file contains no data rows")
    return np.frombuffer(values, dtype=float).reshape(n_rows, width)


def _read_triplets(path):
    entries = []
    max_row = max_col = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            if len(tokens) != 3:
                raise ParseError(lineno, f"expected 'row,col,value', got {line!r}")
            try:
                row, col, value = int(tokens[0]), int(tokens[1]), float(tokens[2])
            except ValueError:
                raise ParseError(lineno, f"bad triplet {line!r}") from None
            if row < 0 or col < 0:
                raise ParseError(lineno, f"negative index in {line!r}")
            if value < 0.0:
                raise NegativeEntry((row, col), value)
            entries.append((row, col, value))
            max_row = max(max_row, row)
            max_col = max(max_col, col)
    if not entries:
        raise ParseError(0, "file contains no data rows")
    arr = np.zeros((max_row + 1, max_col + 1))
    for row, col, value in entries:
        arr[row, col] += value
    return arr


def ingest(path, input_format: str = "dense_csv") -> JointDistribution:
    """Read a file into a validated JointDistribution.

    Values already summing to 1 (within 1e-9) are taken verbatim so emitted
    files round-trip bit-exactly; otherwise the matrix is divided by its
    total. NaN/inf entries raise NonFinite; zero-mass rows are dropped with an
    IngestWarning.
    """
    if input_format not in FORMATS:
        raise ValueError(f"unknown format {input_format!r}, expected one of {FORMATS}")
    if input_format == "sparse_triplets":
        arr = _read_triplets(path)
    else:
        arr = _read_dense(path)
    if arr.shape[1] < 2:
        raise DimensionMismatch(f"need at least 2 columns, got {arr.shape[1]}")
    check_entries(arr)
    keep = arr.sum(axis=1) > 0.0
    dropped = np.flatnonzero(~keep)
    if dropped.size:
        warnings.warn(IngestWarning(int(r) for r in dropped), stacklevel=2)
        arr = arr[keep]
    if arr.shape[0] == 0:
        raise ZeroTotal("no rows with positive mass")
    total = float(arr.sum())
    if total <= 0.0:
        raise ZeroTotal("matrix total is zero")
    if abs(total - 1.0) > NORMALIZATION_TOL:
        arr = arr / total
    return JointDistribution(arr)


def emit(jd: JointDistribution, path) -> None:
    """Write the joint matrix as dense CSV with shortest round-trip decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in jd.p:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
