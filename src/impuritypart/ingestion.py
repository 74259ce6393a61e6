"""Reading joint distributions from files and writing them back.

Three input formats:
  dense_csv       comma-separated floats, one data point per line
  counts          the same reader, for nonnegative counts
  sparse_triplets lines "row,col,value" (0-based indices below 2**63),
                  missing entries are zero; a file whose indices imply
                  more than TRIPLET_ENTRY_CAP entries raises ParseError

Every format is normalized by one rule: a total within 1e-9 of 1 is kept
verbatim, any other is divided out. A leading UTF-8 byte-order mark is
skipped. NaN or infinite entries are rejected. Rows with zero total mass
are dropped with an IngestWarning carrying the int64 array of their 0-based
indices. A dense CSV written by `emit` reads back bit-exactly.
"""

import array
import warnings
from operator import itemgetter

import numpy as np

from .errors import (
    IngestWarning,
    InvalidDistribution,
    NegativeEntry,
    ParseError,
    ZeroTotal,
)
from .prob import JointDistribution, _normalized, check_matrix

# the most entries a sparse_triplets file may imply: the reader builds the
# (max row + 1) x (max col + 1) matrix whole, at 8 B per entry
TRIPLET_ENTRY_CAP = 1 << 24


def _lines(path):
    """Yield (line number, stripped line) for every nonblank line of the
    file; raise ParseError when it has none. Lines are numbered from 1,
    blank ones included, and read through C iterators."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = filter(itemgetter(1), enumerate(map(str.strip, fh), start=1))
        first = next(lines, None)
        if first is None:
            raise ParseError(0, "file contains no data rows")
        yield first
        yield from lines


def _read_dense(path):
    # one flat buffer of doubles (8 B per value), reshaped once at the end
    values = array.array("d")
    width = None
    for lineno, line in _lines(path):
        tokens = line.split(",")
        try:
            values.extend(map(float, tokens))
        except ValueError:
            raise ParseError(lineno, f"not a number in {line!r}") from None
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(lineno, f"expected {width} columns, got {len(tokens)}")
    return np.frombuffer(values, dtype=float).reshape(-1, width)


def _read_triplets(path):
    rows = array.array("q")
    cols = array.array("q")
    values = array.array("d")
    shape = (0, 0)
    for lineno, line in _lines(path):
        tokens = line.split(",")
        if len(tokens) != 3:
            raise ParseError(lineno, f"expected 'row,col,value', got {line!r}")
        try:
            row, col, value = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise ParseError(lineno, f"bad triplet {line!r}") from None
        if min(row, col) < 0 or max(row, col) >= 1 << 63:
            raise ParseError(lineno, f"index outside 0..2**63-1 in {line!r}")
        if row >= shape[0] or col >= shape[1]:
            shape = (max(shape[0], row + 1), max(shape[1], col + 1))
            if shape[0] * shape[1] > TRIPLET_ENTRY_CAP:
                raise ParseError(lineno, f"{shape[0]} x {shape[1]} entries exceed "
                                         f"cap {TRIPLET_ENTRY_CAP} in {line!r}")
        if value < 0.0:
            raise NegativeEntry((row, col), value)
        rows.append(row)
        cols.append(col)
        values.append(value)
    index = tuple(np.frombuffer(a, dtype=np.int64) for a in (rows, cols))
    weights = np.frombuffer(values, dtype=float)
    # one bincount adds duplicates in line order from 0.0, as a scatter-add
    # loop would, and without its overflow warning
    arr = np.bincount(np.ravel_multi_index(index, shape), weights=weights,
                      minlength=shape[0] * shape[1]).reshape(shape)
    if np.isfinite(weights).all() and not np.isfinite(arr).all():
        raise InvalidDistribution("entries overflow to an infinite total")
    return arr


# format name -> reader returning the file's float matrix
_READERS = {"dense_csv": _read_dense, "counts": _read_dense,
            "sparse_triplets": _read_triplets}
FORMATS = tuple(_READERS)


def ingest(path, input_format: str = "dense_csv") -> JointDistribution:
    """Read a file into a validated JointDistribution.

    Values already summing to 1 (within 1e-9) are taken verbatim so emitted
    files round-trip bit-exactly; otherwise the matrix is divided by its
    total. This is the rule of `build_joint`, which gives the same bytes for
    the same matrix. NaN/inf entries raise NonFinite; zero-mass rows are
    dropped with an IngestWarning; a total that overflows raises
    InvalidDistribution.
    """
    if input_format not in FORMATS:
        raise ValueError(f"unknown format {input_format!r}, expected one of {FORMATS}")
    arr = _READERS[input_format](path)
    check_matrix(arr)
    with np.errstate(over="ignore"):
        keep = arr.sum(axis=1) > 0.0
    dropped = np.flatnonzero(~keep)
    if dropped.size:
        warnings.warn(IngestWarning(dropped), stacklevel=2)
        arr = arr[keep]
    if arr.shape[0] == 0:
        raise ZeroTotal("no rows with positive mass")
    return _normalized(arr)


def emit(jd: JointDistribution, path) -> None:
    """Write the joint matrix as dense CSV with shortest round-trip decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in jd.p:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
