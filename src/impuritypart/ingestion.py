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

The dense reader parses plain ASCII input as bytes, a block of lines at a
time. Every other file, and every file the block parse refuses, is read
again by the line reader, `_read_lines`, which is the specification: both
give the same bytes, and every error is the line reader's.
"""

import array
import codecs
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
# bytes per fh.readlines block of the dense fast path. A block's token
# objects are live at once, so the block sets the reader's working set
# beyond the matrix: after 600 kept sweep ops (10k x 20 counts) in a
# worker-like loop, VmHWM read 56.91 MiB with the line reader alone,
# 57.44-57.54 MiB with 16 KiB blocks and 59.23 MiB with 64 KiB blocks,
# which read within 3% of the same time
_LINE_BLOCK_BYTES = 1 << 14


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


def _read_lines(path):
    """The dense reader's specification: the file's float matrix, one row
    per nonblank line, each comma-separated token parsed by float().
    Raises ParseError naming the first line with a token float() rejects
    or a width other than the first row's, or line 0 for a file with no
    rows."""
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


def _read_dense(path):
    """_read_lines' matrix: _read_ascii's where it reads the file, else
    _read_lines' own, read again from the start (after _read_ascii's
    buffers are freed), so every error, line number and non-ASCII case is
    the specification's."""
    arr = _read_ascii(path)
    return _read_lines(path) if arr is None else arr


def _read_ascii(path):
    """The dense fast path: the file parsed as bytes a block of lines at a
    time, or None where it does not apply.

    A block's nonblank rows are joined with b",\n," and split once. If
    every row has the first row's width, the b"\n" markers are exactly the
    (width + 1)-th tokens, which are deleted; that checks every row, where
    a block's token total alone does not (a wide and a narrow row cancel).
    Any row of another width, a b"\r" in a row (a lone-\r line break), a
    token float() rejects or no rows at all gives None. float(bytes) and
    float(str) run one parser on ASCII, and non-ASCII bytes never parse,
    so a matrix it returns has _read_lines' bits."""
    values = array.array("d")
    width = None
    with open(path, "rb") as fh:
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        while block := fh.readlines(_LINE_BLOCK_BYTES):
            rows = list(filter(None, map(bytes.strip, block)))
            if not rows:
                continue
            if width is None:
                width = rows[0].count(b",") + 1
            joined = b",\n,".join(rows)
            # checked before the split: a lone-\r file is one long line
            if b"\r" in joined:
                return None
            tokens = joined.split(b",")
            if len(tokens) != len(rows) * (width + 1) - 1:
                return None
            # as many markers as (width + 1)-th tokens: a row of another
            # width leaves a marker among the values, which float() rejects
            del tokens[width::width + 1]
            try:
                values.extend(map(float, tokens))
            except ValueError:
                return None
    if width is None:
        return None
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
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")
