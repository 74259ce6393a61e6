"""Validated probability containers and per-partition statistics.

The joint distribution is stored as an M x N matrix: rows are data points
y_j, columns are classes x_i, entry (j, i) holds p(x_i, y_j). A partition
assigns each row a label in {0, ..., k-1}; its statistics aggregate the rows
of each label into the k x N matrix p(x_i, z_label).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    KTooSmall,
    LabelOutOfRange,
    NegativeEntry,
    NonFinite,
    ZeroRow,
    ZeroTotal,
)
from .impurity import ImpuritySpec

NORMALIZATION_TOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def check_entries(arr: np.ndarray) -> None:
    """Reject NaN/inf entries, then negative ones, naming the first (row, col)."""
    for bad, error in ((~np.isfinite(arr), NonFinite), (arr < 0.0, NegativeEntry)):
        hits = np.argwhere(bad)
        if hits.size:
            j, i = hits[0]
            raise error((int(j), int(i)), float(arr[j, i]))


def aggregate(p: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """k x N matrix whose row z sums the rows p[j] with assignment[j] == z.

    An unused label gets a zero row. One weighted bincount per column; each
    adds the rows one by one in row order, so the sums are reproducible bit
    for bit and equal a sequential scatter-add.
    """
    out = np.empty((k, p.shape[1]))
    for i in range(p.shape[1]):
        out[:, i] = np.bincount(assignment, weights=p[:, i], minlength=k)
    return out


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """An M x N joint probability matrix with strictly positive row masses.

    Invariants enforced at construction: all entries finite and >= 0, the
    total is 1 within 1e-9, every row mass is positive, and N >= 2.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D matrix, got ndim={p.ndim}")
        m, n = p.shape
        if m < 1:
            raise DimensionMismatch("need at least one data point row")
        if n < 2:
            raise DimensionMismatch(f"need at least two class columns, got {n}")
        check_entries(p)
        total = float(p.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistribution(
                f"entries sum to {total!r}, expected 1 within {NORMALIZATION_TOL}")
        row_masses = p.sum(axis=1)
        zero = np.flatnonzero(row_masses <= 0.0)
        if zero.size:
            raise ZeroRow(int(zero[0]))
        object.__setattr__(self, "p", _frozen(p))
        object.__setattr__(self, "_row_masses", _frozen(row_masses))
        object.__setattr__(self, "_col_masses", _frozen(p.sum(axis=0)))

    @property
    def n_rows(self) -> int:
        """M, the number of data points."""
        return self.p.shape[0]

    @property
    def n_cols(self) -> int:
        """N, the number of classes."""
        return self.p.shape[1]

    @property
    def row_masses(self) -> np.ndarray:
        """p(y_j) for each data point, length M."""
        return self._row_masses

    @property
    def col_masses(self) -> np.ndarray:
        """p(x_i) for each class, length N."""
        return self._col_masses


def build_joint(raw) -> JointDistribution:
    """Normalize a nonnegative count or weight matrix into a JointDistribution.

    Rejects NaN/inf and negative entries, an all-zero matrix, and any all-zero
    row, naming the offending index in each case.
    """
    arr = np.array(raw, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 2:
        raise DimensionMismatch(
            f"need at least 1 row and 2 columns, got shape {arr.shape}")
    check_entries(arr)
    total = float(arr.sum())
    if total <= 0.0:
        raise ZeroTotal("matrix total is zero")
    zero = np.flatnonzero(arr.sum(axis=1) <= 0.0)
    if zero.size:
        raise ZeroRow(int(zero[0]))
    return JointDistribution(arr / total)


@dataclass(frozen=True, eq=False)
class Partition:
    """An assignment of each data point to one of k labels.

    Labels may be unused; empty partitions are representable and carry zero
    weight in every statistic.
    """

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise KTooSmall(f"k must be >= 1, got {self.k}")
        a = np.array(self.assignment, dtype=np.intp)
        if a.ndim != 1:
            raise DimensionMismatch(
                f"assignment must be 1-D, got ndim={a.ndim}")
        if a.size and (a.min() < 0 or a.max() >= self.k):
            bad = int(np.flatnonzero((a < 0) | (a >= self.k))[0])
            raise LabelOutOfRange(
                f"label {int(a[bad])} at position {bad} not in [0, {self.k})")
        object.__setattr__(self, "assignment", _frozen(a))

    @property
    def n_points(self) -> int:
        return self.assignment.shape[0]


@dataclass(frozen=True, eq=False)
class PartitionStats:
    """Derived quantities of a partition of a joint distribution.

    px_given_z rows of empty partitions are zero-filled and flagged absent
    through `nonempty` (never NaN). Empty partitions contribute zero to the
    impurity and to e_q.
    """

    pz: np.ndarray                   # (k,) partition masses p(z)
    pxz: np.ndarray                  # (k, n) joint p(x, z)
    px_given_z: np.ndarray           # (k, n) conditionals, zero rows if empty
    nonempty: np.ndarray             # (k,) bool, True where pz > 0
    per_partition_impurity: np.ndarray  # (k,) weighted contribution of each z
    impurity: float                  # total impurity
    e_q: float                       # sum over z of max_x p(x, z)

    @property
    def n_nonempty(self) -> int:
        return int(np.count_nonzero(self.nonempty))


def stats_from_pxz(pxz: np.ndarray, f: ImpuritySpec) -> PartitionStats:
    """Statistics of a partition given its k x N joint p(x, z).

    Every quantity is computed from pxz row by row, except the totals impurity
    and e_q, whose sums run over all k rows (zero rows included). pxz itself
    becomes the read-only `pxz` field of the result.
    """
    pz = pxz.sum(axis=1)
    nonempty = pz > 0.0
    px_given_z = np.zeros_like(pxz)
    px_given_z[nonempty] = pxz[nonempty] / pz[nonempty, None]
    per = f.weighted(pxz)
    return PartitionStats(
        pz=_frozen(pz),
        pxz=_frozen(pxz),
        px_given_z=_frozen(px_given_z),
        nonempty=_frozen(nonempty),
        per_partition_impurity=_frozen(per),
        impurity=float(per.sum()),
        e_q=float(pxz.max(axis=1).sum()),
    )


def compute_stats(jd: JointDistribution, part: Partition,
                  f: ImpuritySpec) -> PartitionStats:
    """Aggregate a partition into its statistics under impurity f.

    Accumulation runs in row order so results are reproducible bit-for-bit
    for a fixed input.
    """
    a = part.assignment
    if a.shape[0] != jd.n_rows:
        raise DimensionMismatch(
            f"assignment length {a.shape[0]} != {jd.n_rows} data points")
    return stats_from_pxz(aggregate(jd.p, a, part.k), f)
