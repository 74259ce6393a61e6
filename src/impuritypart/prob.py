"""Validated probability containers and per-partition statistics.

The joint distribution is stored as an M x N matrix: rows are data points
y_j, columns are classes x_i, entry (j, i) holds p(x_i, y_j). A partition
assigns each row a label in {0, ..., k-1}; its statistics aggregate the rows
of each label into the k x N matrix p(x_i, z_label).

The package's count arguments are checked here too: is_int is its one
integer type rule, and check_k and check_max_iters return the Python int
every caller then computes with.
"""

from dataclasses import dataclass, field

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


def check_matrix(arr: np.ndarray) -> None:
    """Reject a float array that cannot hold a joint, checking in order:
    rank 2, at least one row and at least two columns (DimensionMismatch),
    then NaN/inf entries and negative ones, naming the first (row, col).

    Two whole-matrix tests pass clean entries; the indices are searched only
    when one of them fails.
    """
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1:
        raise DimensionMismatch("need at least one data point row")
    if arr.shape[1] < 2:
        raise DimensionMismatch(f"need at least two class columns, got {arr.shape[1]}")
    if np.isfinite(arr).all() and not (arr < 0.0).any():
        return
    for bad, error in ((~np.isfinite(arr), NonFinite), (arr < 0.0, NegativeEntry)):
        hits = np.argwhere(bad)
        if hits.size:
            j, i = hits[0]
            raise error((int(j), int(i)), float(arr[j, i]))


def is_int(value) -> bool:
    """The package's one integer type rule, for every count it takes (k, n,
    max_iters): an int or a numpy integer of any width, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_k(k) -> int:
    """Return the partition count k as a Python int, rejecting a k that
    is_int refuses with a ValueError naming it, then a k below 1 with
    KTooSmall. Every library entry that takes k binds k = check_k(k) first
    and computes with that int, so no arithmetic runs in a numpy int's
    dtype, where it could wrap.
    """
    if not is_int(k):
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    return int(k)


def check_max_iters(max_iters) -> int:
    """Return the refinement pass cap max_iters as a Python int, rejecting
    one that is_int refuses, then one below 1, with a ValueError. The one
    check of max_iters, for algorithms.iterative_refine and cli.RunConfig.
    """
    if not is_int(max_iters):
        raise ValueError(f"max_iters must be an int, got {max_iters!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    return int(max_iters)


def aggregate(p: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """k x N matrix whose row z sums the rows p[j] with assignment[j] == z.

    An unused label gets a zero row. Both methods add each label's rows
    one by one in row order, starting from +0.0, so the sums are
    reproducible bit for bit and equal a sequential scatter-add from zeros:
    a one-label, row-major (C-contiguous) block of at least 4 columns, as
    the greedy walks pass, is summed with one np.add.reduce over axis 0;
    every other call takes one weighted bincount per column. The reduce
    pays per row and the bincounts per entry: at 4 columns the reduce was
    about as fast or faster from 30 to 25,000 rows, at 3 slower from 3,000.
    numpy reduces along the contiguous axis pairwise, in other bits, so the
    column-major joint that compute_stats passes keeps the bincount;
    copying that joint to row order would cost a second M x N matrix.
    """
    if k == 1 and p.shape[1] >= 4 and p.flags.c_contiguous:
        return np.add.reduce(p, axis=0, initial=0.0, keepdims=True)
    out = np.empty((k, p.shape[1]))
    for i in range(p.shape[1]):
        out[:, i] = np.bincount(assignment, weights=p[:, i], minlength=k)
    return out


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """An M x N joint probability matrix with strictly positive row masses.

    Invariants enforced at construction: all entries finite and >= 0, the
    total is 1 within 1e-9, every row mass is positive, and N >= 2.

    `p` is stored column-major (Fortran order), so each class column p[:, i]
    is contiguous: every pass over the joint (aggregate, the mask walk, the
    refine centroids) reads it one column at a time. The total and the row
    masses are summed over the input in C order before that copy, so their
    bits do not depend on the stored layout. A C-ordered float input is
    copied once; any other is first made C-ordered.
    """

    p: np.ndarray
    # p(y_j) for each data point, length M
    row_masses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        src = np.asarray(self.p, dtype=float, order="C")
        check_matrix(src)
        total = float(src.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistribution(
                f"entries sum to {total!r}, expected 1 within {NORMALIZATION_TOL}")
        row_masses = src.sum(axis=1)
        zero = np.flatnonzero(row_masses <= 0.0)
        if zero.size:
            raise ZeroRow(int(zero[0]))
        object.__setattr__(self, "p", _frozen(np.array(src, order="F")))
        object.__setattr__(self, "row_masses", _frozen(row_masses))

    @property
    def n_rows(self) -> int:
        """M, the number of data points."""
        return self.p.shape[0]

    @property
    def n_cols(self) -> int:
        """N, the number of classes."""
        return self.p.shape[1]


def _normalized(arr: np.ndarray) -> JointDistribution:
    """The JointDistribution of a checked, finite, nonnegative weight matrix.

    A matrix whose total is already 1 within NORMALIZATION_TOL is kept
    verbatim, so normalizing is idempotent and emitted files round-trip bit
    for bit; any other matrix is divided by its total, in place: the caller
    owns arr, and the distribution keeps a copy, so at most two M x N
    matrices are alive. A total that overflows raises InvalidDistribution,
    a zero total ZeroTotal.
    """
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if not np.isfinite(total):
        raise InvalidDistribution("entries overflow to an infinite total")
    if total <= 0.0:
        raise ZeroTotal("matrix total is zero")
    if abs(total - 1.0) > NORMALIZATION_TOL:
        arr /= total
    return JointDistribution(arr)


def build_joint(raw) -> JointDistribution:
    """Normalize a nonnegative count or weight matrix into a JointDistribution.

    Rejects what check_matrix rejects, an all-zero matrix, and any all-zero
    row, naming the offending index in each case. A total within 1e-9 of 1 is
    kept verbatim, as `ingest` keeps it, so build_joint(jd.p) has the bytes
    of jd.p; any other matrix is divided by its total. A matrix whose total
    overflows raises InvalidDistribution.
    """
    arr = np.array(raw, dtype=float, order="C")
    check_matrix(arr)
    return _normalized(arr)


@dataclass(frozen=True, eq=False)
class Partition:
    """An assignment of each data point to one of k labels.

    Labels may be unused; empty partitions are representable and carry zero
    weight in every statistic. Float labels must be whole numbers. k is
    stored as the Python int check_k returns.
    """

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", check_k(self.k))
        a = np.asarray(self.assignment)
        if a.ndim != 1:
            raise DimensionMismatch(
                f"assignment must be 1-D, got ndim={a.ndim}")
        # checked before the intp cast, which truncates 0.5 to 0 and warns
        # on nan
        valid = (a >= 0) & (a < self.k)
        if a.dtype.kind == "f":
            valid &= np.floor(a) == a
        if not valid.all():
            bad = int(np.flatnonzero(~valid)[0])
            raise LabelOutOfRange(f"label {a[bad].item()!r} at position {bad} "
                                  f"not in {{0, ..., {self.k - 1}}}")
        object.__setattr__(self, "assignment", _frozen(np.array(a, dtype=np.intp)))


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

    Every quantity is computed from pxz row by row; f.weighted reads the
    conditional rows built here instead of dividing again. The totals
    impurity and e_q sum the nonempty rows only, so empty labels padding a
    partition leave their bits unchanged. pxz itself becomes the read-only
    `pxz` field of the result.
    """
    pz = pxz.sum(axis=1)
    nonempty = pz > 0.0
    px_given_z = np.zeros_like(pxz)
    px_given_z[nonempty] = pxz[nonempty] / pz[nonempty, None]
    per = f.weighted(pxz, px_given_z)
    return PartitionStats(
        pz=_frozen(pz),
        pxz=_frozen(pxz),
        px_given_z=_frozen(px_given_z),
        nonempty=_frozen(nonempty),
        per_partition_impurity=_frozen(per),
        impurity=float(per[nonempty].sum()),
        e_q=float(pxz.max(axis=1)[nonempty].sum()),
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
