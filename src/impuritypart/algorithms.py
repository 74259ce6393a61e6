"""Partitioning algorithms: maximum-likelihood, splitting, merging, refinement.

All algorithms are deterministic: every argmax/argmin breaks ties toward the
lowest index, candidate class masks are visited in lexicographic order, and
accumulation follows row order. Results therefore reproduce bit-for-bit. The
k < N likelihood step keeps the first mask whose float coverage F(S), the sum
of each point's largest entry in the mask, is strictly the largest, and
reports the e of that mask's partition (see max_likelihood_partition). One
walk computes every float F (_scan_mask): it visits masks in lexicographic
order, depth first, keeping only running maxima, one np.maximum per node of
the mask tree and one sum per mask. It walks either every mask or the few
whose value in one zeta-transformed table of subset sums over the 2**N
column sets is within a stated rounding bound of the best (see
_best_mask). Until a joint has a table, the input's size picks the search
for each k < N; a table it builds is kept, with the column count of every
column set, in _COVER_TABLES, the one module-level state the search
writes, and every later k < N on that joint walks its candidates. So any
order of k builds at most one table per joint. The winning mask alone is
labelled, by the running argmax that also labels the k >= N step.
The exhaustive oracle scores one labelling per partition, the
restricted-growth one (point 0 at label 0, each later point at most one
above the largest label before it), sum_{j <= k} S(m, j) labellings instead
of k**m. It returns the first of them in lexicographic order with the
smallest float impurity and reports the largest float e among them (see
exhaustive_oracle). Every blocked loop is sized to one budget of bytes,
_BLOCK_BYTES: the oracle's blocks of labellings and chunks of subset sums,
refinement's row blocks (never below _GEMM_ROWS rows) and the coverage
table's row blocks; no result depends on it.
masks_evaluated still counts the k**m assignments that the oracle's search
covers, and the C(N, k) masks of the k < N search.
Every function that takes k binds k = prob.check_k(k) first: a k that is
not an int raises ValueError and a k below 1 KTooSmall, before any work.
Any other k becomes a Python int, and the work is done with that int, so a
numpy int of any width gives the result of the same Python int; each
result's partition.k and masks_evaluated are Python ints.

Traces, when present, are lists of dict events. Every event carries
"impurity" (the total impurity after the event); the first event is
{"event": "init"}. Split events add source/target labels, the number of
moved points, and whether the single-point fallback fired. Merge events add
the merged pair, its loss "delta", and "losses", the count x count matrix of
pair losses the merge chose from: entry (i, j) with i < j is the loss of
merging i and j, every other entry is +inf. Refinement events add the number
of reassigned points.

The greedy trajectories are the generators split_states and merge_states,
and greedy_walk is the one loop that advances them: greedy_split and
greedy_merge walk to one k and keep the trace, whose events are the states'
own events, and the CLI walks a whole sweep of k without one. The decisions
do not depend on k, so one trajectory serves every k of a sweep. Each state
carries the PartitionStats that prob.stats_from_pxz gives for its label
rows: a round re-sums only the labels it touches, each from its rows
gathered out of the joint in row order as one row-major block, which
prob.aggregate reduces in row order where it is wide enough, with the bits
of compute_stats' bincounts; it rebuilds the statistics from the updated
rows, and is bitwise equal to recomputing them from scratch. Every
AlgoResult is built by _result.
"""

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InstanceTooLarge,
    KNotGreaterThanN,
    KNotLessThanN,
)
from .impurity import ImpuritySpec
from .prob import (
    JointDistribution,
    Partition,
    PartitionStats,
    aggregate,
    check_k,
    check_max_iters,
    compute_stats,
    stats_from_pxz,
)

# work cap of the k < N mask search, in the scan's point reads: C(N, k)
# masks over M points cost C(N, k) * (M + 2048), 2048 points standing for
# one mask's fixed cost; at the edges of 2**32 the scan took 6-12 s on a
# 2-CPU machine, and the coverage table, where it serves, under 0.2 s
MASK_BUDGET = 1 << 32
ORACLE_CAP = 2_000_000
# work cap of the oracle's subset tables, in entry sums: 2**m subsets of N
# classes; at m = 20 it admits N <= 4096
ORACLE_TABLE_CAP = 1 << 32

# working-set budget of every blocked loop, in bytes: the oracle's blocks
# of labellings and chunks of subset sums, refinement's row blocks and the
# coverage table's row blocks are each sized to fit it, half of a 2 MiB L2
# cache; 2**20 and 2**21 took the same time on the grid of shapes at the
# oracle's caps in `tests/shapes.py oracle`, and 2**20 took less memory.
# The coverage table adds up its blocks' tables, so a new budget changes
# that table's bits and may change its candidate sets, though not the mask
# picked: rerun `tests/shapes.py mask`, whose digests must not move
_BLOCK_BYTES = 1 << 20
# the fewest rows of a refinement block: with OpenBLAS 0.3.31 a product over
# 1000 rows or more has the bits of the whole-matrix product, and shorter
# blocks did not
_GEMM_ROWS = 1024
# the k < N coverage table's cost in the scan's point reads, fitted on flat
# random data on a 2-CPU machine: a fixed _COVER_START, _COVER_READS per
# joint entry and one per table entry and column; it holds 2**N floats, so
# N is at most _COVER_BITS
_COVER_START = 1 << 16
_COVER_READS = 24
_COVER_BITS = 20
# each joint's coverage table, (table, total, sizes), kept by _best_mask
# for every later k < N; a joint's p is read-only, so a table never goes
# stale, and the entry goes when its joint does
_COVER_TABLES = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class AlgoResult:
    """A partition together with its statistics and run metadata.

    e_max_achieved is the e value of the returned partition, except for the
    exhaustive oracle where it is the largest float e over the
    restricted-growth labellings it scores, one per partition, which is the
    global maximum e over every assignment in exact arithmetic (the
    oracle's partition minimizes impurity instead). masks_evaluated counts
    class masks for the likelihood algorithm (and its step inside
    split/merge), and for the oracle the k**m assignments its search covers,
    though it scores only sum_{j <= k} S(m, j) of them.
    """

    partition: Partition
    stats: PartitionStats
    e_max_achieved: float
    masks_evaluated: int
    trace: Optional[list] = None


def _result(part: Partition, stats: PartitionStats, masks_evaluated: int,
            e_max: Optional[float] = None,
            trace: Optional[list] = None) -> AlgoResult:
    """The result of a partition and its statistics; e_max defaults to
    their own e_q."""
    return AlgoResult(part, stats,
                      e_max_achieved=stats.e_q if e_max is None else e_max,
                      masks_evaluated=masks_evaluated, trace=trace)


def _fold(column: np.ndarray, d: int, label: np.ndarray, top: np.ndarray) -> None:
    """Fold the d-th column into a running argmax, in place: a point whose
    entry strictly exceeds its running maximum `top` takes label d, so on
    ties the earlier column keeps the point, as np.argmax does."""
    np.putmask(label, column > top, d)
    np.maximum(top, column, out=top)


def max_likelihood_partition(jd: JointDistribution, k: int,
                             f: ImpuritySpec) -> AlgoResult:
    """Partition by largest joint entry, maximizing the likelihood sum e.

    For k >= n each point joins the label of its largest class entry (the
    first on ties), which provably maximizes e over all assignments and uses
    at most n labels (leaving k - n empty); one scan over the columns keeps
    each point's largest entry so far and its label, O(M) memory beside the
    joint and the k x n statistics of the result.

    For k < n the search maximizes the coverage F(S) = sum_x max_{j in S}
    p(x, j) over the size-k class masks S, the facility-location objective
    (Cornuejols, Fisher & Nemhauser 1977), and returns P_S, each point
    assigned to its largest entry in S. The largest e over k-partitions
    equals the largest F: a partition's e is at most F of its labels'
    winning columns, and e(P_S) >= F(S). So e_max_achieved, the e of the
    returned P_S, is that maximum in exact arithmetic. The winner is the
    first mask in lexicographic order whose float F(S), numpy's sum of its
    points' largest entries in S, is strictly larger than the best so far;
    masks with equal F but different e(P_S) are not told apart.

    Both branches fold the columns (all n of them for k >= n, the winning
    mask's after the search for k < n) one at a time through _fold, the one
    running argmax and the one place that keeps the first maximum. The cap
    counts the scan's cost: a mask costs O(M) plus a fixed cost counted as
    2048 points, so an instance with C(n, k) * (M + 2048) above MASK_BUDGET
    raises InstanceTooLarge, the refusal the oracle also uses, before any
    pass over the joint, whichever search would run. The k >= n step is not
    capped.

    One walk (_scan_mask) computes the float F of the masks it visits, as
    the leaves of a depth-first walk in lexicographic order: each tree
    node above the leaves keeps every point's running maximum over its
    columns, one np.maximum per node, and each mask takes one np.maximum
    of its last column onto its parent's maxima and one sum of those, its
    F; its memory is k rows of M floats. _best_mask walks either every
    mask or the candidates of the coverage table (_coverage_table,
    _coverage_candidates), which sorts each point's entries once and
    builds one table of subset sums over the 2**n column sets, from which
    every mask's F is one lookup: O(M n log n + n 2**n) work, memory the
    table and row blocks of about 2**14 entries. While jd has no table,
    the input's size picks the walk; a table built is kept with jd, 2**n
    floats and 2**n one-byte column counts, and every later k < n on jd
    walks its candidates, so any order of k builds it at most once. The
    table's values only propose candidates, and the walk over them gives
    the winner the walk over every mask gives. No mask is labelled during
    the walk: the maxima are exact, so folding the winner's columns
    afterwards gives the labels a scan would have kept. masks_evaluated
    counts all C(n, k) masks, which both walks cover. Each column read is
    contiguous in the column-major joint.
    """
    k = check_k(k)
    n = jd.n_cols
    p = jd.p
    cols, masks = range(n), 1
    if k < n:
        masks = math.comb(n, k)
        if masks * (jd.n_rows + 2048) > MASK_BUDGET:
            # C(n, k) by name: its value can be too long to format
            raise InstanceTooLarge(f"C({n}, {k}) masks x ({jd.n_rows} + 2048) "
                                   f"points exceed budget {MASK_BUDGET}")
        cols = _best_mask(jd, k)
    # the winning columns fold into one running argmax, without a row-major
    # copy of p; a point whose entries there are all zero keeps label 0
    top = np.full(jd.n_rows, -np.inf)
    label = np.zeros(jd.n_rows, dtype=np.intp)
    for d, j in enumerate(cols):
        _fold(p[:, j], d, label, top)
    part = Partition(label, k)
    return _result(part, compute_stats(jd, part, f), masks)


def _best_mask(jd: JointDistribution, k: int) -> tuple:
    """The first size-k column mask of jd.p, in lexicographic order, whose
    float coverage F(S), the sum of each point's largest entry in S, is
    strictly the largest; k is below the column count.

    _scan_mask walks either every mask or the candidates of the joint's
    coverage table (_coverage_candidates). Once jd has a table, every k
    walks its candidates, whatever the rule below would pick. Otherwise the
    input's size decides: the table costs about _COVER_START +
    _COVER_READS * M N + N 2**N point reads and the walk over every mask
    C(N, k) (M + 2048), the reads MASK_BUDGET counts; the table is built,
    and kept in _COVER_TABLES, when its cost is not the larger and
    N <= _COVER_BITS. So any order of k builds at most one table per
    joint. Walking the candidates never costs more np.maximum calls than
    walking every mask, even on all-tie inputs such as identical columns,
    where every mask is a candidate; but selecting them reads all 2**N
    column counts, so a kept table can lose where the rule would pick the
    scan: at N = 20, M = 20, k = 19 it took 0.41-0.51 ms against the
    scan's 0.19-0.31 ms on a 2-CPU machine.
    """
    p = jd.p
    m, n = p.shape
    cover = _COVER_TABLES.get(jd)
    if cover is None:
        if (n > _COVER_BITS or _COVER_START + _COVER_READS * m * n + (n << n)
                > math.comb(n, k) * (m + 2048)):
            return _scan_mask(p, k)
        cover = _COVER_TABLES[jd] = _coverage_table(p)
    return _scan_mask(p, k, _coverage_candidates(*cover, m, k))


def _coverage_table(p: np.ndarray) -> tuple:
    """(table, total, sizes): G(U), below, for every column set U of p
    but the full one, total, the sum of every point's largest entry, and
    sizes, the number of columns in every U, one byte each.

    A point whose entries sorted in decreasing order are v_1 >= ... >= v_N,
    v_{N+1} = 0, with T_r its top r columns, has its largest entry in S
    equal to the sum of v_r - v_{r+1} over the r whose T_r meets S. So
    F(S) = total - G(U), where U is the complement of S and G(U) = sum over
    T inside U of h(T), h(T) the sum of the differences v_r - v_{r+1} of
    the (point, r) with T_r = T. The rows are sorted in blocks of
    _BLOCK_BYTES / 64 joint entries (a block's arrays peak at 39 bytes an
    entry under tracemalloc; 64 is not that price but keeps the
    2**14-entry blocks with which the table's cost was fitted), or
    2**N / 4 entries so that adding up the blocks' 2**N-entry tables
    costs at most 4 per joint entry. Each block's differences of the
    ranks r < N are bincounted onto the bitmasks of their T_r; Yates'
    zeta transform (Bjorklund, Husfeldt, Kaski & Koivisto, STOC 2007) then
    sums each entry over its subsets, and the same N doublings count each
    U's columns. O(M N log N + N 2**N) work; memory is the 2**N table, the
    2**N counts and one block's arrays.
    """
    m, n = p.shape
    table = np.zeros(1 << n)
    total = 0.0
    bit = 1 << np.arange(n, dtype=np.int64)
    rows = max(_BLOCK_BYTES // 64, (1 << n) >> 2) // n
    for lo in range(0, m, rows):
        block = p[lo:lo + rows]
        order = np.argsort(np.negative(block), axis=1)
        top = np.take_along_axis(block, order, axis=1)
        total += float(top[:, 0].sum())
        tops = np.cumsum(bit[order[:, :-1]], axis=1)
        table += np.bincount(tops.ravel(), (top[:, :-1] - top[:, 1:]).ravel(),
                             minlength=1 << n)
    sizes = np.zeros(1, dtype=np.uint8)
    for i in range(n):
        pairs = table.reshape(-1, 2, 1 << i)
        pairs[:, 1] += pairs[:, 0]
        sizes = np.concatenate([sizes, sizes + 1])
    return table, total, sizes


def _coverage_candidates(table: np.ndarray, total: float, sizes: np.ndarray,
                         m: int, k: int) -> np.ndarray:
    """The size-k column masks of an M-row joint that can hold the largest
    float coverage, as the rows of a C x k array of columns in
    lexicographic order, from _coverage_table's (table, total, sizes).
    The complements of size N - k are read off sizes.

    The table only proposes masks. All its terms are nonnegative, so a
    float sum of them along an addition tree of height h is within
    gamma_h = h u / (1 - h u) of the exact sum, relative, with u = 2**-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 4.2). A term
    of G meets one rounding in its difference, at most one per row of its
    block in the bincount (a row's T_r differ in size, so one bin takes at
    most one of them), one per block and N in the transform, height
    M + N + 2 at most; the float F of a mask, numpy's pairwise sum of M
    entries, has height below M. Both errors are at most their gamma times
    total, so the float winner's G lies within 2 delta of the smallest G
    over the complements of size N - k, delta = (2M + N + 2) 2**-52 total
    bounding gamma_M + gamma_{M+N+2} with room for total's own rounding.
    Every mask within 2 delta is a candidate, and every mask with the
    winner's float F is among them.
    """
    n = table.size.bit_length() - 1
    complements = np.flatnonzero(sizes == n - k)
    g = table[complements]
    delta = (2 * m + n + 2) * 2.0 ** -52 * total
    candidates = ((1 << n) - 1) ^ complements[g <= g.min() + 2 * delta]
    cols = np.nonzero((candidates[:, None] >> np.arange(n)) & 1)[1].reshape(-1, k)
    return cols[np.lexsort(cols.T[::-1])]


def _scan_mask(p: np.ndarray, k: int,
               candidates: Optional[np.ndarray] = None) -> tuple:
    """The first of the size-k masks, walked in lexicographic order, whose
    float coverage is strictly the largest: every mask when `candidates`
    is None, else the rows of the lexicographically sorted C x k array
    `candidates`.

    The walk groups the masks by their prefix, their first k - 1 columns:
    every prefix of k - 1 of the first N - 1 columns, whose masks end in
    each later column, or the runs of candidate rows with equal prefixes.
    Row d of `chosen` holds every point's largest entry among the prefix's
    first d + 1 columns, and a new prefix recomputes the rows from the
    first depth where it differs from the prefix before. Each mask then
    costs one np.maximum of its last column onto the prefix's row and one
    contiguous 1-D sum, its F. Between two candidate prefixes the walk
    recomputes no more rows than the walk over every mask, so walking the
    candidates never costs more np.maximum calls than walking every mask.
    """
    m, n = p.shape
    columns = [p[:, j] for j in range(n)]
    if candidates is None:
        groups = ((prefix, range(prefix[-1] + 1 if prefix else 0, n))
                  for prefix in itertools.combinations(range(n - 1), k - 1))
    else:
        # a group starts where a row's prefix differs from the row before
        starts = np.flatnonzero(
            (candidates[1:, :-1] != candidates[:-1, :-1]).any(axis=1)) + 1
        edges = [0, *starts.tolist(), len(candidates)]
        lasts = candidates[:, -1].tolist()
        groups = zip(candidates[edges[:-1], :-1].tolist(),
                     (lasts[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])))
    chosen = np.empty((k, m))
    last = chosen[k - 1]
    # no column is -1, so the first prefix recomputes every row
    previous = [-1] * (k - 1)
    best_f, best = -math.inf, None
    for prefix, ends in groups:
        depth = 0
        while depth < k - 1 and prefix[depth] == previous[depth]:
            depth += 1
        for d in range(depth, k - 1):
            np.maximum(chosen[d - 1] if d else -np.inf, columns[prefix[d]],
                       out=chosen[d])
        above = chosen[k - 2] if k > 1 else -np.inf
        for j in ends:
            np.maximum(above, columns[j], out=last)
            coverage = float(last.sum())
            if coverage > best_f:
                best_f, best = coverage, (*prefix, j)
        previous = prefix
    return best


@dataclass(frozen=True, eq=False)
class GreedyState:
    """One step of a greedy split or merge trajectory.

    `assignment` labels every point in [0, labels), and `stats` is what
    stats_from_pxz gives for the labels' joint rows, bitwise what
    compute_stats gives for the same assignment. Split states may carry
    empty labels; merge states never do. `event` is the trace event that
    produced the state, without its "impurity". The assignment and the
    statistics are read-only, and no later step writes to any array of a
    state.
    """

    assignment: np.ndarray
    stats: PartitionStats
    event: dict

    def __post_init__(self):
        self.assignment.setflags(write=False)

    @property
    def labels(self) -> int:
        return self.stats.pz.size

    def result(self, k: int, f: ImpuritySpec, masks_evaluated: int,
               trace: Optional[list] = None) -> AlgoResult:
        """The state as a k-label result (k >= labels): its own statistics
        when k == labels, else those of its rows zero-padded to k, as
        compute_stats gives them."""
        stats = self.stats
        if k > self.labels:
            stats = stats_from_pxz(
                np.pad(stats.pxz, ((0, k - self.labels), (0, 0))), f)
        return _result(Partition(self.assignment, k), stats, masks_evaluated,
                       trace=trace)


def split_states(jd: JointDistribution, base: AlgoResult, f: ImpuritySpec):
    """Generate the greedy split trajectory from the likelihood result `base`.

    The first state is base itself with its n labels and statistics, then
    each round adds one nonempty label (see greedy_split for the rule). The
    decisions do not depend on a target k, so one trajectory serves every k.
    When no partition has two points, a final "stop" state repeats the last
    partition and the generator ends, after at most M + 1 states. A round
    sums only the source partition's members into its two rows, O(|source|
    N): the rows that stay and the rows that move are each gathered from
    the joint in row order and summed as a one-label block by
    prob.aggregate (one row-order reduce when N >= 4), so the round holds
    at most one half of the source's rows at a time. It then rebuilds the
    statistics of the K rows with stats_from_pxz, O(K N), and scans and
    copies the labels, O(M). It writes only into the new assignment and
    rows it makes.
    """
    p = jd.p
    assignment = base.partition.assignment
    stats = base.stats
    counts = np.bincount(assignment, minlength=base.partition.k)
    yield GreedyState(assignment, stats, {"event": "init"})
    while True:
        eligible = counts >= 2
        if not eligible.any():
            yield GreedyState(assignment, stats,
                              {"event": "stop",
                               "reason": "no partition with 2+ points"})
            return
        source = int(np.argmax(np.where(eligible, stats.per_partition_impurity,
                                        -np.inf)))
        cond = stats.px_given_z[source]
        j_star = int(np.argmax(cond))
        members = np.flatnonzero(assignment == source)
        # a gather from the contiguous column, cheaper than p[members, j_star]
        attribution = p[:, j_star][members] / jd.row_masses[members]
        move = attribution > cond[j_star]
        # moving every member would only relabel the source
        fallback = not move.any() or bool(move.all())
        if fallback:
            move = np.arange(members.size) == int(np.argmax(attribution))
        stay, moving = [members[np.flatnonzero(side)] for side in (~move, move)]
        target = counts.size
        assignment = assignment.copy()
        assignment[moving] = target
        # each half is gathered from the joint in row order and summed as
        # its own block, so the round copies each source row once
        sums = [aggregate(p[rows], np.zeros(rows.size, dtype=np.intp), 1)
                for rows in (stay, moving)]
        pxz = np.vstack([stats.pxz, sums[1]])
        pxz[source] = sums[0][0]
        stats = stats_from_pxz(pxz, f)
        counts = np.append(counts, moving.size)
        counts[source] -= moving.size
        yield GreedyState(assignment, stats,
                          {"event": "split", "source": source, "target": target,
                           "moved": moving.size, "fallback": fallback})


def _merge_losses(stats: PartitionStats, i: int, start: int,
                  f: ImpuritySpec) -> np.ndarray:
    """Impurity loss of merging partition i with each partition j >= start.

    The own impurity of the lower label of each pair is subtracted first,
    so a pair's loss has the same bits whichever of its labels is i. O(N)
    floats per partition scored.
    """
    own = stats.per_partition_impurity
    lower = np.arange(start, own.size) < i
    rest = own[start:]
    return (f.weighted(stats.pxz[start:] + stats.pxz[i])
            - np.where(lower, rest, own[i]) - np.where(lower, own[i], rest))


def merge_states(jd: JointDistribution, base: AlgoResult, f: ImpuritySpec):
    """Generate the greedy merge trajectory from the likelihood result `base`.

    The first state is base with its nonempty labels renumbered densely; each
    further state merges the cheapest pair (see greedy_merge for the rule),
    down to a single partition. Merge events carry "losses", the count x
    count matrix of pair losses the merge chose from (+inf off the upper
    triangle), a fresh array that no later round writes. Scoring every pair
    costs O(count^2 N) once, one partition against the partitions after it
    at a time. After a merge only the merged partition's members are
    re-summed, O(|merged| N), with prob.aggregate over their gathered
    row-major block (one row-order reduce when N >= 4), the statistics of
    the count rows are rebuilt with stats_from_pxz, and only the merged row
    and column of losses are rescored, each O(count N); the relabelling is
    O(M) and the argmin and matrix deletions touch O(count^2) floats.
    Memory is O(count N) beside the O(count^2) loss matrix and the
    O(|merged| N) gathered block.
    """
    p = jd.p
    used = np.flatnonzero(base.stats.nonempty)
    remap = np.full(base.partition.k, -1, dtype=np.intp)
    remap[used] = np.arange(used.size)
    assignment = remap[base.partition.assignment]
    stats = stats_from_pxz(base.stats.pxz[used], f)
    count = int(used.size)
    losses = np.full((count, count), np.inf)
    for i in range(count - 1):
        losses[i, i + 1:] = _merge_losses(stats, i, i + 1, f)
    yield GreedyState(assignment, stats, {"event": "init"})
    while count > 1:
        # row-major argmin over the upper triangle keeps the first
        # lowest-loss pair in (i, j) lexicographic order
        i, j = divmod(int(np.argmin(losses)), count)
        event = {"event": "merge", "merged": [i, j],
                 "delta": float(losses[i, j]), "losses": losses}
        # j joins i and the labels above j shift down; the gather makes a
        # new array, so earlier states keep theirs
        relabel = np.arange(count) - (np.arange(count) > j)
        relabel[j] = i
        assignment = relabel[assignment]
        count -= 1
        members = np.flatnonzero(assignment == i)
        pxz = np.delete(stats.pxz, j, axis=0)
        pxz[i] = aggregate(p[members], np.zeros(members.size, dtype=np.intp), 1)[0]
        stats = stats_from_pxz(pxz, f)
        losses = np.delete(np.delete(losses, j, axis=0), j, axis=1)
        fresh = _merge_losses(stats, i, 0, f)
        losses[:i, i] = fresh[:i]
        losses[i, i + 1:] = fresh[i + 1:]
        yield GreedyState(assignment, stats, event)


def greedy_walk(jd: JointDistribution, base: AlgoResult, f: ImpuritySpec,
                ks, trace: Optional[list] = None):
    """Yield the k-label result of one greedy trajectory for each k of ks.

    ks lie all above n, walked up by split_states, or all below n, walked
    down by merge_states, in walk order. Each k takes the first state that
    has reached it (at least k labels for a split, at most k for a merge),
    or the last state when the trajectory ends first; later ks continue
    from there. base is the likelihood result at n and its masks_evaluated
    is every result's. When `trace` is a list, each state visited is
    appended as its event with its impurity, and every result carries that
    list.
    """
    # +1 walks up to each k, -1 walks down
    sign = 1 if ks[0] > jd.n_cols else -1
    states = (split_states if sign > 0 else merge_states)(jd, base, f)
    state = None
    for k in ks:
        while state is None or sign * (k - state.labels) > 0:
            following = next(states, None)
            if following is None:
                break
            state = following
            if trace is not None:
                trace.append({**state.event, "impurity": state.stats.impurity})
        yield state.result(k, f, base.masks_evaluated, trace)


def greedy_split(jd: JointDistribution, k: int, f: ImpuritySpec) -> AlgoResult:
    """Likelihood partition followed by k - n impurity-guided splits (k > n).

    Each round takes the partition with the largest weighted impurity (at
    least two points; ties to the lowest label), finds its dominant class,
    and moves every member whose conditional on that class strictly exceeds
    the partition's own conditional into a fresh label. When the threshold
    moves nothing or every member, the single member with the largest
    conditional moves instead, so every round adds a nonempty label; when
    no partition has two points, the remaining labels stay empty. Total
    impurity never increases across rounds. greedy_walk runs split_states
    to k labels: one likelihood run, then per round O(|source| N) work, an
    O(K N) rebuild of the statistics and an O(M) label scan. After check_k,
    a k <= n raises KNotGreaterThanN before any work. The CLI walks
    split_states itself, for the k above n that 'auto' gives it.
    """
    k = check_k(k)
    if k <= jd.n_cols:
        raise KNotGreaterThanN(f"need k > {jd.n_cols} classes, got k={k}")
    base = max_likelihood_partition(jd, jd.n_cols, f)
    return next(greedy_walk(jd, base, f, [k], trace=[]))


def greedy_merge(jd: JointDistribution, k: int, f: ImpuritySpec) -> AlgoResult:
    """Likelihood partition followed by cheapest-pair merges down to k (k < n).

    Every pair of current nonempty partitions is scored by the impurity loss
    of merging them (nonnegative by concavity); the pair with the smallest
    loss merges, labels are renumbered densely, and the process repeats until
    at most k nonempty partitions remain. greedy_walk runs merge_states down
    to k: all pairs are scored once, O(count^2 N), then each merge rescores
    O(count) pairs and rebuilds the statistics, O(count N), and relabels in
    O(M). Scoring holds O(count N) floats at a time beside the count x count
    losses; each merge event of the trace keeps the loss matrix it chose
    from, the array merge_states built, not a copy. No approximation
    guarantee. After check_k, a k >= n raises KNotLessThanN before any
    work. The CLI walks merge_states itself, for the k below n that 'auto'
    gives it.
    """
    k = check_k(k)
    if k >= jd.n_cols:
        raise KNotLessThanN(f"need k < {jd.n_cols} classes, got k={k}")
    base = max_likelihood_partition(jd, jd.n_cols, f)
    return next(greedy_walk(jd, base, f, [k], trace=[]))


def _centroid_terms(q: np.ndarray, f: ImpuritySpec) -> tuple:
    """The terms of _divergences that depend on the centroid rows q alone,
    computed once per refinement pass: f'(q) transposed, 0 where it is
    infinite; the offsets sum_i [f(q_i) - f'(q_i) q_i], one per centroid;
    and, when f' is infinite anywhere, the transposed mask of where, as
    floats, else None."""
    fp = f.f_prime(q)
    blocked = ~np.isfinite(fp)
    fp = np.where(blocked, 0.0, fp)
    offsets = (f.f_values(q) - fp * q).sum(axis=1)
    return fp.T, offsets, blocked.T.astype(float) if blocked.any() else None


def _divergences(cond: np.ndarray, terms: tuple) -> np.ndarray:
    """M x K score ranking each centroid row q for each point row of cond,
    given the centroids' terms, _centroid_terms(q, f), which a caller
    scoring several blocks of points against the same q computes once.

    The score is the Bregman divergence of the convex -sum f, less a term
    that depends on the point alone:

        D(c, q) + sum_i f(c_i) = sum_i [f(q_i) - f'(q_i) q_i] + c . f'(q)

    one (M x N) @ (N x K) product, O(M*K) memory. For entropy D is the KL
    divergence in bits (both rows sum to 1); for Gini it is the squared
    Euclidean distance |c - q|^2. A centroid where f' is infinite (entropy
    at q_i = 0) scores +inf for a point with c_i > 0, as KL does, and that
    class adds nothing for a point with c_i = 0.
    """
    slopes, offsets, blocked = terms
    score = cond @ slopes
    score += offsets
    if blocked is not None:
        score[cond @ blocked > 0.0] = np.inf
    return score


def _row_blocks(m: int, row_bytes: int) -> np.ndarray:
    """Edges of balanced row blocks covering 0..m in order: each holds t to
    2t - 1 rows, t = max(_GEMM_ROWS, _BLOCK_BYTES // row_bytes), or all m
    rows when m < 2t."""
    blocks = max(1, m // max(_GEMM_ROWS, _BLOCK_BYTES // row_bytes))
    return m * np.arange(blocks + 1) // blocks


def iterative_refine(jd: JointDistribution, start: Partition, f: ImpuritySpec,
                     max_iters: int = 100) -> AlgoResult:
    """Alternate reassignment and centroid updates from a starting partition.

    Each pass computes the conditional class distribution of every nonempty
    partition and moves a point only when another nonempty partition has a
    strictly smaller divergence (ties keep the point in place; among strictly
    better partitions the lowest label wins). The divergence is the Bregman
    divergence of -sum f: KL for entropy, squared Euclidean for Gini (see
    _divergences). Stops after a pass with no moves or after `max_iters`
    passes. Before any work, prob.check_max_iters rejects a `max_iters` that
    is not an int or is below 1. Impurity never increases between passes for
    entropy and Gini.

    A pass scores the points in balanced row blocks against the same
    centroids (see _row_blocks), instead of one M x K score matrix, and
    frees a block's scores before it scores the next; the centroids' own
    terms (_centroid_terms) are computed once per pass. A row costs about
    8 (N + 2K + 5) bytes: its conditional row, its K scores, the K-wide
    product for the blocked classes and a few per-point temporaries.
    Blocks are sized to _BLOCK_BYTES at that rate: in
    `tests/shapes.py refine` at M = 50000 their 1542 to 11915 rows mostly
    beat blocks of _GEMM_ROWS rows at N = 2 and 20, K = 2 and 30, and lost
    at N = 64, K = 2. They hold at least _GEMM_ROWS rows: with OpenBLAS
    0.3.31 a product over 1000 rows or more has the bits of the
    whole-matrix product (shorter blocks did not), so
    every partition, trace and impurity is that of one unblocked pass.
    Beside the joint and O(M + K N) floats, a pass so holds less than
    twice the larger of the budget and _GEMM_ROWS rows at that rate,
    whatever M is.
    """
    max_iters = check_max_iters(max_iters)
    assignment = np.array(start.assignment)
    k = start.k
    stats = compute_stats(jd, Partition(assignment, k), f)
    edges = _row_blocks(jd.n_rows, 8 * (jd.n_cols + 2 * k + 5))
    trace = [{"event": "init", "impurity": stats.impurity}]
    for _ in range(max_iters):
        labels = np.flatnonzero(stats.nonempty)
        terms = _centroid_terms(stats.px_given_z[labels], f)
        # every point's label holds it, so it is among the nonempty labels
        column = np.zeros(k, dtype=np.intp)
        column[labels] = np.arange(labels.size)
        changed = 0
        for lo, hi in zip(edges[:-1], edges[1:]):
            # C-ordered: the GEMM in _divergences rounds differently when
            # its left operand is column-major
            cond = np.divide(jd.p[lo:hi], jd.row_masses[lo:hi, None], order="C")
            div = _divergences(cond, terms)
            here = np.arange(hi - lo)
            current = assignment[lo:hi]
            best = div.argmin(axis=1)
            moves = div[here, best] < div[here, column[current]]
            # freed before the next block is scored, so two blocks of
            # scores never coexist
            del div
            changed += int(np.count_nonzero(moves))
            current[moves] = labels[best[moves]]
        if changed:
            stats = compute_stats(jd, Partition(assignment, k), f)
        trace.append({"event": "iteration", "changed": changed,
                      "impurity": stats.impurity})
        if not changed:
            break
    return _result(Partition(assignment, k), stats, 0, trace=trace)


def exhaustive_oracle(jd: JointDistribution, k: int, f: ImpuritySpec) -> AlgoResult:
    """Search every partition of the points into at most k labels for
    ground truth on small instances.

    The k! relabellings of a partition describe the same partition, so only
    restricted-growth labellings are scored: point 0 takes label 0, and each
    later point a label at most one above the largest before it (Knuth,
    TAOCP Vol. 4A, 7.2.1.5). Each partition into at most k labels has one
    such labelling, sum_{j <= k} S(m, j) of them in all (Stirling numbers of
    the second kind), about k**m / k! for m well above k. They are scored
    in lexicographic order, point 0 most significant. Returns the first with
    the smallest float impurity and reports the largest float e over them
    in e_max_achieved; in exact arithmetic both are the optimum and the
    global maximum e over all k**m assignments, and masks_evaluated counts
    those k**m assignments, the ones the search covers. Refuses instances
    with k**m above ORACLE_CAP by raising InstanceTooLarge, the refusal the
    mask search of max_likelihood_partition also uses, before any work; k == 1
    is never refused. For k >= 2, 2**m * N above ORACLE_TABLE_CAP raises
    InstanceTooLarge too, before the tables.

    A label's impurity and e depend only on the subset of points it holds,
    so both are tabulated once for all 2**m subsets (see _subset_tables):
    O(2**m N) work and two tables of 2**m floats. Each labelling then costs
    min(k, m) lookups in each table, O(min(k, m) sum_{j <= k} S(m, j)) in
    all: no label from m on holds a point, and its empty subset would add
    +0.0 to both sums, which start from +0.0 and keep their bits. A block
    fixes a restricted-growth prefix of the leading points and scores its
    valid continuations over the last `tail` points, at most k**tail of
    them; they depend only on the prefix's largest label, so each table of
    them (see _rgs_tables) is built once. A block touches about 8 (k + 5)
    bytes per labelling: its k-row int64 column of the continuation table,
    the subset indices, the two rows gathered from the tables and the e and
    impurity sums. tail is the largest, at least 1, whose k**tail
    labellings fit _BLOCK_BYTES at that rate. Blocks are scored in
    lexicographic order and each sum keeps its terms and their order, so
    the result does not depend on the budget. With k == 1 there is one
    labelling, all points at label 0, and it is scored directly, with no
    table.
    """
    k = check_k(k)
    m = jd.n_rows
    if k == 1:
        part = Partition(np.zeros(m, dtype=np.intp), k)
        return _result(part, compute_stats(jd, part, f), 1)
    # past the cap's bit length, m is over it without building k**m
    if m > ORACLE_CAP.bit_length() or k ** m > ORACLE_CAP:
        raise InstanceTooLarge(
            f"{k}**{m} assignments exceed cap {ORACLE_CAP}")
    if (1 << m) * jd.n_cols > ORACLE_TABLE_CAP:
        raise InstanceTooLarge(
            f"2**{m}*{jd.n_cols} table sums exceed cap {ORACLE_TABLE_CAP}")
    weighted, top = _subset_tables(jd.p, f)
    # a label's subset is its bits among the last `tail` points plus its
    # bits among the leading ones
    tail = 1
    while tail < m and k ** (tail + 1) * 8 * (k + 5) <= _BLOCK_BYTES:
        tail += 1
    leading = _rgs_tables(k, range(m - tail), [-1])[-1]
    # the continuations of a prefix depend only on its largest label (-1
    # when no point leads), and from k - 2 up every labelling is one
    highs = np.minimum(
        ((leading != 0) * np.arange(1, k + 1)[:, None]).max(axis=0) - 1,
        k - 2).tolist()
    trailing = _rgs_tables(k, range(m - tail, m), highs)
    best_imp = math.inf
    best_e = -math.inf
    for block in range(leading.shape[1]):
        table = trailing[highs[block]]
        e_vals = np.zeros(table.shape[1])
        imps = np.zeros(table.shape[1])
        for label in range(min(k, m)):
            subset = table[label] + leading[label, block]
            e_vals += top[subset]
            imps += weighted[subset]
        local = int(np.argmin(imps))
        if imps[local] < best_imp:
            best_imp = float(imps[local])
            best = table[:, local] + leading[:, block]
        best_e = max(best_e, float(e_vals.max()))
    # each point takes the one label whose subset holds its bit
    part = Partition(((best[:, None] >> np.arange(m)) & 1).argmax(axis=0), k)
    return _result(part, compute_stats(jd, part, f), k ** m, e_max=best_e)


def _subset_tables(p: np.ndarray, f: ImpuritySpec):
    """f.weighted and the largest entry of the row sum of every subset of p.

    Entry S of both tables describes the rows x with bit x set in S. Each
    sum adds its rows one by one in increasing row order, starting from 0,
    as an indicator-matrix product does. The sums of subsets of the first
    `low` rows are built once by doubling, T[2**x : 2**(x+1)] =
    T[:2**x] + p[x]; each further chunk adds the later rows of one subset
    to that table. A chunk of 2**low x N sums keeps about 6 floats per
    entry alive (the table, the chunk, and the copies and temporaries of
    f.weighted), 48 bytes, so low is the largest, at most m, whose chunk
    fits _BLOCK_BYTES at that rate, and at least 0: one row per chunk.
    Beside the two 2**m tables, only one chunk of sums exists at a time.
    """
    m, n = p.shape
    low = min(m, max(0, (_BLOCK_BYTES // (48 * n)).bit_length() - 1))
    sums = np.zeros((1 << low, n))
    for x in range(low):
        np.add(sums[:1 << x], p[x], out=sums[1 << x:2 << x])
    weighted = np.empty(1 << m)
    top = np.empty(1 << m)
    chunk = np.empty_like(sums)
    for high in range(1 << (m - low)):
        rows = sums
        for x in range(low, m):
            if high >> (x - low) & 1:
                np.add(rows, p[x], out=chunk)
                rows = chunk
        span = slice(high << low, (high + 1) << low)
        weighted[span] = f.weighted(rows)
        top[span] = rows.max(axis=1)
    return weighted, top


def _rgs_tables(k: int, points, highs) -> dict:
    """The restricted-growth labellings of `points` after a largest label h,
    as {h: table} for each h in `highs` (-1: no label before them).

    Such a labelling gives each point, first to last, a label below k and
    at most one above the largest before it; from h = k - 2 on every
    labelling is one, so no h above k - 2 is asked for. Table h is k x P
    int64, its columns the labellings in lexicographic order (first point
    most significant), and entry [c, t] sets bit x for every point x that
    column t labels c. The tables are built from the last point back: h's
    table of the points from x on joins, for each label c of x, the table
    of max(h, c) of the points after x, with bit x set in row c. Only h
    from min(highs) up are built, at most k tables per point.
    """
    points = list(points)
    lo, hi = min(highs), max(highs)
    # before the i-th point the largest label is at most hi + i
    tables = {h: np.zeros((k, 1), dtype=np.int64)
              for h in range(lo, min(hi + len(points), k - 2) + 1)}
    for i in reversed(range(len(points))):
        joined = {}
        for h in range(lo, min(hi + i, k - 2) + 1):
            parts = [tables[min(max(h, c), k - 2)] for c in range(min(h + 2, k))]
            joined[h] = np.concatenate(parts, axis=1)
            start = 0
            for c, part in enumerate(parts):
                joined[h][c, start:start + part.shape[1]] += 1 << points[i]
                start += part.shape[1]
        tables = joined
    return tables
