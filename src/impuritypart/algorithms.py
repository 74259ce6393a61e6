"""Partitioning algorithms: maximum-likelihood, splitting, merging, refinement.

All algorithms are deterministic: every argmax/argmin breaks ties toward the
lowest index, candidate class masks are visited in lexicographic order, and
accumulation follows row order. Results therefore reproduce bit-for-bit.

Traces, when present, are lists of dict events. Every event carries
"impurity" (the total impurity after the event); the first event is
{"event": "init"}. Split events add source/target labels, the number of
moved points, and whether the single-point fallback fired. Merge events add
the merged pair, its loss, and the full list of evaluated (i, j, loss)
candidates. Refinement events add the number of reassigned points.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyStart,
    InstanceTooLarge,
    KNotGreaterThanN,
    KNotLessThanN,
    KTooSmall,
    MaskBudgetExceeded,
)
from .impurity import ImpuritySpec
from .prob import (
    JointDistribution,
    Partition,
    PartitionStats,
    aggregate,
    compute_stats,
)

DEFAULT_MASK_BUDGET = 1 << 20
DEFAULT_ORACLE_CAP = 2_000_000

_ORACLE_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class AlgoResult:
    """A partition together with its statistics and run metadata.

    e_max_achieved is the e value of the returned partition, except for the
    exhaustive oracle where it is the global maximum e over every assignment
    (the oracle's partition minimizes impurity instead). masks_evaluated
    counts class masks for the likelihood algorithm (and its step inside
    split/merge), and enumerated assignments for the oracle.
    """

    partition: Partition
    stats: PartitionStats
    e_max_achieved: float
    masks_evaluated: int
    trace: Optional[list] = None


def projection_masks(n: int, k: int):
    """Candidate class masks: binary length-n vectors with min(k, n) ones.

    For k >= n there is a single all-ones mask; otherwise all C(n, k)
    masks are yielded in index-lexicographic order (the deterministic
    tie-break order for the likelihood search).
    """
    if k >= n:
        yield np.ones(n, dtype=bool)
        return
    for cols in itertools.combinations(range(n), k):
        mask = np.zeros(n, dtype=bool)
        mask[list(cols)] = True
        yield mask


def max_likelihood_partition(jd: JointDistribution, k: int, f: ImpuritySpec,
                             mask_budget: int = DEFAULT_MASK_BUDGET) -> AlgoResult:
    """Partition by largest joint entry, maximizing the likelihood sum e.

    For k >= n each point joins the label of its largest class entry, which
    provably maximizes e over all assignments and uses at most n labels
    (leaving k - n empty). For k < n every size-k class mask is tried: the
    joint is projected onto the mask's classes, points are assigned by argmax
    over the surviving entries, e is evaluated on the unprojected joint, and
    the best mask wins (first found on ties). Cost grows with C(n, k), capped
    by `mask_budget`.
    """
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    n = jd.n_cols
    p = jd.p
    if k >= n:
        part = Partition(np.argmax(p, axis=1), k)
        stats = compute_stats(jd, part, f)
        return AlgoResult(part, stats, e_max_achieved=stats.e_q,
                          masks_evaluated=1)
    n_masks = math.comb(n, k)
    if n_masks > mask_budget:
        raise MaskBudgetExceeded(
            f"C({n}, {k}) = {n_masks} masks exceed budget {mask_budget}")
    best_e = -math.inf
    best_assignment = None
    for mask in projection_masks(n, k):
        # argmax over the mask's columns; a point whose surviving entries are
        # all zero lands on the lowest-index active class.
        local = np.argmax(p[:, mask], axis=1)
        e = float(aggregate(p, local, k).max(axis=1).sum())
        if e > best_e:
            best_e = e
            best_assignment = local
    part = Partition(best_assignment, k)
    stats = compute_stats(jd, part, f)
    return AlgoResult(part, stats, e_max_achieved=stats.e_q,
                      masks_evaluated=n_masks)


def greedy_split(jd: JointDistribution, k: int, f: ImpuritySpec) -> AlgoResult:
    """Likelihood partition followed by k - n impurity-guided splits (k > n).

    Each round takes the partition with the largest weighted impurity (at
    least two points; ties to the lowest label), finds its dominant class,
    and moves every member whose conditional on that class strictly exceeds
    the partition's own conditional into a fresh label. When the threshold
    moves nothing, the single member with the largest conditional moves
    instead; when no partition has two points, the remaining labels stay
    empty. Total impurity never increases across rounds.
    """
    n = jd.n_cols
    if k <= n:
        raise KNotGreaterThanN(f"need k > {n} classes, got k={k}")
    base = max_likelihood_partition(jd, n, f)
    assignment = np.array(base.partition.assignment)
    stats = compute_stats(jd, Partition(assignment, k), f)
    trace = [{"event": "init", "impurity": stats.impurity}]
    next_label = n
    for _ in range(k - n):
        counts = np.bincount(assignment, minlength=k)
        order = np.argsort(-stats.per_partition_impurity, kind="stable")
        source = next((int(c) for c in order if counts[c] >= 2), None)
        if source is None:
            trace.append({"event": "stop", "reason": "no partition with 2+ points",
                          "impurity": stats.impurity})
            break
        j_star = int(np.argmax(stats.px_given_z[source]))
        members = np.flatnonzero(assignment == source)
        attribution = jd.p[members, j_star] / jd.row_masses[members]
        threshold = float(stats.px_given_z[source, j_star])
        move = attribution > threshold
        fallback = not bool(move.any())
        if fallback:
            move = np.zeros(members.size, dtype=bool)
            move[int(np.argmax(attribution))] = True
        assignment[members[move]] = next_label
        stats = compute_stats(jd, Partition(assignment, k), f)
        trace.append({"event": "split", "source": source, "target": next_label,
                      "moved": int(move.sum()), "fallback": fallback,
                      "impurity": stats.impurity})
        next_label += 1
    part = Partition(assignment, k)
    return AlgoResult(part, stats, e_max_achieved=stats.e_q,
                      masks_evaluated=base.masks_evaluated, trace=trace)


def greedy_merge(jd: JointDistribution, k: int, f: ImpuritySpec) -> AlgoResult:
    """Likelihood partition followed by cheapest-pair merges down to k (k < n).

    Every pair of current nonempty partitions is scored by the impurity loss
    of merging them (nonnegative by concavity); the pair with the smallest
    loss merges, labels are renumbered densely, and the process repeats until
    at most k nonempty partitions remain. Linear in the data size, quadratic
    in the partition count, no approximation guarantee.
    """
    n = jd.n_cols
    if k >= n:
        raise KNotLessThanN(f"need k < {n} classes, got k={k}")
    base = max_likelihood_partition(jd, n, f)
    used = np.flatnonzero(np.bincount(base.partition.assignment, minlength=n) > 0)
    remap = np.full(n, -1, dtype=np.intp)
    remap[used] = np.arange(used.size)
    assignment = remap[base.partition.assignment]
    count = int(used.size)
    trace = [{"event": "init", "impurity": base.stats.impurity}]
    while count > k:
        pxz = aggregate(jd.p, assignment, count)
        own = f.weighted(pxz)
        # pairs in (i, j) lexicographic order, so argmin keeps the first
        # lowest-loss pair
        rows, cols = np.triu_indices(count, 1)
        deltas = f.weighted(pxz[rows] + pxz[cols]) - own[rows] - own[cols]
        best = int(np.argmin(deltas))
        i, j = int(rows[best]), int(cols[best])
        best_delta = float(deltas[best])
        evaluated = list(zip(rows.tolist(), cols.tolist(), deltas.tolist()))
        assignment = np.where(assignment == j, i, assignment)
        assignment = np.where(assignment > j, assignment - 1, assignment)
        count -= 1
        after = compute_stats(jd, Partition(assignment, count), f)
        trace.append({"event": "merge", "merged": [i, j], "delta": best_delta,
                      "evaluated": evaluated, "impurity": after.impurity})
    part = Partition(assignment, k)
    stats = compute_stats(jd, part, f)
    return AlgoResult(part, stats, e_max_achieved=stats.e_q,
                      masks_evaluated=base.masks_evaluated, trace=trace)


def _divergences(cond: np.ndarray, q: np.ndarray, f: ImpuritySpec) -> np.ndarray:
    """M x K score ranking each centroid row of q for each point row of cond.

    The score is the Bregman divergence of the convex -sum f, less a term
    that depends on the point alone:

        D(c, q) + sum_i f(c_i) = sum_i [f(q_i) - f'(q_i) q_i] + c . f'(q)

    one (M x N) @ (N x K) product, O(M*K) memory. For entropy D is the KL
    divergence in bits (both rows sum to 1); for Gini it is the squared
    Euclidean distance |c - q|^2. A centroid where f' is infinite (entropy
    at q_i = 0) scores +inf for a point with c_i > 0, as KL does, and that
    class adds nothing for a point with c_i = 0.
    """
    fp = f.f_prime(q)
    blocked = ~np.isfinite(fp)
    fp = np.where(blocked, 0.0, fp)
    score = cond @ fp.T
    score += (f.f_values(q) - fp * q).sum(axis=1)
    if blocked.any():
        hit = cond @ blocked.T.astype(float) > 0.0
        score[hit] = np.inf
    return score


def iterative_refine(jd: JointDistribution, start: Partition, f: ImpuritySpec,
                     max_iters: int = 100) -> AlgoResult:
    """Alternate reassignment and centroid updates from a starting partition.

    Each pass computes the conditional class distribution of every nonempty
    partition and moves a point only when another nonempty partition has a
    strictly smaller divergence (ties keep the point in place; among strictly
    better partitions the lowest label wins). The divergence is the Bregman
    divergence of -sum f: KL for entropy, squared Euclidean for Gini (see
    _divergences). Stops after a pass with no moves or after `max_iters`
    passes. Impurity never increases between passes for entropy and Gini.
    """
    if start.assignment.shape[0] != jd.n_rows:
        raise DimensionMismatch(
            f"start assignment length {start.assignment.shape[0]} != "
            f"{jd.n_rows} data points")
    assignment = np.array(start.assignment)
    k = start.k
    stats = compute_stats(jd, Partition(assignment, k), f)
    if stats.n_nonempty == 0:
        raise EmptyStart("starting partition uses no label")
    cond = jd.p / jd.row_masses[:, None]
    trace = [{"event": "init", "impurity": stats.impurity}]
    for _ in range(max_iters):
        labels = np.flatnonzero(stats.nonempty)
        div = _divergences(cond, stats.px_given_z[labels], f)
        pos = np.searchsorted(labels, assignment)
        rows = np.arange(jd.n_rows)
        d_cur = div[rows, pos]
        best = div.argmin(axis=1)
        moves = div[rows, best] < d_cur
        changed = int(moves.sum())
        if changed:
            assignment = np.where(moves, labels[best], assignment)
            stats = compute_stats(jd, Partition(assignment, k), f)
        trace.append({"event": "iteration", "changed": changed,
                      "impurity": stats.impurity})
        if not changed:
            break
    part = Partition(assignment, k)
    return AlgoResult(part, stats, e_max_achieved=stats.e_q,
                      masks_evaluated=0, trace=trace)


def exhaustive_oracle(jd: JointDistribution, k: int, f: ImpuritySpec,
                      cap: int = DEFAULT_ORACLE_CAP) -> AlgoResult:
    """Enumerate all k**m assignments for ground truth on small instances.

    Returns the assignment with the smallest impurity (first in enumeration
    order on ties) and reports the global maximum e over every assignment in
    e_max_achieved. Assignments are enumerated lexicographically with point 0
    as the most significant digit. Refuses instances with k**m above `cap`.
    """
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    m = jd.n_rows
    total = k ** m
    if total > cap:
        raise InstanceTooLarge(f"{k}**{m} = {total} assignments exceed cap {cap}")
    p = jd.p
    pows = k ** np.arange(m - 1, -1, -1, dtype=np.int64)
    best_imp = math.inf
    best_imp_idx = -1
    best_e = -math.inf
    for begin in range(0, total, _ORACLE_BLOCK):
        idx = np.arange(begin, min(begin + _ORACLE_BLOCK, total), dtype=np.int64)
        digits = (idx[:, None] // pows[None, :]) % k
        e_vals = np.zeros(idx.size)
        imps = np.zeros(idx.size)
        for label in range(k):
            sub = (digits == label).astype(float) @ p
            e_vals += sub.max(axis=1)
            imps += f.weighted(sub)
        local = int(np.argmin(imps))
        if imps[local] < best_imp:
            best_imp = float(imps[local])
            best_imp_idx = begin + local
        block_e = float(e_vals.max())
        if block_e > best_e:
            best_e = block_e
    part = Partition((best_imp_idx // pows) % k, k)
    stats = compute_stats(jd, part, f)
    return AlgoResult(part, stats, e_max_achieved=best_e,
                      masks_evaluated=total)
