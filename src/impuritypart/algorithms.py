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

greedy_split and greedy_merge run the generators split_states and
merge_states to k. Their decisions do not depend on k, so one trajectory
serves a whole sweep of k, and each round updates only the partitions it
touches, bitwise equal to recomputing the statistics from scratch.
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
    stats_from_pxz,
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


@dataclass(frozen=True, eq=False)
class GreedyState:
    """One step of a greedy split or merge trajectory.

    `assignment` labels every point in [0, labels); `pxz` holds the labels'
    joint rows and `own` their weighted impurities, bitwise what
    compute_stats gives for the same assignment. Split states may carry empty
    labels; merge states never do. `event` is the trace event that produced
    the state, without its "impurity". The arrays belong to the generator and
    may change when it resumes: copy what must outlive the next step.
    """

    assignment: np.ndarray
    pxz: np.ndarray
    own: np.ndarray
    event: dict

    @property
    def labels(self) -> int:
        return self.pxz.shape[0]

    def result(self, k: int, f: ImpuritySpec, masks_evaluated: int,
               trace: Optional[list] = None) -> AlgoResult:
        """The state as a k-label result (k >= labels); its statistics are
        those of pxz zero-padded to k rows, as compute_stats gives them."""
        pxz = np.zeros((k, self.pxz.shape[1]))
        pxz[:self.labels] = self.pxz
        stats = stats_from_pxz(pxz, f)
        return AlgoResult(Partition(self.assignment, k), stats,
                          e_max_achieved=stats.e_q,
                          masks_evaluated=masks_evaluated, trace=trace)


def _padded_total(own: np.ndarray, k: int) -> float:
    """own summed as compute_stats sums a k-label partition's impurity."""
    per = np.zeros(k)
    per[:own.size] = own
    return float(per.sum())


def check_split_k(n: int, k: int) -> None:
    """Raise KNotGreaterThanN unless greedy_split serves k, that is k > n."""
    if k <= n:
        raise KNotGreaterThanN(f"need k > {n} classes, got k={k}")


def check_merge_k(n: int, k: int) -> None:
    """Raise KNotLessThanN unless greedy_merge serves k, that is k < n."""
    if k >= n:
        raise KNotLessThanN(f"need k < {n} classes, got k={k}")


def split_states(jd: JointDistribution, base: AlgoResult, f: ImpuritySpec):
    """Generate the greedy split trajectory from the likelihood result `base`.

    The first state is base itself with its n labels, then each round adds
    one label (see greedy_split for the rule). The decisions do not depend on
    a target k, so one trajectory serves every k. When no partition has two
    points, a final "stop" state repeats the last partition and the
    generator ends. A round re-aggregates only the source partition's
    members and rescores two rows: O(|source| N) plus an O(M) label scan.
    `assignment` is updated in place; pxz and own are new arrays each round.
    """
    p = jd.p
    assignment = np.array(base.partition.assignment)
    pxz = np.array(base.stats.pxz)
    own = np.array(base.stats.per_partition_impurity)
    counts = np.bincount(assignment, minlength=pxz.shape[0])
    yield GreedyState(assignment, pxz, own, {"event": "init"})
    while True:
        order = np.argsort(-own, kind="stable")
        source = next((int(c) for c in order if counts[c] >= 2), None)
        if source is None:
            yield GreedyState(assignment, pxz, own,
                              {"event": "stop",
                               "reason": "no partition with 2+ points"})
            return
        # the row sum as stats_from_pxz takes it, so cond is bitwise its
        # px_given_z row
        cond = pxz[source] / pxz[source:source + 1].sum(axis=1)[0]
        j_star = int(np.argmax(cond))
        members = np.flatnonzero(assignment == source)
        attribution = p[members, j_star] / jd.row_masses[members]
        move = attribution > cond[j_star]
        fallback = not bool(move.any())
        if fallback:
            move[int(np.argmax(attribution))] = True
        target = pxz.shape[0]
        assignment[members[move]] = target
        halves = aggregate(p[members], move, 2)
        pxz = np.vstack([pxz, halves[1:]])
        pxz[source] = halves[0]
        own = np.append(own, 0.0)
        own[[source, target]] = f.weighted(halves)
        moved = int(move.sum())
        counts = np.append(counts, moved)
        counts[source] -= moved
        yield GreedyState(assignment, pxz, own,
                          {"event": "split", "source": source, "target": target,
                           "moved": moved, "fallback": fallback})


def _pair_losses(pxz: np.ndarray, own: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, f: ImpuritySpec) -> np.ndarray:
    """Impurity loss of merging partitions rows[t] < cols[t], for each t."""
    return f.weighted(pxz[rows] + pxz[cols]) - own[rows] - own[cols]


def merge_states(jd: JointDistribution, base: AlgoResult, f: ImpuritySpec):
    """Generate the greedy merge trajectory from the likelihood result `base`.

    The first state is base with its nonempty labels renumbered densely; each
    further state merges the cheapest pair (see greedy_merge for the rule),
    down to a single partition. Merge events carry "losses", the count x
    count matrix of pair losses the merge chose from (+inf off the upper
    triangle). Scoring every pair costs O(count^2 N) once. After a merge
    only the merged partition's members are re-aggregated and only its row
    and column of losses are rescored, O(count N); the relabelling is O(M)
    and the argmin and matrix deletions touch O(count^2) floats.
    """
    p = jd.p
    used = np.flatnonzero(np.bincount(base.partition.assignment,
                                      minlength=base.partition.k) > 0)
    remap = np.full(base.partition.k, -1, dtype=np.intp)
    remap[used] = np.arange(used.size)
    assignment = remap[base.partition.assignment]
    pxz = base.stats.pxz[used]
    own = base.stats.per_partition_impurity[used]
    count = int(used.size)
    losses = np.full((count, count), np.inf)
    rows, cols = np.triu_indices(count, 1)
    losses[rows, cols] = _pair_losses(pxz, own, rows, cols, f)
    yield GreedyState(assignment, pxz, own, {"event": "init"})
    while count > 1:
        # row-major argmin over the upper triangle keeps the first
        # lowest-loss pair in (i, j) lexicographic order
        i, j = divmod(int(np.argmin(losses)), count)
        event = {"event": "merge", "merged": [i, j],
                 "delta": float(losses[i, j]), "losses": losses}
        assignment = np.where(assignment == j, i, assignment)
        assignment = np.where(assignment > j, assignment - 1, assignment)
        count -= 1
        members = np.flatnonzero(assignment == i)
        pxz = np.delete(pxz, j, axis=0)
        pxz[i] = aggregate(p[members], np.zeros(members.size, dtype=np.intp), 1)[0]
        own = np.delete(own, j)
        own[i] = f.weighted(pxz[i:i + 1])[0]
        losses = np.delete(np.delete(losses, j, axis=0), j, axis=1)
        before = np.arange(i)
        after = np.arange(i + 1, count)
        losses[before, i] = _pair_losses(pxz, own, before, np.full(i, i), f)
        losses[i, after] = _pair_losses(pxz, own, np.full(after.size, i), after, f)
        yield GreedyState(assignment, pxz, own, event)


def greedy_split(jd: JointDistribution, k: int, f: ImpuritySpec) -> AlgoResult:
    """Likelihood partition followed by k - n impurity-guided splits (k > n).

    Each round takes the partition with the largest weighted impurity (at
    least two points; ties to the lowest label), finds its dominant class,
    and moves every member whose conditional on that class strictly exceeds
    the partition's own conditional into a fresh label. When the threshold
    moves nothing, the single member with the largest conditional moves
    instead; when no partition has two points, the remaining labels stay
    empty. Total impurity never increases across rounds. Runs split_states
    to k labels: one likelihood run, then per round O(|source| N) work and an
    O(M) label scan.
    """
    n = jd.n_cols
    check_split_k(n, k)
    base = max_likelihood_partition(jd, n, f)
    trace = []
    for state in split_states(jd, base, f):
        trace.append({**state.event, "impurity": _padded_total(state.own, k)})
        if state.labels == k:
            break
    return state.result(k, f, base.masks_evaluated, trace)


def greedy_merge(jd: JointDistribution, k: int, f: ImpuritySpec) -> AlgoResult:
    """Likelihood partition followed by cheapest-pair merges down to k (k < n).

    Every pair of current nonempty partitions is scored by the impurity loss
    of merging them (nonnegative by concavity); the pair with the smallest
    loss merges, labels are renumbered densely, and the process repeats until
    at most k nonempty partitions remain. Runs merge_states down to k: all
    pairs are scored once, O(count^2 N), then each merge rescores O(count)
    pairs, O(count N), and relabels in O(M). No approximation guarantee.
    """
    n = jd.n_cols
    check_merge_k(n, k)
    base = max_likelihood_partition(jd, n, f)
    trace = []
    for state in merge_states(jd, base, f):
        if state.event["event"] == "init":
            trace.append({"event": "init", "impurity": base.stats.impurity})
        else:
            losses = state.event["losses"]
            rows, cols = np.triu_indices(losses.shape[0], 1)
            trace.append({"event": "merge", "merged": state.event["merged"],
                          "delta": state.event["delta"],
                          "evaluated": list(zip(rows.tolist(), cols.tolist(),
                                                losses[rows, cols].tolist())),
                          "impurity": float(state.own.sum())})
        if state.labels <= k:
            break
    return state.result(k, f, base.masks_evaluated, trace)


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
