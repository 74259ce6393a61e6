"""Shared instance generators and independent reference computations."""

import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np

from impuritypart import (
    JointDistribution,
    Partition,
    build_joint,
    compute_stats,
    max_likelihood_partition,
)
from impuritypart import algorithms
from impuritypart.prob import aggregate


class Admitted(Exception):
    """Raised by a patched-in step to show that a run got past its checks."""


def admit(*args, **kwargs):
    raise Admitted


def digest(obj) -> str:
    """The first 16 hex digits of the sha256 of repr(obj): one digest for
    every set of result bits the tests and tests/shapes.py compare."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def peak_bytes(fn):
    """(peak, result): the tracemalloc peak in bytes while fn() runs, and
    what fn returned."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def random_joint(rng, m, n) -> JointDistribution:
    """Continuous random instance with strictly positive row masses."""
    return build_joint(rng.random((m, n)) + 1e-9)


def dyadic_joint(rng, m, n, hi=1000) -> JointDistribution:
    """Random integer counts padded so the total is a power of two.

    Every probability is then an exact dyadic rational and all sums of
    likelihood masses evaluate exactly in float64, so e-value comparisons
    between different code paths are meaningful at zero tolerance.
    """
    counts = rng.integers(1, hi, size=(m, n)).astype(float)
    total = counts.sum()
    target = 2.0 ** math.ceil(math.log2(total))
    counts[0, 0] += target - total
    return build_joint(counts)


def random_partition(rng, m, k) -> Partition:
    return Partition(rng.integers(0, k, size=m), k)


def stats_reference(p, assignment, k, f_scalar):
    """Plain-Python tabulation of (impurity, e) for cross-checking.

    Deliberately independent of the package's vectorized accumulation.
    """
    m, n = p.shape
    pxz = [[0.0] * n for _ in range(k)]
    for j in range(m):
        for i in range(n):
            pxz[assignment[j]][i] += p[j][i]
    impurity = 0.0
    e = 0.0
    for row in pxz:
        pz = sum(row)
        if pz > 0.0:
            impurity += pz * sum(f_scalar(v / pz) for v in row)
            e += max(row)
    return impurity, e


def divergence_reference(cond, q, kind):
    """M x K divergence of each point row of cond to each centroid row of q.

    KL in bits for kind "entropy" (+inf where q is 0 under positive mass),
    squared Euclidean distance for kind "gini". Builds the full M x K x N
    tensor, so keep instances small.
    """
    c = cond[:, None, :]
    if kind == "entropy":
        with np.errstate(divide="ignore", invalid="ignore"):
            logc = np.log2(np.where(c > 0.0, c, 1.0))
            raw = c * (logc - np.log2(q)[None, :, :])
        return np.where(c > 0.0, raw, 0.0).sum(axis=2)
    return ((c - q[None, :, :]) ** 2).sum(axis=2)


def greedy_reference(jd, k, f, algorithm):
    """(assignment, stats, trace) of greedy_split or greedy_merge, from scratch.

    The plain loops the incremental trajectories replace: every split round
    recomputes the statistics of the whole partition, and every merge round
    aggregates all points and scores every pair again. A merge event's
    "losses" is the count x count matrix of those scores, +inf off the upper
    triangle. The valid k ranges are assumed (k > N to split, k < N to
    merge).
    """
    n = jd.n_cols
    base = max_likelihood_partition(jd, n, f)
    if algorithm == "greedy_split":
        assignment = np.array(base.partition.assignment)
        stats = compute_stats(jd, Partition(assignment, k), f)
        trace = [{"event": "init", "impurity": stats.impurity}]
        next_label = n
        for _ in range(k - n):
            counts = np.bincount(assignment, minlength=k)
            order = np.argsort(-stats.per_partition_impurity, kind="stable")
            source = next((int(c) for c in order if counts[c] >= 2), None)
            if source is None:
                trace.append({"event": "stop",
                              "reason": "no partition with 2+ points",
                              "impurity": stats.impurity})
                break
            j_star = int(np.argmax(stats.px_given_z[source]))
            members = np.flatnonzero(assignment == source)
            attribution = jd.p[members, j_star] / jd.row_masses[members]
            move = attribution > float(stats.px_given_z[source, j_star])
            # moving the whole source would only relabel it
            fallback = not bool(move.any()) or bool(move.all())
            if fallback:
                move = np.zeros(members.size, dtype=bool)
                move[int(np.argmax(attribution))] = True
            assignment[members[move]] = next_label
            stats = compute_stats(jd, Partition(assignment, k), f)
            trace.append({"event": "split", "source": source,
                          "target": next_label, "moved": int(move.sum()),
                          "fallback": fallback, "impurity": stats.impurity})
            next_label += 1
        return assignment, stats, trace
    used = np.flatnonzero(np.bincount(base.partition.assignment, minlength=n) > 0)
    remap = np.full(n, -1, dtype=np.intp)
    remap[used] = np.arange(used.size)
    assignment = remap[base.partition.assignment]
    count = int(used.size)
    trace = [{"event": "init", "impurity": base.stats.impurity}]
    while count > k:
        pxz = aggregate(jd.p, assignment, count)
        own = f.weighted(pxz)
        rows, cols = np.triu_indices(count, 1)
        deltas = f.weighted(pxz[rows] + pxz[cols]) - own[rows] - own[cols]
        best = int(np.argmin(deltas))
        i, j = int(rows[best]), int(cols[best])
        losses = np.full((count, count), np.inf)
        losses[rows, cols] = deltas
        assignment = np.where(assignment == j, i, assignment)
        assignment = np.where(assignment > j, assignment - 1, assignment)
        count -= 1
        after = compute_stats(jd, Partition(assignment, count), f)
        trace.append({"event": "merge", "merged": [i, j],
                      "delta": float(deltas[best]), "losses": losses,
                      "impurity": after.impurity})
    return assignment, compute_stats(jd, Partition(assignment, k), f), trace


def refine_reference(jd, start, f, max_iters=100):
    """(assignment, stats, trace) of iterative_refine in whole-matrix passes.

    The loop the row-blocked passes replace: every pass scores all M points
    against all K centroids in one M x K matrix, from one C-ordered M x N
    matrix of conditionals.
    """
    assignment = np.array(start.assignment)
    k = start.k
    stats = compute_stats(jd, Partition(assignment, k), f)
    cond = np.divide(jd.p, jd.row_masses[:, None], order="C")
    trace = [{"event": "init", "impurity": stats.impurity}]
    rows = np.arange(jd.n_rows)
    for _ in range(max_iters):
        labels = np.flatnonzero(stats.nonempty)
        terms = algorithms._centroid_terms(stats.px_given_z[labels], f)
        div = algorithms._divergences(cond, terms)
        d_cur = div[rows, np.searchsorted(labels, assignment)]
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
    return assignment, stats, trace


def likelihood_reference(jd, k, f):
    """(assignment, e_max_achieved, masks_evaluated) of the k < N mask search.

    The plain loop the prefix-shared scan replaces: every mask copies its
    columns, sums each point's largest entry among them into the coverage
    F(S), and the first mask with the largest F wins. Its points go to their
    argmax column in the mask, and e_max_achieved is that partition's e.
    """
    best, masks = best_mask_reference(jd.p, k)
    best_assignment = np.argmax(jd.p[:, list(best)], axis=1)
    stats = compute_stats(jd, Partition(best_assignment, k), f)
    return best_assignment, stats.e_q, masks


def best_mask_reference(p, k):
    """(mask, masks visited): the first size-k column mask of p, in
    lexicographic order, with the largest float coverage F(S)."""
    masks = list(itertools.combinations(range(p.shape[1]), k))
    return first_best_reference(p, masks), len(masks)


def coverage_candidates(p, k):
    """The coverage table's candidates for the size-k masks of p."""
    return algorithms._coverage_candidates(*algorithms._coverage_table(p),
                                           p.shape[0], k)


def trace_impurities(result):
    """The total impurity after each event of result's trace."""
    return [event["impurity"] for event in result.trace]


def first_best_reference(p, masks):
    """The first of `masks`, taken in order, with strictly the largest float
    coverage F(S), each mask's columns copied and each point's largest
    entry among them summed."""
    best_f = -math.inf
    best = None
    for cols in masks:
        coverage = float(p[:, list(cols)].max(axis=1).sum())
        if coverage > best_f:
            best_f = coverage
            best = tuple(cols)
    return best


def likelihood_e_reference(jd, k, f):
    """(assignment, e_max_achieved, masks_evaluated) under the earlier k < N
    rule: the first mask whose partition has the largest float e, each
    label's e summed over all N columns rather than the mask's."""
    p = jd.p
    best_e = -math.inf
    best_assignment = None
    masks = 0
    for cols in itertools.combinations(range(jd.n_cols), k):
        local = np.argmax(p[:, list(cols)], axis=1)
        e = float(aggregate(p, local, k).max(axis=1).sum())
        if e > best_e:
            best_e = e
            best_assignment = local
        masks += 1
    stats = compute_stats(jd, Partition(best_assignment, k), f)
    return best_assignment, stats.e_q, masks


def oracle_reference(jd, k, f, block=1 << 16):
    """(assignment, e_max_achieved, assignments) of the exhaustive oracle.

    The plain enumeration the subset tables replace: blocks of `block` of
    the k**m assignments in lexicographic order (point 0 most significant),
    of which only the restricted-growth ones are scored (point 0 at label 0,
    every later point at most one above the largest label before it), each
    label's rows summed by an indicator matrix product. The first with the
    smallest impurity wins, and e_max_achieved is their largest e.
    """
    p = jd.p
    m = jd.n_rows
    total = k ** m
    pows = k ** np.arange(m - 1, -1, -1, dtype=np.int64)
    best_imp = math.inf
    best_idx = -1
    best_e = -math.inf
    for begin in range(0, total, block):
        idx = np.arange(begin, min(begin + block, total), dtype=np.int64)
        digits = (idx[:, None] // pows[None, :]) % k
        before = np.maximum.accumulate(digits, axis=1)[:, :-1]
        growth = (digits[:, 0] == 0) & (digits[:, 1:] <= before + 1).all(axis=1)
        if not growth.any():
            continue
        idx, digits = idx[growth], digits[growth]
        e_vals = np.zeros(idx.size)
        imps = np.zeros(idx.size)
        for label in range(k):
            sub = (digits == label).astype(float) @ p
            e_vals += sub.max(axis=1)
            imps += f.weighted(sub)
        local = int(np.argmin(imps))
        if imps[local] < best_imp:
            best_imp = float(imps[local])
            best_idx = int(idx[local])
        best_e = max(best_e, float(e_vals.max()))
    return (best_idx // pows) % k, best_e, total


@functools.lru_cache(maxsize=1)
def _run_costs(jd, f):
    """(M + 1) x (M + 1) table of f.weighted of every run of an N = 2 joint's
    points stable-sorted by p(x0 | y): entry [i, j] is the run of sorted
    points i..j-1, +inf unless i < j. Kept for the last (jd, f), so several
    k share one table."""
    m = jd.n_rows
    order = np.argsort(jd.p[:, 0] / jd.row_masses, kind="stable")
    prefix = np.vstack([np.zeros(2), np.cumsum(jd.p[order], axis=0)])
    cost = np.full((m + 1, m + 1), np.inf)
    for i in range(m):
        cost[i, i + 1:] = f.weighted(prefix[i + 1:] - prefix[i])
    return cost


def two_class_optimum(jd, k, f):
    """The least impurity of an N = 2 joint over partitions into at most k
    labels, exactly, at any M.

    Some optimal partition is contiguous in p(x0 | y) (Burshtein, Della
    Pietra, Kanevsky & Nadas 1992; Kurkoski & Yagi 2014), so a dynamic
    program over the run table of _run_costs splits the sorted points into
    at most k runs: O(M^2) evaluations of f, O(M^2) memory and O(M^2 k)
    time.
    """
    cost = _run_costs(jd, f)
    # best[j]: the least impurity of the first j sorted points in the runs
    # so far
    best = cost[0].copy()
    best[0] = 0.0
    for _ in range(k - 1):
        best = np.minimum(best, (best[:, None] + cost).min(axis=0))
    return float(best[-1])


def sparse_rows(rng, m, n, density=0.3):
    """m x n nonnegative rows with many exact zeros, normalized to sum to 1."""
    raw = rng.random((m, n)) * (rng.random((m, n)) < density)
    raw[np.arange(m), rng.integers(0, n, size=m)] += rng.random(m) + 0.01
    return raw / raw.sum(axis=1, keepdims=True)


def mutual_information_uniform(channel) -> float:
    """I(X;Z) in bits for a column-stochastic channel under uniform input."""
    a = np.asarray(channel, dtype=float)
    n = a.shape[1]
    joint = a / n
    pz = joint.sum(axis=1)
    px = joint.sum(axis=0)
    total = 0.0
    for k in range(a.shape[0]):
        for i in range(n):
            if joint[k, i] > 0.0:
                total += joint[k, i] * math.log2(joint[k, i] / (pz[k] * px[i]))
    return total


def all_assignment_e_values(p, k):
    """(assignments, e) over every k**m labeling, lexicographic order."""
    m = p.shape[0]
    pows = k ** np.arange(m - 1, -1, -1, dtype=np.int64)
    idx = np.arange(k ** m, dtype=np.int64)
    digits = (idx[:, None] // pows[None, :]) % k
    e = np.zeros(idx.size)
    for label in range(k):
        e += ((digits == label).astype(float) @ p).max(axis=1)
    return digits, e


def all_assignment_impurities(jd, k, f):
    """The impurity of every k**m labeling of jd, lexicographic order."""
    digits, _ = all_assignment_e_values(jd.p, k)
    return sum(f.weighted((digits == label).astype(float) @ jd.p)
               for label in range(k))


def leq(a, b, rel=1e-12,_abs=1e-15) -> bool:
    """a <= b up to the test-wide relative impurity tolerance."""
    return a <= b + rel * max(1.0, abs(a), abs(b)) + _abs
