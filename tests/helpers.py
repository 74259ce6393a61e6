"""Shared instance generators and independent reference computations."""

import math

import numpy as np

from impuritypart import (
    JointDistribution,
    Partition,
    build_joint,
    compute_stats,
    max_likelihood_partition,
)
from impuritypart.prob import aggregate


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
    aggregates all points and scores every pair again. The valid k ranges are
    assumed (k > N to split, k < N to merge).
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
            fallback = not bool(move.any())
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
        evaluated = list(zip(rows.tolist(), cols.tolist(), deltas.tolist()))
        assignment = np.where(assignment == j, i, assignment)
        assignment = np.where(assignment > j, assignment - 1, assignment)
        count -= 1
        after = compute_stats(jd, Partition(assignment, count), f)
        trace.append({"event": "merge", "merged": [i, j],
                      "delta": float(deltas[best]), "evaluated": evaluated,
                      "impurity": after.impurity})
    return assignment, compute_stats(jd, Partition(assignment, k), f), trace


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


def leq(a, b, rel=1e-12,_abs=1e-15) -> bool:
    """a <= b up to the test-wide relative impurity tolerance."""
    return a <= b + rel * max(1.0, abs(a), abs(b)) + _abs
