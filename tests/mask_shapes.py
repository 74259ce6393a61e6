"""Time the k < N mask searches on a grid of flat random shapes.

    python tests/mask_shapes.py SRC [--seed S] [--repeat R]

SRC is the `src` directory of the checkout to time, so the same script
times two trees (a parent and a change, say) for a side-by-side reading.
Each shape is M x N uniform random counts, N from 4 to 20 and M from 20 to
200,000, at every k from 1 to N - 1 whose scan work C(N, k) (M + 2048) is
at most WORK, an eighth of MASK_BUDGET, so that no shape's scan takes
more than about a second. Per shape it times, best of R runs:

- table: the coverage table for k, its candidates, then the walk over
  them;
- scan: the walk over every mask;
- pick: _best_mask, which runs one of the two, on a joint with no table
  kept from an earlier call.

It prints each search's total, the total of the faster search on every
shape, the worst ratio of the pick to the faster search, whether all
three returned the same mask on every shape, and a digest of the picked
masks, which two trees that agree share.

The sweep pass then times max_likelihood_partition (Gini) at every k from
1 to N - 1 that MASK_BUDGET admits, in increasing order on one joint per
shape, as `impuritypart --algorithm ml --k 1:<N-1>` calls it, best of R
runs on a fresh joint each. It prints the total over the grid, the
slowest shape, and a digest of the masks and e_max_achieved bits, which
two trees that agree share. The named shapes after it are the all-tie
inputs, where every mask is a candidate, and the cap's narrow edge, past
the table's column limit, timed as picks.

The file does not match test_*.py, so pytest does not collect it.
"""

import argparse
import hashlib
import math
import sys
import time

import numpy as np

NS = range(4, 21, 2)
MS = (20, 300, 3000, 30000, 200000)
WORK = 1 << 29


def best_time(fn, repeat):
    """(result, the least wall time in seconds over `repeat` calls)."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of the tree to time")
    parser.add_argument("--seed", type=int, default=25)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from impuritypart import (algorithms, build_joint, gini_spec,
                              max_likelihood_partition)

    walk = algorithms._scan_mask
    # trees before the one walk re-check the candidates in _first_best
    first_best = getattr(algorithms, "_first_best", None)
    # trees with a coverage table kept per joint build it apart from the
    # per-k candidates, and their _best_mask takes the joint
    kept = getattr(algorithms, "_COVER_TABLES", None)

    def table(jd, k):
        p = jd.p
        if kept is None:
            candidates = algorithms._coverage_candidates(p, k)
        else:
            m, n = p.shape
            candidates = algorithms._coverage_candidates(
                *algorithms._coverage_table(p, n - k), m, k)
        if first_best is not None:
            return first_best(p, candidates)
        return walk(p, k, candidates)

    def scan(jd, k):
        return walk(jd.p, k)

    def pick(jd, k):
        if kept is None:
            return algorithms._best_mask(jd.p, k)
        kept.clear()
        return algorithms._best_mask(jd, k)

    totals = dict.fromkeys(("table", "scan", "pick", "faster"), 0.0)
    worst, worst_shape, agree, picks = 0.0, None, True, []
    for n in NS:
        for m in MS:
            jd = build_joint(flat(args.seed, n, m))
            for k in range(1, n):
                if math.comb(n, k) * (m + 2048) > WORK:
                    continue
                masks, times = [], {}
                for name, search in (("table", table), ("scan", scan),
                                     ("pick", pick)):
                    mask, times[name] = best_time(lambda: search(jd, k),
                                                  args.repeat)
                    masks.append(mask)
                    totals[name] += times[name]
                agree &= masks[0] == masks[1] == masks[2]
                picks.append(masks[2])
                faster = min(times["table"], times["scan"])
                totals["faster"] += faster
                ratio = times["pick"] / faster
                if ratio > worst:
                    worst, worst_shape = ratio, (n, m, k)
    print(f"shapes {len(picks)}: table {totals['table']:.3f} s, "
          f"scan {totals['scan']:.3f} s, picks {totals['pick']:.3f} s, "
          f"the faster on each {totals['faster']:.3f} s")
    print(f"worst pick {worst:.2f}x the faster search at "
          f"N, M, k = {worst_shape}")
    print(f"same mask from every search: {agree}")
    print("digest of the picks:",
          hashlib.sha256(repr(picks).encode()).hexdigest()[:16])

    gini = gini_spec()
    sweep(args, algorithms, build_joint,
          lambda jd, k: max_likelihood_partition(jd, k, gini))

    rng = np.random.default_rng(args.seed)
    named = [("identical columns", np.tile(rng.random((3000, 1)), (1, 12)), 6),
             ("identical columns", np.tile(rng.random((20000, 1)), (1, 14)), 7),
             ("narrow cap edge", rng.random((1128, 23)) + 1e-9, 11)]
    for what, counts, k in named:
        jd = build_joint(counts)
        mask, seconds = best_time(lambda: pick(jd, k), args.repeat)
        print(f"{what} {jd.n_rows}x{jd.n_cols}, k = {k}: "
              f"{1e3 * seconds:.1f} ms, mask {mask}")


def flat(seed, n, m):
    """The grid's M x N flat random counts for one shape."""
    return np.random.default_rng((seed, n, m)).random((m, n)) + 1e-9


def sweep(args, algorithms, build_joint, likelihood):
    """Time `likelihood` at every admitted k < N of each grid shape, in
    increasing order on one fresh joint per run, and print the total, the
    slowest shape and a digest of the masks and e_max_achieved bits."""
    masks = []
    best_mask = algorithms._best_mask

    def recorded(*pair):
        masks.append(best_mask(*pair))
        return masks[-1]

    total, slowest, results = 0.0, (0.0, None), []
    algorithms._best_mask = recorded
    try:
        for n in NS:
            for m in MS:
                counts = flat(args.seed, n, m)
                ks = [k for k in range(1, n)
                      if math.comb(n, k) * (m + 2048) <= algorithms.MASK_BUDGET]
                seconds = math.inf
                for _ in range(args.repeat):
                    masks.clear()
                    jd = build_joint(counts)
                    start = time.perf_counter()
                    e_bits = [likelihood(jd, k).e_max_achieved.hex() for k in ks]
                    seconds = min(seconds, time.perf_counter() - start)
                results.append((n, m, masks[:], e_bits))
                total += seconds
                slowest = max(slowest, (seconds, (n, m)))
    finally:
        algorithms._best_mask = best_mask
    print(f"sweep of every admitted k < N, {len(results)} shapes: "
          f"{total:.3f} s, slowest {slowest[0]:.3f} s at N, M = {slowest[1]}")
    print("digest of the sweep's masks and e bits:",
          hashlib.sha256(repr(results).encode()).hexdigest()[:16])


if __name__ == "__main__":
    main()
