"""Time the k < N mask searches on a grid of flat random shapes.

    python tests/mask_shapes.py SRC [--seed S] [--repeat R]

SRC is the `src` directory of the checkout to time, so the same script
times two trees (a parent and a change, say) for a side-by-side reading.
Each shape is M x N uniform random counts, N from 4 to 20 and M from 20 to
200,000, at every k from 1 to N - 1 whose scan work C(N, k) (M + 2048) is
at most WORK, an eighth of MASK_BUDGET, so that no shape's scan takes
more than about a second. Per shape it times, best of R runs:

- table: _coverage_candidates, then the walk over its candidates;
- scan: the walk over every mask;
- pick: _best_mask, which runs one of the two.

It prints each search's total, the total of the faster search on every
shape, the worst ratio of the pick to the faster search, whether all three returned the same mask on every shape, and a
digest of the picked masks, which two trees that agree share. The named
shapes after the grid are the all-tie inputs, where every mask is a
candidate, and the cap's narrow edge, past the table's column limit.

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
    from impuritypart import algorithms, build_joint

    walk = algorithms._scan_mask
    # trees before the one walk re-check the candidates in _first_best
    first_best = getattr(algorithms, "_first_best", None)

    def table(p, k):
        candidates = algorithms._coverage_candidates(p, k)
        if first_best is not None:
            return first_best(p, candidates)
        return walk(p, k, candidates)

    totals = dict.fromkeys(("table", "scan", "pick", "faster"), 0.0)
    worst, worst_shape, agree, picks = 0.0, None, True, []
    for n in NS:
        for m in MS:
            rng = np.random.default_rng((args.seed, n, m))
            p = build_joint(rng.random((m, n)) + 1e-9).p
            for k in range(1, n):
                if math.comb(n, k) * (m + 2048) > WORK:
                    continue
                masks, times = [], {}
                for name, search in (("table", table), ("scan", walk),
                                     ("pick", algorithms._best_mask)):
                    mask, times[name] = best_time(lambda: search(p, k),
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

    rng = np.random.default_rng(args.seed)
    named = [("identical columns", np.tile(rng.random((3000, 1)), (1, 12)), 6),
             ("identical columns", np.tile(rng.random((20000, 1)), (1, 14)), 7),
             ("narrow cap edge", rng.random((1128, 23)) + 1e-9, 11)]
    for what, counts, k in named:
        p = build_joint(counts).p
        mask, seconds = best_time(lambda: algorithms._best_mask(p, k),
                                  args.repeat)
        print(f"{what} {p.shape[0]}x{p.shape[1]}, k = {k}: "
              f"{1e3 * seconds:.1f} ms, mask {mask}")


if __name__ == "__main__":
    main()
