"""Time iterative refinement on a grid of shapes up to large K.

    python tests/refine_shapes.py SRC [--seed S] [--repeat R]

SRC is the `src` directory of the checkout to time, so the same script
times two trees (a parent and a change, say) for a side-by-side reading.
Each shape is M x N skewed counts, floor(1000 U**4) + 1 as in the refine
workload, with M in {2000, 20000, 50000} and N in {2, 20, 64}, refined for
2 passes from a seeded random labelling with K in {2, 30, 300, 1000}
labels, under entropy and Gini. Per shape it prints the best wall time of
R runs of iterative_refine and the tracemalloc peak of one more run.

It then prints the total time, the slowest shape, the shape with the
largest peak, and a digest of every shape's assignment and trace
impurity bits, which two trees that agree share.

The file does not match test_*.py, so pytest does not collect it.
"""

import argparse
import hashlib
import math
import sys
import time
import tracemalloc

import numpy as np

MS = (2000, 20000, 50000)
NS = (2, 20, 64)
KS = (2, 30, 300, 1000)
PASSES = 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of the tree to time")
    parser.add_argument("--seed", type=int, default=30)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from impuritypart import (Partition, build_joint, entropy_spec,
                              gini_spec, iterative_refine)

    specs = {"entropy": entropy_spec(), "gini": gini_spec()}
    results, total = [], 0.0
    slowest, largest = (0.0, None), (0, None)
    print("    M   N     K  f        time (s)  peak (MiB)")
    for m in MS:
        for n in NS:
            rng = np.random.default_rng((args.seed, m, n))
            jd = build_joint(np.floor(1000 * rng.random((m, n)) ** 4) + 1)
            for k in KS:
                start = Partition(rng.integers(k, size=m), k)
                for name, spec in specs.items():
                    shape = (m, n, k, name)
                    seconds = math.inf
                    for _ in range(args.repeat):
                        begin = time.perf_counter()
                        res = iterative_refine(jd, start, spec, PASSES)
                        seconds = min(seconds, time.perf_counter() - begin)
                    tracemalloc.start()
                    try:
                        iterative_refine(jd, start, spec, PASSES)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    results.append((shape, res.partition.assignment.tolist(),
                                    [e["impurity"].hex() for e in res.trace]))
                    total += seconds
                    slowest = max(slowest, (seconds, shape))
                    largest = max(largest, (peak, shape))
                    print(f"{m:5d}  {n:2d}  {k:4d}  {name:7s}  {seconds:8.3f}"
                          f"  {peak / 2 ** 20:10.2f}")
    print(f"all {len(results)} shapes: {total:.3f} s")
    print(f"slowest {slowest[0]:.3f} s at M, N, K, f = {slowest[1]}")
    print(f"largest peak {largest[0] / 2 ** 20:.2f} MiB at M, N, K, f = "
          f"{largest[1]}")
    print("digest of the assignments and trace impurity bits:",
          hashlib.sha256(repr(results).encode()).hexdigest()[:16])


if __name__ == "__main__":
    main()
