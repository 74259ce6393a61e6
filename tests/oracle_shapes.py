"""Time the exhaustive oracle on a grid of shapes at its work caps.

    python tests/oracle_shapes.py SRC [--seed S] [--repeat R] [--budget B]

SRC is the `src` directory of the checkout to time, so the same script
times two trees (a parent and a change, say) for a side-by-side reading.
Each shape is M x N uniform random counts at K labels, K from 2 to 7, M at
each K's ORACLE_CAP edge (the largest M with K**M <= ORACLE_CAP) and the
two below it, and N in {2, 4, 12, 64, 512} where 2**M N is within
ORACLE_TABLE_CAP, under entropy and Gini. Per shape it records the best
wall time of R runs of exhaustive_oracle and the tracemalloc peak of one
more run.

It prints one row per K (shapes, total time, largest peak), the total, the
slowest shape and the shape with the largest peak, and a digest of every
shape's assignment and e_max_achieved bits, which two trees that agree
share. --budget sets algorithms._BLOCK_BYTES, the working-set budget of
the oracle's blocks, for trees that have it.

The file does not match test_*.py, so pytest does not collect it.
"""

import argparse
import hashlib
import math
import sys
import time
import tracemalloc

import numpy as np

KS = range(2, 8)
NS = (2, 4, 12, 64, 512)
BELOW_EDGE = 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of the tree to time")
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--budget", type=int, default=None,
                        help="algorithms._BLOCK_BYTES, in bytes")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from impuritypart import (algorithms, build_joint, entropy_spec,
                              exhaustive_oracle, gini_spec)

    if args.budget is not None:
        if not hasattr(algorithms, "_BLOCK_BYTES"):
            parser.error("this tree has no _BLOCK_BYTES")
        algorithms._BLOCK_BYTES = args.budget
    specs = {"entropy": entropy_spec(), "gini": gini_spec()}
    results, total = [], 0.0
    slowest, largest = (0.0, None), (0, None)
    print(" K  shapes  time (s)  largest peak (MiB)")
    for k in KS:
        edge = max(m for m in range(1, 64) if k ** m <= algorithms.ORACLE_CAP)
        shapes, seconds_k, peak_k = 0, 0.0, 0
        for m in range(edge - BELOW_EDGE, edge + 1):
            for n in NS:
                if (1 << m) * n > algorithms.ORACLE_TABLE_CAP:
                    continue
                jd = build_joint(flat(args.seed, k, m, n))
                for name, spec in specs.items():
                    shape = (k, m, n, name)
                    seconds = math.inf
                    for _ in range(args.repeat):
                        start = time.perf_counter()
                        res = exhaustive_oracle(jd, k, spec)
                        seconds = min(seconds, time.perf_counter() - start)
                    tracemalloc.start()
                    try:
                        exhaustive_oracle(jd, k, spec)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    results.append((shape, res.partition.assignment.tolist(),
                                    res.e_max_achieved.hex()))
                    shapes += 1
                    seconds_k += seconds
                    peak_k = max(peak_k, peak)
                    slowest = max(slowest, (seconds, shape))
                    largest = max(largest, (peak, shape))
        total += seconds_k
        print(f"{k:2d}  {shapes:6d}  {seconds_k:8.3f}  {peak_k / 2 ** 20:18.3f}")
    print(f"all {len(results)} shapes: {total:.3f} s")
    print(f"slowest {slowest[0]:.3f} s at K, M, N, f = {slowest[1]}")
    print(f"largest peak {largest[0] / 2 ** 20:.3f} MiB at K, M, N, f = "
          f"{largest[1]}")
    print("digest of the assignments and e bits:",
          hashlib.sha256(repr(results).encode()).hexdigest()[:16])


def flat(seed, k, m, n):
    """The grid's M x N flat random counts for one shape."""
    return np.random.default_rng((seed, k, m, n)).random((m, n)) + 1e-9


if __name__ == "__main__":
    main()
