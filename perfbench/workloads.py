"""Workload definitions and the seeded input generators behind them.

Each workload is a closed loop with one client: an op is the workload's
`impuritypart.cli.run` invocation(s), and the next op starts only when the
previous one has finished. Inputs are made from the workload seed alone and
written as files; the program sees nothing else.

Why each workload is here (the end-to-end metric each layer should move):

- sweep: the paper's main use, tracing the impurity-k curve. `--k 2:60` on
  N=20 classes runs greedy_merge 18 times, the likelihood step once and
  greedy_split 40 times, each from scratch, so split, merge and the
  compute_stats aggregation dominate. Refinement, mask search and the oracle
  are bypassed.
- refine: one k with `--refine` on a large M. The M x K x N divergence tensor
  of iterative_refine dominates time and memory, ingestion is the next cost,
  and compute_stats runs only a few times. Merge, mask search and the oracle
  are bypassed.
- certify: the exact-search layers under Gini. The k < N likelihood search
  scans every class mask and the oracle enumerates every assignment, so
  aggregation runs thousands of times on small inputs and per-call overhead
  matters, not memory bandwidth. Split, merge and refinement are bypassed.
"""

import numpy as np

# Counts are written with a power-of-two total of 2**DYADIC_BITS, so every
# probability is a multiple of 2**-DYADIC_BITS and every sum of them is exact:
# the e values of the oracle and of the likelihood search compare bitwise.
DYADIC_BITS = 16


def skewed_counts(rng, m, n):
    """Counts floor(1000 * U**4): most mass sits on a few classes per row."""
    return np.floor(1000.0 * rng.random((m, n)) ** 4).astype(np.int64)


def dyadic_counts(rng, m, n):
    """Positive integer counts whose total is exactly 2**DYADIC_BITS.

    Weights are uniform rather than skewed: the optimum of 13 points varies
    little from seed to seed, so the impurity metric stays steady.
    """
    total = 1 << DYADIC_BITS
    weights = rng.random((m, n))
    counts = 1 + np.floor(weights / weights.sum() * (total - m * n)).astype(np.int64)
    counts.flat[int(np.argmax(counts))] += total - int(counts.sum())
    return counts


# inputs: name -> (generator, M, N). op and reference list `cli.RunConfig`
# keyword arguments with "input" naming one of the inputs; the reference runs
# once per run, outside the timed region, to check the op's output against.
WORKLOADS = {
    "sweep": {
        "why": "10k x 20 skewed counts from the seed, entropy, auto --k 2:60: "
               "split, merge and compute_stats do the work; refine, mask search "
               "and oracle are bypassed",
        "impurity": "entropy",
        "inputs": {"counts": (skewed_counts, 10_000, 20)},
        "op": [{"input": "counts", "k": [2, 60], "algorithm": "auto"}],
        "reference": [],
    },
    "refine": {
        "why": "50k x 20 skewed counts from the seed, entropy, --k 30 --refine "
               "--max-iters 5: the M x K x N refine tensor dominates time and "
               "memory; merge, masks, oracle bypassed",
        "impurity": "entropy",
        "inputs": {"counts": (skewed_counts, 50_000, 20)},
        "op": [{"input": "counts", "k": [30, 30], "algorithm": "auto",
                "refine": True, "max_iters": 5}],
        "reference": [{"input": "counts", "k": [30, 30], "algorithm": "auto"}],
    },
    "certify": {
        "why": "gini; ml --k 5:7 on 5k x 12 counts (2508 masks) and oracle --k 3 "
               "on 13 x 4 dyadic counts, both from the seed: exact search on small "
               "inputs; split, merge, refine bypassed",
        "impurity": "gini",
        "inputs": {"counts": (skewed_counts, 5_000, 12),
                   "dyadic": (dyadic_counts, 13, 4)},
        "op": [{"input": "counts", "k": [5, 7], "algorithm": "ml"},
               {"input": "dyadic", "k": [3, 3], "algorithm": "oracle"}],
        "reference": [{"input": "dyadic", "k": [3, 3], "algorithm": "ml"}],
    },
}


def write_inputs(workload, seed, directory):
    """Generate the workload's inputs from `seed`; return name -> path."""
    paths = {}
    for index, (name, (generator, m, n)) in enumerate(
            sorted(WORKLOADS[workload]["inputs"].items())):
        rng = np.random.default_rng([seed, index])
        path = directory / f"{name}.csv"
        np.savetxt(path, generator(rng, m, n), fmt="%d", delimiter=",")
        paths[name] = str(path)
    return paths
