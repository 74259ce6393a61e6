"""Time one tree's mask searches, oracle, refinement, greedy walks or
dense reads on a grid of shapes, or two trees' in alternating runs.

    python tests/shapes.py SRC {mask,oracle,refine,walk,read} [--seed S]
        [--repeat R] [--against SRC2 [--rounds R]]

SRC is the `src` directory of the checkout to time. A time is the best of
R runs, a peak the tracemalloc peak of one more run; each grid prints its
totals as `total ...: X s` lines and helpers.digest of its results' bits,
which two trees that agree share. Its function's docstring says what it
times. Single runs spread widely: eight `mask` runs of one tree read its
picks total 4.85-6.02 s. So a verdict between two trees comes from
--against, which runs the grid on SRC and SRC2 in fresh processes, one
each per round, the first tree first in odd rounds and second in even
ones, and prints each total's value per round, its median and the rounds
each tree won, and whether every run printed the same digests. The file
does not match test_*.py, so pytest does not collect it; tier-1 runs each
grid on one small shape and --against on canned runs (test_tooling).
"""

import argparse
import collections
import itertools
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np

# the mask grid's largest scan, C(N, k) (M + 2048), an eighth of
# MASK_BUDGET, so that no shape's scan takes more than about a second
WORK = 1 << 29
# the mask grid's named shapes, (what, M, N, k): all-tie inputs, where
# every mask is a candidate, and the cap's edge past the table's limit
NAMED = (("identical columns", 3000, 12, 6),
         ("identical columns", 20000, 14, 7),
         ("narrow cap edge", 1128, 23, 11))


def best_time(fn, repeat):
    """(what fn returned, the least wall time in seconds over `repeat`
    calls)."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def timed(fn, repeat):
    """(what fn returned, its best_time, its tracemalloc peak in bytes)."""
    from helpers import peak_bytes

    result, seconds = best_time(fn, repeat)
    return result, seconds, peak_bytes(fn)[0]


def flat(key, m, n):
    """M x N flat random counts from the seed sequence `key`."""
    return np.random.default_rng(key).random((m, n)) + 1e-9


def summary(axes, seconds, peaks, what, results):
    """Print the total of `seconds` (by shape), the slowest shape, the shape
    with the largest of `peaks` and the digest of `results`; return it."""
    from helpers import digest

    slowest, largest = max(seconds, key=seconds.get), max(peaks, key=peaks.get)
    print(f"total of {len(seconds)} shapes: {sum(seconds.values()):.3f} s")
    print(f"slowest {seconds[slowest]:.3f} s at {axes} = {slowest}")
    print(f"largest peak {peaks[largest] / 2 ** 20:.3f} MiB at {axes} = {largest}")
    print(f"digest of the {what}:", digest(results))
    return digest(results)


def mask(seed, repeat, ns=range(4, 21, 2), ms=(20, 300, 3000, 30000, 200000),
         named=NAMED):
    """Flat random M x N shapes, N in ns and M in ms, at every k < N whose
    scan costs at most WORK: the joint's one table and the walk over its
    candidates, the walk over every mask, and _best_mask's pick with no
    table kept, all three timed; then max_likelihood_partition (Gini) at
    every admitted k < N in increasing order, from no kept table, as `ml
    --k 1:<N-1>` runs, and again in decreasing order, from no kept table,
    each order counting the tables it built; last, the `named` shapes'
    picks. Returns (whether the searches and both sweep orders agreed, the
    picks' digest, the increasing sweep's masks' and e bits' digest)."""
    from helpers import digest
    from impuritypart import (algorithms, build_joint, gini_spec,
                              max_likelihood_partition)

    kept, best_mask = algorithms._COVER_TABLES, algorithms._best_mask
    build = algorithms._coverage_table

    def table(jd, k):
        return algorithms._scan_mask(jd.p, k, algorithms._coverage_candidates(
            *build(jd.p), jd.n_rows, k))

    def pick(jd, k):
        kept.clear()
        return algorithms._best_mask(jd, k)

    searches = {"table": table, "scan": lambda jd, k: algorithms._scan_mask(jd.p, k),
                "pick": pick}
    totals = dict.fromkeys(("table", "scan", "pick", "faster"), 0.0)
    worst, agree, picks = (0.0, None), True, []
    for n in ns:
        for m in ms:
            jd = build_joint(flat((seed, n, m), m, n))
            for k in (k for k in range(1, n) if math.comb(n, k) * (m + 2048) <= WORK):
                found = {name: best_time(lambda: search(jd, k), repeat)
                         for name, search in searches.items()}
                for name, (_, seconds) in found.items():
                    totals[name] += seconds
                agree &= found["table"][0] == found["scan"][0] == found["pick"][0]
                picks.append(found["pick"][0])
                faster = min(found["table"][1], found["scan"][1])
                totals["faster"] += faster
                worst = max(worst, (found["pick"][1] / faster, (n, m, k)))
    print(f"{len(picks)} shapes")
    for name, what in (("table", "the table's walks"), ("scan", "the scans"),
                       ("pick", "the picks"), ("faster", "the faster search on each")):
        print(f"total of {what}: {totals[name]:.3f} s")
    print(f"worst pick {worst[0]:.2f}x the faster search at N, M, k = {worst[1]}")
    print(f"same mask from every search: {agree}")
    print("digest of the picks:", digest(picks))

    gini, swept, built, seconds, down, results = gini_spec(), [], [], {}, {}, []
    tables, orders_agree = {"increasing": 0, "decreasing": 0}, True

    def sweep(jd, ks):
        swept.clear()
        built.clear()
        kept.clear()
        return [max_likelihood_partition(jd, k, gini).e_max_achieved.hex()
                for k in ks]

    def recorded(*pair):
        swept.append(best_mask(*pair))
        return swept[-1]

    def counted(p):
        built.append(p.shape)
        return build(p)

    algorithms._best_mask, algorithms._coverage_table = recorded, counted
    try:
        for n in ns:
            for m in ms:
                jd = build_joint(flat((seed, n, m), m, n))
                ks = [k for k in range(1, n)
                      if math.comb(n, k) * (m + 2048) <= algorithms.MASK_BUDGET]
                e_bits, seconds[n, m] = best_time(lambda: sweep(jd, ks), repeat)
                results.append((n, m, swept[:], e_bits))
                tables["increasing"] += len(built)
                e_down, down[n, m] = best_time(lambda: sweep(jd, ks[::-1]), repeat)
                tables["decreasing"] += len(built)
                orders_agree &= (swept[::-1], e_down[::-1]) == (results[-1][2], e_bits)
    finally:
        algorithms._best_mask, algorithms._coverage_table = best_mask, build
    for order, times in (("increasing", seconds), ("decreasing", down)):
        slowest = max(times, key=times.get)
        print(f"total of the sweeps of every admitted k < N in {order} order: "
              f"{sum(times.values()):.3f} s")
        print(f"  {len(times)} shapes, slowest {times[slowest]:.3f} s at N, M = "
              f"{slowest}, {tables[order]} tables built")
    print(f"same masks and e bits in both orders: {orders_agree}")
    print("digest of the sweep's masks and e bits:", digest(results))
    agree &= orders_agree

    rng = np.random.default_rng(seed)
    for what, m, n, k in named:
        jd = build_joint(np.tile(rng.random((m, 1)), (1, n))
                         if what == "identical columns" else rng.random((m, n)) + 1e-9)
        found, took = best_time(lambda: pick(jd, k), repeat)
        print(f"{what} {m}x{n}, k = {k}: {1e3 * took:.1f} ms, mask {found}")
    return agree, digest(picks), digest(results)


def oracle(seed, repeat, ks=range(2, 8), ns=(2, 4, 12, 64, 512), below=2):
    """exhaustive_oracle on flat random M x N shapes at K labels, K in ks,
    M at K's ORACLE_CAP edge (the largest M with K**M <= ORACLE_CAP) and
    the `below` M under it, N in ns where 2**M N is within
    ORACLE_TABLE_CAP, under entropy and Gini; one row per K. Returns the
    digest of the assignments and e_max_achieved bits."""
    from impuritypart import (algorithms, build_joint, entropy_spec,
                              exhaustive_oracle, gini_spec)

    specs = {"entropy": entropy_spec(), "gini": gini_spec()}
    results, seconds, peaks = [], {}, {}
    print(" K  shapes  time (s)  largest peak (MiB)")
    for k in ks:
        edge = max(m for m in range(1, 64) if k ** m <= algorithms.ORACLE_CAP)
        for m in range(edge - below, edge + 1):
            for n in (n for n in ns if (1 << m) * n <= algorithms.ORACLE_TABLE_CAP):
                jd = build_joint(flat((seed, k, m, n), m, n))
                for name, spec in specs.items():
                    shape = (k, m, n, name)
                    res, seconds[shape], peaks[shape] = timed(
                        lambda: exhaustive_oracle(jd, k, spec), repeat)
                    results.append((shape, res.partition.assignment.tolist(),
                                    res.e_max_achieved.hex()))
        row = [shape for shape in seconds if shape[0] == k]
        print(f"{k:2d}  {len(row):6d}  {sum(map(seconds.get, row)):8.3f}  "
              f"{max(map(peaks.get, row), default=0) / 2 ** 20:18.3f}")
    return summary("K, M, N, f", seconds, peaks, "assignments and e bits", results)


def refine(seed, repeat, ms=(2000, 20000, 50000), ns=(2, 20, 64),
           ks=(2, 30, 300, 1000)):
    """Two passes of iterative_refine on M x N skewed counts,
    floor(1000 U**4) + 1 as in the refine workload, M in ms and N in ns,
    from a seeded random labelling with K in ks labels, under entropy and
    Gini; one row per shape. Returns the digest of the assignments and
    trace impurity bits."""
    from impuritypart import (Partition, build_joint, entropy_spec,
                              gini_spec, iterative_refine)

    specs = {"entropy": entropy_spec(), "gini": gini_spec()}
    results, seconds, peaks = [], {}, {}
    print("    M   N     K  f        time (s)  peak (MiB)")
    for m in ms:
        for n in ns:
            rng = np.random.default_rng((seed, m, n))
            jd = build_joint(np.floor(1000 * rng.random((m, n)) ** 4) + 1)
            for k in ks:
                start = Partition(rng.integers(k, size=m), k)
                for name, spec in specs.items():
                    shape = (m, n, k, name)
                    res, seconds[shape], peaks[shape] = timed(
                        lambda: iterative_refine(jd, start, spec, 2), repeat)
                    results.append((shape, res.partition.assignment.tolist(),
                                    [e["impurity"].hex() for e in res.trace]))
                    print(f"{m:5d}  {n:2d}  {k:4d}  {name:7s}  {seconds[shape]:8.3f}"
                          f"  {peaks[shape] / 2 ** 20:10.2f}")
    return summary("M, N, K, f", seconds, peaks,
                   "assignments and trace impurity bits", results)


def walk(seed, repeat, ms=(1000, 10000, 50000), ns=(4, 20, 64)):
    """The greedy walks from the likelihood result at N on M x N skewed
    counts, floor(1000 U**4) + 1 as in the sweep workload, M in ms and N in
    ns, under entropy and Gini: merge_states from N labels down to 2 and
    split_states up to 3N, each walked without keeping its states; one row
    per shape. Returns the digest of every state's statistics bits."""
    from helpers import digest, peak_bytes
    from impuritypart import (build_joint, entropy_spec, gini_spec,
                              max_likelihood_partition)
    from impuritypart.algorithms import merge_states, split_states

    specs = {"entropy": entropy_spec(), "gini": gini_spec()}
    results, seconds, peaks = [], {}, {}

    def bits(state):
        stats = state.stats
        return digest([getattr(stats, name).tobytes() for name in
                       ("pz", "pxz", "px_given_z", "nonempty",
                        "per_partition_impurity")]
                      + [stats.impurity.hex(), stats.e_q.hex()])

    print("    M   N  f        walk   states  time (s)  peak (MiB)")
    for m in ms:
        for n in ns:
            rng = np.random.default_rng((seed, m, n))
            jd = build_joint(np.floor(1000 * rng.random((m, n)) ** 4) + 1)
            for name, spec in specs.items():
                base = max_likelihood_partition(jd, n, spec)
                # the init state, then count - 2 merges or 2N splits
                walks = {"merge": (merge_states, int(base.stats.nonempty.sum()) - 1),
                         "split": (split_states, 2 * n + 1)}
                for what, (states, count) in walks.items():
                    shape = (m, n, name, what)

                    def walked():
                        return itertools.islice(states(jd, base, spec), count)

                    seconds[shape] = best_time(
                        lambda: collections.deque(walked(), maxlen=0), repeat)[1]
                    peaks[shape], kept = peak_bytes(lambda: list(map(bits, walked())))
                    results.append((shape, kept))
                    print(f"{m:5d}  {n:2d}  {name:7s}  {what:5s}  {len(kept):6d}"
                          f"  {seconds[shape]:8.4f}  {peaks[shape] / 2 ** 20:10.2f}")
    return summary("M, N, f, walk", seconds, peaks, "states' statistics bits",
                   results)


def read(seed, repeat, ms=(1000, 10000, 50000), ns=(4, 20, 64)):
    """ingest ("counts") on M x N skewed counts, floor(1000 U**4) written
    with %d as the perfbench workloads write them, M in ms and N in ns;
    one row per shape. Rows that are all zero are dropped, as ingest drops
    them, without its warning. Returns the digest of the joints' bytes,
    taken a column at a time so that no repr of a whole joint is built."""
    from helpers import digest
    from impuritypart import IngestWarning, ingest

    results, seconds, peaks = [], {}, {}
    print("    M   N  time (s)  peak (MiB)")
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
        warnings.simplefilter("ignore", IngestWarning)
        for m in ms:
            for n in ns:
                rng = np.random.default_rng((seed, m, n))
                path = os.path.join(work, f"{m}x{n}.csv")
                np.savetxt(path, np.floor(1000 * rng.random((m, n)) ** 4),
                           fmt="%d", delimiter=",")
                shape = (m, n)
                jd, seconds[shape], peaks[shape] = timed(
                    lambda: ingest(path, "counts"), repeat)
                results.append((shape, [digest(column.tobytes()) for column in jd.p.T]))
                print(f"{m:5d}  {n:2d}  {seconds[shape]:8.4f}  "
                      f"{peaks[shape] / 2 ** 20:10.2f}")
    return summary("M, N", seconds, peaks, "joints' bytes", results)


# grid name -> (function, default seed, default runs per time): single
# runs of the fast walks and reads spread widely, so they keep the best of
# five and three
GRIDS = {"mask": (mask, 25, 1), "oracle": (oracle, 29, 1), "refine": (refine, 30, 1),
         "walk": (walk, 33, 5), "read": (read, 36, 3)}


def against(run, trees, rounds):
    """Call run(tree) for each of the two trees once a round, the first
    tree first in odd rounds and second in even ones, and read the
    `total ...: X s` and `digest of ...: D` lines of what it returns.
    Print each total's value per round for both trees, its medians and the
    rounds each tree won (the lower time), and whether every run printed
    the same digests; return (medians, wins) by total, each a pair in the
    order of `trees`, and that agreement."""
    totals, digests = collections.defaultdict(lambda: ([], [])), set()
    for index in range(rounds):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for which in order:
            out = run(trees[which])
            for what, seconds in re.findall(r"^total (.+): ([0-9.]+) s$", out, re.M):
                totals[what][which].append(float(seconds))
            digests.add(tuple(re.findall(r"^digest of .+: ([0-9a-f]{16})$", out, re.M)))
    print(f"A = {trees[0]}\nB = {trees[1]}")
    medians, wins = {}, {}
    for what, (first, second) in totals.items():
        medians[what] = (statistics.median(first), statistics.median(second))
        won = sum(a < b for a, b in zip(first, second))
        wins[what] = (won, sum(b < a for a, b in zip(first, second)))
        print(f"total {what} (s), A / B by round:")
        for index, (a, b) in enumerate(zip(first, second), start=1):
            print(f"  {index:3d}  {a:9.3f}  {b:9.3f}")
        print(f"  median {medians[what][0]:.3f} / {medians[what][1]:.3f}, "
              f"rounds won {wins[what][0]} / {wins[what][1]}")
    agree = len(digests) == 1
    print(f"same digests in every run: {agree}", *sorted(digests))
    return medians, wins, agree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of the tree to time")
    parser.add_argument("grid", choices=GRIDS)
    parser.add_argument("--seed", type=int,
                        help="the grid's seed (mask 25, oracle 29, refine 30, "
                             "walk 33, read 36)")
    parser.add_argument("--repeat", type=int,
                        help="runs per time, the best kept (walk 5, read 3, "
                             "the others 1)")
    parser.add_argument("--against", metavar="SRC2",
                        help="a second src directory: time both trees in "
                             "alternating fresh processes")
    parser.add_argument("--rounds", type=int, default=5,
                        help="--against's rounds, each running both trees once")
    args = parser.parse_args(argv)
    grid, seed, repeat = GRIDS[args.grid]
    seed = seed if args.seed is None else args.seed
    repeat = repeat if args.repeat is None else args.repeat
    if args.against:
        def run(src):
            return subprocess.run(
                [sys.executable, __file__, src, args.grid, "--seed", str(seed),
                 "--repeat", str(repeat)],
                check=True, stdout=subprocess.PIPE, text=True).stdout

        against(run, (args.src, args.against), args.rounds)
        return
    sys.path.insert(0, args.src)
    grid(seed, repeat)


if __name__ == "__main__":
    main()
