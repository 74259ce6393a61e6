"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass line per
criterion. Exact (zero-tolerance) e-value comparisons use dyadic instances,
whose probabilities are ratios of integers to a power of two; every
likelihood sum is then exact in float64 and equality across code paths is
well defined. The same applies to uniform channels: 1/k sums to exactly 1
only when k is a power of two, so the exact-zero checks use those.
"""

import math
import os
import time

import numpy as np
import pytest

from impuritypart import (
    Partition,
    approximation_ratio,
    boyd_chiang_bound,
    build_joint,
    compute_stats,
    entropy_spec,
    exhaustive_oracle,
    fano_bound,
    gini_spec,
    greedy_merge,
    greedy_split,
    ingest,
    iterative_refine,
    lower_bound,
    max_likelihood_partition,
    n_min,
    s_value,
    upper_bound,
)

from helpers import (
    dyadic_joint,
    leq,
    mutual_information_uniform,
    random_joint,
    random_partition,
)

ENT = entropy_spec()
GINI = gini_spec()


def _passed(name, t0):
    print(f"\nACCEPTANCE PASS  {name}  ({time.perf_counter() - t0:.2f}s)")


@pytest.fixture(scope="module")
def ml_vs_oracle_cases():
    """200 dyadic instances with the likelihood algorithm and the oracle.

    N in 2..4, K in {N, N+1}, M capped so K**M stays under the oracle limit.
    The Gini oracle runs on the first 100 (the minimizer depends on f, the
    likelihood partition does not).
    """
    rng = np.random.default_rng(777)
    cases = []
    for index in range(200):
        n = int(rng.integers(2, 5))
        k = n + int(rng.integers(0, 2))
        m_cap = min(10, int(math.log(2_000_000) / math.log(k)))
        m = int(rng.integers(3, m_cap + 1))
        jd = dyadic_joint(rng, m, n)
        case = {
            "jd": jd, "n": n, "k": k,
            "alg_ent": max_likelihood_partition(jd, k, ENT),
            "orc_ent": exhaustive_oracle(jd, k, ENT),
        }
        if index < 100:
            case["alg_gini"] = max_likelihood_partition(jd, k, GINI)
            case["orc_gini"] = exhaustive_oracle(jd, k, GINI)
        cases.append(case)
    return cases


def test_n_min_table():
    t0 = time.perf_counter()
    assert abs(n_min(0.5) - 2.42) <= 0.01
    assert abs(n_min(0.8) - 3.58) <= 0.01
    assert abs(n_min(0.9) - 4.34) <= 0.01
    assert abs(n_min(0.999) - 9.06) <= 0.01
    _passed("n_min threshold table", t0)


def test_fano_identity_with_upper_bound():
    t0 = time.perf_counter()
    points = 0
    for n in range(2, 11):
        for e in np.linspace(1.0 / n, 1.0, 112):
            assert abs(fano_bound(e, n) - upper_bound(e, n, ENT)) <= 1e-12
            points += 1
    assert points >= 1000
    _passed("error-probability form equals the entropy upper bound", t0)


def test_bound_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(500):
        m = int(rng.integers(3, 13))
        n = int(rng.integers(2, 7))
        jd = random_joint(rng, m, n)
        for _ in range(50):
            k = int(rng.integers(1, min(m, 8) + 1))
            part = random_partition(rng, m, k)
            for spec in (ENT, GINI):
                stats = compute_stats(jd, part, spec)
                assert lower_bound(stats.e_q, spec) <= stats.impurity + 1e-9
                assert stats.impurity <= upper_bound(stats.e_q, n, spec) + 1e-9
    _passed("bound sandwich on 500 random instances x 50 partitions", t0)


def test_tightness_at_both_ends():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    # uniform instances: any partition sits at e = 1/N with tight bounds
    for m, n in ((3, 2), (4, 3), (6, 4), (8, 2), (5, 5)):
        jd = build_joint(np.ones((m, n)))
        parts = [Partition(np.zeros(m, dtype=int), 1),
                 Partition(np.arange(m) % min(m, 3), min(m, 3)),
                 random_partition(rng, m, 2)]
        for part in parts:
            for spec in (ENT, GINI):
                stats = compute_stats(jd, part, spec)
                target = n * spec.f(1.0 / n)
                assert abs(stats.impurity - target) <= 1e-12
                assert abs(upper_bound(stats.e_q, n, spec) - target) <= 1e-12
                assert abs(lower_bound(stats.e_q, spec) - target) <= 1e-12
    # noiseless instances: the class partition sits at e = 1 with zero bounds
    for m, n in ((2, 2), (4, 2), (6, 3), (8, 4)):
        rows = np.zeros((m, n))
        rows[np.arange(m), np.arange(m) % n] = 1.0
        jd = build_joint(rows)
        part = Partition(np.arange(m) % n, n)
        for spec in (ENT, GINI):
            stats = compute_stats(jd, part, spec)
            assert abs(stats.impurity) <= 1e-12
            assert abs(upper_bound(stats.e_q, n, spec)) <= 1e-12
            assert abs(lower_bound(stats.e_q, spec)) <= 1e-12
    _passed("bounds tight on uniform and noiseless instances", t0)


def test_e_max_dominance(ml_vs_oracle_cases):
    t0 = time.perf_counter()
    for case in ml_vs_oracle_cases:
        assert case["alg_ent"].e_max_achieved == case["orc_ent"].e_max_achieved
    # below-N coverage: the best class mask reaches the exhaustive maximum
    rng = np.random.default_rng(103)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, n))
        m = int(rng.integers(3, 9))
        jd = dyadic_joint(rng, m, n)
        alg = max_likelihood_partition(jd, k, ENT)
        orc = exhaustive_oracle(jd, k, ENT)
        assert alg.e_max_achieved == orc.e_max_achieved
    _passed("likelihood e equals the exhaustive maximum e, exactly", t0)


def test_approximation_guarantees(ml_vs_oracle_cases):
    t0 = time.perf_counter()
    checked = 0
    for case in ml_vs_oracle_cases:
        n = case["n"]
        pairs = [(case["alg_ent"], case["orc_ent"], ENT)]
        if "orc_gini" in case:
            pairs.append((case["alg_gini"], case["orc_gini"], GINI))
        for alg, orc, spec in pairs:
            optimum = orc.stats.impurity
            if optimum <= 1e-12:
                continue
            checked += 1
            ratio = approximation_ratio(alg.e_max_achieved, n, spec)
            assert alg.stats.impurity <= ratio * optimum + 1e-9
            if spec.kind == "gini":
                assert alg.stats.impurity <= 2.0 * optimum + 1e-9
    assert checked >= 150
    _passed("certified ratio holds against the oracle (zero violations)", t0)


def test_entropy_ratio_below_log2_squared():
    t0 = time.perf_counter()
    for e in np.arange(0.10, 0.991, 0.01):
        threshold = n_min(e)
        for n in range(2, 65):
            if n < threshold or e < 1.0 / n:  # e below 1/n is infeasible
                continue
            assert approximation_ratio(e, n, ENT) < math.log2(n) ** 2
    _passed("entropy ratio < log2(N)^2 whenever N >= n_min", t0)


def test_monotonicity_suite():
    t0 = time.perf_counter()
    for spec in (ENT, GINI):
        for n in (2, 3, 10, 64):
            grid = np.arange(1.0 / n, 1.0 + 1e-12, 1e-3)
            u = np.array([upper_bound(e, n, spec) for e in grid])
            l = np.array([lower_bound(e, spec) for e in grid])
            assert (np.diff(u) <= 1e-12).all()
            assert (np.diff(l) <= 1e-12).all()
    s = np.array([s_value(e) for e in np.arange(0.001, 1.0, 0.001)])
    assert (np.diff(s) >= -1e-12).all()
    _passed("u and l non-increasing, S non-decreasing on 1e-3 grids", t0)


def test_split_and_merge_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        k = n + int(rng.integers(1, 6))
        m = int(rng.integers(k, k + 9))
        spec = ENT if rng.integers(2) else GINI
        jd = random_joint(rng, m, n)
        res = greedy_split(jd, k, spec)
        imps = [event["impurity"] for event in res.trace]
        assert all(leq(b, a) for a, b in zip(imps, imps[1:]))
        base = max_likelihood_partition(jd, k, spec)
        assert leq(res.stats.impurity, base.stats.impurity)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        m = int(rng.integers(6, 15))
        spec = ENT if rng.integers(2) else GINI
        jd = random_joint(rng, m, n)
        res = greedy_merge(jd, k, spec)
        for event in res.trace[1:]:
            losses = event["losses"]
            assert (losses[np.triu_indices(losses.shape[0], 1)] >= -1e-12).all()
    _passed("split trace monotone and merge losses nonnegative", t0)


def test_iterative_refinement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(100):
        m = int(rng.integers(4, 14))
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 6))
        spec = ENT if rng.integers(2) else GINI
        jd = random_joint(rng, m, n)
        start = random_partition(rng, m, k)
        before = compute_stats(jd, start, spec).impurity
        res = iterative_refine(jd, start, spec, max_iters=100)
        imps = [event["impurity"] for event in res.trace]
        assert len(imps) - 1 <= 100
        assert all(leq(b, a) for a, b in zip(imps, imps[1:]))
        assert leq(res.stats.impurity, before)
    _passed("refinement monotone, terminating, never worse than its start", t0)


def test_boyd_chiang_dominates_mutual_information():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        channel = rng.dirichlet(np.ones(k), size=n).T
        assert boyd_chiang_bound(channel) >= \
            mutual_information_uniform(channel) - 1e-9
    for k in (2, 3, 4, 8, 16):
        assert boyd_chiang_bound(np.eye(k)) == math.log2(k)
    for k in (2, 4, 8, 16, 32):
        assert boyd_chiang_bound(np.full((k, 5), 1.0 / k)) == 0.0
    _passed("capacity bound dominates mutual information on 200 channels", t0)


@pytest.mark.parametrize("name,expected", [("20NEWS", 0.2420), ("RCV1", 0.2185)])
def test_full_dataset_e_max(name, expected):
    """Conditional: runs only against a user-supplied normalized dataset.

    Point IMPURITYPART_<NAME> at the joint-distribution file (and optionally
    IMPURITYPART_<NAME>_FORMAT at its format, default dense_csv).
    """
    path = os.environ.get(f"IMPURITYPART_{name}")
    if not path:
        pytest.skip(f"set IMPURITYPART_{name} to run the {name} reproduction")
    t0 = time.perf_counter()
    fmt = os.environ.get(f"IMPURITYPART_{name}_FORMAT", "dense_csv")
    jd = ingest(path, fmt)
    res = max_likelihood_partition(jd, jd.n_cols, ENT)
    assert abs(res.e_max_achieved - expected) <= 1e-3
    _passed(f"{name} maximal likelihood sum reproduces {expected}", t0)
