"""Property tests over generated instances, beside the seeded tests.

Hypothesis draws small count matrices, with zeros and tied entries, and
partitions of them. The runs are derandomized and keep no example database,
so every run of the same source checks the same examples. (Hypothesis still
caches the constants of local source files under .hypothesis/.)
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from impuritypart import (
    Partition,
    build_joint,
    compute_stats,
    entropy_spec,
    exhaustive_oracle,
    gini_spec,
    greedy_merge,
    greedy_split,
    iterative_refine,
    lower_bound,
    max_likelihood_partition,
    upper_bound,
)
from impuritypart import algorithms
from impuritypart.algorithms import split_states

from helpers import (best_mask_reference, coverage_candidates, leq, stats_reference,
                     trace_impurities)

SPECS = st.sampled_from([entropy_spec(), gini_spec()])
PROPERTY = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None)


@st.composite
def joints(draw, max_m=8, max_n=5):
    """A joint distribution from m x n counts in [0, 16], every row nonzero."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(2, max_n))
    cells = st.lists(st.integers(0, 16), min_size=m * n, max_size=m * n)
    counts = np.array(draw(cells), dtype=float).reshape(m, n)
    heavy = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    counts[np.arange(m), heavy] += 1.0
    return build_joint(counts)


@st.composite
def tiled_joints(draw):
    """A joint from joints() with its rows stacked 1 to 3 times: replicated
    rows put every member of a group on the same side of a split threshold."""
    jd = draw(joints(max_m=5))
    return build_joint(np.tile(jd.p, (draw(st.integers(1, 3)), 1)))


@st.composite
def tied_joints(draw):
    """A tie-heavy joint with up to 14 classes: counts in [0, 3], some
    columns copies of others or all zero, some rows one-hot, and a last
    one-hot row that pads the total to a power of two, so every mass and
    every sum of them is exact and equal coverages tie exactly."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(2, 14))
    cells = st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n)
    counts = np.array(draw(cells), dtype=float).reshape(m, n)
    column = st.integers(0, n - 1)
    for row in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        counts[row, np.arange(n) != draw(column)] = 0.0
    for source, copy in draw(st.lists(st.tuples(column, column), max_size=4)):
        counts[:, copy] = counts[:, source]
    counts[:, draw(st.lists(column, max_size=n - 1))] = 0.0
    counts[counts.sum(axis=1) == 0.0, draw(column)] = 1.0
    total = counts.sum()
    pad = np.zeros((1, n))
    pad[0, draw(column)] = 2.0 ** int(np.ceil(np.log2(total))) - total
    return build_joint(np.vstack([counts, pad]) if pad.any() else counts)


def sandwiched(jd, stats, f):
    return (leq(lower_bound(stats.e_q, f), stats.impurity)
            and leq(stats.impurity, upper_bound(stats.e_q, jd.n_cols, f)))


@PROPERTY
@given(jd=joints(), spec=SPECS, data=st.data())
def test_compute_stats_matches_reference(jd, spec, data):
    k = data.draw(st.integers(1, 6), label="k")
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=jd.n_rows,
                                max_size=jd.n_rows), label="assignment")
    assignment = np.array(labels)
    stats = compute_stats(jd, Partition(assignment, k), spec)
    impurity, e = stats_reference(jd.p, assignment, k, spec.f)
    assert abs(stats.impurity - impurity) <= 1e-12
    assert abs(stats.e_q - e) <= 1e-12
    assert stats.n_nonempty == len(set(labels))


@PROPERTY
@given(jd=joints(), spec=SPECS, k=st.integers(1, 4))
def test_likelihood_reaches_the_oracle_e_max(jd, spec, k):
    likelihood = max_likelihood_partition(jd, k, spec)
    oracle = exhaustive_oracle(jd, k, spec)
    assert abs(likelihood.e_max_achieved - oracle.e_max_achieved) <= 1e-15
    assert leq(oracle.stats.impurity, likelihood.stats.impurity)


@PROPERTY
@given(jd=joints(), spec=SPECS, k=st.integers(1, 4), extra=st.integers(1, 4))
def test_every_partition_is_sandwiched_by_the_bounds(jd, spec, k, extra):
    n = jd.n_cols
    likelihood = max_likelihood_partition(jd, k, spec)
    results = [likelihood, exhaustive_oracle(jd, k, spec),
               greedy_split(jd, n + extra, spec),
               iterative_refine(jd, likelihood.partition, spec)]
    if k < n:
        results.append(greedy_merge(jd, k, spec))
    for result in results:
        assert sandwiched(jd, result.stats, spec)


@PROPERTY
@given(jd=joints(), spec=SPECS, k=st.integers(1, 4), extra=st.integers(1, 4))
def test_traces_are_monotone(jd, spec, k, extra):
    # splits and refinement passes never raise the impurity; by concavity
    # a merge never lowers it
    n = jd.n_cols
    start = max_likelihood_partition(jd, k, spec).partition
    for result in (greedy_split(jd, n + extra, spec),
                   iterative_refine(jd, start, spec)):
        imps = trace_impurities(result)
        assert all(leq(b, a) for a, b in zip(imps, imps[1:]))
    if k < n:
        imps = trace_impurities(greedy_merge(jd, k, spec))
        assert all(leq(a, b) for a, b in zip(imps, imps[1:]))


@PROPERTY
@given(jd=st.one_of(joints(), tiled_joints()), spec=SPECS)
def test_every_split_round_adds_a_nonempty_label(jd, spec):
    m = jd.n_rows
    base = max_likelihood_partition(jd, jd.n_cols, spec)
    states = list(itertools.islice(split_states(jd, base, spec), m + 2))
    assert len(states) <= m + 1
    assert states[-1].event["event"] == "stop"
    nonempty = [int(np.count_nonzero(np.bincount(state.assignment)))
                for state in states]
    # each split adds one nonempty label; the stop, once every point is
    # alone, repeats the last partition
    assert nonempty[:-1] == list(range(nonempty[0], nonempty[0] + len(states) - 1))
    assert nonempty[-1] == nonempty[-2] == m


@settings(PROPERTY, max_examples=40)
@given(jd=tied_joints())
def test_both_mask_searches_equal_the_reference_on_ties(jd):
    p = jd.p
    for k in range(1, jd.n_cols):
        expected, _ = best_mask_reference(p, k)
        assert algorithms._scan_mask(p, k) == expected
        assert algorithms._scan_mask(p, k, coverage_candidates(p, k)) == expected
