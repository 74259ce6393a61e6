"""Partitioning algorithms against oracles and structural properties."""

import gc
import itertools
import math
import re
import warnings
import weakref
from dataclasses import fields

import numpy as np
import pytest

from impuritypart import (
    MASK_BUDGET,
    ORACLE_CAP,
    DimensionMismatch,
    ImpuritySpec,
    InstanceTooLarge,
    KNotGreaterThanN,
    KNotLessThanN,
    KTooSmall,
    Partition,
    approximation_ratio,
    build_joint,
    compute_stats,
    entropy_spec,
    exhaustive_oracle,
    gini_spec,
    greedy_merge,
    greedy_split,
    ingest,
    iterative_refine,
    max_likelihood_partition,
)
from impuritypart import algorithms
from impuritypart.algorithms import (ORACLE_TABLE_CAP, _centroid_terms, _divergences,
                                     merge_states, split_states)

from helpers import (
    Admitted,
    admit,
    all_assignment_e_values,
    all_assignment_impurities,
    best_mask_reference,
    coverage_candidates,
    divergence_reference,
    dyadic_joint,
    first_best_reference,
    greedy_reference,
    leq,
    likelihood_e_reference,
    likelihood_reference,
    oracle_reference,
    peak_bytes,
    random_joint,
    random_partition,
    refine_reference,
    sparse_rows,
    trace_impurities,
    two_class_optimum,
)

ENT = entropy_spec()
GINI = gini_spec()
SQRT = ImpuritySpec(lambda x: math.sqrt(x) - x)


def comparable(trace):
    """The trace with every array replaced by its dtype, shape and bytes."""
    return [{key: (value.dtype.str, value.shape, value.tobytes())
             if isinstance(value, np.ndarray) else value
             for key, value in event.items()} for event in trace]


class TestMaxLikelihoodPartition:
    def test_noiseless_instance(self):
        jd = build_joint(np.eye(3))
        res = max_likelihood_partition(jd, 3, ENT)
        assert res.e_max_achieved == 1.0
        assert res.stats.impurity == 0.0
        np.testing.assert_array_equal(res.partition.assignment, [0, 1, 2])
        assert res.masks_evaluated == 1

    def test_uniform_instance(self):
        jd = build_joint(np.ones((6, 4)))
        res = max_likelihood_partition(jd, 4, ENT)
        assert abs(res.e_max_achieved - 0.25) <= 1e-12
        assert abs(res.stats.impurity - 4 * ENT.f(0.25)) <= 1e-12

    def test_k_above_n_leaves_empties(self):
        rng = np.random.default_rng(41)
        jd = dyadic_joint(rng, 8, 3)
        res = max_likelihood_partition(jd, 7, ENT)
        assert res.partition.k == 7
        assert res.stats.n_nonempty <= 3

    def test_ties_at_n_labels_and_above_match_argmax(self):
        # the running argmax starts from -inf and keeps the first maximum,
        # as np.argmax does: on a duplicated column, on rows whose leading
        # entries are zero, and with a class that is zero in every row
        rng = np.random.default_rng(96)
        for case in range(12):
            m, n = int(rng.integers(5, 60)), int(rng.integers(2, 7))
            raw = rng.integers(0, 3, size=(m, n)).astype(float)
            if case % 3 == 0:
                source = int(rng.integers(n - 1))
                raw[:, n - 1] = raw[:, source]
                empty = raw.sum(axis=1) == 0.0
                raw[empty, source] = raw[empty, n - 1] = 1.0
            elif case % 3 == 1:
                raw[:, :int(rng.integers(1, n))] = 0.0
                raw[raw.sum(axis=1) == 0.0, n - 1] = 1.0
            else:
                zero = int(rng.integers(n))
                raw[:, zero] = 0.0
                raw[raw.sum(axis=1) == 0.0, (zero + 1) % n] = 1.0
            jd = build_joint(raw)
            expected = np.argmax(np.ascontiguousarray(jd.p), axis=1)
            for k in (n, n + 3):
                res = max_likelihood_partition(jd, k, ENT)
                assert res.partition.assignment.tolist() == expected.tolist()
                assert res.e_max_achieved == compute_stats(
                    jd, Partition(expected, k), ENT).e_q

    def test_ties_below_n_match_reference(self):
        # the scan labels only its winner, the first mask whose coverage is
        # strictly the largest: on a duplicated column, on leading all-zero
        # columns, with a class that is zero in every row and on 0-2 counts,
        # its partition and e_max_achieved are the reference's bit for bit
        rng = np.random.default_rng(97)
        for case in range(16):
            m, n = int(rng.integers(5, 60)), int(rng.integers(3, 8))
            raw = rng.integers(0, 3, size=(m, n)).astype(float)
            if case % 4 == 0:
                raw[:, n - 1] = raw[:, int(rng.integers(n - 1))]
            elif case % 4 == 1:
                raw[:, :int(rng.integers(1, n))] = 0.0
            elif case % 4 == 2:
                raw[:, int(rng.integers(n))] = 0.0
            raw[raw.sum(axis=1) == 0.0, n - 1] = 1.0
            jd = build_joint(raw)
            for k in range(1, n):
                for spec in (ENT, GINI):
                    res = max_likelihood_partition(jd, k, spec)
                    assignment, e_max, masks = likelihood_reference(jd, k, spec)
                    assert res.partition.assignment.tolist() == assignment.tolist()
                    assert res.e_max_achieved.hex() == e_max.hex()
                    assert res.masks_evaluated == masks == math.comb(n, k)

    def test_k_below_n_matches_exhaustive_maximum(self):
        rng = np.random.default_rng(42)
        jd = dyadic_joint(rng, 8, 3)
        res = max_likelihood_partition(jd, 2, ENT)
        assert res.masks_evaluated == 3
        # independent enumeration of all 2**8 labelings via compute_stats
        best = max(
            compute_stats(jd, Partition(np.array(a), 2), ENT).e_q
            for a in itertools.product(range(2), repeat=8)
        )
        assert res.e_max_achieved == best

    def test_errors(self, monkeypatch):
        jd = build_joint(np.ones((3, 2)))
        with pytest.raises(KTooSmall):
            max_likelihood_partition(jd, 0, ENT)
        # one point past the work budget: refused before the mask search
        # starts, so a search that raises Admitted is never reached
        m, n, k = 21199, 20, 10
        assert math.comb(n, k) * (m + 2048) > MASK_BUDGET
        wide = random_joint(np.random.default_rng(43), m, n)
        monkeypatch.setattr(algorithms, "_best_mask", admit)
        with pytest.raises(InstanceTooLarge,
                           match=r"C\(20, 10\) masks x \(21199 \+ 2048\) points "
                                 r"exceed budget 4294967296"):
            max_likelihood_partition(wide, k, ENT)

    def test_budget_edge_is_admitted(self, monkeypatch):
        # C(20, 10) * (21198 + 2048) <= 2**32: the mask search starts, and
        # is stopped before it reads the joint; only the admission is under
        # test (the coverage table serves this edge in about 0.05 s, the
        # scan would take several seconds)
        m, n, k = 21198, 20, 10
        assert math.comb(n, k) * (m + 2048) <= MASK_BUDGET
        jd = random_joint(np.random.default_rng(46), m, n)
        monkeypatch.setattr(algorithms, "_best_mask", admit)
        with pytest.raises(Admitted):
            max_likelihood_partition(jd, k, ENT)

    def test_budget_refusal_on_a_huge_mask_count(self):
        # C(15000, 7500) has over 4300 digits, too many to format
        jd = build_joint(np.ones((1, 15000)))
        with pytest.raises(InstanceTooLarge, match=r"C\(15000, 7500\) masks"):
            max_likelihood_partition(jd, 7500, ENT)

    def test_deterministic(self):
        rng = np.random.default_rng(44)
        jd = random_joint(rng, 9, 4)
        a = max_likelihood_partition(jd, 2, GINI)
        b = max_likelihood_partition(jd, 2, GINI)
        np.testing.assert_array_equal(a.partition.assignment,
                                      b.partition.assignment)
        assert a.e_max_achieved == b.e_max_achieved

    def test_single_group(self):
        rng = np.random.default_rng(58)
        jd = dyadic_joint(rng, 6, 3)
        res = max_likelihood_partition(jd, 1, ENT)
        assert res.stats.n_nonempty == 1
        assert res.masks_evaluated == 3
        # one group's e is the heaviest class mass
        assert res.e_max_achieved == compute_stats(
            jd, Partition(np.zeros(6, dtype=int), 1), ENT).e_q


class TestCheckK:
    ENTRIES = (max_likelihood_partition, greedy_split, greedy_merge,
               exhaustive_oracle)

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.__name__)
    def test_k_checked_before_any_work(self, entry):
        # jd and f are None: a check that came after any work would raise
        # AttributeError. A float k used to escape from numpy as a bare
        # TypeError
        for k in (2.0, True, "2"):
            with pytest.raises(ValueError, match=f"^k must be an int, got {re.escape(repr(k))}$"):
                entry(None, k, None)
        for k in (0, -1, np.int64(0)):
            with pytest.raises(KTooSmall, match=f"^k must be >= 1, got {k}$"):
                entry(None, k, None)

    WIDTHS = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.__name__)
    def test_numpy_int_k_passes(self, entry):
        # every width gives the Python int's result, which holds Python ints;
        # N = 3, and the likelihood step is run on both sides of it
        jd = random_joint(np.random.default_rng(78), 6, 3)
        ks = {max_likelihood_partition: (2, 4), greedy_split: (4,)}.get(entry, (2,))
        for k, width in itertools.product(ks, self.WIDTHS):
            expected = entry(jd, k, ENT)
            result = entry(jd, width(k), ENT)
            assert result.partition.assignment.tolist() == expected.partition.assignment.tolist()
            assert result.stats.impurity == expected.stats.impurity
            assert type(result.partition.k) is int and result.partition.k == k
            assert type(result.masks_evaluated) is int
            assert result.masks_evaluated == expected.masks_evaluated

    @pytest.mark.parametrize("entry, shape, k", [
        # the mask scan's arithmetic with k meets n = 130, outside int8
        (max_likelihood_partition, (50, 130), np.int8(2)),
        # ... and differences that wrap in uint8
        (max_likelihood_partition, (50, 130), np.uint8(2)),
        # the merge walk reaches -1, outside uint8
        (greedy_merge, (300, 140), np.uint8(130)),
    ], ids=["ml-int8", "ml-uint8", "merge-uint8"])
    def test_small_numpy_int_k_does_not_wrap(self, entry, shape, k):
        jd = random_joint(np.random.default_rng(80), *shape)
        expected = entry(jd, int(k), GINI)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = entry(jd, k, GINI)
        assert result.partition.assignment.tolist() == expected.partition.assignment.tolist()
        assert result.stats.impurity == expected.stats.impurity


class TestEMaxDominance:
    def test_beats_every_assignment(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            k = n + int(rng.integers(0, 2))
            m = int(rng.integers(3, 8))
            jd = dyadic_joint(rng, m, n)
            res = max_likelihood_partition(jd, k, ENT)
            _, e_all = all_assignment_e_values(jd.p, k)
            assert res.e_max_achieved == e_all.max()

    def test_necessary_structure_at_k_equals_n(self):
        # Any labeling attaining the maximum groups points exactly by their
        # own argmax class, and each group's dominant class is that argmax
        # (checked on instances where every class wins some point uniquely).
        rng = np.random.default_rng(46)
        checked = 0
        while checked < 10:
            n = int(rng.integers(2, 4))
            m = int(rng.integers(4, 8))
            jd = dyadic_joint(rng, m, n)
            row_arg = np.argmax(jd.p, axis=1)
            unique = (jd.p == jd.p[np.arange(m), row_arg][:, None]).sum(axis=1) == 1
            if not unique.all() or len(set(row_arg)) != n:
                continue
            checked += 1
            assignments, e_all = all_assignment_e_values(jd.p, n)
            for a in assignments[e_all == e_all.max()]:
                pxz = np.zeros((n, n))
                np.add.at(pxz, a, jd.p)
                for j in range(m):
                    top = int(np.argmax(pxz[a[j]]))
                    assert top == row_arg[j]
                same_label = a[:, None] == a[None, :]
                same_class = row_arg[:, None] == row_arg[None, :]
                assert (same_label == same_class).all()

    def test_beats_every_assignment_under_heavy_ties(self):
        # replicated rows create many mathematically tied optima (any split
        # of a dominant-class group keeps e unchanged); dyadic arithmetic
        # keeps all of them bitwise equal, so exact equality must survive
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            reps = int(rng.integers(2, 4))
            counts = np.tile(rng.integers(1, 50, size=(3, n)), (reps, 1)).astype(float)
            total = counts.sum()
            target = 2.0 ** np.ceil(np.log2(total))
            counts[0, 0] += target - total
            jd = build_joint(counts)
            for k in (n, n + 1):
                res = max_likelihood_partition(jd, k, ENT)
                _, e_all = all_assignment_e_values(jd.p, k)
                assert res.e_max_achieved == e_all.max()

    def test_extra_labels_do_not_change_the_grouping(self):
        rng = np.random.default_rng(60)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            jd = dyadic_joint(rng, int(rng.integers(3, 12)), n)
            at_n = max_likelihood_partition(jd, n, ENT)
            above = max_likelihood_partition(jd, n + 3, ENT)
            np.testing.assert_array_equal(at_n.partition.assignment,
                                          above.partition.assignment)
            assert at_n.e_max_achieved == above.e_max_achieved
            assert above.stats.n_nonempty == at_n.stats.n_nonempty

    def test_mask_coverage_below_n(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(2, n))
            m = int(rng.integers(3, 9))
            jd = dyadic_joint(rng, m, n)
            res = max_likelihood_partition(jd, k, ENT)
            oracle = exhaustive_oracle(jd, k, ENT)
            assert res.e_max_achieved == oracle.e_max_achieved


class TestGreedySplit:
    def test_requires_k_above_n(self):
        jd = build_joint(np.ones((4, 3)))
        with pytest.raises(KNotGreaterThanN):
            greedy_split(jd, 3, ENT)

    def test_zero_impurity_base_stays_zero(self):
        jd = build_joint(np.vstack([np.eye(3), np.eye(3)]))
        res = greedy_split(jd, 5, ENT)
        assert res.stats.impurity == 0.0
        assert all(i == 0.0 for i in trace_impurities(res))

    def test_trace_monotone_and_beats_base(self):
        rng = np.random.default_rng(48)
        for spec in (ENT, GINI):
            for _ in range(20):
                m = int(rng.integers(6, 14))
                n = int(rng.integers(2, 5))
                k = n + int(rng.integers(1, 6))
                jd = random_joint(rng, m, n)
                res = greedy_split(jd, k, spec)
                imps = trace_impurities(res)
                assert all(leq(b, a) for a, b in zip(imps, imps[1:]))
                base = max_likelihood_partition(jd, k, spec)
                assert leq(res.stats.impurity, base.stats.impurity)

    def test_uniform_fallback_moves_single_point(self):
        jd = build_joint(np.ones((5, 2)))
        res = greedy_split(jd, 4, ENT)
        splits = [e for e in res.trace if e["event"] == "split"]
        assert all(e["fallback"] and e["moved"] == 1 for e in splits)
        assert abs(res.stats.impurity - 2 * ENT.f(0.5)) <= 1e-12

    def test_stops_when_nothing_splittable(self):
        # two points cannot fill five labels: after one split both
        # partitions are singletons
        jd = build_joint([[3, 1], [1, 3]])
        res = greedy_split(jd, 5, ENT)
        assert res.stats.n_nonempty == 2
        assert any(e["event"] == "stop" for e in res.trace)


class TestGreedyMerge:
    def test_requires_k_below_n(self):
        jd = build_joint(np.ones((4, 3)))
        with pytest.raises(KNotLessThanN):
            greedy_merge(jd, 3, ENT)

    def test_k_below_one_refused_before_any_work(self, monkeypatch):
        # k = 0 used to walk the whole merge trajectory before Partition
        # refused it, and k = -1 escaped as numpy's negative-dimension error
        calls = []

        def counting(*args):
            calls.append(args)
            return max_likelihood_partition(*args)

        monkeypatch.setattr(algorithms, "max_likelihood_partition", counting)
        jd = random_joint(np.random.default_rng(50), 30, 5)
        for k in (0, -1):
            with pytest.raises(KTooSmall, match=f"^k must be >= 1, got {k}$"):
                greedy_merge(jd, k, ENT)
        assert calls == []

    def test_deltas_nonnegative_and_consistent(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            m = int(rng.integers(6, 14))
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, n))
            jd = random_joint(rng, m, n)
            res = greedy_merge(jd, k, ENT)
            prev = res.trace[0]["impurity"]
            for event in res.trace[1:]:
                losses = event["losses"]
                losses = losses[np.triu_indices(losses.shape[0], 1)]
                assert (losses >= -1e-12).all()
                # chosen loss is the minimum of the evaluated losses
                assert event["delta"] <= losses.min() + 1e-15
                # impurity increases by exactly the chosen loss
                assert abs(event["impurity"] - prev - event["delta"]) <= 1e-9
                prev = event["impurity"]

    def test_merging_identical_conditionals_is_free(self):
        jd = build_joint([[4.0, 2.0], [2.0, 1.0], [0.5, 4.0]])
        apart = compute_stats(jd, Partition(np.array([0, 1, 2]), 3), ENT)
        together = compute_stats(jd, Partition(np.array([0, 0, 2]), 3), ENT)
        assert abs(apart.impurity - together.impurity) <= 1e-12

    def test_no_merges_when_base_is_already_small(self):
        # class 2 never wins an argmax, so the likelihood step yields two
        # nonempty partitions and the merge loop has nothing to do
        jd = build_joint([[5, 1, 1], [1, 5, 1], [6, 1, 2], [1, 4, 2]])
        res = greedy_merge(jd, 2, ENT)
        assert res.stats.n_nonempty == 2
        assert len(res.trace) == 1  # init only

    def test_small_instance_bracketed_by_alternatives(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            jd = random_joint(rng, 6, 3)
            res = greedy_merge(jd, 2, ENT)
            oracle = exhaustive_oracle(jd, 2, ENT)
            assert leq(oracle.stats.impurity, res.stats.impurity)
            # one merge round from the 3-label base: the result is the best
            # of the three possible pair merges
            base = max_likelihood_partition(jd, 3, ENT)
            merged_imps = []
            for i, j in itertools.combinations(range(3), 2):
                a = np.where(base.partition.assignment == j, i,
                             base.partition.assignment)
                merged_imps.append(compute_stats(jd, Partition(a, 3), ENT).impurity)
            assert leq(res.stats.impurity, max(merged_imps))
            assert abs(res.stats.impurity - min(merged_imps)) <= 1e-9


class TestMergeMemory:
    def test_first_scoring_memory_stays_bounded(self):
        # scoring all count^2 / 2 pairs at once would hold O(count^2 N)
        # floats: 187 MiB at N = 200
        rng = np.random.default_rng(84)
        jd = random_joint(rng, 800, 200)
        base = max_likelihood_partition(jd, 200, ENT)
        peak, state = peak_bytes(lambda: next(merge_states(jd, base, ENT)))
        assert state.labels > 190
        assert peak <= 16 * 2 ** 20

    def test_merge_trace_keeps_the_loss_matrices(self):
        # the trace holds each merge's count x count matrix, about 3 MiB
        # of floats here; one Python tuple per scored pair would hold
        # O(count^3) objects, over 15 MiB
        jd = build_joint(np.random.default_rng(5).random((400, 100)) ** 4)
        peak, res = peak_bytes(lambda: greedy_merge(jd, 1, ENT))
        assert res.stats.n_nonempty == 1
        assert peak <= 8 * 2 ** 20


class TestSplitMemory:
    @pytest.mark.parametrize("spec", [ENT, GINI], ids=["entropy", "gini"])
    def test_a_round_holds_one_copy_of_its_source(self, spec):
        # a round that gathers its whole source and copies each half out of
        # that block holds two copies: 3.7 MB here, against a 1.8 MB block
        rng = np.random.default_rng(85)
        raw = rng.random((4000, 64))
        raw[:3500, 0] += 2.0  # most rows take label 0, the first source
        jd = build_joint(raw)
        base = max_likelihood_partition(jd, jd.n_cols, spec)
        states = split_states(jd, base, spec)
        next(states)
        peak, state = peak_bytes(lambda: next(states))
        size = np.count_nonzero(base.partition.assignment == state.event["source"])
        assert size > 3000
        # one gathered block plus eight vectors of M floats
        assert peak <= 8 * (size * jd.n_cols + 8 * jd.n_rows)


class TestGreedyTrajectories:
    """The incremental split and merge trajectories against the from-scratch
    loops of tests/helpers.greedy_reference: equal bit for bit."""

    @staticmethod
    def check(jd, k, spec, algorithm):
        run = greedy_split if algorithm == "greedy_split" else greedy_merge
        res = run(jd, k, spec)
        assignment, stats, trace = greedy_reference(jd, k, spec, algorithm)
        assert res.partition.k == k
        assert res.partition.assignment.tolist() == assignment.tolist()
        for name in ("pz", "pxz", "px_given_z", "nonempty",
                     "per_partition_impurity"):
            ours, theirs = getattr(res.stats, name), getattr(stats, name)
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes(), name
        assert res.stats.impurity == stats.impurity
        assert res.stats.e_q == stats.e_q == res.e_max_achieved
        assert comparable(res.trace) == comparable(trace)
        return res

    def instances(self):
        rng = np.random.default_rng(52)
        for _ in range(6):
            m = int(rng.integers(8, 60))
            n = int(rng.integers(3, 7))
            raw = rng.random((m, n)) ** 4 * (rng.random((m, n)) < 0.7)
            raw[np.arange(m), rng.integers(0, n, size=m)] += 0.05
            raw[:, 0] *= 1e-3  # class 0 rarely wins an argmax: unused labels
            yield build_joint(raw)
        # replicated rows: thresholds tie, so splits fall back to one point,
        # on both sides of aggregate's column rule
        yield build_joint(np.vstack([rng.integers(1, 9, size=(4, 3))] * 3))
        yield build_joint(np.vstack([rng.integers(1, 9, size=(4, 6))] * 3))
        yield build_joint(np.ones((5, 2)))
        # three points cannot fill many labels: the split trajectory stops
        yield build_joint([[3, 1, 1], [1, 3, 1], [1, 1, 3]])

    @staticmethod
    def wide_instances(tmp_path):
        """Joints whose walks sum wide row-major blocks, as the sweep's do:
        one ingested from a count file whose -0 tokens fill a column and
        more, and 5000 x 12 skewed counts whose merged labels hold thousands
        of rows."""
        rng = np.random.default_rng(53)
        counts = np.floor(30 * rng.random((60, 10)) ** 3)
        counts[np.arange(60), rng.integers(10, size=60)] += 1
        counts[:, 3] = 0
        path = tmp_path / "signed_zeros.csv"
        path.write_text("\n".join(",".join("-0" if c == 0 else str(int(c)) for c in row)
                                   for row in counts))
        yield ingest(path, "counts")
        yield build_joint(np.floor(1000 * rng.random((5000, 12)) ** 4) + 1)

    @pytest.mark.parametrize("spec", [ENT, GINI, SQRT], ids=["entropy", "gini", "sqrt"])
    def test_split_and_merge_equal_reference(self, spec, tmp_path):
        seen = set()
        for jd in itertools.chain(self.instances(), self.wide_instances(tmp_path)):
            n = jd.n_cols
            base = max_likelihood_partition(jd, n, spec)
            if np.bincount(base.partition.assignment, minlength=n).min() == 0:
                seen.add("unused class")
            for k in range(1, n):
                res = self.check(jd, k, spec, "greedy_merge")
                if len(res.trace) == 1:  # k >= the base's nonempty count
                    seen.add("no merge needed")
            for k in range(n + 1, n + 12):
                res = self.check(jd, k, spec, "greedy_split")
                events = [e["event"] for e in res.trace]
                if "stop" in events:
                    seen.add("stop")
                # a fallback moves one row, so one half is a single-row
                # block, which aggregate reduces only when N >= 4
                if any(e.get("fallback") for e in res.trace):
                    seen.add(f"fallback, N {'>=' if n >= 4 else '<'} 4")
        assert seen == {"unused class", "no merge needed", "stop",
                        "fallback, N < 4", "fallback, N >= 4"}

    @pytest.mark.parametrize("spec", [ENT, GINI], ids=["entropy", "gini"])
    def test_kept_states_stay_valid(self, spec):
        # states are checked only after the walk has stopped. Every split
        # round adds a nonempty label, so a split trajectory ends within
        # M + 1 states, as a merge trajectory does
        for jd in self.instances():
            base = max_likelihood_partition(jd, jd.n_cols, spec)
            for algorithm, states in (("greedy_split", split_states),
                                      ("greedy_merge", merge_states)):
                kept = list(itertools.islice(states(jd, base, spec), jd.n_rows + 2))
                assert len(kept) <= jd.n_rows + 1
                for state in kept:
                    k = state.labels
                    assignment, stats, trace = greedy_reference(jd, k, spec, algorithm)
                    assert state.assignment.tolist() == assignment.tolist()
                    ours = state.result(k, spec, base.masks_evaluated).stats
                    for name in ("pxz", "px_given_z", "per_partition_impurity"):
                        assert (getattr(ours, name).tobytes()
                                == getattr(stats, name).tobytes()), name
                    # a record at the state's own k keeps the state's
                    # statistics rather than rebuilding them
                    assert ours is state.stats
                    for name in ("pz", "pxz", "px_given_z", "nonempty",
                                 "per_partition_impurity"):
                        mine, theirs = getattr(state.stats, name), getattr(stats, name)
                        assert mine.shape == theirs.shape, name
                        assert mine.tobytes() == theirs.tobytes(), name
                    assert state.stats.impurity == stats.impurity
                    assert state.stats.e_q == stats.e_q
                    if state.event["event"] == "merge":
                        ours, theirs = state.event["losses"], trace[-1]["losses"]
                        assert ours.shape == theirs.shape
                        assert ours.tobytes() == theirs.tobytes()

    def test_kept_states_are_read_only(self):
        # every round copies or gathers from the previous state's arrays,
        # so a write into a kept state would change every later state
        rng = np.random.default_rng(54)
        jd = build_joint(rng.integers(1, 9, size=(12, 3)))
        base = max_likelihood_partition(jd, jd.n_cols, ENT)
        for states in (split_states, merge_states):
            kept = list(itertools.islice(states(jd, base, ENT), 5))
            assert len(kept) >= 3
            for state in kept:
                with pytest.raises(ValueError, match="read-only"):
                    state.assignment[0] = 0
                with pytest.raises(ValueError, match="read-only"):
                    state.stats.pxz[0, 0] = 0.0


class TestIterativeRefine:
    def test_improves_greedy_merge(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            jd = random_joint(rng, 10, 4)
            start = greedy_merge(jd, 2, ENT)
            refined = iterative_refine(jd, start.partition, ENT)
            assert leq(refined.stats.impurity, start.stats.impurity)

    def test_fixed_point_returns_in_one_pass(self):
        jd = build_joint(np.eye(3))
        start = Partition(np.array([0, 1, 2]), 3)
        res = iterative_refine(jd, start, ENT)
        iterations = [e for e in res.trace if e["event"] == "iteration"]
        assert len(iterations) == 1 and iterations[0]["changed"] == 0
        np.testing.assert_array_equal(res.partition.assignment, [0, 1, 2])

    def test_uniform_instance_any_start_is_fixed(self):
        jd = build_joint(np.ones((6, 3)))
        rng = np.random.default_rng(52)
        for _ in range(5):
            start = random_partition(rng, 6, 3)
            res = iterative_refine(jd, start, GINI)
            np.testing.assert_array_equal(res.partition.assignment,
                                          start.assignment)

    def test_monotone_and_terminates(self):
        rng = np.random.default_rng(53)
        for spec in (ENT, GINI):
            for _ in range(15):
                m = int(rng.integers(5, 15))
                n = int(rng.integers(2, 6))
                jd = random_joint(rng, m, n)
                start = random_partition(rng, m, int(rng.integers(1, 5)))
                res = iterative_refine(jd, start, spec, max_iters=40)
                imps = trace_impurities(res)
                assert len(imps) - 1 <= 40
                assert all(leq(b, a) for a, b in zip(imps, imps[1:]))

    def test_wrong_length_start_rejected(self):
        jd = build_joint(np.eye(3))
        with pytest.raises(DimensionMismatch):
            iterative_refine(jd, Partition(np.array([0, 1]), 2), ENT)

    @pytest.mark.parametrize("max_iters", [2.5, True, "3", None])
    def test_non_int_max_iters_rejected(self, monkeypatch, max_iters):
        # refused before the start is even aggregated
        monkeypatch.setattr(algorithms, "compute_stats", admit)
        jd = build_joint(np.eye(3))
        with pytest.raises(ValueError,
                           match=f"max_iters must be an int, got {max_iters!r}"):
            iterative_refine(jd, Partition(np.array([0, 1, 2]), 3), ENT,
                             max_iters=max_iters)

    @pytest.mark.parametrize("max_iters", [0, -3, np.int64(0)])
    def test_max_iters_below_one_rejected(self, monkeypatch, max_iters):
        # zero passes leave a trace with no iteration event, which a
        # record of the passes cannot be read from
        monkeypatch.setattr(algorithms, "compute_stats", admit)
        jd = build_joint(np.eye(3))
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            iterative_refine(jd, Partition(np.array([0, 1, 2]), 3), ENT,
                             max_iters=max_iters)

    @pytest.mark.parametrize("width", [np.int8, np.uint8, np.uint64],
                             ids=lambda width: width.__name__)
    def test_numpy_int_max_iters_passes(self, width):
        rng = np.random.default_rng(82)
        jd = random_joint(rng, 30, 3)
        start = random_partition(rng, 30, 4)
        expected = iterative_refine(jd, start, ENT, max_iters=2)
        result = iterative_refine(jd, start, ENT, max_iters=width(2))
        assert result.partition.assignment.tolist() == expected.partition.assignment.tolist()
        assert result.trace == expected.trace

    def test_respects_max_iters(self):
        rng = np.random.default_rng(54)
        jd = random_joint(rng, 12, 4)
        start = random_partition(rng, 12, 4)
        res = iterative_refine(jd, start, ENT, max_iters=1)
        assert len([e for e in res.trace if e["event"] == "iteration"]) == 1

    def test_custom_impurity_matches_gini_behavior(self):
        # the generic divergence ranks centroids like the squared distance
        # when f is the Gini function, so the refinements agree
        custom = ImpuritySpec(lambda x: x * (1.0 - x))
        rng = np.random.default_rng(57)
        for _ in range(5):
            jd = random_joint(rng, 10, 3)
            start = random_partition(rng, 10, 3)
            a = iterative_refine(jd, start, custom)
            b = iterative_refine(jd, start, GINI)
            np.testing.assert_array_equal(a.partition.assignment,
                                          b.partition.assignment)
            imps = trace_impurities(a)
            assert all(leq(y, x) for x, y in zip(imps, imps[1:]))


class TestRefineBlocks:
    """Row-blocked refinement against the whole-matrix passes of
    tests/helpers.refine_reference: equal bit for bit."""

    @staticmethod
    def block_rows(n, k):
        """The rule's fewest rows per block at N = n, K = k."""
        return max(algorithms._GEMM_ROWS,
                   algorithms._BLOCK_BYTES // (8 * (n + 2 * k + 5)))

    def test_blocked_equals_whole_matrix_pass(self, monkeypatch):
        # the grid's cheapest row, N = 2 and K = 1, costs 8 (2 + 2 + 5)
        # bytes, so at this budget every case is scored in blocks of the
        # floor's rows: eight blocks of 1121 rows
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES",
                            algorithms._GEMM_ROWS * 8 * (2 + 2 + 5))
        m = 8 * algorithms._GEMM_ROWS + 777
        rng = np.random.default_rng(87)
        zero_centroids = 0
        for n in (2, 3, 7, 20, 64):
            for k in (1, 2, 5, 30, 100):
                assert self.block_rows(n, k) == algorithms._GEMM_ROWS
                for sparse in (False, True):
                    rows = sparse_rows(rng, m, n, density=0.4) if sparse \
                        else rng.random((m, n)) + 1e-9
                    jd = build_joint(rows)
                    start = random_partition(rng, m, k)
                    for spec in (ENT, GINI):
                        res = iterative_refine(jd, start, spec, max_iters=8)
                        assignment, stats, trace = refine_reference(
                            jd, start, spec, max_iters=8)
                        case = (n, k, sparse, spec.kind)
                        assert (res.partition.assignment.tobytes()
                                == assignment.tobytes()), case
                        assert res.stats.pxz.tobytes() == stats.pxz.tobytes(), case
                        assert ([(e.get("changed"), e["impurity"].hex())
                                 for e in res.trace]
                                == [(e.get("changed"), e["impurity"].hex())
                                    for e in trace]), case
                        if spec is ENT:
                            centroids = stats.px_given_z[stats.nonempty]
                            zero_centroids += bool((centroids == 0.0).any())
        # entropy's +inf scores for centroids with a zero entry were reached
        assert zero_centroids > 0

    @pytest.mark.parametrize("m", [1, 8191, 8192, 16383, 16384, 50000])
    def test_block_edges_cover_the_rows(self, m):
        # (N, K) where the budget gives 11915 rows, 8192 rows, 1542 rows
        # (the refine workload's K = 30) and 65 rows, where the floor's
        # 1024 rows bind
        for n, k in ((2, 2), (3, 4), (20, 30), (20, 1000)):
            rows = self.block_rows(n, k)
            edges = algorithms._row_blocks(m, 8 * (n + 2 * k + 5))
            sizes = np.diff(edges)
            assert edges[0] == 0 and edges[-1] == m
            if m < 2 * rows:
                assert sizes.tolist() == [m]
            else:
                assert (sizes >= rows).all() and (sizes < 2 * rows).all()

    @pytest.mark.parametrize("m, calls", [(16383, 1), (16384, 2)])
    def test_one_scoring_call_per_block(self, monkeypatch, m, calls):
        # at N = 3, K = 4 a row costs 128 bytes, so blocks hold 8192 rows:
        # 2 * 8192 - 1 rows are one block and 2 * 8192 rows two, and the
        # centroid terms are computed once for the pass
        assert calls == max(1, m // self.block_rows(3, 4))
        seen, passes = [], []

        def counting(cond, terms):
            seen.append(cond.shape[0])
            return _divergences(cond, terms)

        def once(q, f):
            passes.append(q.shape[0])
            return _centroid_terms(q, f)

        monkeypatch.setattr(algorithms, "_divergences", counting)
        monkeypatch.setattr(algorithms, "_centroid_terms", once)
        rng = np.random.default_rng(88)
        jd = random_joint(rng, m, 3)
        iterative_refine(jd, random_partition(rng, m, 4), GINI, max_iters=1)
        assert len(seen) == calls and sum(seen) == m
        assert passes == [4]

    def test_memory_below_one_score_matrix(self):
        # one M x K float matrix is 11.4 MiB here; the whole-matrix pass
        # held an M x N cond, the M x K scores and, under entropy, an M x K
        # product for the blocked classes
        m, n, k = 50000, 20, 30
        rng = np.random.default_rng(89)
        jd = build_joint(np.floor(1000 * rng.random((m, n)) ** 4) + 1)
        start = random_partition(rng, m, k)
        peak, res = peak_bytes(lambda: iterative_refine(jd, start, ENT, max_iters=2))
        assert len(res.trace) == 3
        assert peak < m * k * 8

    @pytest.mark.parametrize("spec", [ENT, GINI], ids=["entropy", "gini"])
    def test_memory_at_large_k_is_the_floors_block(self, spec):
        # at K = 500 a row costs 8200 bytes, so blocks take the floor's
        # 1024 rows: 8.0 MiB, beside eight M-long and eight K x N float
        # arrays; blocks of 8192 rows or more would hold over 64 MiB. Rows
        # this sparse leave zeros in the centroids, so entropy also takes
        # the product for the blocked classes
        m, n, k = 20000, 20, 500
        rng = np.random.default_rng(90)
        jd = build_joint(sparse_rows(rng, m, n, density=0.02))
        start = random_partition(rng, m, k)
        peak, res = peak_bytes(lambda: iterative_refine(jd, start, spec, max_iters=2))
        assert len(res.trace) == 3
        assert peak <= algorithms._GEMM_ROWS * 8 * (n + 2 * k + 5) + 8 * 8 * (m + k * n)


class TestBregmanScore:
    @pytest.mark.parametrize("spec", [ENT, GINI], ids=["entropy", "gini"])
    def test_picks_reference_centroid_on_sparse_instances(self, spec):
        rng = np.random.default_rng(58)
        compared = blocked = 0
        for _ in range(40):
            m, n, k = (int(rng.integers(lo, hi))
                       for lo, hi in ((5, 60), (2, 9), (1, 8)))
            cond = sparse_rows(rng, m, n)
            q = sparse_rows(rng, k, n, density=0.4)
            score = _divergences(cond, _centroid_terms(q, spec))
            ref = divergence_reference(cond, q, spec.kind)
            assert score.shape == (m, k)
            assert not np.isnan(score).any()
            # centroids with q = 0 under a point's positive mass score +inf
            np.testing.assert_array_equal(np.isinf(score), np.isinf(ref))
            assert (score[np.isinf(score)] > 0).all()
            blocked += int(np.isinf(ref).sum())
            for row_score, row_ref in zip(score, ref):
                order = np.sort(row_ref)
                if np.isinf(order[0]) or (k > 1 and order[1] - order[0] <= 1e-9):
                    continue
                assert np.argmin(row_score) == np.argmin(row_ref)
                compared += 1
        assert compared > 200
        if spec is ENT:
            assert blocked > 0


class TestExhaustiveOracle:
    def test_two_point_identity(self):
        jd = build_joint(np.eye(2))
        res = exhaustive_oracle(jd, 2, ENT)
        assert res.stats.impurity == 0.0
        assert res.e_max_achieved == 1.0
        assert len(set(res.partition.assignment.tolist())) == 2

    def test_single_point(self):
        jd = build_joint([[1, 3]])
        res = exhaustive_oracle(jd, 3, ENT)
        expected = sum(ENT.f(v) for v in (0.25, 0.75))
        assert abs(res.stats.impurity - expected) <= 1e-12
        assert res.masks_evaluated == 3

    @pytest.mark.parametrize("spec", [ENT, GINI, SQRT], ids=["entropy", "gini", "sqrt"])
    def test_a_single_point_scores_like_the_all_zero_labelling(self, spec):
        # one point has one restricted-growth labelling, all at label 0
        rng = np.random.default_rng(61)
        for n in (2, 3, 7, 40):
            jd = random_joint(rng, 1, n)
            for k in (2, 3, 5, 12):
                res = exhaustive_oracle(jd, k, spec)
                stats = compute_stats(jd, Partition(np.zeros(1, dtype=np.intp), k), spec)
                assert res.partition.assignment.tolist() == [0]
                assert res.partition.k == k
                assert res.masks_evaluated == k
                for field in fields(stats):
                    assert (np.asarray(getattr(res.stats, field.name)).tobytes()
                            == np.asarray(getattr(stats, field.name)).tobytes())
                assert res.e_max_achieved.hex() == stats.e_q.hex()

    def test_matches_second_enumeration_order(self):
        rng = np.random.default_rng(55)
        jd = dyadic_joint(rng, 8, 3)
        res = exhaustive_oracle(jd, 2, ENT)
        # independent pass in reversed order through compute_stats
        best_imp = np.inf
        best_e = -np.inf
        for a in reversed(list(itertools.product(range(2), repeat=8))):
            stats = compute_stats(jd, Partition(np.array(a), 2), ENT)
            best_imp = min(best_imp, stats.impurity)
            best_e = max(best_e, stats.e_q)
        assert abs(res.stats.impurity - best_imp) <= 1e-12
        assert res.e_max_achieved == best_e

    @pytest.mark.parametrize("spec", [ENT, GINI, SQRT], ids=["entropy", "gini", "sqrt"])
    def test_restricted_growth_labelling_of_an_optimum(self, spec):
        # the oracle scores one labelling per partition; against every k**m
        # labelling its impurity is the least and, where sums are exact,
        # its e the largest bit for bit
        rng = np.random.default_rng(73)
        instances = [(jd, False) for jd in
                     TestExactSearchReference.instances(rng, (2, 8), (2, 6))]
        instances += [(dyadic_joint(rng, m, n, hi=4), True)
                      for m, n in ((5, 2), (7, 3), (8, 4))]
        for jd, exact in instances:
            for k in range(2, 5):
                if k ** jd.n_rows > 20_000:
                    continue
                res = exhaustive_oracle(jd, k, spec)
                labels = res.partition.assignment.tolist()
                assert labels[0] == 0
                assert all(labels[x] <= max(labels[:x]) + 1 for x in range(1, len(labels)))
                least = float(all_assignment_impurities(jd, k, spec).min())
                assert leq(res.stats.impurity, least) and leq(least, res.stats.impurity)
                if exact:
                    e_all = all_assignment_e_values(jd.p, k)[1]
                    assert res.e_max_achieved.hex() == float(e_all.max()).hex()

    def test_instance_cap(self):
        jd = build_joint(np.ones((30, 2)))
        with pytest.raises(InstanceTooLarge):
            exhaustive_oracle(jd, 2, ENT)
        with pytest.raises(KTooSmall):
            exhaustive_oracle(jd, 0, ENT)
        # one row is refused past the cap too
        k = ORACLE_CAP + 1
        message = rf"^{k}\*\*1 assignments exceed cap {ORACLE_CAP}$"
        with pytest.raises(InstanceTooLarge, match=message):
            exhaustive_oracle(build_joint(np.ones((1, 2))), k, ENT)

    def test_instance_cap_on_many_rows(self):
        # 3**20000 has 9543 digits, too many to format: the cap is decided
        # and named without its value
        jd = build_joint(np.ones((20000, 6)))
        with pytest.raises(InstanceTooLarge,
                           match=r"^3\*\*20000 assignments exceed cap 2000000$"):
            exhaustive_oracle(jd, 3, ENT)

    def test_numpy_int_k_is_capped_exactly(self, monkeypatch):
        # np.int64(65536) ** 4 wraps to 0, which the cap would admit; the
        # label tables would then take 2**32 entries
        monkeypatch.setattr(algorithms, "_subset_tables", admit)
        jd = build_joint(np.ones((4, 2)))
        with pytest.raises(InstanceTooLarge,
                           match=rf"^65536\*\*4 assignments exceed cap {ORACLE_CAP}$"):
            exhaustive_oracle(jd, np.int64(65536), ENT)
        monkeypatch.undo()
        res = exhaustive_oracle(jd, np.int64(3), ENT)
        assert type(res.masks_evaluated) is int and res.masks_evaluated == 81

    def test_instance_cap_admits_k_to_the_m_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(algorithms, "_subset_tables", admit)
        # one row too: every k >= 2 builds the subset tables
        for m in range(1, 26):
            jd = build_joint(np.ones((m, 2)))
            for k in range(2, 6):
                refused = k ** m > ORACLE_CAP
                with pytest.raises(InstanceTooLarge if refused else Admitted):
                    exhaustive_oracle(jd, k, ENT)

    def test_table_cap_admits_two_to_the_m_times_n_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(algorithms, "_subset_tables", admit)
        for m in (18, 19, 20):
            edge = ORACLE_TABLE_CAP >> m
            with pytest.raises(Admitted):
                exhaustive_oracle(build_joint(np.ones((m, edge))), 2, ENT)
            jd = build_joint(np.ones((m, edge + 1)))
            message = rf"^2\*\*{m}\*{edge + 1} table sums exceed cap {ORACLE_TABLE_CAP}$"
            with pytest.raises(InstanceTooLarge, match=message):
                exhaustive_oracle(jd, 2, ENT)
            # one label builds no table, so past the edge it still runs
            assert exhaustive_oracle(jd, 1, ENT).masks_evaluated == 1

    def test_table_cap_refuses_one_row_but_never_one_label(self, monkeypatch):
        monkeypatch.setattr(algorithms, "_subset_tables", admit)
        monkeypatch.setattr(algorithms, "ORACLE_TABLE_CAP", 0)
        with pytest.raises(InstanceTooLarge, match=r"^2\*\*1\*3 table sums exceed cap 0$"):
            exhaustive_oracle(build_joint(np.ones((1, 3))), 4, ENT)
        assert exhaustive_oracle(build_joint(np.ones((1, 3))), 1, ENT).masks_evaluated == 1
        assert exhaustive_oracle(build_joint(np.ones((5, 3))), 1, ENT).masks_evaluated == 1
        with pytest.raises(InstanceTooLarge, match="table sums"):
            exhaustive_oracle(build_joint(np.ones((2, 2))), 2, ENT)


class TestExactSearchReference:
    """The k < N mask search, coverage table or scan as _best_mask picks,
    and the subset-table oracle against the per-candidate loops of
    tests/helpers: equal bit for bit."""

    @staticmethod
    def check(res, jd, k, spec, reference):
        assignment, e_max, evaluated = reference
        assert res.partition.k == k
        assert res.partition.assignment.tolist() == assignment.tolist()
        assert res.e_max_achieved == e_max
        assert res.masks_evaluated == evaluated
        stats = compute_stats(jd, Partition(assignment, k), spec)
        for name in ("pz", "pxz", "px_given_z", "nonempty",
                     "per_partition_impurity"):
            assert getattr(res.stats, name).tobytes() == getattr(stats, name).tobytes()
        assert res.stats.impurity == stats.impurity
        assert res.stats.e_q == stats.e_q

    @staticmethod
    def instances(rng, m_range, n_range):
        """Continuous, tie-heavy and degenerate instances."""
        for case in range(8):
            m = int(rng.integers(*m_range))
            n = int(rng.integers(*n_range))
            raw = rng.random((m, n)) ** 3
            if case % 4 == 1:  # small integer counts: many exact ties
                raw = rng.integers(0, 3, size=(m, n)).astype(float)
            elif case % 4 == 2:  # a duplicate and a zero column
                raw[:, n - 1] = raw[:, 0]
                raw[:, 1] = 0.0
            elif case % 4 == 3:  # one class per row: all zero in most masks
                raw = np.zeros((m, n))
                raw[np.arange(m), rng.integers(0, n, size=m)] = rng.random(m) + 0.1
            raw[raw.sum(axis=1) == 0.0, 0] = 1.0
            yield build_joint(raw)
        yield dyadic_joint(rng, int(rng.integers(*m_range)), n_range[1] - 1)
        # replicated rows: every assignment ties with its relabelled copies
        yield build_joint(np.vstack([rng.integers(1, 5, size=(2, 3))] * 3))

    @pytest.mark.parametrize("spec", [ENT, GINI, SQRT], ids=["entropy", "gini", "sqrt"])
    def test_mask_scan_equals_reference(self, spec):
        rng = np.random.default_rng(57)
        for jd in self.instances(rng, (5, 120), (3, 11)):
            for k in range(1, jd.n_cols):
                res = max_likelihood_partition(jd, k, spec)
                self.check(res, jd, k, spec, likelihood_reference(jd, k, spec))

    def test_mask_scan_with_many_labels(self):
        # k >= 8 sums e over k labels along numpy's pairwise path
        rng = np.random.default_rng(58)
        jd = random_joint(rng, 300, 11)
        for k in (8, 9, 10):
            res = max_likelihood_partition(jd, k, ENT)
            self.check(res, jd, k, ENT, likelihood_reference(jd, k, ENT))

    @pytest.mark.parametrize("spec", [ENT, GINI, SQRT], ids=["entropy", "gini", "sqrt"])
    def test_oracle_equals_reference(self, spec):
        rng = np.random.default_rng(59)
        for jd in self.instances(rng, (2, 8), (2, 6)):
            for k in range(2, 5):
                if k ** jd.n_rows > 20_000:
                    continue
                res = exhaustive_oracle(jd, k, spec)
                # 1000-assignment reference blocks: a final block is partial
                self.check(res, jd, k, spec, oracle_reference(jd, k, spec, block=1000))
        # one row has one labelling
        for n in (2, 3, 7):
            jd = random_joint(rng, 1, n)
            for k in (2, 3, 7, 40):
                res = exhaustive_oracle(jd, k, spec)
                self.check(res, jd, k, spec, oracle_reference(jd, k, spec))

    def test_oracle_with_many_labels_and_a_partial_block(self):
        rng = np.random.default_rng(60)
        jd = random_joint(rng, 5, 9)  # 9 classes: pairwise row sums in weighted
        for k in (8, 9):
            res = exhaustive_oracle(jd, k, GINI)
            self.check(res, jd, k, GINI, oracle_reference(jd, k, GINI))
        # 3**11 = 2 * 65536 + 46075: the reference's last block is partial
        jd = random_joint(rng, 11, 4)
        res = exhaustive_oracle(jd, 3, ENT)
        self.check(res, jd, 3, ENT, oracle_reference(jd, 3, ENT))

    @pytest.mark.parametrize("chunk", [1, 40, 300])
    def test_oracle_tables_built_in_chunks(self, monkeypatch, chunk):
        # small chunks fix several of the later rows per chunk of sums; at
        # 48 bytes per sum, a budget of 48 * chunk bytes gives the chunk
        # rows of `chunk` floats: 2**low rows, low the largest with
        # 2**low * N <= chunk
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES", 48 * chunk)
        rng = np.random.default_rng(64)
        for m, n, k in ((9, 5, 2), (7, 9, 3), (6, 3, 4)):
            jd = random_joint(rng, m, n)
            for spec in (ENT, GINI, SQRT):
                res = exhaustive_oracle(jd, k, spec)
                self.check(res, jd, k, spec, oracle_reference(jd, k, spec))

    @pytest.mark.parametrize("budget", [1024, 48, 1 << 40],
                             ids=["small-blocks", "one-row-chunks", "one-block"])
    def test_oracle_does_not_depend_on_the_budget(self, monkeypatch, budget):
        # 1024 bytes: labelling blocks of at most 16 columns (K = 2 to 4),
        # so many blocks and several prefix highs; 48 bytes: subset sums
        # one row per chunk and one trailing point per block; 2**40 bytes:
        # every labelling in one block and every sum in one chunk
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(59)
        for jd in self.instances(rng, (2, 8), (2, 6)):
            for k in range(2, 5):
                if k ** jd.n_rows > 20_000:
                    continue
                for spec in (ENT, GINI):
                    res = exhaustive_oracle(jd, k, spec)
                    self.check(res, jd, k, spec, oracle_reference(jd, k, spec))

    @pytest.mark.parametrize("spec", [ENT, GINI, SQRT], ids=["entropy", "gini", "sqrt"])
    def test_oracle_single_label_closed_form(self, spec):
        rng = np.random.default_rng(61)
        jd = random_joint(rng, 9, 5)
        res = exhaustive_oracle(jd, 1, spec)
        col_masses = np.ascontiguousarray(jd.p).sum(axis=0)
        assert res.partition.assignment.tolist() == [0] * 9
        assert res.stats.impurity == spec.weighted(col_masses[None, :])[0]
        assert res.e_max_achieved == col_masses.max()
        assert res.masks_evaluated == 1

    def test_oracle_single_label_builds_no_subset_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("k == 1 must not tabulate subsets")

        monkeypatch.setattr(algorithms, "_subset_tables", refuse)
        rng = np.random.default_rng(62)
        jd = random_joint(rng, 5000, 4)
        res = exhaustive_oracle(jd, 1, ENT)
        assert res.masks_evaluated == 1
        assert res.e_max_achieved == np.ascontiguousarray(jd.p).sum(axis=0).max()

    def test_oracle_single_row_builds_no_label_table(self):
        # a k x k table of labellings would take 61 MiB at k = 2000
        jd = random_joint(np.random.default_rng(66), 1, 3)
        peak, res = peak_bytes(lambda: exhaustive_oracle(jd, 2000, ENT))
        assert res.masks_evaluated == 2000
        assert res.e_max_achieved == jd.p.max()
        assert peak <= 2 ** 20

    def test_oracle_memory_at_certify_shape_fits_the_budget(self):
        # 13 x 4 dyadic counts at K = 3 under Gini: beside the two 2**13
        # subset tables, a block of labellings and a chunk of subset sums
        # each fit the working-set budget
        jd = dyadic_joint(np.random.default_rng(65), 13, 4)
        peak, res = peak_bytes(lambda: exhaustive_oracle(jd, 3, GINI))
        assert res.masks_evaluated == 3 ** 13
        assert peak <= algorithms._BLOCK_BYTES + 2 * 8 * 2 ** 13

    def test_oracle_memory_stays_bounded(self):
        rng = np.random.default_rng(63)
        jd = random_joint(rng, 20, 64)
        peak, res = peak_bytes(lambda: exhaustive_oracle(jd, 2, ENT))
        assert res.masks_evaluated == 2 ** 20
        assert peak <= 96 * 2 ** 20


class TestCoverageRule:
    """The scan keeps the first mask with the largest coverage F(S); the
    earlier rule kept the first with the largest float e of its partition
    (tests/helpers.likelihood_e_reference). Both maxima are the largest e
    over k-partitions in exact arithmetic, so e_max_achieved agrees: bit for
    bit where every sum is exact, to rounding elsewhere."""

    @staticmethod
    def compare(jd, exact):
        """Check every k < N; return how many picked another partition."""
        differ = 0
        for k in range(1, jd.n_cols):
            res = max_likelihood_partition(jd, k, ENT)
            assignment, e_max, masks = likelihood_e_reference(jd, k, ENT)
            assert res.masks_evaluated == masks
            if exact:
                assert res.e_max_achieved == e_max
            else:
                assert abs(res.e_max_achieved - e_max) <= 1e-12 * e_max
            differ += res.partition.assignment.tolist() != assignment.tolist()
        return differ

    @staticmethod
    def tied_instances(rng):
        """Counts padded to a power-of-two total in the last class: every
        mass and sum is exact. Small counts, many zeros and one class per
        row make a point's best column often lie outside a mask, where the
        two rules can pick different masks, and make many masks tie."""
        for case in range(24):
            m, n = int(rng.integers(3, 40)), int(rng.integers(3, 8))
            counts = rng.integers(0, 3, size=(m, n)).astype(float)
            if case % 3 == 1:
                counts *= rng.random((m, n)) < 0.3
            elif case % 3 == 2:
                counts = np.zeros((m, n))
                counts[np.arange(m), rng.integers(0, n, size=m)] = rng.integers(1, 4, size=m)
            counts[counts.sum(axis=1) == 0.0, 0] = 1.0
            total = counts.sum()
            counts[0, -1] += 2.0 ** math.ceil(math.log2(total)) - total
            yield build_joint(counts)

    def test_dyadic_inputs_agree_bitwise(self):
        rng = np.random.default_rng(71)
        assert sum(self.compare(jd, exact=True) for jd in self.tied_instances(rng)) > 0

    def test_reference_grids_and_continuous_data_agree(self):
        rng = np.random.default_rng(72)
        assert sum(self.compare(jd, exact=False) for jd in
                   TestExactSearchReference.instances(rng, (5, 120), (3, 11))) > 0
        for _ in range(8):
            m, n = int(rng.integers(5, 300)), int(rng.integers(3, 10))
            self.compare(random_joint(rng, m, n), exact=False)


class TestMaskScanPruning:
    """The k < N search on flat, skewed and tied data, the inputs on which a
    per-mask pruning rule would prune nothing, something or only ties, and
    its memory: whichever search _best_mask picks, results equal
    tests/helpers.likelihood_reference bit for bit."""

    @staticmethod
    def scan(jd, k, spec=GINI):
        """The result, checked against the reference."""
        res = max_likelihood_partition(jd, k, spec)
        TestExactSearchReference.check(res, jd, k, spec,
                                       likelihood_reference(jd, k, spec))
        return res

    @staticmethod
    def one_class_per_row(weights):
        """Rows with one nonzero entry each: row j holds weights[j] in
        class j % 3 and the weights must sum to 1 (within 1e-9)."""
        raw = np.zeros((len(weights), 3))
        raw[np.arange(len(weights)), np.arange(len(weights)) % 3] = weights
        return build_joint(raw)

    def test_flat_data_equals_reference(self):
        rng = np.random.default_rng(66)
        jd = build_joint(rng.random((400, 9)))
        for k in range(1, 5):
            self.scan(jd, k)

    def test_skewed_data_equals_reference(self):
        rng = np.random.default_rng(67)
        jd = build_joint(np.floor(rng.pareto(1.2, size=(400, 9)) * 3) + 1)
        for k, spec in zip(range(4, 9), itertools.cycle((ENT, GINI, SQRT))):
            self.scan(jd, k, spec)

    def test_later_equal_mask_never_wins(self):
        # dyadic counts with a duplicate column: every sum is exact, and at
        # k = n - 1 the mask without column 0 covers exactly what the first
        # mask, without column 5, covers; the first mask must win
        rng = np.random.default_rng(68)
        for _ in range(4):
            counts = rng.integers(1, 50, size=(40, 6)).astype(float)
            counts[:, 5] = counts[:, 0]
            total = counts.sum()
            counts[0, 1] += 2.0 ** math.ceil(math.log2(total)) - total
            jd = build_joint(counts)
            coverage = [float(jd.p[:, list(cols)].max(axis=1).sum())
                        for cols in itertools.combinations(range(6), 5)]
            assert coverage[0] == coverage[-1] == max(coverage)
            res = self.scan(jd, 5)
            assert res.partition.assignment.tolist() == np.argmax(
                jd.p[:, :5], axis=1).tolist()

    @pytest.mark.parametrize("sign", [1, -1], ids=["later-wins", "earlier-wins"])
    def test_near_tie_is_decided_exactly(self, sign):
        # class masses a = 1/2, b = 1/4, c = 1/4 + sign * 2**-53 at k = 2:
        # e(0,1) = a + b and e(0,2) = a + c differ by about 1.1e-16
        delta = sign * 2.0 ** -53
        jd = self.one_class_per_row([0.25, 0.125, 0.125, 0.25, 0.125, 0.125 + delta])
        res = self.scan(jd, 2)
        assert 0.75 + delta != 0.75
        assert res.e_max_achieved == max(0.75, 0.75 + delta)

    def test_memory_at_n_labels_is_o_m(self):
        # the k >= N step scans the columns; np.argmax over the rows of the
        # column-major joint would first copy it to row order (7.6 MiB)
        m, n = 50000, 20
        jd = random_joint(np.random.default_rng(90), m, n)
        peak, res = peak_bytes(lambda: max_likelihood_partition(jd, n, ENT))
        assert res.partition.assignment.tolist() == np.argmax(jd.p, axis=1).tolist()
        assert peak < m * n * 8

    def test_memory_is_k_columns(self):
        # k running maxima and about 5 more vectors of M floats; a label row
        # per depth, a copy of p or of the mask's columns would exceed the
        # bound. k = 4 and 6 take the coverage table, built in row blocks:
        # an M x N sort order would exceed it
        rng = np.random.default_rng(69)
        m, n = 20000, 12
        jd = random_joint(rng, m, n)
        for k in (2, 3, 4, 6):
            peak, _ = peak_bytes(lambda: max_likelihood_partition(jd, k, GINI))
            assert peak <= (k + 6) * 8 * m


class TestMaskSearches:
    """The depth-first walk over every mask and over the coverage table's
    candidates, called directly, against tests/helpers' references bit for
    bit, and the rule by which _best_mask picks which masks it walks."""

    @staticmethod
    def check_both(p, k):
        expected, _ = best_mask_reference(p, k)
        assert algorithms._scan_mask(p, k) == expected
        assert algorithms._scan_mask(p, k, coverage_candidates(p, k)) == expected

    @staticmethod
    def refuse(*args):
        raise AssertionError("the other search must run")

    @staticmethod
    def table_walks(monkeypatch):
        """Refuse the walk over every mask, and record the candidate count
        of each walk over the table's candidates."""
        walk = algorithms._scan_mask
        calls = []

        def counted(p, k, candidates=None):
            if candidates is None:
                raise AssertionError("the table's candidates must be walked")
            calls.append(len(candidates))
            return walk(p, k, candidates)

        monkeypatch.setattr(algorithms, "_scan_mask", counted)
        return calls

    def test_reference_instances(self):
        rng = np.random.default_rng(57)
        for jd in TestExactSearchReference.instances(rng, (5, 120), (3, 11)):
            for k in range(1, jd.n_cols):
                self.check_both(jd.p, k)

    def test_ties_and_near_ties(self):
        rng = np.random.default_rng(71)
        for jd in TestCoverageRule.tied_instances(rng):
            for k in range(1, jd.n_cols):
                self.check_both(jd.p, k)
        # F(0, 1) and F(0, 2) differ by 2**-53 either way
        for delta in (2.0 ** -53, -2.0 ** -53):
            jd = TestMaskScanPruning.one_class_per_row(
                [0.25, 0.125, 0.125, 0.25, 0.125, 0.125 + delta])
            for k in (1, 2):
                self.check_both(jd.p, k)
        # columns that permute one vector's rows: every F ties exactly, but
        # the float sums differ in their last bits, and the table's sums
        # round otherwise than numpy's pairwise sum; without the rounding
        # bound the table proposes another column than the first largest
        for seed in range(12):
            rng = np.random.default_rng(seed)
            column = rng.random(1000)
            p = build_joint(np.stack([rng.permutation(column)
                                      for _ in range(6)], axis=1)).p
            for k in (1, 5):
                self.check_both(p, k)

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_table_serves_the_certify_shape(self, monkeypatch, k):
        # 5000 x 12 counts floor(1000 U**4), as the certify benchmark draws
        rng = np.random.default_rng(80)
        counts = np.floor(1000.0 * rng.random((5000, 12)) ** 4)
        counts[counts.sum(axis=1) == 0.0, 0] = 1.0
        jd = build_joint(counts)
        expected = likelihood_reference(jd, k, GINI)
        calls = self.table_walks(monkeypatch)
        res = max_likelihood_partition(jd, k, GINI)
        TestExactSearchReference.check(res, jd, k, GINI, expected)
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [1, 11])
    def test_scan_serves_one_and_n_minus_one_on_a_tall_input(self, monkeypatch, k):
        # 12 masks: the table's sort of 50000 x 12 entries would cost more
        jd = random_joint(np.random.default_rng(81), 50000, 12)
        monkeypatch.setattr(algorithms, "_coverage_table", self.refuse)
        TestMaskScanPruning.scan(jd, k)

    def test_scan_serves_past_the_table_column_limit(self, monkeypatch):
        # C(21, 10) masks of 30 points: by cost the table would serve, as it
        # does once the limit admits 21 columns, but it would hold 2**21
        # floats
        n = algorithms._COVER_BITS + 1
        jd = random_joint(np.random.default_rng(82), 30, n)
        monkeypatch.setattr(algorithms, "_scan_mask", self.refuse)
        monkeypatch.setattr(algorithms, "_coverage_table", admit)
        monkeypatch.setattr(algorithms, "_COVER_BITS", n)
        with pytest.raises(Admitted):
            max_likelihood_partition(jd, 10, ENT)
        monkeypatch.undo()
        monkeypatch.setattr(algorithms, "_coverage_table", self.refuse)
        monkeypatch.setattr(algorithms, "_scan_mask", admit)
        with pytest.raises(Admitted):
            max_likelihood_partition(jd, 10, ENT)

    def test_table_candidates_serve_identical_columns(self, monkeypatch):
        # every mask ties, so every mask is a candidate; they are walked
        # once, as the walk over every mask would walk them, and no second
        # search runs
        rng = np.random.default_rng(83)
        jd = build_joint(np.tile(rng.random((3000, 1)), (1, 12)))
        calls = self.table_walks(monkeypatch)
        for k in (5, 6, 7):
            res = TestMaskScanPruning.scan(jd, k)
            assert res.partition.assignment.tolist() == [0] * 3000
        assert calls == [math.comb(12, k) for k in (5, 6, 7)]

    @staticmethod
    def ordered_subsets(rng, n, k):
        """Lexicographically ordered subsets of the size-k masks of n
        columns: random ones, one mask per prefix, and one whose
        consecutive prefixes differ at every depth."""
        masks = list(itertools.combinations(range(n), k))
        for _ in range(3):
            keep = rng.random(len(masks)) < rng.random()
            keep[rng.integers(len(masks))] = True
            yield [mask for mask, kept in zip(masks, keep) if kept]
        yield list({mask[:-1]: mask for mask in masks}.values())
        yield [tuple(range(start, start + k)) for start in range(n - k + 1)]

    def test_walk_over_ordered_subsets_equals_the_reference(self):
        rng = np.random.default_rng(84)
        inputs = [random_joint(rng, 40, n).p for n in (2, 3, 5, 7)]
        tied = TestCoverageRule.tied_instances(rng)
        inputs += [jd.p for jd in itertools.islice(tied, 8)]
        # copied columns: masks tie exactly
        inputs.append(build_joint(np.tile(rng.random((50, 2)), (1, 3))).p)
        for p in inputs:
            n = p.shape[1]
            for k in range(1, n):
                for masks in self.ordered_subsets(rng, n, k):
                    candidates = np.array(masks, dtype=np.int64)
                    assert (algorithms._scan_mask(p, k, candidates)
                            == first_best_reference(p, masks))


class TestCoverageTableCache:
    """One coverage table per joint, kept in algorithms._COVER_TABLES and
    walked for every later k < N: each result equals that of a fresh
    joint, bit for bit, whatever order the ks come in."""

    @staticmethod
    def certify_counts(rng, m):
        """m x 12 counts floor(1000 U**4), as the certify benchmark draws."""
        counts = np.floor(1000.0 * rng.random((m, 12)) ** 4)
        counts[counts.sum(axis=1) == 0.0, 0] = 1.0
        return counts

    @staticmethod
    def recorded(monkeypatch, name):
        """Record each call of algorithms.<name>: (its arguments after the
        first, what it returned)."""
        original = getattr(algorithms, name)
        calls = []

        def recording(first, *rest):
            result = original(first, *rest)
            calls.append((rest, result))
            return result

        monkeypatch.setattr(algorithms, name, recording)
        return calls

    def check_fresh(self, monkeypatch, jd, ks, spec=GINI):
        """Each k of ks on jd against a fresh copy of jd, which has no
        table: the same mask, assignment, e_max_achieved and statistics."""
        masks = self.recorded(monkeypatch, "_best_mask")
        for k in ks:
            res = max_likelihood_partition(jd, k, spec)
            fresh = max_likelihood_partition(build_joint(jd.p), k, spec)
            assert masks[-2][1] == masks[-1][1]
            TestExactSearchReference.check(
                res, jd, k, spec, (fresh.partition.assignment,
                                   fresh.e_max_achieved, fresh.masks_evaluated))
        monkeypatch.undo()

    @pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
    def test_any_order_of_k_equals_a_fresh_joint(self, monkeypatch, order):
        rng = np.random.default_rng(86)
        copied = rng.random((2000, 12))
        copied[:, 6:] = copied[:, :6]
        inputs = [build_joint(self.certify_counts(rng, 2000)),
                  build_joint(copied),
                  build_joint(np.tile(rng.random((3000, 1)), (1, 12))),
                  *itertools.islice(TestCoverageRule.tied_instances(rng), 6)]
        for jd in inputs:
            ks = list(range(1, jd.n_cols))
            if order == "decreasing":
                ks.reverse()
            elif order == "shuffled":
                ks = rng.permutation(ks).tolist()
            self.check_fresh(monkeypatch, jd, ks)

    @pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
    def test_any_order_of_k_builds_one_table(self, monkeypatch, order):
        # certify's 5000 x 12 shape: the first k for which the rule picks
        # the table (k = 4 to 8) builds it, and every later k walks its
        # candidates, where the rule alone would pick the scan too
        rng = np.random.default_rng(88)
        jd = build_joint(self.certify_counts(rng, 5000))
        ks = list(range(1, 12))
        if order == "decreasing":
            ks.reverse()
        elif order == "shuffled":
            ks = rng.permutation(ks).tolist()
        builds = self.recorded(monkeypatch, "_coverage_table")
        walks = self.recorded(monkeypatch, "_scan_mask")
        for k in ks:
            max_likelihood_partition(jd, k, GINI)
        assert len(builds) == 1
        assert algorithms._COVER_TABLES[jd] is builds[0][1]
        if order == "increasing":
            assert [len(rest) == 2 for rest, _ in walks] == [False] * 3 + [True] * 8
        monkeypatch.undo()
        self.check_fresh(monkeypatch, jd, ks)

    def test_a_table_goes_with_its_joint(self, monkeypatch):
        monkeypatch.setattr(algorithms, "_COVER_TABLES", weakref.WeakKeyDictionary())
        rng = np.random.default_rng(89)
        jd = build_joint(self.certify_counts(rng, 5000))
        # the result stays alive and does not hold its joint
        res = max_likelihood_partition(jd, 6, GINI)
        assert len(algorithms._COVER_TABLES) == 1
        del jd
        gc.collect()
        assert len(algorithms._COVER_TABLES) == 0
        assert res.partition.k == 6


class TestApproximationGuarantee:
    @pytest.mark.parametrize("spec", [ENT, GINI], ids=["entropy", "gini"])
    def test_ratio_certified_on_small_instances(self, spec):
        rng = np.random.default_rng(56)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(3, 8))
            k = n
            jd = random_joint(rng, m, n)
            algo = max_likelihood_partition(jd, k, spec)
            oracle = exhaustive_oracle(jd, k, spec)
            if oracle.stats.impurity <= 1e-12:
                continue
            ratio = approximation_ratio(algo.e_max_achieved, n, spec)
            assert algo.stats.impurity <= ratio * oracle.stats.impurity + 1e-9
            if spec.kind == "gini":
                assert algo.stats.impurity <= 2.0 * oracle.stats.impurity + 1e-9


def two_class_instances(rng):
    """N = 2 joints at M = 200 to 1000: uniform rows, small counts (many
    points tie in p(x0 | y)), and rows where most points are pure."""
    yield random_joint(rng, 200, 2)
    yield dyadic_joint(rng, 500, 2, hi=20)
    yield build_joint(sparse_rows(rng, 700, 2, density=0.5))
    yield random_joint(rng, 1000, 2)


class TestTwoClassOptimum:
    """The exact N = 2 optimum of tests/helpers.two_class_optimum as ground
    truth: it is the oracle's on small cases and bounds every algorithm at
    scale."""

    def test_equals_the_oracle_on_small_cases(self):
        rng = np.random.default_rng(68)
        for case in range(40):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(1, 5))
            jd = (random_joint(rng, m, 2) if case % 2
                  else dyadic_joint(rng, m, 2, hi=6))
            for spec in (ENT, GINI, SQRT):
                oracle = exhaustive_oracle(jd, k, spec).stats.impurity
                assert math.isclose(two_class_optimum(jd, k, spec), oracle,
                                    rel_tol=1e-12, abs_tol=1e-15), (case, spec.kind)

    def test_equals_the_oracle_up_to_its_cap(self):
        # the largest oracle sizes: k**m up to ORACLE_CAP at k = 2, 3 and 4,
        # on continuous rows and on counts of 1 and 2, where many points tie
        # in p(x0 | y); one tie-heavy input at k = 2, m = 20 per impurity
        rng = np.random.default_rng(74)
        cases = [(2, 20, dyadic_joint(rng, 20, 2, hi=3))]
        for k, m in ((2, 16), (3, 13), (3, 11), (4, 10), (4, 8)):
            cases += [(k, m, random_joint(rng, m, 2)),
                      (k, m, dyadic_joint(rng, m, 2, hi=3))]
        for k, m, jd in cases:
            assert k ** m <= ORACLE_CAP
            for spec in (ENT, GINI, SQRT):
                oracle = exhaustive_oracle(jd, k, spec).stats.impurity
                opt = two_class_optimum(jd, k, spec)
                assert leq(oracle, opt) and leq(opt, oracle), (k, m, spec.kind)

    @pytest.mark.parametrize("spec", [ENT, GINI, SQRT], ids=["entropy", "gini", "sqrt"])
    def test_certified_ratio_and_no_result_below_opt_at_scale(self, spec):
        rng = np.random.default_rng(69)
        for jd in two_class_instances(rng):
            for k in (2, 4, 8):
                opt = two_class_optimum(jd, k, spec)
                ml = max_likelihood_partition(jd, k, spec)
                ratio = approximation_ratio(ml.e_max_achieved, 2, spec)
                assert ml.stats.impurity <= ratio * opt + 1e-9, (jd.n_rows, k)
                results = [ml] + ([greedy_split(jd, k, spec)] if k > 2 else [])
                results += [iterative_refine(jd, r.partition, spec) for r in results]
                for res in results:
                    assert res.stats.impurity >= opt - 1e-9, (jd.n_rows, k)


class TestNoGarbageCycles:
    """The exact searches leave no reference cycles: garbage that only the
    cyclic collector frees would hold their buffers past the call."""

    def test_exact_searches_leave_nothing_for_the_collector(self):
        rng = np.random.default_rng(75)
        wide = random_joint(rng, 2000, 9)
        small = dyadic_joint(rng, 9, 4)
        gc.collect()
        gc.disable()
        try:
            for k in (1, 3, 5):
                max_likelihood_partition(wide, k, GINI)
            for k in (1, 2, 3):
                exhaustive_oracle(small, k, GINI)
            assert gc.collect() == 0
        finally:
            gc.enable()
