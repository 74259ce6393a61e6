"""Partitioning algorithms against oracles and structural properties."""

import itertools
import math

import numpy as np
import pytest

from impuritypart import (
    InstanceTooLarge,
    KNotGreaterThanN,
    KNotLessThanN,
    KTooSmall,
    MaskBudgetExceeded,
    Partition,
    approximation_ratio,
    build_joint,
    compute_stats,
    custom_spec,
    entropy_spec,
    exhaustive_oracle,
    gini_spec,
    greedy_merge,
    greedy_split,
    iterative_refine,
    max_likelihood_partition,
    projection_masks,
)
from impuritypart.algorithms import _divergences

from helpers import (
    all_assignment_e_values,
    divergence_reference,
    dyadic_joint,
    greedy_reference,
    leq,
    random_joint,
    random_partition,
    sparse_rows,
)

ENT = entropy_spec()
GINI = gini_spec()
SQRT = custom_spec(lambda x: math.sqrt(x) - x)


def trace_impurities(result):
    return [event["impurity"] for event in result.trace]


class TestProjectionMasks:
    def test_single_all_ones_when_k_at_least_n(self):
        masks = list(projection_masks(3, 5))
        assert len(masks) == 1
        assert masks[0].all() and masks[0].size == 3

    def test_all_size_k_masks_below_n(self):
        masks = list(projection_masks(4, 2))
        assert len(masks) == 6
        assert all(m.sum() == 2 for m in masks)
        assert len({tuple(m.tolist()) for m in masks}) == 6
        # deterministic order: first mask keeps the lowest-index classes
        np.testing.assert_array_equal(masks[0], [True, True, False, False])


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

    def test_errors(self):
        jd = build_joint(np.ones((3, 2)))
        with pytest.raises(KTooSmall):
            max_likelihood_partition(jd, 0, ENT)
        rng = np.random.default_rng(43)
        wide = random_joint(rng, 3, 12)
        with pytest.raises(MaskBudgetExceeded):
            max_likelihood_partition(wide, 6, ENT, mask_budget=100)

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
                assert all(d >= -1e-12 for _, _, d in event["evaluated"])
                # chosen loss is the minimum of the evaluated losses
                assert event["delta"] <= min(d for _, _, d in event["evaluated"]) + 1e-15
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
        assert res.trace == trace
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
        # replicated rows: thresholds tie, so splits fall back to one point
        yield build_joint(np.vstack([rng.integers(1, 9, size=(4, 3))] * 3))
        yield build_joint(np.ones((5, 2)))
        # three points cannot fill many labels: the split trajectory stops
        yield build_joint([[3, 1, 1], [1, 3, 1], [1, 1, 3]])

    @pytest.mark.parametrize("spec", [ENT, GINI, SQRT], ids=["entropy", "gini", "sqrt"])
    def test_split_and_merge_equal_reference(self, spec):
        seen = set()
        for jd in self.instances():
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
                if any(e.get("fallback") for e in res.trace):
                    seen.add("fallback")
        assert seen == {"unused class", "no merge needed", "stop", "fallback"}


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

    def test_respects_max_iters(self):
        rng = np.random.default_rng(54)
        jd = random_joint(rng, 12, 4)
        start = random_partition(rng, 12, 4)
        res = iterative_refine(jd, start, ENT, max_iters=1)
        assert len([e for e in res.trace if e["event"] == "iteration"]) == 1

    def test_custom_impurity_matches_gini_behavior(self):
        # the generic divergence ranks centroids like the squared distance
        # when f is the Gini function, so the refinements agree
        custom = custom_spec(lambda x: x * (1.0 - x), l=lambda x: 1.0 - x)
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
            score = _divergences(cond, q, spec)
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

    def test_instance_cap(self):
        jd = build_joint(np.ones((30, 2)))
        with pytest.raises(InstanceTooLarge):
            exhaustive_oracle(jd, 2, ENT)
        with pytest.raises(KTooSmall):
            exhaustive_oracle(jd, 0, ENT)


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
