"""Joint distribution containers and partition statistics."""

import numpy as np
import pytest

from impuritypart import (
    DimensionMismatch,
    InvalidDistribution,
    JointDistribution,
    KTooSmall,
    LabelOutOfRange,
    NegativeEntry,
    NonFinite,
    Partition,
    ZeroRow,
    ZeroTotal,
    build_joint,
    compute_stats,
    entropy_spec,
    gini_spec,
)
from impuritypart.prob import aggregate

from helpers import leq, random_joint, random_partition, stats_reference


class TestBuildJoint:
    def test_uniform_normalization(self):
        jd = build_joint([[1, 1], [1, 1]])
        np.testing.assert_array_equal(jd.p, np.full((2, 2), 0.25))

    def test_diagonal(self):
        jd = build_joint([[2, 0], [0, 2]])
        np.testing.assert_array_equal(jd.p, [[0.5, 0.0], [0.0, 0.5]])

    def test_zero_row_names_the_row(self):
        with pytest.raises(ZeroRow) as info:
            build_joint([[1, 0], [0, 0]])
        assert info.value.row == 1

    def test_negative_entry_names_the_index(self):
        with pytest.raises(NegativeEntry) as info:
            build_joint([[1, 2], [3, -4]])
        assert info.value.index == (1, 1)

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            build_joint([[0, 0], [0, 0]])

    def test_shape_requirements(self):
        with pytest.raises(DimensionMismatch):
            build_joint([[1], [2]])  # one column
        with pytest.raises(DimensionMismatch):
            build_joint([1, 2, 3])  # not 2-D


class TestNonFiniteInput:
    def test_nan_entry_names_the_index(self):
        with pytest.raises(NonFinite) as info:
            build_joint([[1, np.nan], [1, 1]])
        assert info.value.index == (0, 1)

    def test_inf_entry_is_not_reported_as_zero_row(self):
        with pytest.raises(NonFinite) as info:
            build_joint([[1, np.inf], [1, 1]])
        assert info.value.index == (0, 1)
        with pytest.raises(NonFinite):
            build_joint([[1, 1], [-np.inf, 1]])

    def test_joint_distribution_rejects_nan(self):
        # a NaN joint would reach the algorithms and report impurity 0.0
        with pytest.raises(NonFinite) as info:
            JointDistribution(np.array([[0.5, 0.25], [np.nan, 0.25]]))
        assert info.value.index == (1, 0)


class TestJointDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistribution):
            JointDistribution(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_marginals(self):
        jd = build_joint([[1, 3], [2, 2]])
        np.testing.assert_allclose(jd.row_masses, [0.5, 0.5])
        np.testing.assert_allclose(jd.col_masses, [0.375, 0.625])
        assert jd.n_rows == 2 and jd.n_cols == 2

    def test_storage_is_read_only(self):
        jd = build_joint([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            jd.p[0, 0] = 0.3


class TestPartition:
    def test_label_validation(self):
        with pytest.raises(LabelOutOfRange):
            Partition(np.array([0, 2]), 2)
        with pytest.raises(KTooSmall):
            Partition(np.array([0]), 0)

    def test_unused_labels_allowed(self):
        part = Partition(np.array([0, 0, 0]), 5)
        assert part.k == 5 and part.n_points == 3


class TestComputeStats:
    def test_pure_partitions_have_zero_impurity(self):
        jd = build_joint(np.eye(2))
        stats = compute_stats(jd, Partition(np.array([0, 1]), 2), entropy_spec())
        assert stats.impurity == 0.0
        assert stats.e_q == 1.0

    def test_uniform_two_by_two(self):
        jd = build_joint(np.ones((2, 2)))
        stats = compute_stats(jd, Partition(np.array([0, 0]), 1), entropy_spec())
        assert abs(stats.impurity - 1.0) <= 1e-12
        assert abs(stats.e_q - 0.5) <= 1e-12

    def test_matches_reference_tabulation(self):
        rng = np.random.default_rng(21)
        jd = random_joint(rng, 4, 3)
        part = Partition(np.array([0, 1, 2, 0]), 3)
        gini = gini_spec()
        stats = compute_stats(jd, part, gini)
        ref_imp, ref_e = stats_reference(jd.p, part.assignment, 3, gini.f)
        assert abs(stats.impurity - ref_imp) <= 1e-12
        assert abs(stats.e_q - ref_e) <= 1e-12

    def test_length_mismatch(self):
        jd = build_joint(np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            compute_stats(jd, Partition(np.array([0, 1]), 2), entropy_spec())
        with pytest.raises(DimensionMismatch):
            Partition(np.array([[0, 1]]), 2)

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(24)
        jd = random_joint(rng, 11, 5)
        part = random_partition(rng, 11, 3)
        a = compute_stats(jd, part, entropy_spec())
        b = compute_stats(jd, part, entropy_spec())
        assert a.impurity == b.impurity and a.e_q == b.e_q
        assert (a.pxz == b.pxz).all()
        assert (a.per_partition_impurity == b.per_partition_impurity).all()

    def test_empty_partitions_flagged_absent(self):
        jd = build_joint(np.ones((3, 2)))
        stats = compute_stats(jd, Partition(np.array([0, 0, 2]), 4), gini_spec())
        np.testing.assert_array_equal(stats.nonempty, [True, False, True, False])
        np.testing.assert_array_equal(stats.px_given_z[1], [0.0, 0.0])
        assert stats.per_partition_impurity[1] == 0.0
        assert stats.n_nonempty == 2

    def test_stored_invariants(self):
        rng = np.random.default_rng(22)
        for spec in (entropy_spec(), gini_spec()):
            for _ in range(50):
                m = int(rng.integers(3, 13))
                n = int(rng.integers(2, 7))
                k = int(rng.integers(1, m + 1))
                jd = random_joint(rng, m, n)
                stats = compute_stats(jd, random_partition(rng, m, k), spec)
                assert abs(stats.pz.sum() - 1.0) <= 1e-9
                rows = stats.px_given_z[stats.nonempty]
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
                assert abs(stats.impurity
                           - stats.per_partition_impurity.sum()) <= 1e-9
                assert 1.0 / n - 1e-12 <= stats.e_q <= 1.0 + 1e-12
                assert stats.impurity >= 0.0


class TestAggregate:
    def test_bitwise_equal_to_add_at(self):
        rng = np.random.default_rng(29)
        for trial in range(40):
            m = int(rng.integers(1, 300))
            n = int(rng.integers(2, 9))
            used = rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
            labels = rng.choice(used, size=m)
            # labels come from a subset of 0..11, so some stay empty, and k
            # runs up to three past the largest label
            k = int(labels.max()) + 1 + trial % 4
            p = rng.random((m, n)) ** 3
            expected = np.zeros((k, n))
            np.add.at(expected, labels, p)
            got = aggregate(p, labels, k)
            assert got.shape == (k, n)
            assert got.tobytes() == expected.tobytes()


class TestMergeSplitMonotonicity:
    """Merging partitions never lowers impurity; splitting never raises it."""

    @pytest.mark.parametrize("spec", [entropy_spec(), gini_spec()],
                             ids=["entropy", "gini"])
    def test_random_merges_and_splits(self, spec):
        rng = np.random.default_rng(23)
        for _ in range(60):
            m = int(rng.integers(4, 12))
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            jd = random_joint(rng, m, n)
            part = random_partition(rng, m, k)
            base = compute_stats(jd, part, spec).impurity

            # merge two labels
            a, b = rng.choice(k, size=2, replace=False)
            merged = np.where(part.assignment == b, a, part.assignment)
            merged_imp = compute_stats(jd, Partition(merged, k), spec).impurity
            assert leq(base, merged_imp)

            # split a label with at least two members
            counts = np.bincount(part.assignment, minlength=k)
            rich = np.flatnonzero(counts >= 2)
            if rich.size:
                source = int(rich[0])
                members = np.flatnonzero(part.assignment == source)
                take = members[: max(1, members.size // 2)]
                split = np.array(part.assignment)
                split[take] = k  # fresh label
                split_imp = compute_stats(jd, Partition(split, k + 1), spec).impurity
                assert leq(split_imp, base)

    def test_zero_impurity_iff_degenerate_conditionals(self):
        jd = build_joint([[3, 0], [1, 0], [0, 2]])
        stats = compute_stats(jd, Partition(np.array([0, 0, 1]), 2), entropy_spec())
        assert stats.impurity == 0.0
        mixed = compute_stats(jd, Partition(np.array([0, 0, 0]), 1), entropy_spec())
        assert mixed.impurity > 0.0
