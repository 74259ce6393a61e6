"""Joint distribution containers and partition statistics."""

import itertools
import math
import re

import numpy as np
import pytest

from impuritypart import (
    DimensionMismatch,
    ImpurityPartError,
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

from helpers import (leq, peak_bytes, random_joint, random_partition,
                     stats_reference)


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
        with pytest.raises(NegativeEntry,
                           match=r"^negative entry -4.0 at index \(1, 1\)$") as info:
            build_joint([[1, 2], [3, -4]])
        assert info.value.index == (1, 1) and info.value.value == -4.0
        assert isinstance(info.value, ImpurityPartError)
        assert isinstance(info.value, ValueError)

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            build_joint([[0, 0], [0, 0]])

    def test_shape_requirements(self):
        # JointDistribution's messages, checked before the entries, so NaN
        # and negatives do not mask them
        for raw, message in (
                ([[1], [2]], "need at least two class columns, got 1"),
                ([1, 2, 3], "expected a 2-D matrix, got ndim=1"),
                ([1.0, np.nan], "expected a 2-D matrix, got ndim=1"),
                (np.ones((2, 2, 2)), "expected a 2-D matrix, got ndim=3"),
                (np.zeros((0, 3)), "need at least one data point row"),
                ([[np.nan], [-1.0]], "need at least two class columns, got 1")):
            with pytest.raises(DimensionMismatch, match=f"^{message}$"):
                build_joint(raw)


class TestOneNormalization:
    """build_joint and ingest share one rule: a total within 1e-9 of 1 is kept
    verbatim, any other is divided out, and an overflowing total is named."""

    def test_build_joint_is_idempotent(self):
        rng = np.random.default_rng(81)
        for _ in range(100):
            m = int(rng.integers(1, 30))
            n = int(rng.integers(2, 8))
            jd = random_joint(rng, m, n)
            again = build_joint(jd.p)
            assert again.p.tobytes() == jd.p.tobytes()

    def test_total_within_tolerance_kept_verbatim(self):
        raw = np.array([[0.5, 0.25], [0.25, 1e-10]])
        assert build_joint(raw).p.tobytes() == raw.tobytes()

    def test_holds_at_most_two_matrices(self):
        raw = np.random.default_rng(85).random((20000, 10))
        peak, _ = peak_bytes(lambda: build_joint(raw))
        assert peak <= 2.5 * raw.nbytes

    def test_overflowing_total_is_named(self):
        # finite entries whose total overflows: no RuntimeWarning (tier-1
        # turns those into errors) and no misleading "sum to 0.0"
        with pytest.raises(InvalidDistribution, match="overflow"):
            build_joint([[1e308, 1e308], [1, 1]])


class TestNonFiniteInput:
    def test_nan_entry_names_the_index(self):
        with pytest.raises(NonFinite,
                           match=r"^non-finite entry nan at index \(0, 1\)$") as info:
            build_joint([[1, np.nan], [1, 1]])
        assert info.value.index == (0, 1) and math.isnan(info.value.value)
        assert isinstance(info.value, ImpurityPartError)
        assert isinstance(info.value, ValueError)

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
        assert jd.n_rows == 2 and jd.n_cols == 2

    def test_shape_requirements(self):
        # built directly, not through build_joint
        for raw, message in (
                ([0.5, 0.5], "expected a 2-D matrix, got ndim=1"),
                (np.zeros((0, 3)), "need at least one data point row"),
                ([[0.5], [0.5]], "need at least two class columns, got 1")):
            with pytest.raises(DimensionMismatch, match=f"^{message}$"):
                JointDistribution(raw)

    def test_storage_is_read_only(self):
        jd = build_joint([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            jd.p[0, 0] = 0.3


class TestColumnMajorLayout:
    """p is stored column-major; its masses are the C-order sums."""

    def test_columns_are_contiguous(self):
        rng = np.random.default_rng(87)
        for raw in (rng.random((50, 12)), np.asfortranarray(rng.random((50, 12))),
                    rng.random((12, 50))[:, ::3].T, [[1, 2], [3, 4]]):
            jd = build_joint(raw)
            assert jd.p.flags.f_contiguous
            assert jd.p[:, 1].flags.contiguous
            assert JointDistribution(jd.p).p.flags.f_contiguous

    def test_masses_are_c_order_sums(self):
        # at N >= 8 a column-major sum(axis=1) rounds differently
        rng = np.random.default_rng(88)
        for m, n in ((10000, 20), (300, 9), (7, 2)):
            c = rng.random((m, n))
            c /= c.sum()
            for src in (c, np.asfortranarray(c)):
                jd = JointDistribution(src)
                assert jd.p.tobytes() == c.tobytes()
                assert jd.row_masses.tobytes() == c.sum(axis=1).tobytes()

    def test_input_is_copied(self):
        c = np.full((2, 2), 0.25)
        jd = JointDistribution(c)
        c[0, 0] = 0.5
        assert jd.p[0, 0] == 0.25


class TestPartition:
    def test_label_validation(self):
        with pytest.raises(LabelOutOfRange):
            Partition(np.array([0, 2]), 2)
        with pytest.raises(KTooSmall):
            Partition(np.array([0]), 0)
        # float labels are checked before the integer cast, which truncates
        for labels, message in (([0.5, 1.0], "label 0.5 at position 0"),
                                ([1.0, 1.5, 0.0], "label 1.5 at position 1"),
                                ([0.0, math.nan], "label nan at position 1"),
                                ([math.inf], "label inf at position 0"),
                                ([1.0, -1.0], "label -1.0 at position 1"),
                                ([2.0, 0.0], "label 2.0 at position 0")):
            with pytest.raises(LabelOutOfRange, match=f"^{re.escape(message)} "):
                Partition(np.array(labels), 2)
        part = Partition(np.array([1.0, 0.0]), 2)
        assert part.assignment.dtype == np.intp
        assert part.assignment.tolist() == [1, 0]

    def test_k_must_be_an_int(self):
        # a float k used to be accepted here and fail inside compute_stats
        for k in (2.0, True, "2", None):
            with pytest.raises(ValueError, match=f"^k must be an int, got {re.escape(repr(k))}$"):
                Partition(np.array([0, 1]), k)
        with pytest.raises(KTooSmall, match="^k must be >= 1, got 0$"):
            Partition(np.array([0]), np.int64(0))
        # a numpy int of any width is stored as the Python int
        for width in (np.int8, np.int16, np.int32, np.int64,
                      np.uint8, np.uint16, np.uint32, np.uint64):
            part = Partition(np.array([0, 1]), width(2))
            assert part.k == 2 and part.assignment.tolist() == [0, 1]
            assert type(part.k) is int

    def test_unused_labels_allowed(self):
        part = Partition(np.array([0, 0, 0]), 5)
        assert part.k == 5 and part.assignment.size == 3


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


class TestEmptyLabelPadding:
    """Empty labels add nothing to a partition's totals, bit for bit, however
    many of them pad it and wherever they sit among the used labels."""

    @pytest.mark.parametrize("spec", [entropy_spec(), gini_spec()],
                             ids=["entropy", "gini"])
    def test_totals_ignore_empty_labels(self, spec):
        rng = np.random.default_rng(82)
        for _ in range(40):
            m = int(rng.integers(20, 60))
            used = int(rng.integers(3, 12))
            k = int(rng.integers(max(8, used + 1), 20))
            jd = random_joint(rng, m, int(rng.integers(2, 6)))
            dense = np.concatenate([np.arange(used),
                                    rng.integers(0, used, size=m - used)])
            labels = np.sort(rng.choice(k, size=used, replace=False))
            dense_stats = compute_stats(jd, Partition(dense, used), spec)
            for extra in (0, 1, 7, 30):
                stats = compute_stats(jd, Partition(labels[dense], k + extra), spec)
                assert stats.n_nonempty == used
                assert stats.impurity == dense_stats.impurity
                assert stats.e_q == dense_stats.e_q


class TestAggregate:
    @staticmethod
    def inputs():
        """(p, labels, k) for aggregate: random labellings, then the greedy
        walks' blocks."""
        rng = np.random.default_rng(29)
        for trial in range(40):
            m = int(rng.integers(1, 300))
            n = int(rng.integers(2, 9))
            used = rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
            labels = rng.choice(used, size=m)
            # labels come from a subset of 0..11, so some stay empty, and k
            # runs up to three past the largest label
            k = int(labels.max()) + 1 + trial % 4
            yield rng.random((m, n)) ** 3, labels, k
        # one label, as the walks sum their blocks, on both sides of the
        # reduce's column rule, and two, which take the bincounts, row-major
        # and column-major, up to 20011 rows; column 1 holds only -0.0,
        # which both methods sum to +0.0
        for m, n, k in itertools.product((1, 2, 300, 20011), (3, 4, 5, 9, 20), (1, 2)):
            p = rng.random((m, n)) ** 3
            p[:, 1] = -0.0
            # at 300 rows label 1 is empty; two labels also come as bools
            labels = rng.integers(k, size=m) * (m != 300)
            for order in "CF":
                block = np.array(p, order=order)
                yield block, labels, k
                if k == 2:
                    yield block, labels == 1, k

    def test_bitwise_equal_to_add_at(self):
        for p, labels, k in self.inputs():
            m, n = p.shape
            expected = np.zeros((k, n))
            np.add.at(expected, labels.astype(np.intp), p)
            got = aggregate(p, labels, k)
            assert got.shape == (k, n)
            assert got.tobytes() == expected.tobytes(), (m, n, k, p.flags.c_contiguous)


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
