"""Closed-form bounds, ratios, and capacity bounds."""

import math
import re

import numpy as np
import pytest

from impuritypart import (
    EOutOfRange,
    NotAChannel,
    approximation_ratio,
    bounds_report,
    boyd_chiang_bound,
    compute_stats,
    custom_spec,
    entropy_spec,
    fano_bound,
    gini_spec,
    lower_bound,
    n_min,
    s_value,
    upper_bound,
)

from helpers import mutual_information_uniform, random_joint, random_partition

ENT = entropy_spec()
GINI = gini_spec()


class TestUpperBound:
    def test_zero_at_e_one(self):
        for n in (2, 3, 7):
            assert upper_bound(1.0, n, ENT) == 0.0
            assert upper_bound(1.0, n, GINI) == 0.0

    def test_tight_at_uniform_likelihood(self):
        assert abs(upper_bound(0.25, 4, ENT) - 2.0) <= 1e-12  # log2(4)
        for n in (2, 3, 5, 8):
            for spec in (ENT, GINI):
                expected = n * spec.f(1.0 / n)
                assert abs(upper_bound(1.0 / n, n, spec) - expected) <= 1e-12

    def test_gini_closed_form(self):
        # f(0.5) + 2 f(0.25) = 0.25 + 2 * 0.1875
        assert abs(upper_bound(0.5, 3, GINI) - 0.625) <= 1e-15

    def test_domain(self):
        with pytest.raises(EOutOfRange):
            upper_bound(0.2, 3, ENT)  # below 1/3
        with pytest.raises(EOutOfRange):
            upper_bound(1.1, 3, ENT)
        with pytest.raises(EOutOfRange):
            upper_bound(0.5, 1, ENT)


class TestLowerBound:
    def test_entropy_values(self):
        assert lower_bound(1.0, ENT) == 0.0
        assert lower_bound(0.5, ENT) == 1.0

    def test_gini_tight_at_uniform(self):
        assert abs(lower_bound(0.25, GINI) - 4 * GINI.f(0.25)) <= 1e-15

    def test_domain(self):
        with pytest.raises(EOutOfRange):
            lower_bound(0.0, ENT)
        with pytest.raises(EOutOfRange):
            lower_bound(-0.2, ENT)


class TestApproximationRatio:
    def test_gini_never_exceeds_two(self):
        for n in (2, 3, 5, 17, 64):
            for e in np.linspace(1.0 / n, 0.999999, 200):
                r = approximation_ratio(e, n, GINI)
                assert r <= 2.0 + 1e-12
                assert r <= 1.0 + e + 1e-12

    def test_gini_closed_form_matches_quotient(self):
        assert abs(approximation_ratio(0.5, 3, GINI) - 1.25) <= 1e-15
        for n in (2, 4, 9):
            for e in np.linspace(1.0 / n + 0.01, 0.99, 37):
                direct = approximation_ratio(e, n, GINI)
                quotient = upper_bound(e, n, GINI) / lower_bound(e, GINI)
                assert abs(direct - quotient) <= 1e-9

    def test_entropy_matches_quotient(self):
        for n in (2, 4, 9):
            for e in np.linspace(1.0 / n + 0.01, 0.99, 37):
                direct = approximation_ratio(e, n, ENT)
                quotient = upper_bound(e, n, ENT) / lower_bound(e, ENT)
                assert abs(direct - quotient) <= 1e-9

    def test_tight_cases(self):
        for n in (2, 3, 5):
            assert abs(approximation_ratio(1.0 / n, n, ENT) - 1.0) <= 1e-12
            assert abs(approximation_ratio(1.0 / n, n, GINI) - 1.0) <= 1e-12
        assert approximation_ratio(1.0, 4, ENT) == 1.0

    def test_custom_spec_uses_quotient(self):
        custom = custom_spec(lambda x: x * (1.0 - x), l=lambda x: 1.0 - x)
        assert abs(approximation_ratio(0.5, 3, custom)
                   - approximation_ratio(0.5, 3, GINI)) <= 1e-12


class TestThresholds:
    def test_published_n_min_values(self):
        assert abs(n_min(0.5) - 2.42) <= 0.01
        assert abs(n_min(0.8) - 3.58) <= 0.01
        assert abs(n_min(0.9) - 4.34) <= 0.01
        assert abs(n_min(0.999) - 9.06) <= 0.01

    def test_s_monotone_increasing(self):
        xs = np.arange(0.001, 1.0, 0.001)
        s = np.array([s_value(x) for x in xs])
        assert (np.diff(s) >= -1e-12).all()

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(EOutOfRange):
                s_value(bad)


class TestFano:
    def test_boundary_values(self):
        assert fano_bound(1.0, 5) == 0.0
        assert abs(fano_bound(0.5, 2) - 1.0) <= 1e-15

    def test_identity_with_entropy_upper_bound(self):
        rng = np.random.default_rng(31)
        for n in range(2, 11):
            for e in rng.uniform(1.0 / n, 1.0, size=30):
                assert abs(fano_bound(e, n) - upper_bound(e, n, ENT)) <= 1e-12


class TestMonotonicity:
    @pytest.mark.parametrize("spec", [ENT, GINI], ids=["entropy", "gini"])
    def test_upper_and_lower_non_increasing(self, spec):
        for n in (2, 3, 10):
            grid = np.arange(1.0 / n, 1.0 + 1e-9, 1e-3)
            u = np.array([upper_bound(e, n, spec) for e in grid])
            l = np.array([lower_bound(e, spec) for e in grid])
            assert (np.diff(u) <= 1e-12).all()
            assert (np.diff(l) <= 1e-12).all()
            assert (l <= u + 1e-12).all()


class TestSandwich:
    @pytest.mark.parametrize("spec", [ENT, GINI], ids=["entropy", "gini"])
    def test_impurity_between_bounds(self, spec):
        rng = np.random.default_rng(32)
        for _ in range(40):
            m = int(rng.integers(3, 13))
            n = int(rng.integers(2, 7))
            jd = random_joint(rng, m, n)
            for _ in range(10):
                k = int(rng.integers(1, m + 1))
                stats = compute_stats(jd, random_partition(rng, m, k), spec)
                assert lower_bound(stats.e_q, spec) <= stats.impurity + 1e-9
                assert stats.impurity <= upper_bound(stats.e_q, n, spec) + 1e-9

    def test_holds_for_a_custom_concave_function(self):
        # the bound derivations only need concavity and f(x) = x*l(x)
        spec = custom_spec(lambda x: math.sqrt(x) * (1.0 - math.sqrt(x)),
                           l=lambda x: 1.0 / math.sqrt(x) - 1.0)
        rng = np.random.default_rng(34)
        for _ in range(60):
            m = int(rng.integers(3, 12))
            n = int(rng.integers(2, 6))
            jd = random_joint(rng, m, n)
            stats = compute_stats(
                jd, random_partition(rng, m, int(rng.integers(1, m + 1))), spec)
            assert lower_bound(stats.e_q, spec) <= stats.impurity + 1e-9
            assert stats.impurity <= upper_bound(stats.e_q, n, spec) + 1e-9


class TestBoydChiang:
    def test_identity_channel(self):
        assert boyd_chiang_bound(np.eye(2)) == 1.0
        assert abs(boyd_chiang_bound(np.eye(8)) - 3.0) <= 1e-12

    def test_binary_symmetric_channel(self):
        bound = boyd_chiang_bound([[0.9, 0.1], [0.1, 0.9]])
        assert abs(bound - math.log2(1.8)) <= 1e-12
        # dominates the true capacity 1 - H(0.1)
        capacity = mutual_information_uniform([[0.9, 0.1], [0.1, 0.9]])
        assert bound >= capacity - 1e-12

    def test_uniform_channel_has_zero_bound(self):
        # 1/k is exactly representable for powers of two, so the zero is exact
        for k in (2, 4, 8):
            assert boyd_chiang_bound(np.full((k, 3), 1.0 / k)) == 0.0
        for k in (3, 6):
            assert abs(boyd_chiang_bound(np.full((k, 3), 1.0 / k))) <= 1e-12

    def test_dominates_mutual_information(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            channel = rng.dirichlet(np.ones(k), size=n).T  # columns sum to 1
            assert boyd_chiang_bound(channel) >= \
                mutual_information_uniform(channel) - 1e-9

    def test_rejects_non_channels(self):
        with pytest.raises(NotAChannel):
            boyd_chiang_bound([[0.5, 0.5], [0.2, 0.2]])
        with pytest.raises(NotAChannel):
            boyd_chiang_bound([[1.5, 1.0], [-0.5, 0.0]])

    def test_rejects_non_finite_entries(self):
        # NaN passes both the sign and the column-sum comparisons
        for channel, where in (([[math.nan, 0.5], [math.nan, 0.5]], "(0, 0)"),
                               ([[1.0, 0.5], [0.0, math.inf]], "(1, 1)"),
                               ([[1.0, -math.inf], [0.0, 0.5]], "(0, 1)")):
            with pytest.raises(NotAChannel, match=re.escape(where)):
                boyd_chiang_bound(channel)


class TestDomainEdges:
    def test_tiny_undershoot_is_clamped(self):
        third = 1.0 / 3.0
        assert upper_bound(third - 1e-12, 3, ENT) == upper_bound(third, 3, ENT)
        assert upper_bound(1.0 + 1e-12, 3, ENT) == 0.0
        assert lower_bound(1.0 + 1e-12, ENT) == 0.0

    def test_non_integer_class_count_rejected(self):
        with pytest.raises(EOutOfRange):
            upper_bound(0.5, 2.5, ENT)
        with pytest.raises(EOutOfRange):
            fano_bound(0.5, 1)


class TestHighPrecisionCrossCheck:
    """The double-precision closed forms agree with 50-digit evaluations."""

    @staticmethod
    def _setup_mp():
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        return mp

    def test_bounds_and_ratios(self):
        mp = self._setup_mp()
        log2 = lambda x: mp.log(x) / mp.log(2)
        ent_f = lambda x: -x * log2(x) if x > 0 else mp.mpf(0)
        for n in (2, 3, 7, 33):
            for e in np.linspace(1.0 / n, 1.0, 23)[:-1]:
                em = mp.mpf(float(e))
                rest = (1 - em) / (n - 1)
                u_ent = ent_f(em) + (n - 1) * ent_f(rest)
                u_gini = em * (1 - em) + (n - 1) * rest * (1 - rest)
                l_ent = -log2(em)
                assert abs(upper_bound(e, n, ENT) - float(u_ent)) <= 1e-12
                assert abs(upper_bound(e, n, GINI) - float(u_gini)) <= 1e-12
                assert abs(lower_bound(e, ENT) - float(l_ent)) <= 1e-12
                assert abs(lower_bound(e, GINI) - float(1 - em)) <= 1e-12
                assert abs(approximation_ratio(e, n, ENT)
                           - float(u_ent / l_ent)) <= 1e-11
                assert abs(approximation_ratio(e, n, GINI)
                           - float(u_gini / (1 - em))) <= 1e-11

    def test_threshold_exponent(self):
        mp = self._setup_mp()
        log2 = lambda x: mp.log(x) / mp.log(2)
        for e in np.arange(0.01, 1.0, 0.01):
            em = mp.mpf(float(e))
            h = -(em * log2(em) + (1 - em) * log2(1 - em))
            neg = -log2(em)
            s_hp = ((1 - em) + mp.sqrt(4 * h * neg + (1 - em) ** 2)) / (2 * neg)
            assert abs(s_value(e) - float(s_hp)) <= 1e-12
            assert abs(n_min(e) - float(2 ** s_hp)) <= 1e-10


class TestBoundsReport:
    def test_entropy_report_fields(self):
        report = bounds_report(0.5, 4, ENT, at_e_max=True, channel=np.eye(4))
        assert report.lower_l <= report.upper_u
        assert report.ratio_r is not None
        assert abs(report.n_min - 2.0 ** report.s_value) <= 1e-12
        assert abs(report.fano - report.upper_u) <= 1e-12
        assert report.boyd_chiang == 2.0

    def test_gini_report_omits_entropy_only_fields(self):
        report = bounds_report(0.5, 4, GINI)
        assert report.ratio_r is None
        assert report.s_value is None and report.n_min is None
        assert report.fano is None and report.boyd_chiang is None

    def test_tightness_at_endpoints(self):
        for spec in (ENT, GINI):
            for n in (2, 3, 5):
                r = bounds_report(1.0 / n, n, spec)
                expected = n * spec.f(1.0 / n)
                assert abs(r.upper_u - expected) <= 1e-12
                assert abs(r.lower_l - expected) <= 1e-12
                r1 = bounds_report(1.0, n, spec)
                assert r1.upper_u == 0.0 and r1.lower_l == 0.0

    def test_entropy_at_e_one_skips_singular_thresholds(self):
        r = bounds_report(1.0, 3, ENT, at_e_max=True)
        assert r.s_value is None and r.n_min is None
        assert r.fano == 0.0
        assert r.ratio_r == 1.0
