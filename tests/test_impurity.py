"""Impurity function family: built-in specs, custom specs, concavity."""

import dataclasses
import math

import numpy as np
import pytest

from impuritypart import (
    ConcavityViolation,
    ConvexityViolation,
    ImpuritySpec,
    compute_stats,
    entropy_spec,
    gini_spec,
    lower_bound,
)

from impuritypart import impurity
from helpers import random_joint, random_partition


class TestEntropySpec:
    def test_known_values(self):
        f = entropy_spec()
        assert f.f(0.5) == 0.5
        assert f.f(1.0) == 0.0
        assert f.f(0.0) == 0.0

    def test_f_is_x_times_l(self):
        f = entropy_spec()
        assert f.f(0.25) / 0.25 - f.l_value(0.25) == 0.0
        for x in np.arange(0.01, 1.0, 0.01):
            assert abs(f.f(x) - x * f.l_value(x)) <= 1e-12

    def test_array_matches_scalar(self):
        f = entropy_spec()
        xs = np.array([0.0, 1e-12, 0.3, 0.5, 1.0])
        np.testing.assert_allclose(f.f_values(xs),
                                   [f.f(x) for x in xs], atol=0)


class TestGiniSpec:
    def test_known_values(self):
        f = gini_spec()
        assert f.f(0.5) == 0.25
        assert f.f(0.0) == 0.0
        assert f.f(1.0) == 0.0
        assert 4 * f.f(0.25) == 0.75

    def test_f_is_x_times_l(self):
        f = gini_spec()
        assert f.f(0.3) - 0.3 * f.l_value(0.3) == 0.0
        for x in np.arange(0.01, 1.0, 0.01):
            assert abs(f.f(x) - x * f.l_value(x)) <= 1e-12


@pytest.mark.parametrize("spec", [entropy_spec(), gini_spec()],
                         ids=["entropy", "gini"])
class TestConcaveFamilyProperties:
    def test_concavity_on_random_triples(self, spec):
        rng = np.random.default_rng(11)
        a, b, lam = rng.random((3, 2000))
        lhs = np.array([spec.f(v) for v in lam * a + (1 - lam) * b])
        rhs = lam * np.array([spec.f(v) for v in a]) \
            + (1 - lam) * np.array([spec.f(v) for v in b])
        assert (lhs >= rhs - 1e-12).all()

    def test_l_non_increasing(self, spec):
        xs = np.arange(0.001, 1.0001, 0.001)
        ls = np.array([spec.l_value(x) for x in xs])
        assert (np.diff(ls) <= 1e-12).all()

    def test_averaging_never_loses(self, spec):
        # k * f(mean) >= sum of f values, the concave averaging inequality
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            t = rng.random(k)
            lhs = k * spec.f(t.sum() / k)
            rhs = sum(spec.f(v) for v in t)
            assert lhs >= rhs - 1e-12


class TestCustomSpec:
    def test_matches_gini_supplied_directly(self):
        custom = ImpuritySpec(lambda x: x * (1.0 - x))
        gini = gini_spec()
        rng = np.random.default_rng(13)
        jd = random_joint(rng, 6, 3)
        part = random_partition(rng, 6, 3)
        a = compute_stats(jd, part, custom)
        b = compute_stats(jd, part, gini)
        assert abs(a.impurity - b.impurity) <= 1e-12
        assert a.e_q == b.e_q

    def test_convex_function_rejected(self):
        with pytest.raises(ConcavityViolation) as info:
            ImpuritySpec(lambda x: x * x)
        # the error names the violating triple
        assert info.value.a is not None and info.value.lam is not None

    def test_non_finite_function_rejected(self):
        # every comparison with nan is false and inf >= inf - tol holds, so
        # only an explicit finiteness check catches these
        for value in (math.nan, math.inf):
            with pytest.raises(ConcavityViolation):
                ImpuritySpec(lambda x, value=value: value)

    def test_quotient_not_convex_rejected(self):
        # min(x, 1/2) is concave, but f(x)/x = min(1, 1/(2x)) is not convex,
        # and its lower bound read 0.953 against an impurity of 0.849
        f = lambda x: min(x, 0.5)
        with pytest.raises(ConvexityViolation) as info:
            ImpuritySpec(f)
        a, b, lam = info.value.a, info.value.b, info.value.lam
        assert f"a={a!r}, b={b!r}, lam={lam!r}" in str(info.value)
        mid = lam * a + (1 - lam) * b
        assert f(mid) / mid - (lam * f(a) / a + (1 - lam) * f(b) / b) == info.value.gap > 0

    def test_builtin_specs_skip_the_checks(self, monkeypatch):
        def unsampled(seed):
            raise AssertionError("a built-in f is not sampled")

        monkeypatch.setattr(impurity.np.random, "default_rng", unsampled)
        assert entropy_spec().kind == "entropy" and gini_spec().kind == "gini"

    def test_sqrt_based_function_accepted(self):
        f = lambda x: math.sqrt(x) * (1.0 - math.sqrt(x))
        # independent concavity evidence: central second differences <= 0
        h = 1e-4
        for x in np.arange(0.01, 0.99, 0.01):
            assert f(x - h) - 2 * f(x) + f(x + h) <= 1e-12
        spec = ImpuritySpec(f)
        assert spec.kind == "custom"
        assert spec.f(0.25) == f(0.25)

    def test_lower_bound_is_the_quotient(self):
        f = lambda x: math.sqrt(x) - x
        spec = ImpuritySpec(f)
        for e in np.arange(0.001, 1.0001, 0.001).tolist():
            assert lower_bound(e, spec) == float(f(e)) / e

    def test_companion_is_not_an_input(self):
        f = lambda x: x * (1.0 - x)
        with pytest.raises(TypeError):
            ImpuritySpec(f, l=lambda x: 2.0 - x)

    def test_hand_built_spec_vectorizes_lazily(self):
        from impuritypart import ImpuritySpec
        spec = ImpuritySpec(lambda x: x * (1.0 - x))
        np.testing.assert_allclose(spec.f_values(np.array([0.2, 0.5])),
                                   [0.16, 0.25])


class TestSpecFromF:
    """A spec is built from f alone; its kind and closed forms follow f."""

    @pytest.mark.parametrize("name, value", [
        ("kind", "custom"), ("_l", lambda x: 2.0 - x),
        ("_f_arr", lambda x: x * x), ("_f_prime_arr", lambda x: 2.0 * x)])
    def test_only_f_is_an_argument(self, name, value):
        # each of these once let a caller set a kind or a closed form that
        # f does not have; _f_arr also skipped the checks
        with pytest.raises(TypeError, match=f"'{name}'"):
            ImpuritySpec(f=lambda x: x * (1.0 - x), **{name: value})

    def test_replace_rebuilds_from_f(self):
        with pytest.raises(ConcavityViolation):
            dataclasses.replace(entropy_spec(), f=lambda x: x * x)
        assert dataclasses.replace(entropy_spec(), f=impurity._gini_f) == gini_spec()

    def test_kind_follows_f(self):
        gini = ImpuritySpec(impurity._gini_f)
        assert gini.kind == "gini" and gini == gini_spec()
        assert gini.l_value(0.25) == 0.75
        assert ImpuritySpec(impurity._entropy_f_scalar).kind == "entropy"
        assert ImpuritySpec(lambda x: x * (1.0 - x)).kind == "custom"

    def test_unhashable_f_is_custom(self):
        class Gini:
            __hash__ = None

            def __eq__(self, other):
                return True

            def __call__(self, x):
                return x * (1.0 - x)

        spec = ImpuritySpec(Gini())
        assert spec.kind == "custom"
        np.testing.assert_allclose(spec.f_values(np.array([0.2, 0.5])), [0.16, 0.25])
