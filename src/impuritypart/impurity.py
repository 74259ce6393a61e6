"""Concave impurity functions and their multiplicative companions.

An impurity function is a concave f on [0, 1] with f applied to conditional
class probabilities. Ratio and lower-bound computations use the companion
l(x) = f(x) / x, fixed by f(x) = x * l(x); the lower bound is certified where
l is convex.

An ImpuritySpec is built from f alone. Its kind and its closed forms (l, f
on arrays, f') are derived from f: entropy and Gini have them in
_CLOSED_FORMS, and any other f is a checked "custom" spec.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .errors import ConcavityViolation, ConvexityViolation

ImpurityKind = Literal["entropy", "gini", "custom"]

# Slack for the sampled concavity and convexity tests; linear f evaluates
# the two sides of the inequality along different float paths.
_CONCAVITY_TOL = 1e-9
# Random triples drawn for the concavity and convexity tests.
_CONCAVITY_SAMPLES = 1000


def _entropy_f_scalar(x: float) -> float:
    return 0.0 if x <= 0.0 else -x * math.log2(x)


def _entropy_f_array(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = x > 0.0
    xs = x[mask]
    out[mask] = -xs * np.log2(xs)
    return out


def _entropy_f_prime(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):  # +inf at x = 0
        return -np.log2(x) - 1.0 / math.log(2.0)


def _gini_f(x):
    return x * (1.0 - x)


# The built-in f, each with its kind and closed forms: l, f on arrays, and
# f'. ImpuritySpec finds f here by identity, so an unhashable f still works.
_CLOSED_FORMS = {
    _entropy_f_scalar: ("entropy", lambda x: -math.log2(x), _entropy_f_array,
                        _entropy_f_prime),
    _gini_f: ("gini", lambda x: 1.0 - x, _gini_f, lambda x: 1.0 - 2.0 * x),
}


@dataclass(frozen=True)
class ImpuritySpec:
    """A concave impurity function and its companion l(x) = f(x) / x.

    A spec is built from f alone, ImpuritySpec(f); everything else is
    derived from f at construction. The entropy and Gini f (the ones
    entropy_spec and gini_spec pass) bring their kind and closed forms for
    l, f on arrays and f'. Any other f gets kind "custom", is evaluated on
    arrays elementwise, and is spot-checked on _CONCAVITY_SAMPLES random
    triples (a, b, lam) from a fixed seed, all in (0, 1). On each triple in
    turn, f(lam*a + (1-lam)*b) >= lam*f(a) + (1-lam)*f(b) must hold within
    tolerance with both sides finite, or ConcavityViolation names the
    triple; then l(lam*a + (1-lam)*b) <= lam*l(a) + (1-lam)*l(b) must hold
    within tolerance for l(x) = f(x)/x, which the lower bound needs, or
    ConvexityViolation names it. The checks are a sample, not a proof.
    dataclasses.replace(spec, f=g) builds and checks a spec from g alone.

    Attributes:
        f: scalar concave function on [0, 1] with finite values (f(0) is 0
           for the built-in kinds); the only constructor argument.
        kind: "entropy", "gini", or "custom", derived from f.
    """

    f: Callable[[float], float]
    kind: ImpurityKind = field(init=False)
    _l: Callable[[float], float] = field(init=False, repr=False, compare=False)
    _f_arr: Callable[[np.ndarray], np.ndarray] = field(
        init=False, repr=False, compare=False)
    _f_prime_arr: Callable[[np.ndarray], np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        f = self.f
        forms = next((closed for g, closed in _CLOSED_FORMS.items() if g is f), None)
        if forms is None:
            rng = np.random.default_rng(181168)
            a, b, lam = rng.random((3, _CONCAVITY_SAMPLES)).tolist()
            for ai, bi, li in zip(a, b, lam):
                mid = li * ai + (1.0 - li) * bi
                # Python floats: inf - inf is nan here, not a numpy warning
                fm, fa, fb = float(f(mid)), float(f(ai)), float(f(bi))
                rhs = li * fa + (1.0 - li) * fb
                if (not (math.isfinite(fm) and math.isfinite(rhs))
                        or fm < rhs - _CONCAVITY_TOL):
                    raise ConcavityViolation(ai, bi, li, rhs - fm)
                gap = fm / mid - (li * fa / ai + (1.0 - li) * fb / bi)
                if gap > _CONCAVITY_TOL:
                    raise ConvexityViolation(ai, bi, li, gap)
            forms = ("custom", None, np.vectorize(f, otypes=[float]), None)
        for name, value in zip(("kind", "_l", "_f_arr", "_f_prime_arr"), forms):
            object.__setattr__(self, name, value)

    def f_values(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f elementwise on an array of probabilities."""
        return self._f_arr(x)

    def f_prime(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f' elementwise; +inf where the slope diverges.

        Entropy has -log2(x) - 1/ln 2 (+inf at 0) and Gini 1 - 2x. Other f
        use a central difference with step 1e-6, its ends clipped to [0, 1].
        """
        if self._f_prime_arr is not None:
            return self._f_prime_arr(x)
        h = 1e-6
        hi = np.clip(x + h, 0.0, 1.0)
        lo = np.clip(x - h, 0.0, 1.0)
        return (self.f_values(hi) - self.f_values(lo)) / (hi - lo)

    def weighted(self, joint: np.ndarray, cond=None) -> np.ndarray:
        """mass * sum_i f(row_i / mass) for each row of a joint matrix.

        mass is the row sum; a row with zero mass contributes 0. A caller
        that already holds the conditional rows row_i / mass passes them as
        cond, and they are read instead of divided out again; only the rows
        of nonzero mass are read.
        """
        mass = joint.sum(axis=1)
        out = np.zeros(mass.shape)
        occupied = mass > 0.0
        m = mass[occupied]
        rows = joint[occupied] / m[:, None] if cond is None else cond[occupied]
        out[occupied] = m * self.f_values(rows).sum(axis=1)
        return out

    def l_value(self, x: float) -> float:
        """Evaluate the companion l(x) = f(x) / x at x in (0, 1].

        Entropy has the closed form -log2(x) and Gini 1 - x; other f use
        the quotient float(f(x)) / x.
        """
        if self._l is not None:
            return float(self._l(x))
        return float(self.f(x)) / x


def entropy_spec() -> ImpuritySpec:
    """Base-2 entropy impurity: f(x) = -x*log2(x), l(x) = -log2(x)."""
    return ImpuritySpec(_entropy_f_scalar)


def gini_spec() -> ImpuritySpec:
    """Gini impurity: f(x) = x*(1-x), l(x) = 1-x."""
    return ImpuritySpec(_gini_f)
