"""Concave impurity functions and their multiplicative companions.

An impurity function is a concave f on [0, 1] with f applied to conditional
class probabilities. Ratio and lower-bound computations additionally need the
companion l with f(x) = x * l(x); l must be convex and non-increasing.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

import numpy as np

from .errors import ConcavityViolation, MissingL

ImpurityKind = Literal["entropy", "gini", "custom"]

# Slack for the sampled concavity test; linear f evaluates the two sides of
# the inequality along different float paths.
_CONCAVITY_TOL = 1e-9


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


@dataclass(frozen=True)
class ImpuritySpec:
    """A concave impurity function together with optional companion l.

    Attributes:
        kind: "entropy", "gini", or "custom".
        f: scalar concave function on [0, 1] with finite values (f(0) is 0
           for the built-in kinds).
        l: scalar companion on (0, 1] with f(x) = x * l(x), or None when the
           caller did not supply one (only bound/ratio operations need it).
    """

    kind: ImpurityKind
    f: Callable[[float], float]
    l: Optional[Callable[[float], float]] = None
    _f_arr: Callable[[np.ndarray], np.ndarray] = field(
        default=None, repr=False, compare=False)
    _f_prime_arr: Callable[[np.ndarray], np.ndarray] = field(
        default=None, repr=False, compare=False)

    def f_values(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f elementwise on an array of probabilities."""
        if self._f_arr is None:  # custom spec: fall back to elementwise f
            object.__setattr__(self, "_f_arr", np.vectorize(self.f, otypes=[float]))
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

    def weighted(self, joint: np.ndarray) -> np.ndarray:
        """mass * sum_i f(row_i / mass) for each row of a joint matrix.

        mass is the row sum; a row with zero mass contributes 0.
        """
        mass = joint.sum(axis=1)
        out = np.zeros(mass.shape)
        occupied = mass > 0.0
        m = mass[occupied]
        out[occupied] = m * self.f_values(joint[occupied] / m[:, None]).sum(axis=1)
        return out

    def l_value(self, x: float) -> float:
        """Evaluate l, raising MissingL when no companion was supplied."""
        if self.l is None:
            raise MissingL(f"impurity kind {self.kind!r} has no companion l")
        return float(self.l(x))


def entropy_spec() -> ImpuritySpec:
    """Base-2 entropy impurity: f(x) = -x*log2(x), l(x) = -log2(x)."""
    return ImpuritySpec(
        kind="entropy",
        f=_entropy_f_scalar,
        l=lambda x: -math.log2(x),
        _f_arr=_entropy_f_array,
        _f_prime_arr=_entropy_f_prime,
    )


def gini_spec() -> ImpuritySpec:
    """Gini impurity: f(x) = x*(1-x), l(x) = 1-x."""
    return ImpuritySpec(
        kind="gini",
        f=_gini_f,
        l=lambda x: 1.0 - x,
        _f_arr=_gini_f,
        _f_prime_arr=lambda x: 1.0 - 2.0 * x,
    )


def custom_spec(f: Callable[[float], float],
                l: Optional[Callable[[float], float]] = None,
                samples: int = 1000) -> ImpuritySpec:
    """Wrap a user-supplied concave f (and optional companion l).

    Concavity is spot-checked on `samples` random triples (a, b, lam) drawn
    from a fixed seed; a violation beyond tolerance raises ConcavityViolation
    naming the triple. The check is a sample, not a proof.
    """
    rng = np.random.default_rng(181168)
    a = rng.random(samples)
    b = rng.random(samples)
    lam = rng.random(samples)
    for ai, bi, li in zip(a, b, lam):
        lhs = f(li * ai + (1.0 - li) * bi)
        rhs = li * f(ai) + (1.0 - li) * f(bi)
        if lhs < rhs - _CONCAVITY_TOL:
            raise ConcavityViolation(float(ai), float(bi), float(li),
                                     float(rhs - lhs))
    return ImpuritySpec(kind="custom", f=f, l=l)
