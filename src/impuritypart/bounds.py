"""Closed-form impurity bounds, approximation ratios, and capacity bounds.

Every quantity here is a function of e, the success probability of
maximum-likelihood decoding under a partition (e = sum over partitions of the
largest joint entry). For any partition of an N-class instance:

    lower_bound(e) <= impurity <= upper_bound(e, N)

with equality at e = 1/N and at e = 1. Ratios of the two bounds certify how
far a partition maximizing e can sit above the optimal impurity.

All logarithms are base 2; ratio and threshold quantities are quotients of
logarithms and therefore base-invariant.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EOutOfRange, NotAChannel
from .impurity import ImpuritySpec

# Slack when validating that e sits inside [1/n, 1]; partition statistics
# can undershoot 1/n by a few ulps.
_DOMAIN_TOL = 1e-9


def binary_entropy(p: float) -> float:
    """H(p) = -p*log2(p) - (1-p)*log2(1-p), with H(0) = H(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _check_n(n: int) -> int:
    if int(n) != n or n < 2:
        raise EOutOfRange(f"class count n must be an integer >= 2, got {n!r}")
    return int(n)


def _clamp_e(e: float, lo: float, hi: float) -> float:
    if not (lo - _DOMAIN_TOL <= e <= hi + _DOMAIN_TOL):
        raise EOutOfRange(f"e={e!r} outside [{lo}, {hi}]")
    return min(max(float(e), lo), hi)


def upper_bound(e: float, n: int, f: ImpuritySpec) -> float:
    """u(e) = f(e) + (n-1) * f((1-e)/(n-1)) for e in [1/n, 1].

    For entropy this equals H(e) + (1-e)*log2(n-1), the Fano form.
    """
    n = _check_n(n)
    e = _clamp_e(e, 1.0 / n, 1.0)
    return float(f.f(e) + (n - 1) * f.f((1.0 - e) / (n - 1)))


def lower_bound(e: float, f: ImpuritySpec) -> float:
    """l(e), the companion of f evaluated at e, for e in (0, 1].

    Entropy gives -log2(e); Gini gives 1-e. Requires the companion l.
    """
    if e <= 0.0:
        raise EOutOfRange(f"e={e!r} must be positive")
    e = _clamp_e(e, 0.0, 1.0)
    return float(f.l_value(e)) + 0.0  # avoid -0.0 at e = 1


def approximation_ratio(e_max: float, n: int, f: ImpuritySpec) -> float:
    """The guarantee factor upper_bound(e_max, n) / lower_bound(e_max).

    Requires the companion l. For Gini the quotient equals the identity
    e_max + 1 - (1-e_max)/(n-1), which never exceeds 1 + e_max <= 2; for
    entropy it equals (H(e_max) + (1-e_max)*log2(n-1)) / (-log2(e_max)).
    Both bounds vanish at e_max = 1, where the ratio is defined as 1 (the
    optimum is met exactly).
    """
    n = _check_n(n)
    e = _clamp_e(e_max, 1.0 / n, 1.0)
    if e >= 1.0:
        return 1.0
    return upper_bound(e, n, f) / lower_bound(e, f)


def s_value(e_max: float) -> float:
    """Threshold exponent for the entropy guarantee, e_max in (0, 1).

    S(e) = [(1-e) + sqrt(4*H(e)*(-log2 e) + (1-e)^2)] / (-2*log2 e).
    The entropy ratio stays below log2(N)^2 whenever log2(N) >= S(e_max).
    """
    if not (0.0 < e_max < 1.0):
        raise EOutOfRange(f"e_max={e_max!r} must lie strictly inside (0, 1)")
    neg_log = -math.log2(e_max)
    h = binary_entropy(e_max)
    rest = 1.0 - e_max
    return (rest + math.sqrt(4.0 * h * neg_log + rest * rest)) / (2.0 * neg_log)


def n_min(e_max: float) -> float:
    """Smallest class count 2**S(e_max) activating the entropy guarantee."""
    return float(2.0 ** s_value(e_max))


def fano_bound(e_q: float, n: int) -> float:
    """H(1-e_q) + (1-e_q)*log2(n-1), the entropy bound in error-probability form.

    Algebraically identical to upper_bound(e_q, n, entropy); the two are
    computed along different paths and agree within float tolerance.
    """
    n = _check_n(n)
    e = _clamp_e(e_q, 1.0 / n, 1.0)
    p_e = 1.0 - e
    return binary_entropy(p_e) + p_e * math.log2(n - 1)


def boyd_chiang_bound(channel) -> float:
    """Capacity upper bound log2(sum over outputs of the largest column entry).

    `channel` is a K x N matrix with entry (k, i) = p(z_k | x_i); entries
    must be finite and nonnegative, and each column (an input's transition
    law) must sum to 1 within 1e-9. The bound assumes a uniform input and
    dominates the uniform-input mutual information.
    """
    a = np.asarray(channel, dtype=float)
    if a.ndim != 2:
        raise NotAChannel(f"expected a 2-D matrix, got ndim={a.ndim}")
    for bad, what in ((~np.isfinite(a), "non-finite"), (a < 0.0, "negative")):
        hits = np.argwhere(bad)
        if hits.size:
            k, i = hits[0]
            raise NotAChannel(f"{what} entry at ({int(k)}, {int(i)})")
    col = a.sum(axis=0)
    bad = np.flatnonzero(np.abs(col - 1.0) > _DOMAIN_TOL)
    if bad.size:
        i = int(bad[0])
        raise NotAChannel(f"column {i} sums to {col[i]!r}, expected 1")
    return float(math.log2(a.max(axis=1).sum()))


@dataclass(frozen=True)
class BoundsReport:
    """Bound values for one instance/partition pair.

    ratio_r is populated only when e_q is the maximal e over all partitions;
    s_value, n_min, fano, and boyd_chiang only apply to entropy impurity.
    """

    e_q: float
    upper_u: float
    lower_l: float
    ratio_r: Optional[float] = None
    s_value: Optional[float] = None
    n_min: Optional[float] = None
    fano: Optional[float] = None
    boyd_chiang: Optional[float] = None


def bounds_report(e_q: float, n: int, f: ImpuritySpec, *,
                  at_e_max: bool = False,
                  channel=None) -> BoundsReport:
    """Assemble the full bound summary at one e value.

    Set `at_e_max=True` when e_q is the maximum over all partitions, which
    makes the ratio meaningful. Pass a column-stochastic K x N `channel` to
    include the capacity bound (entropy only).
    """
    n = _check_n(n)
    is_entropy = f.kind == "entropy"
    s = nm = None
    if is_entropy and e_q < 1.0:
        s = s_value(e_q)
        nm = n_min(e_q)
    return BoundsReport(
        e_q=float(e_q),
        upper_u=upper_bound(e_q, n, f),
        lower_l=lower_bound(e_q, f),
        ratio_r=approximation_ratio(e_q, n, f) if at_e_max else None,
        s_value=s,
        n_min=nm,
        fano=fano_bound(e_q, n) if is_entropy else None,
        boyd_chiang=(boyd_chiang_bound(channel)
                     if is_entropy and channel is not None else None),
    )
