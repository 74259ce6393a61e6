"""Exception and warning types shared across the package."""


class ImpurityPartError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ImpurityPartError, ValueError):
    """An array has the wrong rank, shape, or length for the operation."""


class _EntryError(ImpurityPartError, ValueError):
    """The entry at `index` holds a `value` no matrix of weights may hold;
    the subclass's `what` names the fault."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"{self.what} entry {value!r} at index {index}")


class NegativeEntry(_EntryError):
    """A probability or count entry is negative."""

    what = "negative"


class NonFinite(_EntryError):
    """A probability or count entry is NaN or infinite."""

    what = "non-finite"


class ZeroTotal(ImpurityPartError, ValueError):
    """The matrix has no mass to normalize."""


class ZeroRow(ImpurityPartError, ValueError):
    """A data point carries zero total mass."""

    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row} has zero total mass")


class InvalidDistribution(ImpurityPartError, ValueError):
    """Entries do not form a joint distribution (total must be 1 within 1e-9)."""


class LabelOutOfRange(ImpurityPartError, ValueError):
    """A partition label is outside {0, ..., k-1}."""


class _TripleViolation(ImpurityPartError, ValueError):
    """An inequality fails by `gap` on a sampled triple (a, b, lam)."""

    inequality = ""

    def __init__(self, a, b, lam, gap):
        self.a = a
        self.b = b
        self.lam = lam
        self.gap = gap
        super().__init__(
            f"{self.inequality} at a={a!r}, b={b!r}, lam={lam!r} (gap {gap:.3e})")


class ConcavityViolation(_TripleViolation):
    """A sampled triple shows the supplied function is not concave or not finite."""

    inequality = "f(lam*a + (1-lam)*b) < lam*f(a) + (1-lam)*f(b)"


class ConvexityViolation(_TripleViolation):
    """A sampled triple shows l(x) = f(x) / x is not convex, so the lower
    bound from l would not be certified."""

    inequality = ("l(lam*a + (1-lam)*b) > lam*l(a) + (1-lam)*l(b) "
                  "for l(x) = f(x)/x")


class EOutOfRange(ImpurityPartError, ValueError):
    """The likelihood argument is outside the domain of the requested bound."""


class NotAChannel(ImpurityPartError, ValueError):
    """The matrix is not column-stochastic (each column must sum to 1)."""


class KTooSmall(ImpurityPartError, ValueError):
    """The partition count k must be at least 1."""


class KNotGreaterThanN(ImpurityPartError, ValueError):
    """Splitting requires more partitions than classes (k > n)."""


class KNotLessThanN(ImpurityPartError, ValueError):
    """Merging requires fewer partitions than classes (k < n)."""


class InstanceTooLarge(ImpurityPartError, ValueError):
    """An exact search is too large to run; refused before any work.

    Raised by the k < n mask search of max_likelihood_partition, whichever
    search would run, when C(n, k) * (M + 2048) exceeds MASK_BUDGET, and
    by exhaustive_oracle when k**m exceeds ORACLE_CAP or 2**m * N exceeds
    ORACLE_TABLE_CAP.
    """


class ParseError(ImpurityPartError, ValueError):
    """An input file line could not be parsed."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class IngestWarning(UserWarning):
    """Zero-mass rows were dropped while reading an input file.

    dropped_rows is the int64 array of their 0-based indices, increasing;
    the message gives only their count.
    """

    def __init__(self, dropped_rows):
        self.dropped_rows = dropped_rows
        super().__init__(f"dropped {len(dropped_rows)} zero-mass row(s)")
