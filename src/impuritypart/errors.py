"""Exception and warning types shared across the package."""


class ImpurityPartError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ImpurityPartError, ValueError):
    """An array has the wrong rank, shape, or length for the operation."""


class NegativeEntry(ImpurityPartError, ValueError):
    """A probability or count entry is negative."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"negative entry {value!r} at index {index}")


class NonFinite(ImpurityPartError, ValueError):
    """A probability or count entry is NaN or infinite."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"non-finite entry {value!r} at index {index}")


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


class ConcavityViolation(ImpurityPartError, ValueError):
    """A sampled triple shows the supplied function is not concave."""

    def __init__(self, a, b, lam, gap):
        self.a = a
        self.b = b
        self.lam = lam
        self.gap = gap
        super().__init__(
            f"f(lam*a + (1-lam)*b) < lam*f(a) + (1-lam)*f(b) "
            f"at a={a!r}, b={b!r}, lam={lam!r} (gap {gap:.3e})"
        )


class MissingL(ImpurityPartError, ValueError):
    """The operation needs the multiplicative companion l with f(x) = x*l(x)."""


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


class EmptyStart(ImpurityPartError, ValueError):
    """The starting partition uses no label at all."""


class MaskBudgetExceeded(ImpurityPartError, ValueError):
    """The number of candidate class masks exceeds the configured budget."""


class InstanceTooLarge(ImpurityPartError, ValueError):
    """k**m assignments exceed the exhaustive-search cap."""


class ParseError(ImpurityPartError, ValueError):
    """An input file line could not be parsed."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class IngestWarning(UserWarning):
    """Zero-mass rows were dropped while reading an input file."""

    def __init__(self, dropped_rows):
        self.dropped_rows = list(dropped_rows)
        super().__init__(f"dropped {len(self.dropped_rows)} zero-mass row(s): "
                         f"{self.dropped_rows}")
