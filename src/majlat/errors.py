"""Exception types, one per invariant or contract that can be violated."""


class MajlatError(Exception):
    """Base class for every validation and domain error in this package."""


class EmptyInputError(MajlatError):
    """A vector or value list was empty."""


class NegativeEntryError(MajlatError):
    """An entry was negative beyond tolerance."""


class NotNormalizedError(MajlatError):
    """Entries do not sum to one within tolerance."""


class NotSortedError(MajlatError):
    """Entries are not non-increasing and sorting was not requested."""


class ZeroDimensionError(MajlatError):
    """Requested dimension was smaller than one."""


class DimensionMismatchError(MajlatError):
    """Operands have different lengths."""


class ModeMismatchError(MajlatError):
    """Exact and float values were mixed, or a tolerance disagreed with the mode."""


class NotMonotoneError(MajlatError):
    """Cumulative values decreased."""


class NotConcaveError(MajlatError):
    """Cumulative values are not concave, so they describe no sorted vector."""


class BadEndpointsError(MajlatError):
    """Cumulative values must start at zero and end at one."""


class AbscissaOutOfRangeError(MajlatError, ValueError):
    """A Lorenz curve abscissa lay outside [0, d] beyond tolerance."""


class EmptyFamilyError(MajlatError):
    """A vector family or vertex list had no members."""


class InvalidExtremalError(MajlatError):
    """Per-index extrema violate monotonicity, endpoint, or bound requirements."""


class DimensionTooLargeError(MajlatError):
    """Dimension exceeds the configured cap for combinatorial enumeration."""


class TooManyDigitsError(MajlatError):
    """A value has more digits than Python converts between integers and text."""


class NegativeRadiusError(MajlatError):
    """Ball radius was negative."""


class NegativeProbabilityError(MajlatError):
    """A directly given probability (spectrum or Schmidt weight) was negative."""


class InvalidStateSpecError(MajlatError):
    """State data does not fit the chosen resource theory."""


class AlphaOutOfRangeError(MajlatError):
    """First-component amplitude bound outside (1/sqrt(d), 1]."""


class BlockDimensionError(MajlatError):
    """Superposition block sizes must satisfy 1 <= d1 < d."""


class AlphaMinOutOfRangeError(MajlatError):
    """Minimal squared block weight must lie in (d1/d, 1]."""


class InputArityError(MajlatError):
    """A command received the wrong number of input vectors."""


class ParseError(MajlatError):
    """An input file or literal could not be parsed."""
