"""Shared exception types; the CLI maps these onto exit codes."""


class QuasilabError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatchError(QuasilabError, ValueError):
    """Operands disagree on the ambient frequency dimension."""


class SymbolParseError(QuasilabError, ValueError):
    """Symbol text did not match the term grammar."""


class EmptySupportError(QuasilabError, RuntimeError):
    """No frequency cell satisfies all cutoff constraints.

    Signals that h is too large for the configured box or that the
    constraints are inconsistent.
    """


class BoxTooSmallError(QuasilabError, RuntimeError):
    """Cutoff support touches the enclosing box; results would be truncated."""


class ResolutionError(QuasilabError, RuntimeError):
    """Requested quadrature cannot resolve the oscillation within budget.

    Raised instead of returning an under-resolved (garbage) value.
    """


class TailDominanceError(QuasilabError, RuntimeError):
    """Boundary-shell mass exceeds the allowed fraction of an Lp norm."""


class GridBudgetError(QuasilabError, MemoryError):
    """A dense array would hold more cells than the module's budget allows."""


class ConfigError(QuasilabError, ValueError):
    """Experiment configuration failed to parse or validate."""
