"""Shared exception types; the CLI maps these onto exit codes."""


class QuasilabError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatchError(QuasilabError, ValueError):
    """Operands disagree on the ambient frequency dimension."""


class SymbolParseError(QuasilabError, ValueError):
    """Symbol text did not match the term grammar."""


class RefusalError(QuasilabError):
    """A module refused work it cannot do within its resolution or budget;
    the CLI exits 3 on it, naming the refusing module."""


class EmptySupportError(RefusalError, RuntimeError):
    """No frequency cell satisfies all cutoff constraints.

    Signals that h is too large for the configured box or that the
    constraints are inconsistent.
    """


class BoxTooSmallError(RefusalError, RuntimeError):
    """Cutoff support touches the enclosing box; results would be truncated."""


class ResolutionError(RefusalError, RuntimeError):
    """Requested quadrature cannot resolve the oscillation within budget.

    Raised instead of returning an under-resolved (garbage) value.
    """


class TailDominanceError(RefusalError, RuntimeError):
    """Boundary-shell mass exceeds the allowed fraction of an Lp norm."""


class GridBudgetError(RefusalError, MemoryError):
    """A dense array would hold more cells than the module's budget allows."""


class ConfigError(QuasilabError, ValueError):
    """Experiment configuration failed to parse or validate."""
