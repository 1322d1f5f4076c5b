"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`PartlinError`, so
callers (in particular the command line driver) can catch one type and
report the message without losing the distinction between failure modes.
"""

from __future__ import annotations

from math import isfinite
from numbers import Integral, Real


class PartlinError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PartlinError):
    """An argument is outside its documented domain."""


class SchemaError(PartlinError):
    """A data file does not expose the requested columns."""


class ParseError(PartlinError):
    """A data file contains a value that cannot be interpreted."""


class NoVisitsError(PartlinError):
    """The covariate path never enters the small set, so visit counts,
    recurrence diagnostics and truncation are all undefined."""


class TruncationError(PartlinError):
    """Density truncation removed every observation."""


class RankError(PartlinError):
    """The detrended design matrix is numerically singular."""


class SelectionError(PartlinError):
    """No bandwidth in the search grid produced a usable fit."""


class ExperimentError(PartlinError):
    """A simulation experiment failed in too many replications to be
    trustworthy, or a diagnostic was asked of degenerate input."""


def store_scalars(obj, kind: type, *names: str) -> None:
    """Store the fields ``names`` of the frozen dataclass ``obj`` as Python
    ``kind`` (float or int); a field that is not one raises ParameterError."""
    for name in names:
        value = getattr(obj, name)
        ok = isinstance(value, Integral if kind is int else Real)
        if isinstance(value, bool) or not (ok and (kind is int or isfinite(value))):
            raise ParameterError(f"{name} must be a finite {kind.__name__}: {value!r}")
        object.__setattr__(obj, name, kind(value))
