"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`PartlinError`, so
callers (in particular the command line driver) can catch one type and
report the message without losing the distinction between failure modes.
:func:`scalar` is the one check of a scalar argument or dataclass field,
:func:`finite_array` the one check of an array argument.
"""

from __future__ import annotations

from math import inf, isfinite
from numbers import Integral, Real
from reprlib import repr as short_repr

import numpy as np


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


# The largest int with a lower bound (a size, count or index): each up to it is
# exact as a float, and 128 doubles for each stay within numpy's 2**63 bytes.
MAX_COUNT = 2**53


def scalar(value, name: str, kind: type = float, low=None):
    """``value`` as a Python ``kind`` (float or int), if ``low`` is given at
    least ``low`` and for an int at most MAX_COUNT; a bool, an array, a string,
    None, a fraction for an int or a NaN or infinite value raises a
    ParameterError naming ``name``."""
    try:  # kind first: a Python number skips the slower abstract class check
        ok = isinstance(value, (kind, Integral if kind is int else Real)) and (
            kind is int or isfinite(value)
        )
    except OverflowError:  # an int beyond the float range
        ok = False
    high = MAX_COUNT if kind is int else inf
    if isinstance(value, bool) or not ok or (low is not None and not low <= value <= high):
        bounds = "" if low is None else f" >= {low}" + f" and <= {high}" * (kind is int)
        raise ParameterError(
            f"{name} must be a finite {kind.__name__}{bounds}: {value!r}"
        )
    return kind(value)


def store_scalars(obj, kind: type, **lows) -> None:
    """Store each field ``name=low`` of the frozen dataclass ``obj`` as ``scalar``."""
    for name, low in lows.items():
        object.__setattr__(obj, name, scalar(getattr(obj, name), name, kind, low))


def finite_array(value, name: str, ndim=1, min_size=1, rows=None, kind=None):
    """``value`` as a float ndarray of ``ndim`` dimensions (an int or a tuple of
    them), at least ``min_size`` values and ``rows`` rows if given; a non-number
    (a string or bool too), another shape or a NaN or +-inf raises a ParameterError
    naming ``name``, the array as ``kind`` and the first non-finite position."""
    dims = (ndim,) if isinstance(ndim, int) else ndim
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # a ragged sequence, refused as not numbers
        arr = np.array(None)
    if arr.dtype.kind not in "iuf":
        problem = short_repr(value)
    elif arr.ndim not in dims or arr.size < min_size or rows not in (None, len(arr)):
        problem = f"shape {arr.shape}"
    elif np.isfinite(arr).all():
        return np.asarray(arr, dtype=float)
    else:
        at = tuple(map(int, np.unravel_index(np.argmin(np.isfinite(arr)), arr.shape)))
        problem = f"{arr[at]} at position {at[0] if len(at) == 1 else at}"
    want = f"of shape ({rows},)" if rows is not None and dims == (1,) else (
        "one " + "nonempty " * (min_size == 1)
        + (kind or " or ".join(f"{d}-d" for d in dims) + " array")
        + f" of at least {min_size} values" * (min_size > 1)
        + f" of {rows} rows" * (rows is not None)
    )
    raise ParameterError(f"{name} must be finite and {want}, got {problem}")
