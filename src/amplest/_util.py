"""Small numeric helpers, and the readers that judge numeric and JSON input:
each returns a plain value or raises ``ValueError`` naming the field."""

from __future__ import annotations

import math
from collections.abc import Mapping
from numbers import Integral, Real

# The largest integer every kernel may hold as a float64: a shot count, a
# grid size (so every ``index * step`` has an exact index) and ``2d + 1``
# for a depth d. Float64 holds each integer up to 2^53 exactly, and the
# likelihood's exact zeros need ``n - h`` and ``h / n`` exact.
_MAX_EXACT = 2**53


def ceil_guarded(x: float) -> int:
    """Ceiling with a one-part-in-1e12 guard against float noise, never below
    the floor.

    Quantities like ``eps**-2`` or ``0.95 * runs`` can land a few ulps above
    an exact integer; a bare ceil would then overshoot by one. From 1e12 up
    the guard exceeds one unit, and the floor bounds it.
    """
    return max(math.floor(x), math.ceil(x - abs(x) * 1e-12))


def json_int(
    value: object, field: str, least: int | None = None, most: int | None = None
) -> int:
    """``value`` as a plain int in [``least``, ``most``], an end of None being
    open; else ``ValueError`` naming ``field``.

    The one reader of counts, indices, depths, sizes and seeds. Numpy integers
    pass; bools, floats and strings raise, as ``int()`` would turn 10.9, True
    or "2" into numbers. A plain int costs a type test and one comparison
    per bound given.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{field} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{field} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{field} must be at most {most}, got {value}")
    return value


def json_field(data: object, key: str, is_list: bool = False) -> object:
    """``data[key]`` of a parsed JSON mapping; a missing key, or with
    ``is_list`` a value that is no list (or tuple), raises ``ValueError``
    naming it."""
    if not isinstance(data, Mapping) or key not in data:
        raise ValueError(f"{key} is missing")
    value = data[key]
    if is_list and not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def positive_real(value: object, field: str, upper: float = math.inf) -> float:
    """``value`` as a float in (0, upper); bools, non-reals, NaN and +-inf raise."""
    real = isinstance(value, Real) and not isinstance(value, bool)
    if real and 0 < value < upper:
        return float(value)
    below = f" below {upper:g}" if upper < math.inf else ""
    raise ValueError(f"{field} must be a finite positive number{below}, got {value!r}")


def unit_real(value: object, field: str) -> float:
    """``value`` as a float in [0, 1], the one reader of amplitudes and
    probabilities; bools, non-reals and NaN raise. A plain float costs a type
    test and two comparisons."""
    if type(value) is float and 0.0 <= value <= 1.0:
        return value
    if isinstance(value, Real) and not isinstance(value, bool) and 0 <= value <= 1:
        return float(value)
    raise ValueError(f"{field} must be a real number in [0, 1], got {value!r}")
