"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math
from numbers import Integral, Real


def ceil_guarded(x: float) -> int:
    """Ceiling with a one-part-in-1e12 guard against float noise.

    Quantities like ``eps**-2`` or ``0.95 * runs`` can land a few ulps above
    an exact integer; a bare ceil would then overshoot by one.
    """
    return math.ceil(x - abs(x) * 1e-12)


def json_int(value: object, field: str) -> int:
    """``value`` as an int; bools, floats and strings raise, naming ``field``.

    ``int()`` would silently truncate 10.9 to 10 and turn True or "2" into
    numbers, so a mistyped JSON file would load as a different record.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def positive_real(value: object, field: str) -> float:
    """``value`` as a float; bools, non-reals, NaN, +-inf and values <= 0 raise."""
    real = isinstance(value, Real) and not isinstance(value, bool)
    if not (real and 0 < value < math.inf):
        raise ValueError(f"{field} must be a finite positive number, got {value!r}")
    return float(value)
