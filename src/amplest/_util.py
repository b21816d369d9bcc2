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


def positive_real(value: object, field: str, upper: float = math.inf) -> float:
    """``value`` as a float in (0, upper); bools, non-reals, NaN and +-inf raise."""
    real = isinstance(value, Real) and not isinstance(value, bool)
    if real and 0 < value < upper:
        return float(value)
    below = f" below {upper:g}" if upper < math.inf else ""
    raise ValueError(f"{field} must be a finite positive number{below}, got {value!r}")
