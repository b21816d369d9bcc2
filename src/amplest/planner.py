"""Resource planning: how many shots and oracle calls reach a target precision.

Under the Gaussian (Bernstein-von Mises) approximation, the estimate of an
amplitude ``a`` from a measurement record is normally distributed with
variance ``a(1-a) / (n_shot * info_weight^2)``. Requiring the estimate to
land within ``epsilon`` of ``a`` with probability ``1 - delta`` pins down
the Fisher information and hence the shot count; the worst case over the
unknown amplitude sits at ``a = 0.5``. All functions here are pure and
thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from ._util import _MAX_EXACT, ceil_guarded, json_int, positive_real
from .schedules import (
    _MAX_DEPTH,
    Schedule,
    call_weight,
    exponential_schedule_to_depth,
    info_weight,
    info_weight_squared,
    jitter,
)

__all__ = [
    "Plan",
    "erfinv",
    "required_fisher_info",
    "required_shots",
    "total_calls",
    "speedup_factor",
    "fisher_information",
    "average_error",
    "exceptional_values",
    "single_shot_fisher_info",
    "grid_points",
    "make_plan",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def erfinv(y: float) -> float:
    """Inverse of the error function, accurate to ~1e-15 relative.

    A closed-form seed (Winitzki's log-based approximation, ~1e-3 accurate)
    is polished by Newton iterations on ``erf``; for |y| > 0.9 the updates
    run on the complement ``erfc`` to dodge cancellation near 1. The result
    is odd in y by construction.
    """
    if not -1.0 < y < 1.0:
        raise ValueError(f"erfinv domain is (-1, 1), got {y}")
    if y == 0.0:
        return 0.0
    t = abs(y)

    # Winitzki 2008, eq. (7): uniform ~2e-3 relative error on (0, 1).
    alpha = 0.147
    lg = math.log1p(-t * t)
    u = 2.0 / (math.pi * alpha) + 0.5 * lg
    x = math.sqrt(math.sqrt(u * u - lg / alpha) - u)

    if t <= 0.9:
        for _ in range(4):
            x -= (math.erf(x) - t) / (_TWO_OVER_SQRT_PI * math.exp(-x * x))
    else:
        c = 1.0 - t  # exact for t >= 0.5
        for _ in range(4):
            x += (math.erfc(x) - c) * math.exp(x * x) / _TWO_OVER_SQRT_PI
    return math.copysign(x, y)


def _epsilon(epsilon: object) -> float:
    return positive_real(epsilon, "epsilon", 0.5)


def _delta(delta: object) -> float:
    delta = positive_real(delta, "delta", 1.0)
    if not 1.0 - delta < 1.0:  # below ~5.6e-17, erfinv(1 - delta) has no value
        raise ValueError(f"delta must keep 1 - delta below 1, got {delta!r}")
    return delta


def _per_epsilon_squared(numerator: float, weight: float, epsilon: float) -> float:
    """``numerator / (weight * epsilon^2)``; an ``epsilon`` too small for a
    finite result raises ``ValueError`` naming it (``epsilon^2`` may underflow)."""
    denominator = weight * epsilon * epsilon
    quotient = numerator / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(quotient):
        raise ValueError(f"epsilon is too small for finite shots, got {epsilon!r}")
    return quotient


def required_fisher_info(epsilon: float, delta: float) -> float:
    """Fisher information needed for |estimate - a| <= epsilon w.p. 1 - delta."""
    epsilon = _epsilon(epsilon)
    z = erfinv(1.0 - _delta(delta))
    return _per_epsilon_squared(2.0 * z * z, 1.0, epsilon)


def required_shots(
    epsilon: float,
    delta: float,
    schedule: Schedule,
    a: float | None = None,
) -> int:
    """Shots per scheduled depth to hit ``epsilon`` with probability 1 - delta.

    With the amplitude unknown (``a = None``) the worst case ``a = 0.5``
    applies. The real-valued requirement is rounded up so the Fisher
    information never undershoots.
    """
    epsilon, delta = _epsilon(epsilon), _delta(delta)
    a = 0.5 if a is None else positive_real(a, "a", 1.0)
    scale = a * (1.0 - a)
    z = erfinv(1.0 - delta)
    weight = info_weight_squared(schedule)
    raw = _per_epsilon_squared(2.0 * scale * z * z, weight, epsilon)
    return max(1, ceil_guarded(raw))


def _precision_from_shots(n_shot: int, delta: float, schedule: Schedule) -> float:
    """Inverse of :func:`required_shots` at ``a = 0.5``, before its rounding."""
    return erfinv(1.0 - delta) / (info_weight(schedule) * math.sqrt(2.0 * n_shot))


def total_calls(schedule: Schedule, n_shot: int) -> int:
    """Oracle calls for ``n_shot`` planned shots, ceiling each depth's share.

    A depth carrying shot fraction F runs ceil(F * n_shot) shots (see
    :meth:`Schedule.shots`) of cost (2d + 1) calls each; with all fractions 1
    this is n_shot * call_weight.
    """
    return sum(s * (2 * d + 1) for d, s in zip(schedule.depths, schedule.shots(n_shot)))


def speedup_factor(schedule: Schedule) -> float:
    """Call-count advantage over classical sampling: info_weight^2 / call_weight."""
    return info_weight_squared(schedule) / call_weight(schedule)


def fisher_information(a: float, schedule: Schedule, n_shot: int) -> float:
    """Fisher information about ``a`` in a record of ``n_shot`` shots per depth."""
    a = positive_real(a, "a", 1.0)
    n_shot = json_int(n_shot, "n_shot", 1)
    return n_shot * info_weight_squared(schedule) / (a * (1.0 - a))


def average_error(a: float, schedule: Schedule, n_shot: int) -> float:
    """Root-mean-square estimation error under the Gaussian approximation."""
    a = positive_real(a, "a", 1.0)
    n_shot = json_int(n_shot, "n_shot", 1)
    return math.sqrt(a * (1.0 - a) / n_shot) / info_weight(schedule)


# exceptional_values lists 2d + 2 floats, 32 bytes each in a list and ~20 as
# JSON: at most 2^20 of them keep a list within 32 MiB and ``amplest
# exceptional``'s output within ~20 MB. A depth beyond the schedules' limit
# is refused by that limit first.
_MAX_LISTED_DEPTH = 2**19 - 1


def exceptional_values(max_depth: int) -> list[float]:
    """Amplitudes where the deepest circuit yields good states w.p. 0 or 1.

    These are sin^2(k*pi / (2*(2d+1))) for k = 0..2d+1, in ascending order.
    Near them the log-likelihood develops singularities and the planned
    shot count stops being sufficient. ``max_depth`` is at most 2^19 - 1, so
    the list holds at most 2^20 values.
    """
    max_depth = json_int(max_depth, "max_depth", 0, _MAX_DEPTH)
    max_depth = json_int(max_depth, "max_depth", 0, _MAX_LISTED_DEPTH)
    return [_exceptional_value(max_depth, k) for k in range(2 * max_depth + 2)]


def _exceptional_value(max_depth: int, k: int) -> float:
    """The ``k``-th exceptional amplitude, sin^2(k*pi / (2*(2d+1))), unchecked."""
    return math.sin(k * math.pi / (2 * (2 * max_depth + 1))) ** 2


def single_shot_fisher_info(a: float, depth: int) -> float:
    """Fisher information of one shot at one depth: (2d+1)^2 / (a(1-a))."""
    a = positive_real(a, "a", 1.0)
    depth = json_int(depth, "depth", 0, _MAX_DEPTH)
    return (2 * depth + 1) ** 2 / (a * (1.0 - a))


def grid_points(multiplier: float, epsilon: float) -> int:
    """Angle-grid size ceil(multiplier / epsilon), >= 2, for any positive epsilon.

    A ratio above 2^53, the largest grid whose indices are exact floats, is
    refused (an infinite one too) naming both ``grid_multiplier`` and
    ``epsilon``.
    """
    multiplier = positive_real(multiplier, "grid_multiplier")
    # not _epsilon: a precision curve's grid epsilon may exceed 0.5
    raw = multiplier / positive_real(epsilon, "epsilon")
    if not raw <= _MAX_EXACT:
        raise ValueError(
            f"grid_multiplier / epsilon must be at most {_MAX_EXACT}, "
            f"got {multiplier!r} / {epsilon!r}"
        )
    return max(2, ceil_guarded(raw))


@dataclass(frozen=True)
class Plan:
    """A fully resolved resource plan for one estimation run."""

    epsilon: float
    delta: float
    max_depth: int
    schedule: Schedule
    n_shot: int
    n_calls: int
    grid_size: int
    grid_multiplier: float

    def to_dict(self) -> dict:
        """The fields in declaration order, the schedule as its own mapping."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["schedule"] = self.schedule.to_dict()
        return out


def make_plan(
    epsilon: float,
    delta: float,
    max_depth: int,
    jittered: bool = False,
    spread_coeff: float = 2.0,
    grid_multiplier: float = 3.0,
) -> Plan:
    """Build the fitted exponential schedule for ``max_depth`` and budget it.

    ``max_depth = 0`` degenerates to classical sampling on the single depth
    0. With ``jittered`` set, the schedule is spread first and the shot
    count is computed from the jittered information weight. Every argument
    is judged, read or not; a bad one raises ``ValueError`` naming it.
    """
    epsilon, delta = _epsilon(epsilon), _delta(delta)
    max_depth = json_int(max_depth, "max_depth", 0)
    positive_real(spread_coeff, "spread_coeff")
    grid_multiplier = positive_real(grid_multiplier, "grid_multiplier")
    if not isinstance(jittered, (bool, np.bool_)):
        raise ValueError(f"jittered must be a bool, got {jittered!r}")
    if jittered and max_depth == 0:
        raise ValueError("max_depth must be at least 1 when jittered")
    if max_depth == 0:
        schedule = Schedule((0,), (Fraction(1),), kind="custom")
    else:
        schedule = exponential_schedule_to_depth(max_depth)
    if jittered:
        schedule = jitter(schedule, spread_coeff)
    n_shot = required_shots(epsilon, delta, schedule)
    return Plan(
        epsilon=epsilon,
        delta=delta,
        max_depth=max_depth,
        schedule=schedule,
        n_shot=n_shot,
        n_calls=total_calls(schedule, n_shot),
        grid_size=grid_points(grid_multiplier, epsilon),
        grid_multiplier=grid_multiplier,
    )
