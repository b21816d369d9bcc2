"""Grover-depth schedules and their call/information aggregates.

A schedule is the ordered list of Grover depths at which measurement
batches are taken, together with per-depth shot fractions. Two scalar
aggregates drive all resource planning:

* ``call_weight``  = sum_j F_j * (2 d_j + 1), the oracle calls incurred
  per planned shot, and
* ``info_weight``  = sqrt(sum_j F_j * (2 d_j + 1)^2), whose square scales
  the Fisher information of the measurement record.

All operations are pure; ``Schedule`` values are immutable and safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import groupby
from typing import Iterable

from ._util import (
    _MAX_EXACT, ceil_guarded, json_field, json_int, json_list, positive_real,
)

__all__ = [
    "Schedule",
    "BaseBounds",
    "exponential_schedule",
    "exponential_schedule_to_depth",
    "polynomial_schedule",
    "jitter",
    "call_weight",
    "info_weight",
    "info_weight_squared",
    "closed_form_weights",
    "base_bounds",
]

_KINDS = ("exp", "exp_nu", "poly", "jittered", "custom")
# The optional parameters of a schedule, each a finite positive real
_PARAMETERS = ("nu", "spread_coeff", "beta")
# The largest depth that any reader of a depth accepts, 2^52 - 1: the largest
# d whose 2d + 1 is exact in a float, as good_prob and the likelihood's
# factors compute it.
_MAX_DEPTH = _MAX_EXACT // 2 - 1
# The most shot counts a schedule keeps the per-depth shots of: each
# experiment point draws all its runs at one count, so a few suffice, and a
# caller that asks for many distinct counts keeps no more memory than this.
_SHOTS_KEPT = 8


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class Schedule:
    """An ordered list of Grover depths with per-depth shot fractions.

    ``depths`` and ``fractions`` are lists, read by ``json_list`` and stored
    as tuples; a schedule has at least one depth. ``depths`` are ints in
    [0, 2^52 - 1], so every 2d + 1 is an exact float, and ``fractions``
    exact rationals (a ``Fraction`` or an int, stored as ``Fraction``) so
    that jitter-group sums can be checked without drift; they are 1
    everywhere for unjittered kinds.
    ``nu`` is the geometric base of an ``exp_nu`` schedule, ``spread_coeff``
    the jitter coefficient, and ``beta`` the polynomial depth-exponent
    parameter; each is present only where it applies, and then a finite
    positive real number.
    """

    depths: tuple[int, ...]
    fractions: tuple[Fraction, ...]
    kind: str
    nu: float | None = None
    spread_coeff: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in _PARAMETERS:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, positive_real(getattr(self, name), name))
        read_depth = partial(json_int, least=0, most=_MAX_DEPTH)
        depths = json_list(self.depths, "depths", read_depth, least=1)
        fractions = json_list(self.fractions, "fractions", _fraction)
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "fractions", fractions)
        if len(self.depths) != len(self.fractions):
            raise ValueError("depths and fractions must have equal length")
        pairs = zip(self.depths, self.depths[1:])
        if self.kind == "poly":
            if any(b < a for a, b in pairs):
                raise ValueError("poly schedule depths must be non-decreasing")
        elif any(b <= a for a, b in pairs):
            raise ValueError(f"{self.kind} schedule depths must be strictly ascending")
        if self.kind in ("exp", "exp_nu") and self.depths[0] != 0:
            raise ValueError(f"{self.kind} schedule must start at depth 0")
        if any(not (0 < f <= 1) for f in self.fractions):
            raise ValueError("shot fractions must lie in (0, 1]")
        for lo, hi in self._groups():
            total = sum(self.fractions[lo:hi], Fraction(0))
            if total != 1:
                raise ValueError(
                    f"jitter group {self.depths[lo]}..{self.depths[hi - 1]} "
                    f"has fraction sum {total}, expected 1"
                )

    def _groups(self) -> Iterable[tuple[int, int]]:
        """Index ranges [lo, hi) of contiguous fractional jitter groups.

        Depth and index both step by one along a band, so the key
        ``(fraction, depth - index)`` holds still there and changes exactly
        where a band ends: at a new fraction, a skipped or a repeated depth.
        """
        bands = groupby(
            range(len(self.depths)), lambda i: (self.fractions[i], self.depths[i] - i)
        )
        for (fraction, _), group in bands:
            if fraction != 1:
                members = list(group)
                yield members[0], members[-1] + 1

    def shots(self, n_shot: int) -> tuple[int, ...]:
        """Shots each depth performs for ``n_shot`` planned shots.

        A depth with shot fraction F performs ceil(F * n_shot) shots, in exact
        rational arithmetic so the ceiling is never off by one. The shots of
        up to ``_SHOTS_KEPT`` counts are kept on the schedule; a new count
        beyond that empties the store first, so memory stays bounded however
        many counts are asked for.
        """
        n_shot = json_int(n_shot, "n_shot", 1)
        shots = self._shots.get(n_shot)
        if shots is None:
            shots = tuple(math.ceil(f * n_shot) for f in self.fractions)
            if len(self._shots) >= _SHOTS_KEPT:
                self._shots.clear()
            self._shots[n_shot] = shots
        return shots

    @cached_property
    def _shots(self) -> dict[int, tuple[int, ...]]:
        return {}

    def to_dict(self) -> dict:
        """JSON-ready ``{"kind", "depths", "fractions", ...}`` mapping."""
        parameters = {name: getattr(self, name) for name in _PARAMETERS}
        return {
            "kind": self.kind,
            "depths": list(self.depths),
            "fractions": [[f.numerator, f.denominator] for f in self.fractions],
            **{name: v for name, v in parameters.items() if v is not None},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        return cls(
            depths=json_field(data, "depths"),
            fractions=json_list(json_field(data, "fractions"), "fractions", _pair),
            kind=json_field(data, "kind"),
            **{name: data.get(name) for name in _PARAMETERS},
        )


def _fraction(f: object, field: str) -> Fraction:
    """A shot fraction as given, or an integer one as an exact ``Fraction``."""
    return f if isinstance(f, Fraction) else Fraction(json_int(f, field))


def _pair(pair: object, field: str) -> Fraction:
    """A JSON ``[numerator, denominator]`` pair as a ``Fraction``."""
    try:  # json_list refuses a non-list, the unpacking a wrong length
        n, d = json_list(pair, field)
    except ValueError:
        raise ValueError(
            f"{field} must hold [numerator, denominator] pairs, got {pair!r}"
        ) from None
    return Fraction(json_int(n, field), json_int(d, field, 1))


def _unit_fractions(n: int) -> tuple[Fraction, ...]:
    return (Fraction(1),) * n


def exponential_schedule(num_depths: int) -> Schedule:
    """Schedule {0, 1, 2, 4, ..., 2^(q-2)} with ``q = num_depths`` entries.

    ``q`` is at most 53, whose last depth 2^51 is the largest power of 2
    within the depth limit.
    """
    num_depths = json_int(num_depths, "num_depths", 2, _MAX_DEPTH.bit_length() + 1)
    depths = (0,) + tuple(2 ** (j - 1) for j in range(1, num_depths))
    return Schedule(depths, _unit_fractions(num_depths), kind="exp")


def exponential_schedule_to_depth(max_depth: int) -> Schedule:
    """Geometric schedule {0, 1, round(nu), round(nu^2), ...} ending at ``max_depth``.

    The base ``nu = max_depth**(1/m)`` is chosen, over integer m >= 1, as the
    value closest to 2, so the schedule stays near the plain doubling one
    while hitting ``max_depth`` exactly. Ties prefer the smaller m (larger
    base), which uses fewer depths. ``max_depth = 1`` degenerates to {0, 1};
    a ``max_depth`` above 2^52 - 1 is refused.
    """
    max_depth = json_int(max_depth, "max_depth", 1, _MAX_DEPTH)
    if max_depth == 1:
        return Schedule((0, 1), _unit_fractions(2), kind="exp_nu")
    best_m, best_nu = 1, float(max_depth)
    for m in range(1, max_depth.bit_length() + 2):
        nu = max_depth ** (1.0 / m)
        if abs(nu - 2.0) < abs(best_nu - 2.0):
            best_m, best_nu = m, nu
    q = best_m + 2
    depths = [0] + [round_half_away(best_nu ** (j - 1)) for j in range(1, q - 1)]
    depths.append(max_depth)
    return Schedule(tuple(depths), _unit_fractions(q), kind="exp_nu", nu=best_nu)


# The most depths polynomial_schedule builds (2^16 take ~0.1 s on 2 vCPUs).
_MAX_POLY_DEPTHS = 2**16


def polynomial_schedule(beta: float, epsilon: float) -> Schedule:
    """Depth-limited schedule {round(j^((1-beta)/(2*beta)))} for j = 1..q.

    ``q = ceil(max(epsilon^(-2*beta), ln(1/epsilon)))``. Duplicate depths are
    kept: each entry is an independent measurement batch, and collapsing
    them would change the call count. ``beta`` lies in (0, 1] and ``epsilon``
    in (0, 1). Refused before any depth is built: more than 2^16 depths, and
    then a largest depth above 2^52 - 1.
    """
    beta = positive_real(beta, "beta")
    if beta > 1.0:
        raise ValueError(f"beta must be at most 1, got {beta!r}")
    epsilon = positive_real(epsilon, "epsilon", 1.0)
    try:
        raw = max(epsilon ** (-2.0 * beta), math.log(1.0 / epsilon))
    except OverflowError:  # float ** raises where float / returns inf
        raw = math.inf
    if not raw <= _MAX_POLY_DEPTHS:
        raise ValueError(
            f"epsilon is too small for a finite depth count of at most "
            f"{_MAX_POLY_DEPTHS} at beta {beta!r}, got {epsilon!r}"
        )
    q = ceil_guarded(raw)
    exponent = (1.0 - beta) / (2.0 * beta)
    # capped at 53, the power stays finite (q <= 2^16) and passes the bound from q = 2
    if round_half_away(q ** min(exponent, 53.0)) > _MAX_DEPTH:
        raise ValueError(
            f"beta {beta!r} gives depths above {_MAX_DEPTH} at epsilon {epsilon!r}"
        )
    depths = tuple(round_half_away(j**exponent) for j in range(1, q + 1))
    return Schedule(depths, _unit_fractions(q), kind="poly", beta=beta)


def jitter(schedule: Schedule, spread_coeff: float) -> Schedule:
    """Spread each depth's shots over a logarithmic-width band of nearby depths.

    Walks the schedule from the largest depth down. Depth d at position i
    has width w = max(0, round(ln(spread_coeff) + ln(d))), or 0 for d = 0, and
    the band [max(0, d - w), upper] with upper = d at the maximum depth
    (never exceed it) and d + w below it. The band replaces d when it keeps
    a gap of at least one depth below, to the next-smaller original depth
    (none below the first), and above, to the lowest depth already placed
    (none above the last); otherwise d stays alone. Larger depths thus win
    conflicts. Every band's shot fractions are 1 / len(band), summing to 1.
    """
    spread_coeff = positive_real(spread_coeff, "spread_coeff")
    depths = schedule.depths
    if len(depths) < 2:
        raise ValueError("jitter needs a schedule with at least 2 depths")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError("jitter needs strictly ascending depths")

    last = len(depths) - 1
    out_depths: list[int] = []  # built descending, reversed at the end
    out_fractions: list[Fraction] = []
    for i in range(last, -1, -1):
        d = depths[i]
        # clamp a negative width, whose empty band would swallow the depth; a
        # sum of logs cannot overflow where log(spread_coeff * d) would
        w = max(0, round_half_away(math.log(spread_coeff) + math.log(d))) if d else 0
        lower, upper = max(0, d - w), d if i == last else d + w
        fits = (i == 0 or lower > depths[i - 1] + 1) and (
            i == last or upper < out_depths[-1] - 1
        )
        band = range(upper, lower - 1, -1) if fits else (d,)
        out_depths.extend(band)
        out_fractions.extend([Fraction(1, len(band))] * len(band))
    return replace(
        schedule,
        depths=tuple(reversed(out_depths)),
        fractions=tuple(reversed(out_fractions)),
        kind="jittered",
        spread_coeff=spread_coeff,
    )


def _weight_sums(schedule: Schedule) -> tuple[Fraction, Fraction]:
    linear = Fraction(0)
    quadratic = Fraction(0)
    for d, f in zip(schedule.depths, schedule.fractions):
        c = 2 * d + 1
        linear += f * c
        quadratic += f * c * c
    return linear, quadratic


def call_weight(schedule: Schedule) -> float:
    """Fraction-weighted sum of (2d + 1): oracle calls per planned shot."""
    return float(_weight_sums(schedule)[0])


def info_weight(schedule: Schedule) -> float:
    """sqrt of the fraction-weighted sum of (2d + 1)^2."""
    return math.sqrt(info_weight_squared(schedule))


def info_weight_squared(schedule: Schedule) -> float:
    """Fraction-weighted sum of (2d + 1)^2, exact before the float cast."""
    return float(_weight_sums(schedule)[1])


def closed_form_weights(max_depth: int) -> tuple[float, float]:
    """(call_weight, info_weight) of the doubling schedule ending at a power of 2.

    Valid only for ``max_depth = 2^k``, 1 <= k <= 51 (the depth limit),
    where the geometric sums collapse to ``4d + log2(d)`` and
    ``sqrt(16d^2/3 + 8d + log2(d) - 10/3)``.
    """
    max_depth = json_int(max_depth, "max_depth", 2, _MAX_DEPTH)
    if max_depth & (max_depth - 1):
        raise ValueError(f"closed form needs max_depth a power of 2, got {max_depth}")
    log2d = float(max_depth.bit_length() - 1)
    linear = 4.0 * max_depth + log2d
    quadratic = 16.0 * max_depth**2 / 3.0 + 8.0 * max_depth + log2d - 10.0 / 3.0
    return linear, math.sqrt(quadratic)


@dataclass(frozen=True)
class BaseBounds:
    """Bounds on the geometric base of a fitted exponential schedule."""

    lower: float
    upper: float
    num_depths: int


def base_bounds(num_depths: int) -> BaseBounds:
    """Bounds 2^((q-3)/(q-2)) < nu < 2^((q-1)/(q-2)) for a q-depth schedule.

    Both bounds tend to 2 as q grows, so fitted schedules approach plain
    doubling at large maximum depth. Requires q >= 3.
    """
    q = json_int(num_depths, "num_depths", 3)
    return BaseBounds(
        lower=2.0 ** ((q - 3) / (q - 2)),
        upper=2.0 ** ((q - 1) / (q - 2)),
        num_depths=q,
    )
