"""Analytic simulation of ideal measurement records.

A circuit at Grover depth d measures a good state with probability
``sin^2((2d + 1) * theta_a)``, so a full run can be simulated by drawing
one binomial count per scheduled depth. Each depth draws from its own
counter-based substream keyed on (seed, depth_index), which makes records
bit-reproducible regardless of evaluation order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from ._util import _MAX_EXACT, json_field, json_int, json_list, unit_real
from .rng import record_streams
from .schedules import _MAX_DEPTH, Schedule

__all__ = [
    "RecordEntry",
    "MeasurementRecord",
    "angle_from_amplitude",
    "amplitude_from_angle",
    "good_prob",
    "binomial_draw",
    "draw_record",
]


class RecordEntry(NamedTuple):
    depth: int
    shots: int
    hits: int


# The optional provenance fields of a record, each with its reader
_PROVENANCE = {"a_true": unit_real, "seed": json_int}


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-depth good-outcome counts, with provenance when simulated.

    ``entries`` is a list of (depth, shots, hits) triples, read by
    ``json_list`` and stored as a tuple of :class:`RecordEntry`; an entry
    that is no triple is refused by ``entries``. Depths, shots and hits are
    integers under ``json_int``'s rule, at least 0, 1 and 0; a depth is at
    most 2^52 - 1 as in a schedule, and shots at most 2^53 (``_MAX_EXACT``);
    hits never exceed shots, and depths never decrease. A numpy count is stored as
    ``int``, and ``a_true`` and ``seed``, when given, as a float in [0, 1]
    and an ``int``. A bad value raises ``ValueError`` naming it.
    """

    entries: tuple[RecordEntry, ...]
    a_true: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        stored = self.__dict__  # frozen: fields are replaced in the instance dict
        stored["entries"] = _judged(stored["entries"])
        for name, read in _PROVENANCE.items():
            if stored[name] is not None:
                stored[name] = read(stored[name], name)

    def to_dict(self) -> dict:
        provenance = {name: getattr(self, name) for name in _PROVENANCE}
        return {
            "entries": [e._asdict() for e in self.entries],
            **{name: v for name, v in provenance.items() if v is not None},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementRecord":
        entries = []
        for e in json_list(json_field(data, "entries"), "entries"):
            if not isinstance(e, Mapping):
                raise ValueError(
                    f"entries must hold mappings of depth, shots and hits, got {e!r}"
                )
            entries.append([e.get(k) for k in RecordEntry._fields])
        return cls(entries, **{name: data.get(name) for name in _PROVENANCE})


def _judged(entries: Iterable) -> tuple[RecordEntry, ...]:
    """``entries`` as a tuple of :class:`RecordEntry` of plain ints that keeps
    :class:`MeasurementRecord`'s rule, or ``ValueError`` naming the field.

    A tuple already in that form is returned as it is, at the cost of type
    tests and comparisons. Any other input is read by ``json_list``, each
    entry as a (depth, shots, hits) triple and each value by ``json_int``,
    and rebuilt; an entry that is no such triple is refused by ``entries``.
    """
    if type(entries) is not tuple:  # a drawn record's tuple skips the list tests
        entries = json_list(entries, "entries")
    last = 0
    for entry in entries:
        if type(entry) is not RecordEntry:
            break
        depth, shots, hits = entry
        if not (
            type(depth) is type(shots) is type(hits) is int
            and last <= depth and 0 <= hits <= shots and 0 < shots <= _MAX_EXACT
        ):
            break
        last = depth
    else:  # the last depth is the largest
        if last <= _MAX_DEPTH:
            return entries
    out: list[RecordEntry] = []
    least, most = (0, 1, 0), (_MAX_DEPTH, _MAX_EXACT, None)
    for entry in entries:
        try:  # json_list refuses a non-list, the unpacking a wrong length
            depth, shots, hits = triple = json_list(entry, "entries")
        except ValueError:
            raise ValueError(
                f"entries must hold (depth, shots, hits) triples, got {entry!r}"
            ) from None
        depth, shots, hits = map(json_int, triple, RecordEntry._fields, least, most)
        if hits > shots:
            raise ValueError(
                f"hits must be at most {shots} at depth {depth}, got {hits}"
            )
        if out and depth < out[-1].depth:
            raise ValueError("record depths must be non-decreasing")
        out.append(RecordEntry(depth, shots, hits))
    return tuple(out)


def angle_from_amplitude(a: float) -> float:
    """theta = arcsin(sqrt(a)) in [0, pi/2]."""
    return math.asin(math.sqrt(unit_real(a, "a")))


def amplitude_from_angle(theta: float) -> float:
    """a = sin^2(theta), inverse of :func:`angle_from_amplitude`."""
    s = math.sin(theta)
    return s * s


def good_prob(theta: float, depth: int) -> float:
    """Probability of a good outcome at ``depth``: sin^2((2*depth+1)*theta)."""
    s = math.sin((2 * json_int(depth, "depth", 0, _MAX_DEPTH) + 1) * theta)
    return s * s


def binomial_draw(n: int, p: float, rng: np.random.Generator) -> int:
    """One Binomial(n, p) draw of at most 2^53 trials, the most shots a record
    holds; numpy's draw is exactly 0 at p = 0 and n at p = 1."""
    return int(rng.binomial(json_int(n, "n", 0, _MAX_EXACT), unit_real(p, "p")))


def draw_record(
    a: float,
    schedule: Schedule,
    n_shot: int,
    seed: int,
) -> MeasurementRecord:
    """Simulate one estimation run's measurement record.

    A depth with shot fraction F performs ceil(F * n_shot) shots, so no more
    than ``n_shot``, which must be at most 2^53, the most shots a record
    holds; a larger one is refused before any stream is opened. Depth j
    draws from the substream (seed, j), so entries are independent of the
    order in which they are produced. At a = 0 every shot misses, and at
    a = 1 every shot at depth 0 hits, as numpy's draw is exact at p = 0
    and p = 1.
    """
    a, seed = unit_real(a, "a"), json_int(seed, "seed")
    depths = schedule.depths
    shots = schedule.shots(json_int(n_shot, "n_shot", 1, _MAX_EXACT))
    theta = angle_from_amplitude(a)
    entries = []
    for rng, depth, n in zip(record_streams(seed, len(depths)), depths, shots):
        # n comes from a judged n_shot, and p, a sin^2, lies in [0, 1]
        hits = int(rng.binomial(n, good_prob(theta, depth)))
        entries.append(RecordEntry(depth, n, hits))
    return MeasurementRecord(tuple(entries), a_true=a, seed=seed)
