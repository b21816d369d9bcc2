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
from typing import NamedTuple

import numpy as np

from ._util import json_int, unit_real
from .rng import record_keys, thread_substreams
from .schedules import Schedule

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


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-depth good-outcome counts, with provenance when simulated."""

    entries: tuple[RecordEntry, ...]
    a_true: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        for e in self.entries:
            if e.depth < 0:
                raise ValueError(f"depth must be at least 0, got {e.depth}")
            if e.shots < 1:
                raise ValueError(f"entry at depth {e.depth} has no shots")
            if not 0 <= e.hits <= e.shots:
                raise ValueError(
                    f"entry at depth {e.depth}: hits {e.hits} outside [0, {e.shots}]"
                )
        depths = [e.depth for e in self.entries]
        if any(b < a for a, b in zip(depths, depths[1:])):
            raise ValueError("record depths must be non-decreasing")

    def to_dict(self) -> dict:
        out: dict = {
            "entries": [
                {"depth": e.depth, "shots": e.shots, "hits": e.hits}
                for e in self.entries
            ]
        }
        if self.a_true is not None:
            out["a_true"] = self.a_true
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementRecord":
        seed = data.get("seed")
        return cls(
            entries=tuple(
                RecordEntry(*(json_int(e[k], k) for k in RecordEntry._fields))
                for e in data["entries"]
            ),
            a_true=data.get("a_true"),
            seed=None if seed is None else json_int(seed, "seed"),
        )


def angle_from_amplitude(a: float) -> float:
    """theta = arcsin(sqrt(a)) in [0, pi/2]."""
    return math.asin(math.sqrt(unit_real(a, "a")))


def amplitude_from_angle(theta: float) -> float:
    """a = sin^2(theta), inverse of :func:`angle_from_amplitude`."""
    s = math.sin(theta)
    return s * s


def good_prob(theta: float, depth: int) -> float:
    """Probability of a good outcome at ``depth``: sin^2((2*depth+1)*theta)."""
    s = math.sin((2 * json_int(depth, "depth", 0) + 1) * theta)
    return s * s


def binomial_draw(n: int, p: float, rng: np.random.Generator) -> int:
    """One Binomial(n, p) draw; exact at the endpoints p = 0 and p = 1."""
    return _binomial(json_int(n, "n", 0), unit_real(p, "p"), rng)


def _binomial(n: int, p: float, rng: np.random.Generator) -> int:
    """:func:`binomial_draw` of a count and a probability already judged."""
    if p == 0.0:
        return 0
    if p == 1.0:
        return n
    return int(rng.binomial(n, p))


def draw_record(
    a: float,
    schedule: Schedule,
    n_shot: int,
    seed: int,
) -> MeasurementRecord:
    """Simulate one estimation run's measurement record.

    A depth with shot fraction F performs ceil(F * n_shot) shots. Depth j
    draws from the substream (seed, j), so entries are independent of the
    order in which they are produced.
    """
    a, seed = unit_real(a, "a"), json_int(seed, "seed")
    depths = schedule.depths
    shots = schedule.shots(n_shot)
    theta = angle_from_amplitude(a)
    streams = thread_substreams()
    entries = []
    for key, depth, n in zip(record_keys(seed, len(depths)), depths, shots):
        # n comes from a judged n_shot, and p, a sin^2, lies in [0, 1]
        hits = _binomial(n, good_prob(theta, depth), streams.open_key(key))
        entries.append(RecordEntry(depth, n, hits))
    return MeasurementRecord(tuple(entries), a_true=a, seed=seed)
