"""Deterministic seed derivation and counter-based random streams.

Every random draw in this package flows through a substream keyed by a
SplitMix64-derived 64-bit value. Because the streams are counter-based
(Philox), results do not depend on evaluation order, batching, or worker
count. The derivation scheme below is part of the output-file contract:
two runs with the same seeds produce byte-identical results.

Derivation scheme
-----------------
``mix64`` is the SplitMix64 finalizer:

    z = (x + 0x9E3779B97F4A7C15) mod 2^64
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    z = z XOR (z >> 31)

``derive_key(*parts)`` folds integer parts into one 64-bit key:

    acc = 0x243F6A8885A308D3
    for p in parts: acc = mix64(acc XOR mix64(p mod 2^64))

The key seeds a Philox 4x64 bit generator. Per-depth substreams of a
measurement record use ``derive_key(seed, depth_index)``; harness run
seeds use ``derive_key(base_seed, mode_tag, point_index, run_index)``
with the mode tags defined in :mod:`amplest.harness`.

Building a Philox and a ``Generator`` costs several times as much as
re-keying one, so :func:`record_streams` opens a record's depth substreams
by re-keying one generator per thread, built on first use (never at
import), to the state a fresh ``substream`` starts in. It folds the seed
once and reads each ``mix64(j)`` from a bounded cache shared by the
process's threads. Neither the re-keying nor the cache changes a key or a
draw.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_FOLD_INIT = 0x243F6A8885A308D3


def mix64(x: int) -> int:
    """SplitMix64 finalizer of a 64-bit integer (negative inputs wrap)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(*parts: int) -> int:
    """Fold integers into a single 64-bit stream key."""
    acc = _FOLD_INIT
    for p in parts:
        acc = mix64(acc ^ mix64(p & _MASK64))
    return acc


def substream(*parts: int) -> np.random.Generator:
    """Counter-based generator for the substream identified by ``parts``."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


_thread = threading.local()


@lru_cache(maxsize=64)
def _index_mixes(count: int) -> tuple[int, ...]:
    """``mix64(j)`` of a record's depth indices ``j < count``."""
    return tuple(map(mix64, range(count)))


def record_streams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """For each ``j < count``, the calling thread's generator in the state
    ``substream(seed, j)`` starts in (that key, counter 0, empty buffer).

    Every item is the same object, re-keyed in place, so the one yielded
    before moves on.
    """
    try:
        bit_generator, generator, fresh = _thread.streams
    except AttributeError:
        bit_generator = np.random.Philox(key=0)
        generator = np.random.Generator(bit_generator)
        state = bit_generator.state
        # The state setter reads item by item, and list items read faster
        # than numpy array items.
        fresh = {
            **state,
            "state": {k: v.tolist() for k, v in state["state"].items()},
            "buffer": state["buffer"].tolist(),
        }
        _thread.streams = bit_generator, generator, fresh
    # A 64-bit key fills the low word of Philox's two-word key.
    key = fresh["state"]["key"]
    head = derive_key(seed)
    for m in _index_mixes(count):
        key[0] = mix64(head ^ m)
        bit_generator.state = fresh
        yield generator
