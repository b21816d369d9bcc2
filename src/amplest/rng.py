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

Opening substreams cheaply
--------------------------
Building a Philox and a ``Generator`` costs several times as much as
re-keying one, so each thread keeps one :class:`Substreams`, built on its
first call to :func:`thread_substreams` (never at import), and re-keys its
generator in place for every substream; a re-keyed generator is in the
state a fresh ``substream`` would start in. :func:`record_keys` returns a
record's depth keys ``derive_key(seed, j)`` with the fold of ``seed``
computed once per record and the ``mix64(j)`` read from a bounded
``functools.lru_cache`` of one tuple per record length, shared by the
process's threads, so each depth costs one ``mix64``. Neither changes a
key or a draw.
"""

from __future__ import annotations

import threading
from functools import lru_cache

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


class Substreams:
    """Successive substreams drawn from one Philox generator, re-keyed in place.

    ``open_key(derive_key(*parts))`` puts the generator in the state
    ``substream(*parts)`` starts in (that key, counter 0, empty buffer) and
    returns it, which saves building a bit generator and a ``Generator`` per
    substream. A generator returned earlier is the same object and moves on.
    One instance serves one thread at a time.
    """

    def __init__(self) -> None:
        self._bit_generator = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bit_generator)
        state = self._bit_generator.state
        # The state setter reads item by item, and list items read faster
        # than numpy array items.
        self._fresh = {
            **state,
            "state": {k: v.tolist() for k, v in state["state"].items()},
            "buffer": state["buffer"].tolist(),
        }

    def open_key(self, key: int) -> np.random.Generator:
        # A 64-bit key fills the low word of Philox's two-word key.
        self._fresh["state"]["key"][0] = key
        self._bit_generator.state = self._fresh
        return self._generator


_thread = threading.local()


def thread_substreams() -> Substreams:
    """The calling thread's :class:`Substreams`, built on first use."""
    try:
        return _thread.streams
    except AttributeError:
        _thread.streams = Substreams()
        return _thread.streams


@lru_cache(maxsize=64)
def _index_mixes(count: int) -> tuple[int, ...]:
    """``mix64(j)`` of a record's depth indices ``j < count``."""
    return tuple(map(mix64, range(count)))


def record_keys(seed: int, count: int) -> list[int]:
    """``[derive_key(seed, j) for j in range(count)]``, folding ``seed`` once."""
    head = mix64(_FOLD_INIT ^ mix64(seed & _MASK64))
    return [mix64(head ^ m) for m in _index_mixes(count)]
