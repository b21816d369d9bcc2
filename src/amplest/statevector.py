"""Dense-statevector cross-check of the closed-form good-state probability.

The rest of the package never simulates circuits: it relies on the identity
that ``power`` applications of the Grover iteration turn a prepared state
with good-subspace weight ``a = sin^2(theta)`` into one with weight
``sin^2((2*power + 1) * theta)``. This module verifies that identity the
hard way, by applying the iteration to explicit state vectors of up to 12
qubits. It exists for verification, not performance.

One application is composed of two reflections: flip the sign of every
good basis amplitude, then reflect about the prepared state |A> via
``v -> 2 <A|v> |A> - v``. Flipping the good subspace instead of the bad
one differs only by a global phase, which probabilities cannot see, and
the reflection about |A> is what the sandwich of the preparation unitary
around the zero-state reflection does on the relevant two-dimensional
subspace.

A :class:`StatePrep` builds |A> and its boolean good mask once, as read-only
arrays that every application reads. :func:`grover_power_probs` steps one
state through the powers ``0..max_power``; the state at power ``k + 1`` is
the state at power ``k`` after one more application, so each power gives
the bits a fresh start from |A> would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import json_int, unit_real

__all__ = [
    "StatePrep", "prepare_state", "apply_grover", "grover_power_probs",
    "grover_power_prob",
]

MAX_QUBITS = 12


@dataclass(frozen=True)
class StatePrep:
    """A uniform good/bad superposition on ``n_qubits`` with weight ``amplitude``.

    ``mask`` (True on good indices) and ``state``, |A> with value
    sqrt(a/|G|) on good indices and sqrt((1-a)/|B|) on bad ones, are built
    once and read-only; equality, hashing and repr ignore them.
    """

    n_qubits: int
    good_set: frozenset[int]
    amplitude: float
    mask: np.ndarray = field(init=False, repr=False, compare=False)
    state: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_qubits = json_int(self.n_qubits, "n_qubits", 1, MAX_QUBITS)
        dim = 1 << n_qubits
        good_set = frozenset(json_int(i, "good_set", 0) for i in self.good_set)
        if not good_set or len(good_set) >= dim:
            raise ValueError("good_set must be a non-empty proper subset of the basis")
        if max(good_set) >= dim:
            raise ValueError("good_set indices out of range")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "good_set", good_set)
        object.__setattr__(self, "amplitude", unit_real(self.amplitude, "amplitude"))
        mask = np.zeros(dim, dtype=bool)
        mask[list(good_set)] = True
        state = np.empty(dim, dtype=np.complex128)
        state[mask] = np.sqrt(self.amplitude / len(good_set))
        state[~mask] = np.sqrt((1.0 - self.amplitude) / (dim - len(good_set)))
        for name, array in (("mask", mask), ("state", state)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def prepare_state(sp: StatePrep) -> np.ndarray:
    """|A> as a writable copy of ``sp.state``, which stays unchanged."""
    return sp.state.copy()


def apply_grover(v: np.ndarray, sp: StatePrep) -> np.ndarray:
    """One Grover iteration: oracle sign flip, then reflection about |A>."""
    if v.shape != (sp.dim,):
        raise ValueError(f"state has dimension {v.shape}, expected ({sp.dim},)")
    flipped = v.copy()
    flipped[sp.mask] *= -1.0
    out = 2.0 * np.vdot(sp.state, flipped) * sp.state - flipped
    return out / np.linalg.norm(out)


def grover_power_probs(sp: StatePrep, max_power: int) -> list[float]:
    """Good-subspace probabilities after 0..``max_power`` Grover iterations on
    |A>, from one state stepped ``max_power`` times."""
    v, probs = sp.state, []
    for power in range(json_int(max_power, "max_power", 0) + 1):
        if power:
            v = apply_grover(v, sp)
        probs.append(float(np.sum(np.abs(v[sp.mask]) ** 2)))
    return probs


def grover_power_prob(sp: StatePrep, power: int) -> float:
    """Good-subspace probability after ``power`` Grover iterations on |A>."""
    return grover_power_probs(sp, json_int(power, "power", 0))[-1]
