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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import json_int, unit_real

__all__ = ["StatePrep", "prepare_state", "apply_grover", "grover_power_prob"]

MAX_QUBITS = 12


@dataclass(frozen=True)
class StatePrep:
    """A uniform good/bad superposition on ``n_qubits`` with weight ``amplitude``."""

    n_qubits: int
    good_set: frozenset[int]
    amplitude: float

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

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def _good_mask(sp: StatePrep) -> np.ndarray:
    mask = np.zeros(sp.dim, dtype=bool)
    mask[list(sp.good_set)] = True
    return mask


def prepare_state(sp: StatePrep) -> np.ndarray:
    """|A> with value sqrt(a/|G|) on good indices, sqrt((1-a)/|B|) on bad ones."""
    mask = _good_mask(sp)
    n_good = int(mask.sum())
    v = np.empty(sp.dim, dtype=np.complex128)
    v[mask] = np.sqrt(sp.amplitude / n_good)
    v[~mask] = np.sqrt((1.0 - sp.amplitude) / (sp.dim - n_good))
    return v


def apply_grover(v: np.ndarray, sp: StatePrep) -> np.ndarray:
    """One Grover iteration: oracle sign flip, then reflection about |A>."""
    if v.shape != (sp.dim,):
        raise ValueError(f"state has dimension {v.shape}, expected ({sp.dim},)")
    a_state = prepare_state(sp)
    flipped = v.copy()
    flipped[_good_mask(sp)] *= -1.0
    out = 2.0 * np.vdot(a_state, flipped) * a_state - flipped
    return out / np.linalg.norm(out)


def grover_power_prob(sp: StatePrep, power: int) -> float:
    """Good-subspace probability after ``power`` Grover iterations on |A>."""
    v = prepare_state(sp)
    for _ in range(json_int(power, "power", 0)):
        v = apply_grover(v, sp)
    mask = _good_mask(sp)
    return float(np.sum(np.abs(v[mask]) ** 2))
