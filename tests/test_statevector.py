import math

import numpy as np
import pytest

from amplest.planner import exceptional_values
from amplest.rng import substream
from amplest.statevector import StatePrep, apply_grover, grover_power_prob, prepare_state
from amplest.statevector import grover_power_probs


def closed_form(a: float, power: int) -> float:
    return math.sin((2 * power + 1) * math.asin(math.sqrt(a))) ** 2


def random_case(rng, n_qubits: int) -> StatePrep:
    dim = 1 << n_qubits
    size = int(rng.integers(1, dim))
    good = frozenset(int(i) for i in rng.choice(dim, size=size, replace=False))
    return StatePrep(n_qubits, good, float(rng.uniform(0.0, 1.0)))


class TestPrepareState:
    def test_single_qubit_uniform(self):
        v = prepare_state(StatePrep(1, frozenset({1}), 0.5))
        assert v == pytest.approx(np.full(2, 1 / math.sqrt(2)), abs=1e-15)

    def test_zero_amplitude(self):
        v = prepare_state(StatePrep(2, frozenset({3}), 0.0))
        assert v == pytest.approx(
            np.array([1 / math.sqrt(3)] * 3 + [0.0]), abs=1e-15
        )

    def test_normalized(self):
        rng = substream(17)
        for n in (1, 2, 3, 4):
            sp = random_case(rng, n)
            assert np.linalg.norm(prepare_state(sp)) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_good_set(self):
        with pytest.raises(ValueError):
            StatePrep(2, frozenset(), 0.5)
        with pytest.raises(ValueError):
            StatePrep(1, frozenset({0, 1}), 0.5)
        with pytest.raises(ValueError):
            StatePrep(1, frozenset({2}), 0.5)

    @pytest.mark.parametrize(
        "n_qubits, amplitude, message",
        [
            (0, 0.5, "n_qubits must be at least 1"),
            (13, 0.5, "n_qubits must be at most 12"),
            (2, -0.1, "amplitude must be a real number in"),
            (2, 1.5, "amplitude must be a real number in"),
        ],
    )
    def test_out_of_range_is_refused(self, n_qubits, amplitude, message):
        with pytest.raises(ValueError, match=message):
            StatePrep(n_qubits, frozenset({0}), amplitude)


class TestApplyGrover:
    def test_saturated_amplitudes_are_fixed_points(self):
        for a in (0.0, 1.0):
            sp = StatePrep(2, frozenset({1}), a)
            v = prepare_state(sp)
            for _ in range(5):
                v = apply_grover(v, sp)
            good_prob = abs(v[1]) ** 2
            assert good_prob == pytest.approx(a, abs=1e-12)

    def test_two_iterations_match_closed_form(self):
        sp = StatePrep(3, frozenset({5}), 0.3)
        v = prepare_state(sp)
        v = apply_grover(apply_grover(v, sp), sp)
        assert abs(v[5]) ** 2 == pytest.approx(closed_form(0.3, 2), abs=1e-10)

    def test_norm_preserved_every_application(self):
        rng = substream(23)
        sp = random_case(rng, 4)
        v = prepare_state(sp)
        for _ in range(8):
            v = apply_grover(v, sp)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        sp = StatePrep(2, frozenset({1}), 0.5)
        with pytest.raises(ValueError):
            apply_grover(np.ones(8, dtype=complex), sp)


class TestGroverPowerProb:
    def test_power_zero_is_the_amplitude(self):
        sp = StatePrep(3, frozenset({1, 6}), 0.37)
        assert grover_power_prob(sp, 0) == pytest.approx(0.37, abs=1e-12)

    def test_known_case(self):
        sp = StatePrep(2, frozenset({1, 2}), 0.4)
        assert grover_power_prob(sp, 3) == pytest.approx(closed_form(0.4, 3), abs=1e-10)

    @pytest.mark.parametrize("d,k", [(2, 1), (2, 4), (3, 3)])
    def test_exceptional_amplitudes_saturate(self, d, k):
        a = exceptional_values(d)[k]
        sp = StatePrep(3, frozenset({0, 5}), a)
        p = grover_power_prob(sp, d)
        assert min(p, 1.0 - p) < 1e-9

    def test_only_good_set_size_matters(self):
        base = grover_power_prob(StatePrep(3, frozenset({0, 1, 2}), 0.3), 4)
        permuted = grover_power_prob(StatePrep(3, frozenset({7, 4, 2}), 0.3), 4)
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_sweep_against_closed_form(self):
        worst = 0.0
        for n in (1, 2, 3, 4):
            rng = substream(91, n)
            for _ in range(20):
                sp = random_case(rng, n)
                for power in range(9):
                    dev = abs(grover_power_prob(sp, power) - closed_form(sp.amplitude, power))
                    worst = max(worst, dev)
        assert worst <= 1e-9

    def test_negative_power(self):
        with pytest.raises(ValueError):
            grover_power_prob(StatePrep(1, frozenset({0}), 0.5), -1)


def restarted_power_probs(sp: StatePrep, max_power: int) -> list[float]:
    """Each power from a fresh |A>, its good weight summed in index order."""
    good = sorted(sp.good_set)
    probs = []
    for power in range(max_power + 1):
        v = prepare_state(sp)
        for _ in range(power):
            v = apply_grover(v, sp)
        probs.append(float(np.sum(np.abs(v[good]) ** 2)))
    return probs


class TestGroverPowerProbs:
    @pytest.mark.parametrize("n_qubits", range(1, 7))
    def test_stepping_one_state_matches_restarting_bit_for_bit(self, n_qubits):
        rng = substream(37, n_qubits)
        cases = [random_case(rng, n_qubits) for _ in range(3)]
        good = frozenset({(1 << n_qubits) - 1})
        cases += [StatePrep(n_qubits, good, a) for a in (0.0, 1.0)]
        cases.append(StatePrep(n_qubits, good, exceptional_values(3)[2]))
        for sp in cases:
            assert grover_power_probs(sp, 9) == restarted_power_probs(sp, 9)

    def test_power_zero_is_one_probability(self):
        sp = StatePrep(3, frozenset({1, 6}), 0.37)
        assert grover_power_probs(sp, 0) == [grover_power_prob(sp, 0)]

    def test_each_power_is_the_last_of_its_list(self):
        sp = StatePrep(4, frozenset({2, 3, 11}), 0.61)
        probs = grover_power_probs(sp, 6)
        assert probs == [grover_power_prob(sp, d) for d in range(7)]


class TestStatePrepArrays:
    def test_writing_a_prepared_state_changes_no_later_one(self):
        sp = StatePrep(3, frozenset({5}), 0.3)
        before = grover_power_probs(sp, 4)
        v = prepare_state(sp)
        v[:] = 0.0
        assert np.array_equal(prepare_state(sp), sp.state)
        assert np.linalg.norm(prepare_state(sp)) == pytest.approx(1.0, abs=1e-12)
        assert grover_power_probs(sp, 4) == before

    def test_cached_arrays_are_read_only(self):
        sp = StatePrep(3, frozenset({1, 4}), 0.3)
        assert not sp.state.flags.writeable
        assert not sp.mask.flags.writeable
        assert sp.mask.tolist() == [i in (1, 4) for i in range(8)]
        with pytest.raises(ValueError):
            sp.state[0] = 1.0

    def test_equal_preparations_compare_and_hash_equal(self):
        # holds at the arrays' introduction too: they take no part in either
        first = StatePrep(3, frozenset({1, 4}), 0.3)
        second = StatePrep(np.int64(3), frozenset({4, np.int64(1)}), 0.3)
        assert first == second
        assert hash(first) == hash(second)
        assert first != StatePrep(3, frozenset({1, 4}), 0.4)
        assert repr(first) == "StatePrep(n_qubits=3, good_set=frozenset({1, 4}), amplitude=0.3)"
