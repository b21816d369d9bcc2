"""The package's numeric input rules, checked at every site that reads them.

Counts, indices, depths, grid sizes and seeds are integers: a numpy integer
is accepted and stored as ``int``; bools, floats and strings are refused with
a ``ValueError`` naming the argument, and so is a value below the site's
floor. Amplitudes and probabilities are reals in [0, 1]: a numpy float or a
``Fraction`` is accepted and stored as ``float``; bools, strings, NaN and
values outside [0, 1] are refused by name. Schedule parameters are finite
positive reals, read the same way; the planning fields' table of them is in
``tests/test_planner.py``.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from amplest.harness import ExperimentConfig
from amplest.likelihood import depth_log_likelihood, grid_angles, grid_maximize
from amplest.planner import (
    average_error,
    exceptional_values,
    fisher_information,
    make_plan,
    single_shot_fisher_info,
)
from amplest.sampler import angle_from_amplitude, binomial_draw, draw_record, good_prob
from amplest.schedules import (
    Schedule,
    base_bounds,
    closed_form_weights,
    exponential_schedule,
    exponential_schedule_to_depth,
    jitter,
    polynomial_schedule,
)
from amplest.statevector import StatePrep, grover_power_prob

ONE = Fraction(1)
SCHEDULE = exponential_schedule(3)
RECORD = draw_record(0.3, SCHEDULE, 10, 5)
PREP = StatePrep(2, frozenset({1}), 0.3)


def _curve(**fields):
    return ExperimentConfig(
        mode="precision_curve",
        max_depth=2,
        amplitudes=[0.5],
        **{"n_shot_list": [8], **fields},
    )


def _sweep_points(amplitudes):
    config = ExperimentConfig(mode="sweep", max_depth=2, amplitudes=amplitudes)
    return config.amplitudes, config.points


# Every public site that reads an integer: (call, argument name, a good
# value, the floor or None).
_INT_SITES = {
    "make_plan": (lambda v: make_plan(0.05, 0.01, v), "max_depth", 4, 0),
    "exceptional_values": (exceptional_values, "max_depth", 2, 0),
    "average_error": (lambda v: average_error(0.3, SCHEDULE, v), "n_shot", 9, 1),
    "fisher_information": (
        lambda v: fisher_information(0.3, SCHEDULE, v),
        "n_shot",
        9,
        1,
    ),
    "single_shot_fisher_info": (
        lambda v: single_shot_fisher_info(0.3, v),
        "depth",
        3,
        0,
    ),
    "Schedule.depths": (
        lambda v: Schedule((0, v), (ONE, ONE), kind="custom"),
        "depths",
        3,
        0,
    ),
    "Schedule.shots": (SCHEDULE.shots, "n_shot", 9, 1),
    "exponential_schedule": (exponential_schedule, "num_depths", 4, 2),
    "exponential_schedule_to_depth": (
        exponential_schedule_to_depth,
        "max_depth",
        5,
        1,
    ),
    "closed_form_weights": (closed_form_weights, "max_depth", 8, 2),
    "base_bounds": (base_bounds, "num_depths", 4, 3),
    "good_prob": (lambda v: good_prob(0.3, v), "depth", 3, 0),
    "binomial_draw": (
        lambda v: binomial_draw(v, 0.5, np.random.default_rng(1)),
        "n",
        10,
        0,
    ),
    "draw_record.seed": (lambda v: draw_record(0.3, SCHEDULE, 10, v), "seed", 3, None),
    "draw_record.n_shot": (lambda v: draw_record(0.3, SCHEDULE, v, 3), "n_shot", 9, 1),
    "depth_log_likelihood.shots": (
        lambda v: depth_log_likelihood(0.3, 2, v, 3),
        "shots",
        10,
        0,
    ),
    "depth_log_likelihood.hits": (
        lambda v: depth_log_likelihood(0.3, 2, 10, v),
        "hits",
        3,
        0,
    ),
    "grid_angles": (grid_angles, "grid_size", 5, 2),
    "grid_maximize": (lambda v: grid_maximize(RECORD, v), "grid_size", 50, 2),
    "StatePrep.n_qubits": (
        lambda v: StatePrep(v, frozenset({0}), 0.3),
        "n_qubits",
        2,
        1,
    ),
    "StatePrep.good_set": (
        lambda v: StatePrep(2, frozenset({v}), 0.3),
        "good_set",
        3,
        0,
    ),
    "grover_power_prob": (lambda v: grover_power_prob(PREP, v), "power", 2, 0),
    "ExperimentConfig.runs_per_point": (
        lambda v: _curve(runs_per_point=v).runs_per_point,
        "runs_per_point",
        3,
        1,
    ),
    "ExperimentConfig.n_shot_list": (
        lambda v: _curve(n_shot_list=[v]).n_shot_list,
        "n_shot_list",
        8,
        1,
    ),
    "ExperimentConfig.amplitudes": (_sweep_points, "amplitudes", 3, 2),
}

# Every public site that reads an amplitude or a probability.
_UNIT_SITES = {
    "angle_from_amplitude": (angle_from_amplitude, "a"),
    "draw_record": (lambda v: draw_record(v, SCHEDULE, 10, 3), "a"),
    "binomial_draw": (lambda v: binomial_draw(10, v, np.random.default_rng(1)), "p"),
    "StatePrep": (lambda v: StatePrep(2, frozenset({1}), v), "amplitude"),
    "ExperimentConfig.amplitudes": (lambda v: _sweep_points([v])[1], "amplitudes"),
}


# Every schedule builder that reads a finite positive real: (call, argument
# name, a value above its upper end or None).
_POSITIVE_REAL_SITES = {
    "polynomial_schedule.beta": (lambda v: polynomial_schedule(v, 0.125), "beta", 1.5),
    "polynomial_schedule.epsilon": (
        lambda v: polynomial_schedule(0.5, v),
        "epsilon",
        1.0,
    ),
    "jitter": (lambda v: jitter(SCHEDULE, v), "spread_coeff", None),
}


def _plain(value) -> bool:
    """True when no numpy scalar hides anywhere in ``value``."""
    if isinstance(value, np.generic):
        return False
    if dataclasses.is_dataclass(value):
        return all(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list, frozenset)):
        return all(map(_plain, value))
    return True


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestIntegerRule:
    @pytest.mark.parametrize("site", sorted(_INT_SITES))
    @pytest.mark.parametrize("value", [True, 2.5, "2"])
    def test_non_integer_is_refused_by_name(self, site, value):
        call, name, _, _ = _INT_SITES[site]
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(value)

    @pytest.mark.parametrize(
        "site", sorted(s for s, entry in _INT_SITES.items() if entry[3] is not None)
    )
    def test_value_below_the_floor_is_refused(self, site):
        call, name, _, least = _INT_SITES[site]
        with pytest.raises(ValueError, match=f"^{name} must be at least {least}"):
            call(least - 1)

    @pytest.mark.parametrize("site", sorted(_INT_SITES))
    @pytest.mark.parametrize("kind", [np.int64, np.uint16])
    def test_numpy_integer_reads_as_the_plain_int(self, site, kind):
        call, _, good, _ = _INT_SITES[site]
        plain, numpy = call(good), call(kind(good))
        assert _same(numpy, plain)
        assert _plain(numpy)
        if hasattr(numpy, "to_dict"):
            json.dumps(numpy.to_dict())


class TestUnitRealRule:
    @pytest.mark.parametrize("site", sorted(_UNIT_SITES))
    @pytest.mark.parametrize(
        "value", [True, False, "0.3", None, math.nan, -0.1, 1.5, math.inf]
    )
    def test_bad_value_is_refused_by_name(self, site, value):
        call, name = _UNIT_SITES[site]
        with pytest.raises(ValueError, match=f"^{name} must be a real number in"):
            call(value)

    @pytest.mark.parametrize("site", sorted(_UNIT_SITES))
    @pytest.mark.parametrize(
        "value", [np.float64(0.25), np.float32(0.25), Fraction(1, 4), 0, np.int64(1)]
    )
    def test_other_reals_read_as_the_plain_float(self, site, value):
        call, _ = _UNIT_SITES[site]
        result = call(value)
        assert _same(result, call(float(value)))
        assert _plain(result)

    @pytest.mark.parametrize("value", [1, Fraction(1, 4), np.float32(0.25)])
    def test_stored_amplitudes_are_floats(self, value):
        assert type(draw_record(value, SCHEDULE, 10, 3).a_true) is float
        assert type(StatePrep(2, frozenset({1}), value).amplitude) is float


class TestPositiveRealRule:
    @pytest.mark.parametrize("site", sorted(_POSITIVE_REAL_SITES))
    @pytest.mark.parametrize(
        "value", [True, "0.1", None, math.nan, math.inf, -math.inf, 0, -0.1]
    )
    def test_bad_value_is_refused_by_name(self, site, value):
        call, name, _ = _POSITIVE_REAL_SITES[site]
        with pytest.raises(ValueError, match=f"^{name} must be a finite positive"):
            call(value)

    @pytest.mark.parametrize(
        "site", sorted(s for s, entry in _POSITIVE_REAL_SITES.items() if entry[2])
    )
    def test_value_above_the_range_is_refused_by_name(self, site):
        call, name, above = _POSITIVE_REAL_SITES[site]
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(above)

    @pytest.mark.parametrize("site", sorted(_POSITIVE_REAL_SITES))
    @pytest.mark.parametrize(
        "value", [np.float64(0.5), np.float32(0.5), Fraction(1, 2)]
    )
    def test_other_reals_read_as_the_plain_float(self, site, value):
        call, _, _ = _POSITIVE_REAL_SITES[site]
        result = call(value)
        assert result == call(0.5)
        assert _plain(result)
        json.dumps(result.to_dict())

    @pytest.mark.parametrize("field", ["nu", "spread_coeff", "beta"])
    @pytest.mark.parametrize(
        "value",
        [np.float64(2.0), np.float32(2.0), Fraction(2)],
        ids=["float64", "float32", "Fraction"],
    )
    def test_schedule_stores_the_plain_float(self, field, value):
        schedule = Schedule((0, 1), (ONE, ONE), kind="custom", **{field: value})
        assert type(getattr(schedule, field)) is float
        data = json.loads(json.dumps(schedule.to_dict()))
        assert Schedule.from_dict(data) == schedule

    @pytest.mark.parametrize(
        "beta, epsilon", [(1.0, 1e-170), (0.5, 1e-320), (0.01, 1e-320)]
    )
    def test_depth_count_beyond_a_float_is_refused_by_name(self, beta, epsilon):
        with pytest.raises(ValueError, match="^epsilon is too small for a finite"):
            polynomial_schedule(beta, epsilon)


class TestScheduleFractions:
    @pytest.mark.parametrize("bad", [1.0, True, 0.5, "1"])
    def test_bool_and_float_fractions_are_refused_by_name(self, bad):
        with pytest.raises(ValueError, match="^fractions must be"):
            Schedule((0, 1), (ONE, bad), kind="custom")

    @pytest.mark.parametrize("one", [1, np.int64(1), ONE])
    def test_integer_fractions_are_stored_as_fractions(self, one):
        schedule = Schedule((0, 1), (one, one), kind="custom")
        assert all(type(f) is Fraction for f in schedule.fractions)
        assert type(schedule.fractions[0].numerator) is int
        json.dumps(schedule.to_dict())
        assert schedule == Schedule((0, 1), (ONE, ONE), kind="custom")
