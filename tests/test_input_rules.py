"""The package's numeric input rules, checked at every site that reads them.

Counts, indices, depths, grid sizes and seeds are integers: a numpy integer
is accepted and stored as ``int``; bools, floats and strings are refused with
a ``ValueError`` naming the argument, and so is a value below the site's
floor. Amplitudes and probabilities are reals in [0, 1]: a numpy float or a
``Fraction`` is accepted and stored as ``float``; bools, strings, NaN and
values outside [0, 1] are refused by name. Schedule parameters are finite
positive reals, read the same way; the planning fields' table of them is in
``tests/test_planner.py``. A planner function that reads an amplitude in
(0, 1) computes with the float it read. A measurement record reads its
depths, shots, hits and seed by the integer rule and its ``a_true`` by the
[0, 1] rule, whether it is built directly or from JSON.
"""

import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from amplest import sampler
from amplest.harness import ExperimentConfig, call_ratio_table, oracle_validation
from amplest.likelihood import (
    depth_log_likelihood,
    grid_angles,
    grid_maximize,
    record_log_likelihood,
)
from amplest.planner import (
    average_error,
    exceptional_values,
    fisher_information,
    make_plan,
    required_shots,
    single_shot_fisher_info,
)
from amplest.rng import record_streams
from amplest.sampler import (
    MeasurementRecord,
    RecordEntry,
    angle_from_amplitude,
    binomial_draw,
    draw_record,
    good_prob,
)
from amplest.schedules import (
    Schedule,
    base_bounds,
    call_weight,
    closed_form_weights,
    exponential_schedule,
    exponential_schedule_to_depth,
    info_weight,
    jitter,
    polynomial_schedule,
)
from amplest.statevector import StatePrep, grover_power_prob, grover_power_probs

ONE = Fraction(1)
SCHEDULE = exponential_schedule(3)
RECORD = draw_record(0.3, SCHEDULE, 10, 5)
PREP = StatePrep(2, frozenset({1}), 0.3)
ORACLE = {"qubits": 2, "trials": 1, "max_power": 1, "seed": 3}


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


ENTRY = {"depth": 2, "shots": 10, "hits": 3}


def _record_builders(field):
    """(name, call) pairs that build a record with ``field`` set to the value
    passed, through the constructor and through ``from_dict``."""
    if field in RecordEntry._fields:

        def construct(v):
            return MeasurementRecord((RecordEntry(**{**ENTRY, field: v}),))

        def from_json(v):
            return MeasurementRecord.from_dict({"entries": [{**ENTRY, field: v}]})

    else:

        def construct(v):
            return MeasurementRecord(RECORD.entries, **{field: v})

        def from_json(v):
            return MeasurementRecord.from_dict({**RECORD.to_dict(), field: v})

    return [
        (f"MeasurementRecord.{field}", construct),
        (f"MeasurementRecord.from_dict.{field}", from_json),
    ]


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
    "grover_power_probs": (
        lambda v: grover_power_probs(PREP, v),
        "max_power",
        2,
        0,
    ),
    "call_ratio_table": (
        lambda v: call_ratio_table([v], 0.05, 0.01, 2.0),
        "d_list",
        4,
        1,
    ),
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
    **{
        site: (call, field, good, least)
        for field, good, least in [
            ("depth", 2, 0),
            ("shots", 10, 1),
            ("hits", 3, 0),
            ("seed", 3, None),
        ]
        for site, call in _record_builders(field)
    },
    **{
        f"oracle_validation.{field}": (
            lambda v, field=field: oracle_validation(**{**ORACLE, field: v}),
            field,
            ORACLE[field],
            least,
        )
        for field, least in [
            ("qubits", 1),
            ("trials", 1),
            ("max_power", 0),
            ("seed", None),
        ]
    },
}

# Every public site that reads an amplitude or a probability.
_UNIT_SITES = {
    "angle_from_amplitude": (angle_from_amplitude, "a"),
    "draw_record": (lambda v: draw_record(v, SCHEDULE, 10, 3), "a"),
    "binomial_draw": (lambda v: binomial_draw(10, v, np.random.default_rng(1)), "p"),
    "StatePrep": (lambda v: StatePrep(2, frozenset({1}), v), "amplitude"),
    "ExperimentConfig.amplitudes": (lambda v: _sweep_points([v])[1], "amplitudes"),
    **{site: (call, "a_true") for site, call in _record_builders("a_true")},
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

# Every planner function that reads an amplitude in (0, 1) and computes with
# it. At epsilon 1e-4 a float32 amplitude would move required_shots by one.
_AMPLITUDE_SITES = {
    "fisher_information": lambda a: fisher_information(a, SCHEDULE, 10),
    "average_error": lambda a: average_error(a, SCHEDULE, 10),
    "single_shot_fisher_info": lambda a: single_shot_fisher_info(a, 3),
    "required_shots": lambda a: required_shots(1e-4, 0.01, SCHEDULE, a=a),
}


def _plain(value) -> bool:
    """True when no numpy scalar hides anywhere in ``value``."""
    if isinstance(value, np.generic):
        return False
    if dataclasses.is_dataclass(value):
        return all(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list, frozenset)):
        return all(map(_plain, value))
    if isinstance(value, dict):
        return all(map(_plain, value.values()))
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
        if value is None and name == "a_true":
            # a record without a true amplitude is one that was not simulated
            assert call(value).a_true is None
            return
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

    @pytest.mark.parametrize("site", sorted(_AMPLITUDE_SITES))
    def test_planner_computes_with_the_float_it_reads(self, site):
        call = _AMPLITUDE_SITES[site]
        a = np.float32(0.3)  # not the float 0.3, and float32 arithmetic rounds
        result = call(a)
        assert result == call(float(a))
        assert _plain(result)
        json.dumps(result)

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

    @pytest.mark.parametrize(
        "beta, epsilon", [(0.5, 1e-6), (1.0, 1e-4), (0.5, 1e-9), (0.01, 1e-300)]
    )
    def test_depth_count_beyond_the_limit_is_refused_by_name(self, beta, epsilon):
        message = f"^epsilon is too small .* at most {2**16} at beta {beta!r}"
        with pytest.raises(ValueError, match=message):
            polynomial_schedule(beta, epsilon)

    @pytest.mark.parametrize("beta, epsilon", [(0.0005, 0.01), (0.002, 0.1)])
    def test_depth_beyond_the_limit_is_refused_by_name(self, beta, epsilon):
        # the first overflowed j**exponent, the second built a 120-digit depth
        message = f"beta {beta!r} gives depths above {2**52 - 1} at epsilon {epsilon!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            polynomial_schedule(beta, epsilon)

    def test_largest_depth_is_bounded_where_2d_plus_1_stays_exact(self):
        # at epsilon 0.5 there are two depths, 1 and round(2^exponent)
        inside = polynomial_schedule(1 / 104.98, 0.5)  # exponent 51.99
        assert 2**51 < inside.depths[-1] <= 2**52 - 1
        assert float(2 * inside.depths[-1] + 1) == 2 * inside.depths[-1] + 1
        with pytest.raises(ValueError, match="^beta .* gives depths above"):
            polynomial_schedule(1 / 105.02, 0.5)  # exponent 52.01


# Every site that reads a schedule depth, with the name it refuses one by.
# Beyond 2^52 - 1, 2d + 1 is no longer an exact float.
_DEPTH_SITES = {
    "make_plan": (lambda d: make_plan(1e-3, 0.01, d).schedule, "max_depth"),
    "make_plan.jittered": (
        lambda d: make_plan(1e-3, 0.01, d, jittered=True).schedule,
        "max_depth",
    ),
    "exponential_schedule_to_depth": (exponential_schedule_to_depth, "max_depth"),
    "Schedule": (lambda d: Schedule((0, d), (ONE, ONE), kind="custom"), "depths"),
    "Schedule.from_dict": (
        lambda d: Schedule.from_dict(
            {"kind": "custom", "depths": [0, d], "fractions": [[1, 1], [1, 1]]}
        ),
        "depths",
    ),
}

# Every other reader of a depth, with the name it refuses one by: 2d + 1 is
# computed from each depth they read, so they keep the schedules' limit.
_DEPTH_READERS = {
    "good_prob": (lambda d: good_prob(0.3, d), "depth"),
    "depth_log_likelihood": (lambda d: depth_log_likelihood(0.3, d, 10, 5), "depth"),
    "single_shot_fisher_info": (lambda d: single_shot_fisher_info(0.3, d), "depth"),
    # a refused value only; TestExceptionalListSize checks the list's own cap
    "exceptional_values": (exceptional_values, "max_depth"),
    "closed_form_weights": (closed_form_weights, "max_depth"),
    "call_ratio_table": (
        lambda d: call_ratio_table([4, d], 0.05, 0.01, 2.0),
        "d_list",
    ),
    **{site: (call, "depth") for site, call in _record_builders("depth")},
}


class TestDepthLimit:
    @pytest.mark.parametrize("site", sorted(_DEPTH_SITES))
    @pytest.mark.parametrize("depth", [2**52, 2**60, 10**400])
    def test_depth_above_the_limit_is_refused_by_name(self, site, depth):
        call, name = _DEPTH_SITES[site]
        message = f"^{name} must be at most {2**52 - 1}, got {depth}$"
        with pytest.raises(ValueError, match=message):
            call(depth)

    @pytest.mark.parametrize("site", sorted(_DEPTH_READERS))
    @pytest.mark.parametrize(
        "depth", [2**52, 2**60, 10**400], ids=["2^52", "2^60", "10^400"]
    )
    def test_readers_refuse_a_depth_above_the_limit_by_name(self, site, depth):
        call, name = _DEPTH_READERS[site]
        message = f"^{name} must be at most {2**52 - 1}, got {depth}$"
        with pytest.raises(ValueError, match=message):
            call(depth)

    @pytest.mark.parametrize("site", sorted(_DEPTH_SITES))
    def test_depth_at_the_limit_builds(self, site):
        call, _ = _DEPTH_SITES[site]
        assert call(2**52 - 1).depths[-1] == 2**52 - 1

    def test_readers_work_at_the_limit(self):
        top = 2**52 - 1
        assert good_prob(0.3, top) == math.sin((2 * top + 1) * 0.3) ** 2
        assert single_shot_fisher_info(0.3, top) == (2 * top + 1) ** 2 / (0.3 * 0.7)
        for _, build in _record_builders("depth"):
            assert build(top).entries[-1].depth == top
        doubling = exponential_schedule(53)
        assert doubling.depths[-1] == 2**51
        assert closed_form_weights(2**51) == pytest.approx(
            (call_weight(doubling), info_weight(doubling)), rel=1e-12
        )

    def test_exponential_schedule_refuses_a_depth_above_the_limit_by_its_count(self):
        # 54 depths would end at 2^52, before any depth is built
        with pytest.raises(ValueError, match="^num_depths must be at most 53, got 54$"):
            exponential_schedule(54)


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


# numpy's Generator.binomial draws counts up to 2^63 - 1 and raises
# OverflowError above
_NUMPY_MAX_N = 2**63 - 1
# Counts enter the maximizer as float64, exact up to 2^53: a measurement
# record holds at most this many shots at a depth, and binomial_draw,
# draw_record and the experiment configs refuse more before any work
_EXACT_MAX_N = 2**53


class TestShotLimit:
    def test_draw_record_refuses_n_shot_above_the_limit_by_name(self):
        with pytest.raises(ValueError, match="^n_shot must be at most"):
            draw_record(0.3, SCHEDULE, _NUMPY_MAX_N + 1, 3)

    def test_binomial_draw_refuses_n_above_the_limit_by_name(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="^n must be at most"):
            binomial_draw(_NUMPY_MAX_N + 1, 0.5, rng)

    def test_binomial_draw_draws_at_the_limit(self):
        rng = np.random.default_rng(1)
        n = binomial_draw(np.uint64(_EXACT_MAX_N), 0.5, rng)
        assert type(n) is int and 0 < n < _EXACT_MAX_N
        # numpy's draw, with no shortcut, is exact at the endpoints
        assert binomial_draw(_EXACT_MAX_N, 0.0, rng) == 0
        assert binomial_draw(_EXACT_MAX_N, 1.0, rng) == _EXACT_MAX_N

    def test_binomial_draw_refuses_an_inexact_count_by_name(self):
        message = f"^n must be at most {_EXACT_MAX_N}, got {_EXACT_MAX_N + 1}$"
        with pytest.raises(ValueError, match=message):
            binomial_draw(_EXACT_MAX_N + 1, 0.5, np.random.default_rng(1))

    def test_draw_record_draws_at_the_limit(self):
        record = draw_record(0.3, SCHEDULE, _EXACT_MAX_N, 3)
        assert max(e.shots for e in record.entries) == _EXACT_MAX_N

    def test_draw_record_refuses_an_inexact_count_before_any_stream(
        self, monkeypatch
    ):
        calls = []

        def counting(*args):
            calls.append(args)
            return record_streams(*args)

        monkeypatch.setattr(sampler, "record_streams", counting)
        message = f"^n_shot must be at most {_EXACT_MAX_N}, got {_EXACT_MAX_N + 1}$"
        with pytest.raises(ValueError, match=message):
            draw_record(0.3, SCHEDULE, _EXACT_MAX_N + 1, 3)
        assert calls == []

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"mode": "sweep", "amplitudes": 3, "epsilon": 1e-11}, "epsilon"),
            (
                {"mode": "exceptional_region", "amplitudes": [0.3], "epsilon": 1e-11},
                "epsilon",
            ),
            (
                {
                    "mode": "precision_curve",
                    "amplitudes": [0.3],
                    "n_shot_list": [8, _NUMPY_MAX_N + 1],
                },
                "n_shot_list",
            ),
            (
                {
                    "mode": "precision_curve",
                    "amplitudes": [0.3],
                    "n_shot_list": [10**400],
                },
                "n_shot_list",
            ),
            # 12,336,190,318,721,578 planned shots: numpy draws them, a
            # float64 count does not hold them exactly
            ({"mode": "sweep", "amplitudes": 3, "epsilon": 3e-10}, "epsilon"),
            (
                {"mode": "exceptional_region", "amplitudes": [0.3], "epsilon": 3e-10},
                "epsilon",
            ),
            (
                {
                    "mode": "precision_curve",
                    "amplitudes": [0.3],
                    "n_shot_list": [8, _EXACT_MAX_N + 1],
                },
                "n_shot_list",
            ),
        ],
        ids=[
            "sweep",
            "exceptional_region",
            "curve",
            "curve_beyond_a_float",
            "sweep_inexact",
            "exceptional_region_inexact",
            "curve_inexact",
        ],
    )
    def test_config_refuses_shots_above_the_limit_by_name(self, fields, name):
        message = f"^{name} gives .* exact-count limit {_EXACT_MAX_N}$"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{"max_depth": 16, **fields})

    def test_config_takes_shots_at_the_limit(self):
        config = ExperimentConfig(
            mode="precision_curve",
            max_depth=4,
            amplitudes=[0.3],
            n_shot_list=[8, _EXACT_MAX_N],
        )
        assert config.points == ((0.3, 8), (0.3, _EXACT_MAX_N))


def _nearly_all_hits(n: int) -> MeasurementRecord:
    return MeasurementRecord((RecordEntry(0, n, n - 1), RecordEntry(1, n, n // 2)))


class TestExactCounts:
    @pytest.mark.parametrize("n", [_EXACT_MAX_N + 1, 2**60], ids=["2^53+1", "2^60"])
    def test_maximizer_refuses_shots_above_the_limit_by_name(self, n):
        # at 2^60 shots, n - h rounds to 0 and h / n to 1: the tree read index
        # 1 where the exhaustive scan finds 3
        message = f"^shots must be at most {_EXACT_MAX_N}, got {n}$"
        with pytest.raises(ValueError, match=message):
            grid_maximize(_nearly_all_hits(n), 5)

    @pytest.mark.parametrize(
        "call", [call for _, call in _record_builders("shots")],
        ids=["construct", "from_dict"],
    )
    def test_record_refuses_shots_above_the_limit_by_name(self, call):
        message = f"^shots must be at most {_EXACT_MAX_N}, got {_EXACT_MAX_N + 1}$"
        with pytest.raises(ValueError, match=message):
            call(_EXACT_MAX_N + 1)
        assert call(_EXACT_MAX_N).entries[0].shots == _EXACT_MAX_N

    def test_maximizer_agrees_with_the_scan_at_the_limit(self):
        record = _nearly_all_hits(_EXACT_MAX_N)
        values = [record_log_likelihood(t, record) for t in grid_angles(5)]
        assert grid_maximize(record, 5).grid_index == values.index(max(values)) == 3


class TestGridLimit:
    def test_angles_refuse_a_grid_above_the_limit_by_name(self):
        message = f"^grid_size must be at most {_EXACT_MAX_N}, got {_EXACT_MAX_N + 1}$"
        with pytest.raises(ValueError, match=message):
            grid_angles(_EXACT_MAX_N + 1)

    def test_maximizer_refuses_a_grid_above_the_limit_before_any_tree(self):
        # 10^20 first: a maximizer without the limit fails there at once,
        # where 2^53 + 1 would build a tree of ~2^18 blocks
        for grid_size in (10**20, _EXACT_MAX_N + 1):
            message = f"^grid_size must be at most {_EXACT_MAX_N}, got {grid_size}$"
            with pytest.raises(ValueError, match=message):
                grid_maximize(RECORD, grid_size)


class TestExceptionalListSize:
    # 2^19 would list 2^20 + 2 values, the first depth past the cap
    @pytest.mark.parametrize("depth", [2**19, 2**20], ids=["2^19", "2^20"])
    def test_a_list_above_the_cap_is_refused_by_name(self, depth):
        message = f"^max_depth must be at most {2**19 - 1}, got {depth}$"
        with pytest.raises(ValueError, match=message):
            exceptional_values(depth)


class TestRecordRule:
    def test_numpy_record_is_stored_plain_and_dumps(self):
        entries = tuple(
            RecordEntry(np.int64(d), np.uint32(n), np.int16(h))
            for d, n, h in RECORD.entries
        )
        record = MeasurementRecord(entries, a_true=np.float32(0.3), seed=np.int64(5))
        assert _plain(record)
        assert type(record.a_true) is float and type(record.seed) is int
        assert json.loads(json.dumps(record.to_dict())) == {
            "entries": [e._asdict() for e in RECORD.entries],
            "a_true": float(np.float32(0.3)),
            "seed": 5,
        }

    @pytest.mark.parametrize("kind", [list, iter, tuple])
    def test_entries_are_stored_as_a_tuple_of_record_entries(self, kind):
        triples = [tuple(e) for e in RECORD.entries]
        record = MeasurementRecord(kind(triples), a_true=0.3, seed=5)
        assert type(record.entries) is tuple
        assert all(type(e) is RecordEntry for e in record.entries)
        assert record == MeasurementRecord(RECORD.entries, a_true=0.3, seed=5)
        hash(record)

    def test_a_plain_record_keeps_its_entries(self):
        assert MeasurementRecord(RECORD.entries).entries is RECORD.entries

    def test_hits_above_shots_at_one_depth_is_refused_by_name(self):
        with pytest.raises(ValueError, match="^hits must be at most 10, got 11"):
            depth_log_likelihood(0.5, 0, 10, 11)

    @pytest.mark.parametrize("build", ["construct", "from_dict"])
    @pytest.mark.parametrize(
        "entries, message",
        [
            ([(0, 10, 11)], "^hits must be at most 10 at depth 0"),
            ([(4, 10, 1), (2, 10, 1)], "^record depths must be non-decreasing"),
            ([(1, 10, 1), (-1, 10, 1)], "^depth must be at least 0"),
        ],
    )
    def test_inconsistent_entries_are_refused_by_name(self, build, entries, message):
        with pytest.raises(ValueError, match=message):
            if build == "construct":
                MeasurementRecord(tuple(RecordEntry(*e) for e in entries))
            else:
                data = [dict(zip(RecordEntry._fields, e)) for e in entries]
                MeasurementRecord.from_dict({"entries": data})

    def test_maximizer_and_reference_agree_on_a_numpy_record(self):
        entries = tuple(RecordEntry(*map(np.int64, e)) for e in RECORD.entries)
        record = MeasurementRecord(entries)
        estimate = grid_maximize(record, 50)
        assert estimate == grid_maximize(RECORD, 50)
        assert record_log_likelihood(
            estimate.theta_hat, record
        ) == pytest.approx(estimate.log_likelihood, rel=1e-12)


class TestJsonShape:
    @pytest.mark.parametrize("key", ["depths", "fractions", "kind"])
    def test_schedule_without_a_key_is_refused_by_name(self, key):
        data = exponential_schedule(3).to_dict()
        del data[key]
        with pytest.raises(ValueError, match=f"^{key} is missing$"):
            Schedule.from_dict(data)

    def test_record_without_entries_is_refused_by_name(self):
        data = RECORD.to_dict()
        del data["entries"]
        with pytest.raises(ValueError, match="^entries is missing$"):
            MeasurementRecord.from_dict(data)

    @pytest.mark.parametrize("entry", [[2, 10, 3], 7, "depth"])
    def test_an_entry_that_is_no_mapping_is_refused_by_name(self, entry):
        with pytest.raises(ValueError, match="^entries must hold mappings"):
            MeasurementRecord.from_dict({"entries": [ENTRY, entry]})

    @pytest.mark.parametrize("pair", [1, None, [1], [1, 2, 3], "12"])
    def test_a_fraction_that_is_no_pair_is_refused_by_name(self, pair):
        data = {**exponential_schedule(2).to_dict(), "fractions": [[1, 1], pair]}
        message = r"^fractions must hold \[numerator, denominator\] pairs"
        with pytest.raises(ValueError, match=message):
            Schedule.from_dict(data)

    @pytest.mark.parametrize("key", ["depths", "fractions"])
    @pytest.mark.parametrize("value", [5, None, "01"])
    def test_a_schedule_list_that_is_no_list_is_refused_by_name(self, key, value):
        data = {**exponential_schedule(2).to_dict(), key: value}
        message = f"^{re.escape(f'{key} must be a list, got {value!r}')}$"
        with pytest.raises(ValueError, match=message):
            Schedule.from_dict(data)

    @pytest.mark.parametrize("value", [7, None, "abc", {"depth": 0}])
    def test_entries_that_are_no_list_are_refused_by_name(self, value):
        message = f"^{re.escape(f'entries must be a list, got {value!r}')}$"
        with pytest.raises(ValueError, match=message):
            MeasurementRecord.from_dict({"entries": value})

    def test_a_zero_denominator_is_refused_by_name(self):
        data = {**exponential_schedule(2).to_dict(), "fractions": [[1, 1], [1, 0]]}
        with pytest.raises(ValueError, match="^fractions must be at least 1, got 0$"):
            Schedule.from_dict(data)
