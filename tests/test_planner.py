import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from amplest.harness import ExperimentConfig
from amplest.planner import (
    Plan,
    average_error,
    erfinv,
    exceptional_values,
    fisher_information,
    grid_points,
    make_plan,
    required_fisher_info,
    required_shots,
    single_shot_fisher_info,
    speedup_factor,
    total_calls,
)
from amplest.schedules import (
    Schedule,
    call_weight,
    exponential_schedule,
    exponential_schedule_to_depth,
    info_weight_squared,
    jitter,
)

ONE = Fraction(1)
ZERO_DEPTH = Schedule((0,), (ONE,), kind="custom")


def prob_at(a: float, depth: int) -> float:
    return math.sin((2 * depth + 1) * math.asin(math.sqrt(a))) ** 2


class TestErfinv:
    def test_zero_and_oddness(self):
        assert erfinv(0.0) == 0.0
        for y in (0.1, 0.5, 0.9, 0.999):
            assert erfinv(-y) == -erfinv(y)

    def test_erf_of_one(self):
        assert erfinv(0.8427007929497149) == pytest.approx(1.0, rel=1e-12)

    def test_high_confidence_value(self):
        assert erfinv(0.99) == pytest.approx(1.8213863677, rel=1e-9)

    def test_against_scipy(self):
        for y in (-0.99999, -0.7, -0.2, 1e-8, 0.3, 0.65, 0.9, 0.99, 0.9999999):
            assert erfinv(y) == pytest.approx(float(scipy.special.erfinv(y)), rel=1e-13)

    def test_round_trip_grid(self):
        for i in range(2001):
            y = -0.999 + i * (1.998 / 2000)
            x = erfinv(y)
            if y != 0.0:
                assert abs(math.erf(x) - y) <= 1e-12 * abs(y)

    @pytest.mark.parametrize("y", [-1.0, 1.0, 1.5, -2.0])
    def test_domain(self, y):
        with pytest.raises(ValueError):
            erfinv(y)


class TestRequiredFisherInfo:
    def test_millirad_budget(self):
        expected = 2.0 * erfinv(0.99) ** 2 / 1e-6
        assert required_fisher_info(1e-3, 0.01) == pytest.approx(expected, rel=1e-15)
        assert required_fisher_info(1e-3, 0.01) == pytest.approx(6.6349e6, rel=1e-4)

    def test_analytic_point(self):
        # erfinv(erf(1/sqrt(2))) = 1/sqrt(2), so the requirement is exactly 100
        delta = 1.0 - math.erf(1.0 / math.sqrt(2.0))
        assert required_fisher_info(0.1, delta) == pytest.approx(100.0, rel=1e-12)

    def test_vanishes_as_delta_approaches_one(self):
        assert required_fisher_info(0.1, 1.0 - 1e-12) < 1e-20

    def test_invalid(self):
        with pytest.raises(ValueError):
            required_fisher_info(0.0, 0.01)
        with pytest.raises(ValueError):
            required_fisher_info(0.1, 0.0)


class TestRequiredShots:
    def test_published_depth16(self):
        assert required_shots(1e-3, 0.01, exponential_schedule_to_depth(16)) == 1111

    def test_published_depth50(self):
        assert required_shots(1e-4, 0.01, exponential_schedule_to_depth(50)) == 11688

    def test_classical_analytic_point(self):
        delta = 1.0 - math.erf(1.0 / math.sqrt(2.0))
        assert required_shots(0.1, delta, ZERO_DEPTH) == 25

    def test_symmetric_and_peaked_at_half(self):
        sched = exponential_schedule_to_depth(16)
        values = {a: required_shots(1e-3, 0.01, sched, a=a) for a in
                  (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)}
        assert values[0.1] == values[0.9]
        assert values[0.25] == values[0.75]
        peak = required_shots(1e-3, 0.01, sched)
        assert all(v <= peak for v in values.values())
        assert values[0.5] == peak

    def test_fisher_never_undershoots(self):
        for d in (1, 7, 16, 50):
            sched = exponential_schedule_to_depth(d)
            for eps, delta in ((1e-3, 0.01), (3e-3, 0.05), (1e-4, 0.2)):
                n = required_shots(eps, delta, sched)
                assert fisher_information(0.5, sched, n) >= required_fisher_info(eps, delta)

    def test_invalid(self):
        sched = ZERO_DEPTH
        with pytest.raises(ValueError):
            required_shots(0.5, 0.01, sched)
        with pytest.raises(ValueError):
            required_shots(0.1, 0.01, sched, a=0.0)
        with pytest.raises(ValueError):
            required_shots(0.1, 0.01, sched, a=1.0)


class TestTotalCalls:
    def test_all_unit_fractions(self):
        sched = exponential_schedule(6)
        assert total_calls(sched, 1111) == 1111 * 68
        assert total_calls(sched, 1111) == 75548

    def test_single_depth(self):
        assert total_calls(ZERO_DEPTH, 7) == 7

    def test_jittered_ceiling_rule(self):
        j = jitter(exponential_schedule_to_depth(16), 2.0)
        # ceil(1267/4) = 317 shots at each of the four spread depths
        assert total_calls(j, 1267) == 1267 * 35 + 317 * 120
        assert total_calls(j, 1267) == 82385

    def test_invalid(self):
        with pytest.raises(ValueError):
            total_calls(ZERO_DEPTH, 0)


class TestSpeedupFactor:
    def test_classical_baseline(self):
        assert speedup_factor(ZERO_DEPTH) == 1.0

    def test_depth16(self):
        assert speedup_factor(exponential_schedule(6)) == pytest.approx(1494 / 68, rel=1e-12)

    def test_closed_form_at_1024(self):
        d = 1024
        expected = (16 * d**2 / 3 + 8 * d + 10 - 10 / 3) / (4 * d + 10)
        sched = exponential_schedule(12)
        assert speedup_factor(sched) == pytest.approx(expected, rel=1e-12)


class TestFisherInformation:
    def test_point_values(self):
        assert fisher_information(0.5, ZERO_DEPTH, 1) == pytest.approx(4.0)
        two = Schedule((0, 1), (ONE, ONE), kind="custom")
        assert fisher_information(0.5, two, 1) == pytest.approx(40.0)
        assert fisher_information(0.1, ZERO_DEPTH, 100) == pytest.approx(100 / 0.09)

    def test_singular_endpoints(self):
        with pytest.raises(ValueError):
            fisher_information(0.0, ZERO_DEPTH, 1)
        with pytest.raises(ValueError):
            fisher_information(1.0, ZERO_DEPTH, 1)


class TestAverageError:
    def test_binomial_standard_error(self):
        assert average_error(0.5, ZERO_DEPTH, 100) == pytest.approx(0.05)
        assert average_error(0.5, ZERO_DEPTH, 1) == pytest.approx(0.5)

    def test_planned_run_beats_target(self):
        sched = exponential_schedule(6)
        err = average_error(0.5, sched, 1111)
        assert err == pytest.approx(math.sqrt(0.25 / 1111) / math.sqrt(1494), rel=1e-12)
        assert err < 1e-3


class TestExceptionalValues:
    def test_depth1_exact(self):
        values = exceptional_values(1)
        assert values == pytest.approx([0.0, 0.25, 0.75, 1.0], abs=1e-15)

    def test_depth0(self):
        assert exceptional_values(0) == pytest.approx([0.0, 1.0], abs=0)

    def test_depth50_center(self):
        # high-precision evaluation of sin^2(50*pi/202)
        assert exceptional_values(50)[50] == pytest.approx(
            0.4922240940398246, rel=1e-12
        )

    @pytest.mark.parametrize("d", [1, 4, 16, 50])
    def test_ascending_and_symmetric(self, d):
        values = exceptional_values(d)
        assert len(values) == 2 * d + 2
        assert all(b > a for a, b in zip(values, values[1:]))
        for k, v in enumerate(values):
            assert v + values[2 * d + 1 - k] == pytest.approx(1.0, abs=1e-12)


class TestSingleShotFisherInfo:
    def test_point_values(self):
        assert single_shot_fisher_info(0.5, 0) == pytest.approx(4.0)
        assert single_shot_fisher_info(0.2, 3) == pytest.approx(306.25)

    def test_matches_outcome_enumeration_oracle(self):
        # E_m[(d/da log L)^2] with central differences on each outcome's
        # log-likelihood; 1e-6 steps keep truncation near 1e-8 relative.
        h = 1e-6
        for depth in range(7):
            for tenth in range(1, 10):
                a = tenth / 10
                p = prob_at(a, depth)
                if min(p, 1.0 - p) < 1e-6:
                    continue
                score_good = (
                    math.log(prob_at(a + h, depth)) - math.log(prob_at(a - h, depth))
                ) / (2 * h)
                score_bad = (
                    math.log1p(-prob_at(a + h, depth))
                    - math.log1p(-prob_at(a - h, depth))
                ) / (2 * h)
                oracle = p * score_good**2 + (1 - p) * score_bad**2
                assert single_shot_fisher_info(a, depth) == pytest.approx(
                    oracle, rel=1e-6
                )


class TestMakePlan:
    def test_depth16(self):
        plan = make_plan(1e-3, 0.01, 16)
        assert plan.n_shot == 1111
        assert plan.n_calls == 75548
        assert plan.grid_size == 3000
        assert plan.schedule.depths == (0, 1, 2, 4, 8, 16)

    def test_depth50(self):
        assert make_plan(1e-4, 0.01, 50).n_shot == 11688

    def test_classical_limit(self):
        plan = make_plan(1e-3, 0.01, 0)
        assert plan.schedule.depths == (0,)
        # ceil(erfinv(0.99)^2 / (2e-6)); the raw value is 1658724.15
        assert plan.n_shot == 1658725
        assert plan.n_calls == plan.n_shot

    def test_jittered_plan(self):
        plan = make_plan(1e-3, 0.01, 16, jittered=True)
        assert plan.n_shot == 1267
        assert plan.n_calls == 82385
        assert plan.schedule.kind == "jittered"

    def test_grid_multiplier(self):
        assert make_plan(1e-4, 0.01, 50, grid_multiplier=30.0).grid_size == 300000

    def test_serialization(self):
        data = make_plan(1e-3, 0.01, 16).to_dict()
        assert data["n_shot"] == 1111
        assert data["schedule"]["depths"] == [0, 1, 2, 4, 8, 16]

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_plan(0.6, 0.01, 16)
        with pytest.raises(ValueError):
            make_plan(1e-3, 0.01, -1)
        with pytest.raises(ValueError):
            make_plan(1e-3, 0.01, 0, jittered=True)  # nothing to spread

    @pytest.mark.parametrize(
        "value", [-3.0, 0.0, math.nan, math.inf, -math.inf, True, "3"]
    )
    def test_grid_multiplier_must_be_finite_and_positive(self, value):
        # -3.0 and 0.0 used to give a 2-point grid, NaN and inf an int error,
        # True a multiplier of 1
        with pytest.raises(
            ValueError, match="grid_multiplier must be a finite positive"
        ):
            make_plan(1e-3, 0.01, 4, grid_multiplier=value)

    @pytest.mark.parametrize("value", [-2.0, 0.0, math.nan, math.inf, True, "2"])
    def test_spread_coeff_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="spread_coeff must be a finite positive"):
            make_plan(1e-3, 0.01, 16, jittered=True, spread_coeff=value)

    @pytest.mark.parametrize("value", [np.int64(3), np.float32(3.0), Fraction(3)])
    def test_grid_multiplier_is_stored_as_the_plain_float(self, value):
        plan = make_plan(1e-3, 0.01, 4, grid_multiplier=value)
        assert type(plan.grid_multiplier) is float
        assert plan == make_plan(1e-3, 0.01, 4)
        json.dumps(plan.to_dict())

    def test_small_positive_grid_multiplier_keeps_the_floor(self):
        assert make_plan(1e-3, 0.01, 4, grid_multiplier=1e-6).grid_size == 2


class TestCallRatioTrend:
    def test_jitter_overhead_shrinks_with_depth(self):
        ratios = []
        for d in (16, 32, 64, 128, 256):
            plain = exponential_schedule_to_depth(d)
            spread = jitter(plain, 2.0)
            n_plain = required_shots(1e-5, 0.01, plain)
            n_spread = required_shots(1e-5, 0.01, spread)
            ratios.append(
                total_calls(spread, n_spread) / total_calls(plain, n_plain)
            )
        assert all(0.9 <= r <= 1.5 for r in ratios)
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


# Every public entry that takes planning input, the fields it takes, and
# values each field must refuse by name.
_GOOD = {
    "epsilon": 0.05,
    "delta": 0.01,
    "max_depth": 4,
    "jittered": False,
    "spread_coeff": 2.0,
    "grid_multiplier": 3.0,
}
_NOT_POSITIVE_REALS = [math.nan, math.inf, -math.inf, True, "0.1", 0, -0.1]
# epsilon^2 underflows to a subnormal at 1e-160 and to 0 at 1e-170, and
# 3 / 1e-320 overflows: no finite shot count or grid exists for them
_TINY_EPSILONS = [1e-160, 1e-170, 1e-320]
_BAD = {
    "epsilon": _NOT_POSITIVE_REALS + [0.5, 0.7] + _TINY_EPSILONS,
    "delta": _NOT_POSITIVE_REALS + [1e-17],
    "max_depth": [2.5, True, -1],
    "jittered": ["no", 1],
    "spread_coeff": _NOT_POSITIVE_REALS,
    "grid_multiplier": _NOT_POSITIVE_REALS,
}
_ENTRIES = {
    "make_plan": (lambda f: make_plan(**f), set(_GOOD)),
    "required_shots": (
        lambda f: required_shots(f["epsilon"], f["delta"], ZERO_DEPTH),
        {"epsilon", "delta"},
    ),
    "required_fisher_info": (
        lambda f: required_fisher_info(f["epsilon"], f["delta"]),
        {"epsilon", "delta"},
    ),
    # any finite positive epsilon: a precision curve's may exceed 0.5
    "grid_points": (
        lambda f: grid_points(f["grid_multiplier"], f["epsilon"]),
        {"grid_multiplier", "epsilon"},
    ),
    "exceptional_values": (lambda f: exceptional_values(f["max_depth"]), {"max_depth"}),
    "ExperimentConfig": (
        lambda f: ExperimentConfig(mode="sweep", amplitudes=2, **f),
        set(_GOOD),
    ),
}
_CASES = [
    (entry, field, value)
    for entry, (_, reads) in _ENTRIES.items()
    for field in sorted(reads)
    for value in _BAD[field]
    if not (entry == "grid_points" and value in (0.5, 0.7, 1e-160, 1e-170))
]


class TestPlanningInput:
    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_good_input_passes(self, entry):
        _ENTRIES[entry][0](dict(_GOOD))

    @pytest.mark.parametrize("entry, field, value", _CASES)
    def test_bad_input_is_refused_by_name(self, entry, field, value):
        with pytest.raises(ValueError, match=field):
            _ENTRIES[entry][0]({**_GOOD, field: value})

    def test_grid_points_takes_a_precision_above_one_half(self):
        # one shot at depth 0 pairs with precision 1.29, which sizes the grid
        config = ExperimentConfig(
            mode="precision_curve", max_depth=0, amplitudes=[0.5], n_shot_list=[1]
        )
        assert config.grid_size == grid_points(3.0, 1.29) == 3
