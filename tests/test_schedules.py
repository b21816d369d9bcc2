import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplest.schedules import (
    Schedule,
    base_bounds,
    call_weight,
    closed_form_weights,
    exponential_schedule,
    exponential_schedule_to_depth,
    info_weight,
    info_weight_squared,
    jitter,
    polynomial_schedule,
    round_half_away,
)

ONE = Fraction(1)


def make(depths, kind="custom", fractions=None):
    if fractions is None:
        fractions = (ONE,) * len(depths)
    return Schedule(tuple(depths), tuple(fractions), kind=kind)


class TestExponential:
    def test_small_cases(self):
        assert exponential_schedule(3).depths == (0, 1, 2)
        assert exponential_schedule(2).depths == (0, 1)
        assert exponential_schedule(6).depths == (0, 1, 2, 4, 8, 16)

    def test_all_fractions_one(self):
        assert all(f == 1 for f in exponential_schedule(8).fractions)

    def test_too_few_depths(self):
        with pytest.raises(ValueError):
            exponential_schedule(1)


class TestFittedExponential:
    def test_published_schedules(self):
        s16 = exponential_schedule_to_depth(16)
        assert s16.depths == (0, 1, 2, 4, 8, 16)
        assert s16.nu == pytest.approx(2.0)
        s50 = exponential_schedule_to_depth(50)
        assert s50.depths == (0, 1, 2, 4, 7, 14, 26, 50)
        assert s50.nu == pytest.approx(50 ** (1 / 6))

    def test_degenerate_depth_one(self):
        s = exponential_schedule_to_depth(1)
        assert s.depths == (0, 1)
        assert s.nu is None

    def test_invalid(self):
        with pytest.raises(ValueError):
            exponential_schedule_to_depth(0)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_powers_of_two_match_plain_exponential(self, k):
        assert exponential_schedule_to_depth(2**k).depths == exponential_schedule(k + 2).depths

    @given(st.integers(min_value=2, max_value=1024))
    @settings(max_examples=200, deadline=None)
    def test_ends_at_max_depth_with_base_in_bounds(self, d):
        s = exponential_schedule_to_depth(d)
        assert s.depths[-1] == d
        assert all(b > a for a, b in zip(s.depths, s.depths[1:]))
        bounds = base_bounds(len(s.depths))
        assert bounds.lower <= s.nu <= bounds.upper


class TestPolynomial:
    def test_half_beta(self):
        # round(sqrt(j)) for j = 1..10, half away from zero
        s = polynomial_schedule(0.5, 0.1)
        assert s.depths == (1, 1, 2, 2, 2, 2, 3, 3, 3, 3)
        assert len(s.depths) == 10

    def test_beta_one_constant_depths(self):
        assert polynomial_schedule(1.0, 0.5).depths == (1, 1, 1, 1)

    def test_small_count(self):
        # q = ceil(max(0.5^-1, ln 2)) = 2
        assert polynomial_schedule(0.5, 0.5).depths == (1, 1)

    @pytest.mark.parametrize("beta,eps", [(0.0, 0.1), (1.5, 0.1), (0.5, 0.0), (0.5, 1.0)])
    def test_invalid(self, beta, eps):
        with pytest.raises(ValueError):
            polynomial_schedule(beta, eps)


class TestJitter:
    def test_depth16_published(self):
        j = jitter(exponential_schedule_to_depth(16), 2.0)
        assert j.depths == (0, 1, 2, 4, 8, 13, 14, 15, 16)
        assert j.fractions == (ONE,) * 5 + (Fraction(1, 4),) * 4

    def test_depth50_published(self):
        j = jitter(exponential_schedule_to_depth(50), 2.0)
        assert j.depths == (0, 1, 2, 4, 7) + tuple(range(11, 18)) + tuple(
            range(22, 31)
        ) + tuple(range(45, 51))
        expected = (
            (ONE,) * 5
            + (Fraction(1, 7),) * 7
            + (Fraction(1, 9),) * 9
            + (Fraction(1, 6),) * 6
        )
        assert j.fractions == expected

    def test_two_depths_unchanged(self):
        j = jitter(make([0, 1]), 2.0)
        assert j.depths == (0, 1)
        assert j.fractions == (ONE, ONE)

    def test_too_small(self):
        with pytest.raises(ValueError):
            jitter(make([0]), 2.0)

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError):
            jitter(make([1, 1, 2], kind="poly"), 2.0)

    def test_output_pinned(self):
        """SHA-256 of the jittered (depths, fractions) over a fixed corpus.

        Fitted schedules for d = 1..1024 at six spread coefficients, plus
        custom schedules: a nonzero minimum depth (one band clamped at 0),
        widths clamped to 0, and neighbouring bands in conflict.
        """
        cases = [
            (exponential_schedule_to_depth(d), c)
            for d in range(1, 1025)
            for c in (0.5, 1.0, 2.0, math.e, 3.0, 10.0)
        ] + [
            (make([5, 20, 60]), 2.0),
            (make([1, 30]), 20.0),
            (make([1, 2, 9]), 0.5),
            (make([1, 3, 30]), 0.3),
            (make([10, 13, 16, 30]), 2.0),
            (make([20, 29]), 2.0),
            (make([5, 20, 28, 60]), 2.0),
        ]
        digest = hashlib.sha256()
        for source, c in cases:
            j = jitter(source, c)
            fractions = [(f.numerator, f.denominator) for f in j.fractions]
            digest.update(repr((j.depths, fractions)).encode())
        expected = "ea2c8b5c8f29e70f4ab8ea8376ab2759bf14692827ae979b5037d434a30823d4"
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("d", [4, 10, 16, 33, 50, 100, 257, 600, 1024])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    def test_structure_invariants(self, d, c):
        source = exponential_schedule_to_depth(d)
        j = jitter(source, c)
        # every original depth survives somewhere in the output
        assert set(source.depths) <= set(j.depths)
        assert j.depths[-1] <= d
        # groups: contiguous, equal fractions summing to exactly 1,
        # separated by at least one missing depth from anything else
        groups = []
        i = 0
        while i < len(j.depths):
            if j.fractions[i] == 1:
                i += 1
                continue
            start = i
            while (
                i + 1 < len(j.depths)
                and j.fractions[i + 1] == j.fractions[start]
                and j.depths[i + 1] == j.depths[i] + 1
            ):
                i += 1
            groups.append((start, i))
            i += 1
        for start, end in groups:
            size = end - start + 1
            assert sum(j.fractions[start : end + 1], Fraction(0)) == 1
            assert j.fractions[start] == Fraction(1, size)
            if start > 0:
                assert j.depths[start] - j.depths[start - 1] >= 2
            if end + 1 < len(j.depths):
                assert j.depths[end + 1] - j.depths[end] >= 2


class TestWeights:
    def test_plain_doubling_to_16(self):
        s = exponential_schedule(6)
        assert call_weight(s) == 68.0
        assert info_weight_squared(s) == 1494.0
        assert info_weight(s) == pytest.approx(math.sqrt(1494), rel=1e-15)

    def test_single_zero_depth(self):
        s = make([0])
        assert call_weight(s) == 1.0
        assert info_weight(s) == 1.0

    def test_jittered_depth16(self):
        j = jitter(exponential_schedule_to_depth(16), 2.0)
        assert call_weight(j) == 65.0
        assert info_weight_squared(j) == 1310.0

    def test_monotone_under_appended_depth(self):
        base = make([0, 1, 5])
        extended = make([0, 1, 5, 9])
        assert call_weight(extended) > call_weight(base)
        assert info_weight(extended) > info_weight(base)


class TestClosedFormWeights:
    def test_depth16(self):
        linear, info = closed_form_weights(16)
        assert linear == 68.0
        assert info == pytest.approx(math.sqrt(1494), rel=1e-15)

    def test_depth2(self):
        linear, info = closed_form_weights(2)
        assert linear == 9.0
        assert info == pytest.approx(math.sqrt(35), rel=1e-15)

    def test_depth1024_matches_direct_sums(self):
        s = exponential_schedule(12)
        linear, info = closed_form_weights(1024)
        assert linear == pytest.approx(call_weight(s), rel=1e-12)
        assert info**2 == pytest.approx(info_weight_squared(s), rel=1e-12)

    @pytest.mark.parametrize("bad", [1, 3, 6, 100, 0, -4])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            closed_form_weights(bad)


class TestBaseBounds:
    def test_three_depths(self):
        b = base_bounds(3)
        assert b.lower == 1.0
        assert b.upper == 4.0

    def test_eight_depths(self):
        b = base_bounds(8)
        assert b.lower == pytest.approx(2 ** (5 / 6), rel=1e-15)
        assert b.upper == pytest.approx(2 ** (7 / 6), rel=1e-15)

    def test_limit_is_two(self):
        b = base_bounds(1002)
        assert abs(b.lower - 2) < 0.002
        assert abs(b.upper - 2) < 0.002

    def test_invalid(self):
        with pytest.raises(ValueError):
            base_bounds(2)


class TestScheduleValidation:
    def test_exp_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Schedule((1, 2), (ONE, ONE), kind="exp")

    def test_strictly_ascending_enforced(self):
        with pytest.raises(ValueError):
            Schedule((0, 1, 1), (ONE,) * 3, kind="exp_nu")

    def test_poly_allows_duplicates(self):
        Schedule((1, 1, 2), (ONE,) * 3, kind="poly")

    @pytest.mark.parametrize(
        "depths, fractions, kind, message",
        [
            ((0, 1), (ONE, ONE), "cubic", "unknown schedule kind 'cubic'"),
            ((), (), "custom", "at least one depth"),
            ((0, 1), (ONE,), "custom", "equal length"),
            ((-1, 0), (ONE, ONE), "custom", "depths must be at least 0"),
            ((2, 1), (ONE, ONE), "poly", "poly schedule depths must be non-decreasing"),
        ],
    )
    def test_malformed_schedule_is_refused(self, depths, fractions, kind, message):
        with pytest.raises(ValueError, match=message):
            Schedule(depths, fractions, kind=kind)

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            Schedule((0, 1), (ONE, Fraction(0)), kind="custom")

    def test_group_sum_must_be_one(self):
        with pytest.raises(ValueError, match="jitter group 3..4"):
            Schedule(
                (0, 3, 4),
                (ONE, Fraction(1, 3), Fraction(1, 3)),
                kind="jittered",
            )

    def test_round_half_away(self):
        assert round_half_away(0.5) == 1
        assert round_half_away(1.5) == 2
        assert round_half_away(2.5) == 3
        assert round_half_away(-0.5) == -1
        assert round_half_away(1.49) == 1


class TestShots:
    def test_ceiling_of_each_fraction(self):
        j = jitter(exponential_schedule_to_depth(50), 2.0)
        for n_shot in (1, 6, 7, 12508):
            assert j.shots(n_shot) == tuple(math.ceil(f * n_shot) for f in j.fractions)
        assert j.shots(1267)[:6] == (1267,) * 5 + (181,)  # ceil(1267/7)

    def test_computed_once_per_shot_count(self):
        j = jitter(exponential_schedule_to_depth(16), 2.0)
        assert j.shots(1267) is j.shots(1267)
        assert j == jitter(exponential_schedule_to_depth(16), 2.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            exponential_schedule(3).shots(0)


class TestSerialization:
    def test_round_trip(self):
        j = jitter(exponential_schedule_to_depth(50), 2.0)
        data = j.to_dict()
        assert data["kind"] == "jittered"
        assert data["fractions"][5] == [1, 7]
        assert "beta" not in data
        restored = Schedule.from_dict(data)
        assert restored == j

    def test_polynomial_round_trip(self):
        s = polynomial_schedule(0.5, 0.1)
        data = json.loads(json.dumps(s.to_dict()))
        assert data["beta"] == 0.5
        assert Schedule.from_dict(data) == s

    def test_keys_follow_the_fields_with_parameters_last(self):
        s = Schedule(
            (0, 1), (ONE, ONE), kind="custom", beta=0.5, nu=2.0, spread_coeff=3.0
        )
        keys = ["kind", "depths", "fractions", "nu", "spread_coeff", "beta"]
        assert list(s.to_dict()) == keys
        assert Schedule.from_dict(s.to_dict()) == s

    def test_jitter_keeps_the_base_parameters(self):
        base = Schedule((0, 4, 16), (ONE,) * 3, kind="custom", nu=2.0, beta=0.5)
        spread = jitter(base, 2.0)
        assert (spread.nu, spread.spread_coeff, spread.beta) == (2.0, 2.0, 0.5)

    def test_absent_fields_omitted(self):
        data = exponential_schedule(4).to_dict()
        assert set(data) == {"kind", "depths", "fractions"}

    @pytest.mark.parametrize(
        "field, index, value",
        [
            ("depths", 1, "1"),
            ("depths", 2, 2.0),
            ("depths", 3, True),
            ("fractions", 0, [1.0, 1]),
            ("fractions", 0, [1, "1"]),
        ],
    )
    def test_mistyped_field_is_named(self, field, index, value):
        data = exponential_schedule(4).to_dict()
        data[field][index] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Schedule.from_dict(data)

    @pytest.mark.parametrize("field", ["nu", "spread_coeff", "beta"])
    @pytest.mark.parametrize(
        "value", ["abc", "2.0", True, math.nan, math.inf, 0.0, -1.5, [2.0]]
    )
    def test_parameter_must_be_finite_positive_number(self, field, value):
        data = {**exponential_schedule(4).to_dict(), field: value}
        with pytest.raises(ValueError, match=f"{field} must be a finite positive"):
            Schedule.from_dict(data)
