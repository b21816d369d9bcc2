import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplest.planner import exceptional_values
from amplest.rng import Substreams, derive_key, mix64, record_keys, substream
from amplest.sampler import (
    MeasurementRecord,
    RecordEntry,
    amplitude_from_angle,
    angle_from_amplitude,
    binomial_draw,
    draw_record,
    good_prob,
)
from amplest.schedules import Schedule, exponential_schedule_to_depth, jitter

ONE = Fraction(1)


class TestAngleConversions:
    def test_endpoints(self):
        assert angle_from_amplitude(0.0) == 0.0
        assert angle_from_amplitude(1.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert angle_from_amplitude(0.5) == pytest.approx(math.pi / 4, rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=300)
    def test_round_trip(self, a):
        assert amplitude_from_angle(angle_from_amplitude(a)) == pytest.approx(
            a, abs=1e-15
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            angle_from_amplitude(-0.1)
        with pytest.raises(ValueError):
            angle_from_amplitude(1.1)


class TestGoodProb:
    def test_depth_zero_is_identity(self):
        assert good_prob(math.pi / 4, 0) == pytest.approx(0.5, rel=1e-15)

    def test_exact_trig_point(self):
        assert good_prob(math.pi / 6, 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [0, 1, 4, 16, 50])
    def test_exceptional_amplitudes_saturate(self, d):
        for a in exceptional_values(d):
            p = good_prob(angle_from_amplitude(a), d)
            assert min(p, 1.0 - p) < 1e-9

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_reflection_symmetry_about_nodes(self, d):
        # p is even about every angle where sin((2d+1) theta) hits 0 or +-1
        step = math.pi / (2 * (2 * d + 1))
        for k in range(1, 2 * d + 1):
            node = k * step
            for r in (1e-4, 0.01, 0.2 * step):
                assert good_prob(node + r, d) == pytest.approx(
                    good_prob(node - r, d), abs=1e-12
                )

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            good_prob(0.3, -1)


class TestBinomialDraw:
    def test_degenerate_probabilities(self):
        rng = substream(1)
        assert binomial_draw(100, 0.0, rng) == 0
        assert binomial_draw(100, 1.0, rng) == 100
        assert binomial_draw(0, 0.5, rng) == 0

    def test_mean_concentration(self):
        n = 10**6
        draws = [binomial_draw(n, 0.3, substream(42, i)) for i in range(100)]
        mean = sum(draws) / (100 * n)
        tol = 5 * math.sqrt(0.3 * 0.7 / n / 100)
        assert abs(mean - 0.3) <= tol

    def test_deterministic_given_stream(self):
        assert binomial_draw(1000, 0.37, substream(7)) == binomial_draw(
            1000, 0.37, substream(7)
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_draw(10, -0.1, substream(0))
        with pytest.raises(ValueError):
            binomial_draw(10, 1.5, substream(0))


class TestDrawRecord:
    def test_endpoint_amplitudes(self):
        sched = exponential_schedule_to_depth(16)
        rec0 = draw_record(0.0, sched, 100, 5)
        assert all(e.hits == 0 for e in rec0.entries)
        rec1 = draw_record(1.0, sched, 100, 5)
        assert all(e.hits == e.shots for e in rec1.entries)

    def test_shot_counts_follow_fractions(self):
        j = jitter(exponential_schedule_to_depth(16), 2.0)
        rec = draw_record(0.5, j, 1267, 0)
        by_depth = {e.depth: e.shots for e in rec.entries}
        assert by_depth[8] == 1267
        assert by_depth[13] == by_depth[16] == 317  # ceil(1267/4)

    def test_rate_concentration(self):
        zero_depth = Schedule((0,), (ONE,), kind="custom")
        rec = draw_record(0.3, zero_depth, 10**5, 99)
        rate = rec.entries[0].hits / rec.entries[0].shots
        assert abs(rate - 0.3) <= 5 * math.sqrt(0.21 / 10**5)

    @pytest.mark.parametrize("jittered", [False, True])
    def test_matches_one_fresh_substream_per_depth(self, jittered):
        sched = exponential_schedule_to_depth(16)
        if jittered:
            sched = jitter(sched, 2.0)
        for seed, a in enumerate([0.0, 0.02, 0.3, 0.5, 0.77, 1.0]):
            rec = draw_record(a, sched, 1267, seed)
            theta = angle_from_amplitude(a)
            expected = [
                binomial_draw(n, good_prob(theta, d), substream(seed, j))
                for j, (d, n) in enumerate(zip(sched.depths, sched.shots(1267)))
            ]
            assert [e.hits for e in rec.entries] == expected

    def test_bit_identical_across_runs_and_threads(self):
        sched = exponential_schedule_to_depth(50)
        baseline = draw_record(0.42, sched, 500, 123)
        assert draw_record(0.42, sched, 500, 123) == baseline
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(draw_record, 0.42, sched, 500, 123) for _ in range(8)
            ]
            assert all(f.result() == baseline for f in futures)

    def test_concurrent_threads_match_a_serial_run(self):
        # every thread re-keys its own generator; a shared one would mix draws
        sched = jitter(exponential_schedule_to_depth(16), 2.0)
        jobs = [(float(a), seed) for seed, a in enumerate(np.linspace(0, 1, 64))]
        serial = [draw_record(a, sched, 1267, seed) for a, seed in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(draw_record, a, sched, 1267, seed) for a, seed in jobs
                ]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_empirical_rate_inside_five_sigma_band(self):
        # one-depth records at a million shots: the 5-sigma bound should
        # hold in at least 99% of seeded trials
        zero_depth = Schedule((0,), (ONE,), kind="custom")
        p = 0.3
        bound = 5 * math.sqrt(p * (1 - p) / 10**6)
        inside = 0
        for seed in range(1000):
            rec = draw_record(p, zero_depth, 10**6, seed)
            if abs(rec.entries[0].hits / 10**6 - p) <= bound:
                inside += 1
        assert inside >= 990


class TestSubstreams:
    def test_reopened_stream_matches_a_fresh_one(self):
        streams = Substreams()
        for parts in [(3, 0), (3, 1), (2**64 - 1, 7), (3, 0)]:
            rng = streams.open_key(derive_key(*parts))
            got = [rng.binomial(1000, 0.3), *rng.integers(0, 2**63, size=5)]
            fresh = substream(*parts)
            assert got == [fresh.binomial(1000, 0.3), *fresh.integers(0, 2**63, size=5)]

    @given(
        seed=st.integers(-(2**70), 2**70),
        count=st.integers(0, 40),
    )
    @settings(max_examples=300)
    def test_record_keys_match_derive_key(self, seed, count):
        assert record_keys(seed, count) == [derive_key(seed, j) for j in range(count)]

    def test_import_builds_no_generator(self):
        assert has_thread_streams("import amplest, amplest.cli") is False

    def test_record_keys_build_no_generator(self):
        code = "from amplest.rng import record_keys; record_keys(5, 10)"
        assert has_thread_streams(code) is False


def has_thread_streams(code: str) -> bool:
    """Whether running ``code`` in a fresh interpreter built a thread's Substreams."""
    code += "; import amplest.rng as rng; print(hasattr(rng._thread, 'streams'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return {"True": True, "False": False}[out.strip()]


class TestMeasurementRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementRecord((RecordEntry(0, 10, 11),))
        with pytest.raises(ValueError):
            MeasurementRecord((RecordEntry(0, 0, 0),))
        with pytest.raises(ValueError):
            MeasurementRecord((RecordEntry(4, 10, 1), RecordEntry(2, 10, 1)))
        with pytest.raises(ValueError, match="^depth must be at least 0"):
            MeasurementRecord((RecordEntry(-3, 10, 2),))

    def test_json_round_trip(self):
        rec = draw_record(0.25, exponential_schedule_to_depth(4), 50, 9)
        data = rec.to_dict()
        assert data["a_true"] == 0.25
        assert data["seed"] == 9
        assert MeasurementRecord.from_dict(data) == rec

    def test_optional_fields_omitted(self):
        rec = MeasurementRecord((RecordEntry(0, 5, 2),))
        assert set(rec.to_dict()) == {"entries"}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("depth", "2"),
            ("depth", 2.0),
            ("shots", 10.9),
            ("shots", True),
            ("hits", True),
            ("hits", "1"),
        ],
    )
    def test_mistyped_entry_field_is_named(self, field, value):
        entry = {"depth": 2, "shots": 10, "hits": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MeasurementRecord.from_dict({"entries": [entry]})

    def test_mistyped_seed_is_named(self):
        entries = [{"depth": 0, "shots": 5, "hits": 2}]
        with pytest.raises(ValueError, match="seed must be an integer"):
            MeasurementRecord.from_dict({"entries": entries, "seed": 9.0})


class TestSeedDerivation:
    def test_mix64_is_stable(self):
        # frozen outputs; these are part of the file-format contract
        assert mix64(0) == 16294208416658607535
        assert mix64(1) == 10451216379200822465

    def test_derive_key_order_sensitivity(self):
        assert derive_key(1, 2) != derive_key(2, 1)
        assert derive_key(5) != derive_key(5, 0)

    def test_substreams_differ(self):
        a = substream(3, 0).integers(0, 2**32, size=4)
        b = substream(3, 1).integers(0, 2**32, size=4)
        assert not np.array_equal(a, b)
