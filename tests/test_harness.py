import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import amplest.harness as harness
import amplest.statevector as statevector
from amplest.cli import main
from amplest.harness import (
    CSV_COLUMNS,
    MODE_TAGS,
    ExperimentConfig,
    achieved_precision,
    call_ratio_table,
    exceptional_region_scan,
    oracle_validation,
    precision_curve,
    sweep_amplitudes,
    write_rows,
)
from amplest.planner import (
    erfinv,
    exceptional_values,
    grid_points,
    required_shots,
    total_calls,
)
from amplest.rng import substream
from amplest.sampler import angle_from_amplitude, good_prob
from amplest.schedules import exponential_schedule_to_depth, jitter


class TestAchievedPrecision:
    def test_order_statistic(self):
        errors = list(range(1, 101))
        assert achieved_precision(errors, 0.01) == 99

    def test_constant_errors(self):
        assert achieved_precision([5.0] * 17, 0.3) == 5.0

    def test_permutation_invariant(self):
        rng = substream(8)
        errors = list(rng.uniform(0, 1, size=200))
        shuffled = list(errors)
        rng.shuffle(shuffled)
        assert achieved_precision(errors, 0.05) == achieved_precision(shuffled, 0.05)

    def test_non_increasing_in_delta(self):
        errors = list(substream(9).uniform(0, 1, size=500))
        quantiles = [achieved_precision(errors, d) for d in (0.01, 0.05, 0.2, 0.5)]
        assert all(b <= a for a, b in zip(quantiles, quantiles[1:]))

    def test_half_normal_quantile(self):
        # |N(0, 1)| has 99th percentile sqrt(2) * erfinv(0.99) = 2.5758
        draws = np.abs(substream(123).normal(0.0, 1.0, size=100_000))
        got = achieved_precision(draws.tolist(), 0.01)
        expected = math.sqrt(2.0) * erfinv(0.99)
        assert got == pytest.approx(expected, rel=0.03)

    def test_empty(self):
        with pytest.raises(ValueError):
            achieved_precision([], 0.01)

    # an unchecked sort reads these as nan, 0.2 (the same errors in another
    # order) and -1.0
    @pytest.mark.parametrize(
        "errors", [[math.nan, 0.2], [0.2, math.nan], [-1.0, 0.2]],
        ids=["nan_first", "nan_last", "negative"],
    )
    def test_nan_or_negative_errors_are_refused_by_name(self, errors):
        with pytest.raises(ValueError, match="^errors must be non-negative"):
            achieved_precision(errors, 0.5)

    def test_delta_below_the_float_step_under_one_is_named(self):
        # 1 - 1e-17 rounds to 1.0, which leaves no (1 - delta) quantile
        with pytest.raises(ValueError, match="delta"):
            achieved_precision([1.0], 1e-17)


class TestSweep:
    def test_three_point_sweep_has_exact_endpoints(self):
        config = ExperimentConfig(mode="sweep", max_depth=4, amplitudes=3, base_seed=1)
        rows = sweep_amplitudes(config)
        assert [r["a_true"] for r in rows] == [0.0, 0.5, 1.0]
        assert rows[0]["abs_err"] == 0.0
        assert rows[-1]["abs_err"] == 0.0

    def test_rows_carry_derived_seeds(self):
        config = ExperimentConfig(mode="sweep", max_depth=2, amplitudes=5, base_seed=7)
        rows = sweep_amplitudes(config)
        from amplest.rng import derive_key

        assert rows[3]["seed"] == derive_key(7, MODE_TAGS["sweep"], 3, 0)

    def test_pure_function_of_config(self):
        config = ExperimentConfig(mode="sweep", max_depth=8, amplitudes=40, base_seed=3)
        assert sweep_amplitudes(config) == sweep_amplitudes(config)

    def test_largest_spread_coeff_runs(self, monkeypatch):
        # spread_coeff * d overflows to inf here; the jitter widths must not
        monkeypatch.setenv("AMPLEST_THREADS", "1")
        config = ExperimentConfig(
            mode="sweep",
            jittered=True,
            spread_coeff=1e308,
            max_depth=4,
            epsilon=0.05,
            amplitudes=2,
        )
        assert config.plan.schedule.kind == "jittered"
        assert len(sweep_amplitudes(config)) == 2

    def test_huge_max_depth_builds_no_exceptional_list(self):
        # 2 * max_depth + 2 exceptional values would take tens of MB
        tracemalloc.start()
        try:
            ExperimentConfig(mode="sweep", max_depth=10**6, epsilon=0.05, amplitudes=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_failures_localize_to_exceptional_bands(self):
        config = ExperimentConfig(
            mode="sweep", epsilon=1e-3, max_depth=16, amplitudes=4000, base_seed=2
        )
        rows = sweep_amplitudes(config)
        centers = exceptional_values(16)
        in_band = lambda a: any(abs(a - c) <= 4e-3 for c in centers)
        failures = [r for r in rows if r["abs_err"] > 2e-3]
        assert failures, "expected at least one failure beyond 2 epsilon"
        localized = sum(1 for r in failures if in_band(r["a_true"]))
        assert localized >= 0.9 * len(failures)


class TestPrecisionCurve:
    def test_quantile_shrinks_with_shot_count(self):
        config = ExperimentConfig(
            mode="precision_curve",
            max_depth=8,
            amplitudes=[0.5],
            n_shot_list=[64, 1024],
            runs_per_point=120,
            base_seed=5,
        )
        rows = precision_curve(config)
        assert [r["n_shot"] for r in rows] == [64, 1024]
        assert rows[1]["eps_achieved"] < rows[0]["eps_achieved"]
        assert all(r["runs"] == 120 for r in rows)

    def test_requires_shot_list(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="precision_curve", amplitudes=[0.5])


class TestExceptionalRegion:
    def test_band_is_centred_and_clamped(self):
        config = ExperimentConfig(
            mode="exceptional_region",
            epsilon=1e-3,
            max_depth=4,
            amplitudes=9,
            runs_per_point=5,
            k_index=4,
            base_seed=0,
        )
        rows = exceptional_region_scan(config)
        center = exceptional_values(4)[4]
        offsets = [r["a_true"] - center for r in rows]
        assert offsets[0] == pytest.approx(-4e-3, rel=1e-9)
        assert offsets[-1] == pytest.approx(4e-3, rel=1e-9)
        assert set(rows[0]) == set(CSV_COLUMNS["exceptional_region"])

    @pytest.mark.parametrize("max_depth, k_index", [(4, 0), (4, 9), (16, 1)])
    def test_band_leaving_unit_interval_is_refused(self, max_depth, k_index):
        # k=0 centres the band on 0, k=2d+1 on 1, and k=1 of d=16 on
        # 0.0023 < 4 epsilon; a clamped band would write duplicate a_true rows
        band = r"band \[.*\] leaves \[0, 1\]"
        with pytest.raises(ValueError, match=f"k_index {k_index}: {band}"):
            ExperimentConfig(
                mode="exceptional_region",
                epsilon=1e-3,
                max_depth=max_depth,
                amplitudes=5,
                k_index=k_index,
            )

    def test_amplitude_count_needs_k_index(self):
        with pytest.raises(ValueError, match=r"needs k_index in \[0, 33\]"):
            ExperimentConfig(mode="exceptional_region", max_depth=16, amplitudes=5)

    @pytest.mark.parametrize("amplitudes", [[0.3, 0.4], 5])
    @pytest.mark.parametrize("k_index", [-1, 34, 999])
    def test_k_index_out_of_range_is_refused(self, amplitudes, k_index):
        # a list of amplitudes leaves k_index unused, but a wrong one still
        # names no exceptional value of the d=16 schedule (k in [0, 33])
        with pytest.raises(ValueError, match=r"needs k_index in \[0, 33\]"):
            ExperimentConfig(
                mode="exceptional_region",
                epsilon=1e-3,
                max_depth=16,
                amplitudes=amplitudes,
                k_index=k_index,
            )

    def test_depth50_structure(self):
        # the band around one exceptional value of a depth-50 schedule:
        # plain schedules fail inside +-epsilon of the centre, jittered
        # ones stay within twice the target across the whole band, and
        # amplitudes far from every exceptional value meet the target
        centers = exceptional_values(50)
        middle = centers[50]
        common = dict(
            mode="exceptional_region",
            epsilon=1e-4,
            delta=0.01,
            max_depth=50,
            grid_multiplier=30.0,
            amplitudes=11,
            runs_per_point=150,
            k_index=50,
            base_seed=3,
        )
        plain_rows = exceptional_region_scan(ExperimentConfig(**common))
        central = [r for r in plain_rows if abs(r["a_true"] - middle) <= 1e-4]
        assert max(r["eps_achieved"] for r in central) > 1e-4

        jittered_rows = exceptional_region_scan(
            ExperimentConfig(**{**common, "jittered": True})
        )
        assert max(r["eps_achieved"] for r in jittered_rows) <= 2e-4

        flanks = [(centers[50] + centers[51]) / 2, (centers[49] + centers[50]) / 2]
        flank_rows = exceptional_region_scan(
            ExperimentConfig(
                **{**common, "amplitudes": flanks, "runs_per_point": 400}
            )
        )
        assert all(r["eps_achieved"] <= 1.5e-4 for r in flank_rows)


class TestCallRatio:
    def test_matches_the_schedules_it_compares(self):
        for d in (1, 2, 3, 7, 16, 50, 64, 100):
            for eps in (1e-2, 1e-3, 1e-5):
                for c in (0.5, 2.0, 3.0):
                    plain = exponential_schedule_to_depth(d)
                    spread = jitter(plain, c)
                    n_plain = total_calls(plain, required_shots(eps, 0.01, plain))
                    n_spread = total_calls(spread, required_shots(eps, 0.01, spread))
                    (row,) = call_ratio_table([d], eps, 0.01, c)
                    assert (row["n_calls"], row["n_calls_jittered"]) == (
                        n_plain,
                        n_spread,
                    )
                    assert row["ratio"] == n_spread / n_plain

    def test_depth_zero_is_refused(self):
        with pytest.raises(ValueError):
            call_ratio_table([0], 1e-3, 0.01, 2.0)

    def test_depth16_ratio(self):
        rows = call_ratio_table([16], 1e-3, 0.01, 2.0)
        assert rows[0]["n_calls"] == 75548
        assert rows[0]["n_calls_jittered"] == 82385
        assert rows[0]["ratio"] == pytest.approx(82385 / 75548, rel=1e-12)

    def test_no_spread_means_unit_ratio(self):
        rows = call_ratio_table([1], 1e-3, 0.01, 2.0)
        assert rows[0]["ratio"] == 1.0

    def test_tight_precision_trend(self):
        rows = call_ratio_table([64, 128, 256, 512, 1024], 1e-6, 0.01, 2.0)
        ratios = [r["ratio"] for r in rows]
        assert all(0.98 <= r <= 1.15 for r in ratios)
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_empty(self):
        with pytest.raises(ValueError):
            call_ratio_table([], 1e-3, 0.01, 2.0)


class TestOracleValidation:
    def test_trial_t_on_n_qubits_reads_its_own_substream(self):
        worst = 0.0
        for n in (1, 2, 3):
            for t in range(3):
                rng = substream(5, MODE_TAGS["oracle_validation"], n, t)
                size = int(rng.integers(1, 2**n))
                good = rng.choice(2**n, size=size, replace=False).tolist()
                a = float(rng.uniform(0.0, 1.0))
                prep = statevector.StatePrep(n, frozenset(good), a)
                for d in range(4):
                    simulated = statevector.grover_power_prob(prep, d)
                    gap = abs(simulated - good_prob(angle_from_amplitude(a), d))
                    worst = max(worst, gap)
        report = oracle_validation(3, 3, 3, 5)
        assert list(report.items()) == [("max_abs_deviation", worst), ("cases", 36)]

    def test_too_many_qubits_are_refused_before_any_state_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(statevector, "StatePrep", lambda *a: built.append(a))
        with pytest.raises(ValueError, match="^qubits must be at most 12, got 13"):
            oracle_validation(13, 20, 8, 0)
        assert not built

    def test_each_trial_steps_one_state_through_its_powers(self, monkeypatch):
        calls = {"apply_grover": 0, "prepare_state": 0}
        for name in calls:

            def counted(*args, _call=getattr(statevector, name), _name=name):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(statevector, name, counted)
        oracle_validation(4, 20, 8, 0)
        # 80 trials of 8 steps each; |A> comes from each StatePrep
        assert calls == {"apply_grover": 640, "prepare_state": 0}

    def test_the_command_prints_the_report(self, capsys):
        main(["validate-oracle", "--qubits", "2", "--trials", "3", "--seed", "-4"])
        report = oracle_validation(2, 3, 8, -4)
        assert capsys.readouterr().out == json.dumps(report) + "\n"


class TestCsvOutput:
    def test_floats_written_with_17_significant_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        write_rows(
            str(path),
            "sweep",
            [{"a_true": 1 / 3, "a_hat": 0.25, "abs_err": 1e-17, "seed": 42}],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "a_true,a_hat,abs_err,seed"
        assert lines[1] == "0.33333333333333331,0.25,1.0000000000000001e-17,42"

    def test_rewrite_is_byte_identical(self, tmp_path):
        config = ExperimentConfig(mode="sweep", max_depth=4, amplitudes=25, base_seed=6)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(str(first), "sweep", sweep_amplitudes(config))
        write_rows(str(second), "sweep", sweep_amplitudes(config))
        assert first.read_bytes() == second.read_bytes()


def _die(*args):
    os._exit(3)


_ROW = harness._row


def _fail_at_point_three(job, i):
    if i == 3:
        raise ValueError(f"no estimate at point {i}")
    return _ROW(job, i)


def _sleep(*args):
    time.sleep(10)


def _sweep_bytes(tmp_path, monkeypatch, threads, points):
    monkeypatch.setenv("AMPLEST_THREADS", str(threads))
    config = ExperimentConfig(mode="sweep", max_depth=4, amplitudes=points, base_seed=9)
    path = tmp_path / f"sweep-{threads}-{points}.csv"
    write_rows(str(path), "sweep", sweep_amplitudes(config))
    return path.read_bytes()


def _python(code, *args, threads="2"):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(sys.path),
        "AMPLEST_THREADS": threads,
    }
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerPool:
    def test_broken_pool_names_the_job(self, monkeypatch):
        monkeypatch.setenv("AMPLEST_THREADS", "2")
        monkeypatch.setattr(harness, "_row", _die)
        config = ExperimentConfig(mode="sweep", max_depth=2, amplitudes=8)
        with pytest.raises(RuntimeError) as info:
            sweep_amplitudes(config)
        message = str(info.value)
        assert "sweep" in message and "8 points" in message
        assert "2 workers" in message and "AMPLEST_THREADS=1" in message
        assert "worker 0 exited with code 3" in message

    def test_cli_import_leaves_the_pool_module_out(self):
        code = (
            "import sys, amplest.cli; "
            "print('concurrent.futures.process' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            capture_output=True,
            text=True,
            env=env,
        ).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("points", [5, 7])
    def test_uneven_shares_write_the_serial_bytes(self, tmp_path, monkeypatch, points):
        serial = _sweep_bytes(tmp_path, monkeypatch, 1, points)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert _sweep_bytes(tmp_path, monkeypatch, 3, points) == serial
        assert len(forks) == 3

    def test_without_fork_the_points_run_serially(self, tmp_path, monkeypatch):
        serial = _sweep_bytes(tmp_path, monkeypatch, 1, 8)
        monkeypatch.delattr(os, "fork")
        assert _sweep_bytes(tmp_path, monkeypatch, 2, 8) == serial

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setenv("AMPLEST_THREADS", "2")
        monkeypatch.setattr(harness, "_row", _fail_at_point_three)
        config = ExperimentConfig(mode="sweep", max_depth=2, amplitudes=8)
        with pytest.raises(ValueError) as info:
            sweep_amplitudes(config)
        assert type(info.value) is ValueError
        assert str(info.value) == "no estimate at point 3"

    def test_no_child_is_left_behind(self, monkeypatch):
        monkeypatch.setenv("AMPLEST_THREADS", "2")
        config = ExperimentConfig(mode="sweep", max_depth=2, amplitudes=8)
        sweep_amplitudes(config)
        _assert_no_child()
        failures = ((_fail_at_point_three, ValueError), (_die, RuntimeError))
        for row, error in failures:
            monkeypatch.setattr(harness, "_row", row)
            with pytest.raises(error):
                sweep_amplitudes(config)
            _assert_no_child()

    def test_interrupt_kills_and_reaps_every_worker(self, monkeypatch):
        monkeypatch.setenv("AMPLEST_THREADS", "2")
        monkeypatch.setattr(harness, "_row", _sleep)
        config = ExperimentConfig(mode="sweep", max_depth=2, amplitudes=4)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                sweep_amplitudes(config)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 5
        _assert_no_child()

    def test_text_printed_before_a_pooled_run_appears_once(self):
        code = (
            "from amplest.harness import ExperimentConfig, sweep_amplitudes\n"
            "print('printed before the pool')\n"
            "config = ExperimentConfig(mode='sweep', max_depth=2, amplitudes=8)\n"
            "sweep_amplitudes(config)\n"
        )
        assert _python(code).count("printed before the pool") == 1

    def test_pooled_cli_sweep_leaves_the_pool_modules_out(self, tmp_path):
        code = (
            "import sys, amplest.cli\n"
            "amplest.cli.main(['sweep', '--max-depth', '2', '--epsilon', '0.05',"
            " '--points', '8', '--out', sys.argv[1]])\n"
            "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
            " if m in sys.modules])\n"
        )
        out = tmp_path / "sweep.csv"
        assert _python(code, str(out)).strip() == "[]"
        assert len(out.read_text().splitlines()) == 9

    def test_default_worker_count_is_the_usable_cores(self, monkeypatch):
        monkeypatch.delenv("AMPLEST_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False
        )
        assert harness._worker_count(100) == 3
        assert harness._worker_count(2) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness._worker_count(100) == 64

    def test_thread_count_is_capped_by_the_points(self, monkeypatch):
        monkeypatch.setenv("AMPLEST_THREADS", "100000")
        assert harness._worker_count(7) == 7
        assert harness._worker_count(1) == 1
        monkeypatch.setenv("AMPLEST_THREADS", "3")
        assert harness._worker_count(7) == 3


class TestGridPoints:
    def test_values(self):
        assert grid_points(3.0, 1e-3) == 3000
        assert grid_points(30.0, 1e-4) == 300_000
        assert grid_points(3.0, 0.49) == 7
        assert grid_points(0.1, 0.4) == 2


_EXPERIMENTS = {
    "sweep": sweep_amplitudes,
    "precision_curve": precision_curve,
    "exceptional_region": exceptional_region_scan,
}
_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.init]
# a tiny valid config per mode: max_depth <= 4, epsilon >= 0.05, <= 2 runs
_TINY = {
    "sweep": {"max_depth": 2, "epsilon": 0.05, "amplitudes": 3},
    "precision_curve": {
        "max_depth": 2,
        "epsilon": 0.05,
        "amplitudes": [0.3],
        "n_shot_list": [8, 16],
        "runs_per_point": 2,
    },
    "exceptional_region": {
        "max_depth": 2,
        "epsilon": 0.05,
        "amplitudes": 3,
        "k_index": 2,
        "runs_per_point": 2,
    },
}
# values each field may be overridden with, good and bad for some mode
_OVERRIDES = {
    "mode": ["sweep", "precision_curve", "exceptional_region", "nope"],
    "epsilon": [0.05, 0.2, 0.49, 0, 0.5, -0.1, "0.1", True, math.nan],
    "delta": [0.01, 0.5, 0, 1, "0.1", math.inf],
    "max_depth": [0, 1, 4, -1, 2.0, True],
    "jittered": [False, True, 1, "yes"],
    "spread_coeff": [0.5, 2, -5, 0, "x", True, math.nan, math.inf],
    "grid_multiplier": [0.1, 30, -1, True, "3", math.inf],
    "amplitudes": [2, [0.0, 1.0], 0, 1, 2.0, True, "0.3", [True], ["0.3"], [1.2], []],
    "runs_per_point": [1, 2, 0, True, 1.5],
    "n_shot_list": [[1], [4, 16], None, [], [0], [True], 8, "8"],
    "k_index": [None, 0, 1, 4, 9, -1, 99, True],
    "base_seed": [7, -3, 1.5, None],
}


class TestConfigValidation:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from(sorted(_TINY)),
        st.dictionaries(
            st.sampled_from(sorted(_OVERRIDES)), st.integers(0, 10), max_size=3
        ),
    )
    def test_construction_is_the_only_refusal(self, monkeypatch, mode, picks):
        # a config either fails to construct, naming a field, or runs
        monkeypatch.setenv("AMPLEST_THREADS", "1")
        fields = {"mode": mode, **_TINY[mode]}
        for name, pick in picks.items():
            fields[name] = _OVERRIDES[name][pick % len(_OVERRIDES[name])]
        try:
            config = ExperimentConfig(**fields)
        except ValueError as exc:
            assert any(name in str(exc) for name in _FIELDS), str(exc)
            return
        rows = _EXPERIMENTS[config.mode](config)
        # one row per point; the points pair each amplitude with each shot count
        shots = config.n_shot_list or (config.plan.n_shot,)
        amplitudes = [a for a, _ in config.points[:: len(shots)]]
        assert config.points == tuple((a, n) for a in amplitudes for n in shots)
        assert [row["a_true"] for row in rows] == [a for a, _ in config.points]

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"mode": "sweep", "spread_coeff": -5}, "spread_coeff"),
            ({"mode": "sweep", "spread_coeff": "x"}, "spread_coeff"),
            ({"mode": "sweep", "spread_coeff": True}, "spread_coeff"),
            ({"mode": "sweep", "grid_multiplier": True}, "grid_multiplier"),
            ({"mode": "sweep", "epsilon": "0.1"}, "epsilon"),
            ({"mode": "sweep", "amplitudes": "0.3"}, "amplitudes"),
            ({"mode": "sweep", "amplitudes": [True]}, "amplitudes"),
            ({"mode": "sweep", "amplitudes": ["0.3"]}, "amplitudes"),
            ({"mode": "sweep", "jittered": True, "max_depth": 0}, "max_depth"),
            ({"mode": "sweep", "base_seed": None}, "base_seed"),
            (
                {"mode": "exceptional_region", "amplitudes": [0.3], "k_index": 99},
                "k_index",
            ),
        ],
    )
    def test_bad_field_is_refused_by_name(self, fields, name):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{"amplitudes": 3, **fields})

    def test_replace_judges_and_resolves_again(self):
        config = ExperimentConfig(mode="sweep", max_depth=2, amplitudes=3)
        n = config.plan.n_shot
        assert config.points == ((0.0, n), (0.5, n), (1.0, n))
        wider = dataclasses.replace(config, amplitudes=5)
        assert wider.points == tuple((a, n) for a in (0.0, 0.25, 0.5, 0.75, 1.0))
        with pytest.raises(ValueError, match="spread_coeff"):
            dataclasses.replace(config, spread_coeff=-5)

    @pytest.mark.parametrize(
        "run, mode",
        [
            (sweep_amplitudes, "precision_curve"),
            (precision_curve, "exceptional_region"),
            (exceptional_region_scan, "sweep"),
        ],
    )
    def test_experiment_refuses_another_mode(self, run, mode):
        uses = {
            "sweep": {},
            "precision_curve": {"n_shot_list": [8]},
            "exceptional_region": {"k_index": 1},
        }
        config = ExperimentConfig(mode=mode, amplitudes=[0.5], **uses[mode])
        with pytest.raises(ValueError, match=f"config.mode is '{mode}'"):
            run(config)

    @pytest.mark.parametrize(
        "run, mode, field, value",
        [
            (sweep_amplitudes, "sweep", "runs_per_point", 50),
            (sweep_amplitudes, "sweep", "n_shot_list", [8]),
            (sweep_amplitudes, "sweep", "k_index", 1),
            (precision_curve, "precision_curve", "k_index", 1),
            (exceptional_region_scan, "exceptional_region", "n_shot_list", [8]),
        ],
    )
    def test_experiment_refuses_a_field_it_does_not_use(self, run, mode, field, value):
        needed = {
            "precision_curve": {"n_shot_list": [8]},
            "exceptional_region": {"k_index": 1},
        }
        fields = {**needed.get(mode, {}), field: value}
        with pytest.raises(ValueError, match=f"{mode} does not use {field}"):
            ExperimentConfig(mode=mode, max_depth=2, amplitudes=5, **fields)

    @pytest.mark.parametrize("shots", [[0], [16.9], [True], [-4, 16], 8])
    def test_bad_shot_counts_are_refused(self, shots):
        with pytest.raises(ValueError, match="n_shot_list"):
            ExperimentConfig(
                mode="precision_curve", max_depth=2, amplitudes=[0.5], n_shot_list=shots
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("runs_per_point", True),
            ("runs_per_point", 2.5),
            ("base_seed", 1.5),
            ("max_depth", 2.0),
            ("k_index", True),
            ("amplitudes", True),
            ("amplitudes", 5.0),
        ],
    )
    def test_integer_fields_refuse_bools_and_floats(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(mode="exceptional_region", **{field: value})

    def test_numpy_bool_jitter_is_stored_as_bool(self):
        config = ExperimentConfig(mode="sweep", jittered=np.bool_(True), amplitudes=2)
        assert config.jittered is True

    def test_integer_fields_take_numpy_integers(self):
        common = {"mode": "exceptional_region", "epsilon": 1e-2, "max_depth": 2}
        plain = {"amplitudes": 4, "runs_per_point": 3, "k_index": 1, "base_seed": 7}
        numpy_ints = {k: np.int64(v) for k, v in plain.items()}
        rows = exceptional_region_scan(ExperimentConfig(**common, **numpy_ints))
        assert rows == exceptional_region_scan(ExperimentConfig(**common, **plain))
        curve = {"mode": "precision_curve", "max_depth": 2, "amplitudes": [0.5]}
        rows = precision_curve(ExperimentConfig(**curve, n_shot_list=[np.int64(8)]))
        assert rows == precision_curve(ExperimentConfig(**curve, n_shot_list=[8]))

    def test_non_integer_thread_count_is_named(self, monkeypatch):
        monkeypatch.setenv("AMPLEST_THREADS", "two")
        config = ExperimentConfig(mode="sweep", max_depth=2, amplitudes=5)
        with pytest.raises(ValueError, match="AMPLEST_THREADS must be an integer"):
            sweep_amplitudes(config)

    def test_zero_thread_count_is_refused(self, monkeypatch):
        monkeypatch.setenv("AMPLEST_THREADS", "0")
        config = ExperimentConfig(mode="sweep", max_depth=2, amplitudes=5)
        with pytest.raises(ValueError, match="AMPLEST_THREADS must be at least 1"):
            sweep_amplitudes(config)

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="nope")

    def test_domains_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="sweep", epsilon=0.7)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="sweep", runs_per_point=0)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="sweep", amplitudes=[0.5, 1.2])
        with pytest.raises(ValueError, match="amplitudes must list at least 1"):
            ExperimentConfig(mode="sweep", amplitudes=[])
        for value in ("no", 1, None):
            with pytest.raises(ValueError, match="jittered must be a bool"):
                ExperimentConfig(mode="sweep", jittered=value)
