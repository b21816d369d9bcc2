"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Statistical criteria use fixed base seeds, so every run is
deterministic; their thresholds carry the margins measured at desk scale.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from amplest._util import ceil_guarded
from amplest.harness import (
    MODE_TAGS,
    ExperimentConfig,
    achieved_precision,
    call_ratio_table,
    precision_curve,
    sweep_amplitudes,
)
from amplest.likelihood import grid_maximize
from amplest.planner import (
    _precision_from_shots,
    erfinv,
    exceptional_values,
    make_plan,
    required_shots,
    single_shot_fisher_info,
)
from amplest.rng import derive_key, substream
from amplest.sampler import angle_from_amplitude, draw_record, good_prob
from amplest.schedules import (
    call_weight,
    closed_form_weights,
    exponential_schedule,
    exponential_schedule_to_depth,
    info_weight_squared,
    jitter,
)
from amplest.statevector import StatePrep, grover_power_prob

ONE = Fraction(1)
EPS16 = 1e-3
EXC_CENTER_16 = exceptional_values(16)[16]
EXC_POINT_16 = EXC_CENTER_16 + EPS16


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status}  {detail}".rstrip())
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_schedule_fidelity():
    s16 = exponential_schedule_to_depth(16)
    s50 = exponential_schedule_to_depth(50)
    j16 = jitter(s16, 2.0)
    j50 = jitter(s50, 2.0)
    ok = (
        s16.depths == (0, 1, 2, 4, 8, 16)
        and s50.depths == (0, 1, 2, 4, 7, 14, 26, 50)
        and j16.depths == (0, 1, 2, 4, 8, 13, 14, 15, 16)
        and j16.fractions == (ONE,) * 5 + (Fraction(1, 4),) * 4
        and j50.depths
        == (0, 1, 2, 4, 7) + tuple(range(11, 18)) + tuple(range(22, 31)) + tuple(range(45, 51))
        and j50.fractions
        == (ONE,) * 5 + (Fraction(1, 7),) * 7 + (Fraction(1, 9),) * 9 + (Fraction(1, 6),) * 6
    )
    _report(1, "schedule fidelity", ok)


def test_criterion_2_shot_planning():
    n16 = required_shots(1e-3, 0.01, exponential_schedule_to_depth(16))
    n50 = required_shots(1e-4, 0.01, exponential_schedule_to_depth(50))
    _report(2, "shot planning", n16 == 1111 and n50 == 11688, f"n16={n16} n50={n50}")


def test_criterion_3_closed_form_weights():
    worst = 0.0
    for k in range(1, 11):
        d = 2**k
        schedule = exponential_schedule(k + 2)
        linear, info = closed_form_weights(d)
        worst = max(
            worst,
            abs(linear - call_weight(schedule)) / call_weight(schedule),
            abs(info**2 - info_weight_squared(schedule)) / info_weight_squared(schedule),
        )
    _report(3, "closed-form weights", worst <= 1e-12, f"worst rel dev {worst:.2e}")


def test_criterion_4_statevector_oracle():
    worst = 0.0
    for n in (1, 2, 3, 4):
        dim = 1 << n
        rng = substream(91, n)
        for _ in range(20):
            size = int(rng.integers(1, dim))
            good = frozenset(int(i) for i in rng.choice(dim, size=size, replace=False))
            a = float(rng.uniform(0.0, 1.0))
            sp = StatePrep(n, good, a)
            theta = angle_from_amplitude(a)
            for power in range(9):
                dev = abs(grover_power_prob(sp, power) - good_prob(theta, power))
                worst = max(worst, dev)
    _report(4, "statevector oracle", worst <= 1e-9, f"worst abs dev {worst:.2e}")


def test_criterion_5_single_shot_fisher_information():
    def prob(a, depth):
        return math.sin((2 * depth + 1) * math.asin(math.sqrt(a))) ** 2

    h = 1e-6
    worst = 0.0
    for depth in range(7):
        for tenth in range(1, 10):
            a = tenth / 10
            p = prob(a, depth)
            if min(p, 1.0 - p) < 1e-6:
                continue
            score_good = (math.log(prob(a + h, depth)) - math.log(prob(a - h, depth))) / (2 * h)
            score_bad = (
                math.log1p(-prob(a + h, depth)) - math.log1p(-prob(a - h, depth))
            ) / (2 * h)
            oracle = p * score_good**2 + (1 - p) * score_bad**2
            rel = abs(single_shot_fisher_info(a, depth) - oracle) / oracle
            worst = max(worst, rel)
    _report(5, "single-shot Fisher information", worst <= 1e-6, f"worst rel dev {worst:.2e}")


def test_criterion_6_erfinv():
    worst = 0.0
    for i in range(2001):
        y = -0.999 + i * (1.998 / 2000)
        x = erfinv(y)
        if y != 0.0:
            worst = max(worst, abs(math.erf(x) - y) / abs(y))
    # the cited low-order tail approximation evaluates to 1.824 at the
    # 1% failure level; the implementation must sit within half a percent
    blair_gap = abs(erfinv(0.99) - 1.824) / 1.824
    ok = worst <= 1e-12 and blair_gap <= 5e-3
    _report(6, "erfinv", ok, f"roundtrip {worst:.2e}, tail-approx gap {blair_gap:.2e}")


def test_criterion_7_typical_value_sweep():
    config = ExperimentConfig(
        mode="sweep",
        epsilon=EPS16,
        delta=0.01,
        max_depth=16,
        amplitudes=2000,
        base_seed=42,
    )
    rows = sweep_amplitudes(config)
    centers = exceptional_values(16)
    outside = [
        r
        for r in rows
        if all(abs(r["a_true"] - c) > 4 * EPS16 for c in centers)
    ]
    good = sum(1 for r in outside if r["abs_err"] <= EPS16)
    fraction = good / len(outside)
    _report(
        7,
        "typical-value sweep",
        fraction >= 0.95,
        f"{good}/{len(outside)} = {fraction:.4f} within target outside bands",
    )


@pytest.fixture(scope="module")
def exceptional_curve_rows():
    config = ExperimentConfig(
        mode="precision_curve",
        epsilon=EPS16,
        delta=0.01,
        max_depth=16,
        amplitudes=[EXC_POINT_16],
        runs_per_point=1000,
        n_shot_list=[1111, 4 * 1111],
        base_seed=11,
    )
    return {r["n_shot"]: r["eps_achieved"] for r in precision_curve(config)}


def test_criterion_8_exceptional_value_phenomenon(exceptional_curve_rows):
    at_planned = exceptional_curve_rows[1111]
    at_quadrupled = exceptional_curve_rows[4444]
    ok = at_planned > EPS16 and at_quadrupled <= EPS16
    _report(
        8,
        "exceptional-value phenomenon",
        ok,
        f"eps_achieved {at_planned:.3e} at planned shots, {at_quadrupled:.3e} at 4x",
    )


def test_criterion_9_jitter_efficacy(exceptional_curve_rows):
    # sweep half: every amplitude, exceptional bands included
    sweep_config = ExperimentConfig(
        mode="sweep",
        epsilon=EPS16,
        delta=0.01,
        max_depth=16,
        jittered=True,
        amplitudes=2000,
        base_seed=42,
    )
    rows = sweep_amplitudes(sweep_config)
    good = sum(1 for r in rows if r["abs_err"] <= EPS16)
    sweep_fraction = good / len(rows)

    # point half: the criterion-8 amplitude at the jittered planned shots,
    # following the same protocol (grid sized for the largest shot count)
    plan = make_plan(EPS16, 0.01, 16, jittered=True)
    shots_list = [plan.n_shot, 4 * plan.n_shot]
    eps_min = _precision_from_shots(max(shots_list), 0.01, plan.schedule)
    grid_size = ceil_guarded(3.0 / eps_min)
    errors = []
    for r in range(1000):
        seed = derive_key(11, MODE_TAGS["precision_curve"], 0, r)
        record = draw_record(EXC_POINT_16, plan.schedule, plan.n_shot, seed)
        estimate = grid_maximize(record, grid_size)
        errors.append(abs(estimate.a_hat - EXC_POINT_16))
    point_fraction = sum(1 for e in errors if e <= EPS16) / len(errors)
    point_q99 = achieved_precision(errors, 0.01)

    # "meets the target" at the 95% level the sweep clause uses; the 99%
    # quantile must also have moved decisively below the criterion-8 failure
    ok = (
        sweep_fraction >= 0.95
        and point_fraction >= 0.95
        and point_q99 < exceptional_curve_rows[1111]
    )
    _report(
        9,
        "jitter efficacy",
        ok,
        f"sweep {sweep_fraction:.4f} within target; exceptional point "
        f"{point_fraction:.4f} within target at n_shot={plan.n_shot} "
        f"(q99 {point_q99:.3e} vs unjittered {exceptional_curve_rows[1111]:.3e})",
    )


def test_criterion_10_call_ratio_overhead():
    rows = call_ratio_table([16, 32, 64, 128, 256], 1e-5, 0.01, 2.0)
    ratios = {r["d"]: r["ratio"] for r in rows}
    in_bounds = all(0.9 <= r <= 1.5 for r in ratios.values())
    shrinking = abs(ratios[256] - 1.0) < abs(ratios[16] - 1.0)
    _report(
        10,
        "call-ratio overhead",
        in_bounds and shrinking,
        f"ratios {[f'{ratios[d]:.4f}' for d in (16, 32, 64, 128, 256)]}",
    )


def test_criterion_11_determinism(tmp_path):
    def run(command: list[str], out: str, threads: str | None) -> bytes:
        env = dict(os.environ)
        env.pop("AMPLEST_THREADS", None)
        if threads is not None:
            env["AMPLEST_THREADS"] = threads
        subprocess.run(
            [sys.executable, "-m", "amplest", *command, "--out", out],
            check=True,
            env=env,
        )
        return open(out, "rb").read()

    sweep_cmd = [
        "sweep", "--points", "120", "--max-depth", "16",
        "--epsilon", "1e-3", "--delta", "0.01", "--seed", "5",
    ]
    sweep_outputs = {
        threads: run(sweep_cmd, str(tmp_path / f"sweep_{threads}.csv"), threads)
        for threads in ("1", "2", None)
    }
    curve_cmd = [
        "precision-curve", "--amplitudes", "0.3,0.5", "--shots", "64,256",
        "--runs", "50", "--max-depth", "8", "--epsilon", "1e-2", "--seed", "6",
    ]
    curve_outputs = {
        threads: run(curve_cmd, str(tmp_path / f"curve_{threads}.csv"), threads)
        for threads in ("1", "2")
    }
    ok = (
        len(set(sweep_outputs.values())) == 1
        and len(set(curve_outputs.values())) == 1
    )
    _report(11, "determinism", ok, "byte-identical CSVs across AMPLEST_THREADS")
