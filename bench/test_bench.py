"""Self-tests of the benchmark at smoke sizes.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in bench.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--smoke", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"]) for line in lines)
    assert f"{workload} failed_frac 0 fraction" in lines


# Runs the benchmark with an ``invoke`` that changes the last digit of every
# CSV a child writes. It runs in a fresh process: the benchmark refuses to
# measure from a process larger than its children, as pytest's would be.
CORRUPTING_RUN = """
import sys
from pathlib import Path

sys.path.insert(0, {bench_dir!r})
import run

real = run.invoke


def invoke(argv, env, stdout_path, timeout):
    inv = real(argv, env, stdout_path, timeout)
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        data = bytearray(out.read_bytes())
        data[-2] = ord("0") + (data[-2] - ord("0") + 1) % 10
        out.write_bytes(bytes(data))
    return inv


run.invoke = invoke
sys.exit(run.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("seed", [[], ["--seed", "12345"]], ids=["paper-seed", "new-seed"])
def test_corrupted_csv_counts_in_failed_frac(tmp_path, workload, seed):
    script = tmp_path / "corrupting_run.py"
    script.write_text(CORRUPTING_RUN.format(bench_dir=str(bench.BENCH_DIR)))
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--smoke", "--seconds", "0", *seed],
        cwd=bench.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    experiments = result["attempted"] // 2  # each round: two plans, two experiments
    assert not result["correct"]
    assert result["failed"] == experiments > 0
    assert f"{workload} failed_frac {experiments / result['attempted']:.6g} fraction" in lines


def test_clean_run_at_a_new_seed_passes_the_scalar_rescan():
    proc = _bench("--workload", "sweep-d16", "--smoke", "--seconds", "0", "--seed", "987")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = _bench("--workload", "sweep-d16", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
