"""End-to-end and per-layer benchmark of the ``amplest`` CLI.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep-d16 [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Each workload runs one ``amplest`` experiment command twice per round, on
the plain schedule and on the ``--jitter`` schedule, each invocation in a
fresh process. Each round first runs ``amplest plan`` with the same two
sets of plan flags, which gives ``setup_s``. Rounds repeat while the next
one, if as long as the last, ends within ``--seconds`` (at least
``MIN_ROUNDS`` of them). Time metrics are the best over rounds of each
invocation, summed over the two variants (see ``end_to_end``).

Every child gets ``AMPLEST_THREADS`` = the number of usable cores and one
BLAS/OpenMP thread: with the default environment two pool workers each
start multi-threaded OpenBLAS ``gemv`` and timings turn bimodal (7.6, 7.8
and 13.2 s for one command on 2 cores, against 3.8-4.3 s pinned, with
byte-identical CSVs).

Every output is checked. At the paper seeds the CSV's SHA-256 must match
``golden.json``; at other seeds the rows are checked for shape and, for the
sweep, a sample of rows is re-maximized with the scalar
``record_log_likelihood`` and must give the same grid index. All rounds of
a run must write identical bytes. A failed invocation counts in
``failed_frac`` and in the ``failed`` field of the result line.

``--trace 1`` prints the per-layer metrics instead: it runs each variant
once untraced with all workers, once untraced with one worker, and then
replays it in one traced process (``replay.py``) for the rest of
``--seconds``. The replay must write the same bytes as the one-worker run and
every wrapped boundary the workload uses must record calls; otherwise the
run stops with an error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also
writes ``bench/out/<workload>-seed<N>-trace<T>/result.json`` with the raw
samples and the environment (core count, pinned variables, Python, numpy
and BLAS versions, cache sizes).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
NPROC = len(os.sched_getaffinity(0))
THREAD_PINS = {
    "AMPLEST_THREADS": str(NPROC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_ROUNDS = 3
RUN_LIMIT_S = 150.0  # children still running then are killed; the run fails
RESCAN_ROWS = 8
VARIANTS = (("plain", ()), ("jitter", ("--jitter",)))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    paper_seed: int
    plan: dict  # flags shared by `amplest plan` and the experiment command
    size: dict  # experiment-only flags
    smoke_plan: dict
    smoke_size: dict
    # Functions wrapped by replay.py that this command must call.
    boundaries: tuple


_ALL_BOUNDARIES = (
    "harness",
    "make_plan",
    "required_shots",
    "derive_key",
    "draw_record",
    "grid_maximize",
    "achieved_precision",
    "write_rows",
)

# Sizes are fixed per workload (not scaled by --seconds) so that the golden
# hashes apply to every run at the paper seed; a round takes 1.5-6 s on
# 2 cores, so a 35 s run holds at least five rounds.
WORKLOADS = {
    w.name: w
    for w in (
        # Thousands of one-run tasks on a 3000-point grid: per-run draw and
        # pool dispatch dominate, the likelihood tables are small.
        Workload(
            name="sweep-d16",
            command="sweep",
            paper_seed=42,
            plan={"max-depth": 16, "epsilon": "1e-3"},
            size={"points": 2000},
            smoke_plan={"max-depth": 16, "epsilon": "1e-2"},
            smoke_size={"points": 40},
            boundaries=tuple(b for b in _ALL_BOUNDARIES if b != "achieved_precision"),
        ),
        # 11 large tasks on a 300k-point grid: per-run maximization and the
        # 38/130 MB tables dominate time and peak RSS.
        Workload(
            name="region-d50",
            command="exceptional-region",
            paper_seed=3,
            plan={"max-depth": 50, "epsilon": "1e-4", "grid-multiplier": 30},
            size={"k": 50, "points": 11, "runs": 30},
            smoke_plan={"max-depth": 16, "epsilon": "1e-3", "grid-multiplier": 3},
            smoke_size={"k": 16, "points": 4, "runs": 4},
            boundaries=_ALL_BOUNDARIES,
        ),
        # Two points only, so the harness takes its serial path: the
        # single-process baseline on which dispatch changes show nothing.
        Workload(
            name="curve-d16",
            command="precision-curve",
            paper_seed=11,
            plan={"max-depth": 16, "epsilon": "1e-3"},
            size={
                "amplitudes": repr(math.sin(16 * math.pi / 66) ** 2 + 1e-3),
                "shots": "1111,4444",
                "runs": 1000,
            },
            smoke_plan={"max-depth": 16, "epsilon": "1e-2"},
            smoke_size={"amplitudes": "0.3", "shots": "64,256", "runs": 20},
            boundaries=tuple(b for b in _ALL_BOUNDARIES if b != "required_shots"),
        ),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "runs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> (unit, the end-to-end metric it should move).
LAYER_METRICS = {
    "schedules.depths": ("count", "setup_s on all workloads"),
    "schedules.build_us": ("us", "setup_s on all workloads"),
    "planner.make_plan_us": ("us", "setup_s on all workloads"),
    "planner.n_shot": ("count", "setup_s on all workloads"),
    "planner.grid_size": ("count", "setup_s on all workloads"),
    "cli.import_s": ("s", "setup_s on all workloads"),
    "rng.derive_key_us": ("us", "runs_per_s on sweep-d16 and curve-d16"),
    "rng.substream_us": ("us", "runs_per_s on sweep-d16 and curve-d16"),
    "sampler.draw_us_p50": ("us", "runs_per_s on sweep-d16 and curve-d16"),
    "sampler.draw_us_p99": ("us", "runs_per_s on sweep-d16 and curve-d16"),
    "sampler.calls": ("count", "runs_per_s on sweep-d16 and curve-d16"),
    "sampler.depth_draws": ("count", "runs_per_s on sweep-d16 and curve-d16"),
    "sampler.share": ("ratio", "runs_per_s on sweep-d16 and curve-d16"),
    "likelihood.first_call_ms": ("ms", "wall_s and peak_rss_mb on region-d50"),
    "likelihood.max_us_p50": ("us", "wall_s and peak_rss_mb on region-d50"),
    "likelihood.max_us_p99": ("us", "wall_s and peak_rss_mb on region-d50"),
    "likelihood.calls": ("count", "wall_s and peak_rss_mb on region-d50"),
    "likelihood.share": ("ratio", "wall_s and peak_rss_mb on region-d50"),
    "likelihood.cells_per_run": ("count", "wall_s and peak_rss_mb on region-d50"),
    "likelihood.table_mb": ("MB", "wall_s and peak_rss_mb on region-d50"),
    "likelihood.neg_inf": ("count", "wall_s and peak_rss_mb on region-d50"),
    "likelihood.edge_hits": ("count", "wall_s and peak_rss_mb on region-d50"),
    "harness.self_us_per_run": ("us", "wall_s and cpu_s on sweep-d16"),
    "harness.pool_eff": ("ratio", "wall_s and cpu_s on sweep-d16"),
    "harness.tasks": ("count", "wall_s and cpu_s on sweep-d16"),
    "harness.workers": ("count", "wall_s and cpu_s on sweep-d16"),
    "harness.quantile_us": ("us", "wall_s and cpu_s on sweep-d16"),
    "harness.write_ms": ("ms", "wall_s and cpu_s on sweep-d16"),
    "trace.overhead": ("ratio", "none: traced wall over untraced one-worker wall"),
}


class BenchError(Exception):
    """A condition under which the benchmark must stop without a result."""


def _flags(options: dict) -> list[str]:
    return [item for k, v in options.items() for item in (f"--{k}", str(v))]


@dataclass
class Invocation:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def invoke(argv: list[str], env: dict, stdout_path: Path, timeout: float) -> Invocation:
    """Run one child to completion; resource usage comes from wait4 on it.

    wait4 reports the child together with the descendants it reaped (the
    pool workers), and nothing from earlier children, unlike
    ``RUSAGE_CHILDREN`` of this process. Its peak RSS is at least this
    process's peak at the time of the spawn, because the kernel folds the
    memory the child is exec'd from into it; ``end_to_end`` checks that
    this process stayed below every child.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdout=out, stderr=err, cwd=ROOT, start_new_session=True
        )
        # A hung child is killed with its pool workers (its process group).
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # Reaped here, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        status=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def child_env(threads: int | None = None) -> dict:
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(SRC))
    if threads is not None:
        env["AMPLEST_THREADS"] = str(threads)
    return env


# ---------------------------------------------------------------- checks


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(data: bytes, columns: tuple) -> list[dict]:
    reader = csv.DictReader(io.StringIO(data.decode()))
    if tuple(reader.fieldnames or ()) != columns:
        raise ValueError(f"header {reader.fieldnames} is not {columns}")
    return list(reader)


def _finite_nonnegative(text: str) -> bool:
    value = float(text)
    return math.isfinite(value) and value >= 0.0


class Checker:
    """Decides whether one invocation's output is correct.

    At a golden key the bytes must hash to the recorded value. Elsewhere
    the rows are checked against what the flags determine; for sweeps a
    sample of rows is re-maximized with the scalar reference. Verdicts are
    cached by content hash, since every round of a run repeats the bytes.
    """

    def __init__(self) -> None:
        self._golden = json.loads((BENCH_DIR / "golden.json").read_text())
        self._verdicts: dict[tuple, str | None] = {}
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def check(self, args: list[str], data: bytes) -> str | None:
        key, digest = " ".join(args), sha256_hex(data)
        if (key, digest) not in self._verdicts:
            self._verdicts[key, digest] = self._check(key, args, data, digest)
        return self._verdicts[key, digest]

    def _check(self, key, args, data, digest) -> str | None:
        if key in self._golden:
            return None if self._golden[key] == digest else f"sha256 {digest} != golden"
        from amplest.cli import build_parser

        extra = [] if args[0] == "plan" else ["--out", "-"]
        flags = build_parser().parse_args([*args, *extra])
        try:
            return getattr(self, "_check_" + args[0].replace("-", "_"))(flags, data)
        except (ValueError, KeyError) as exc:
            return f"malformed output: {exc}"

    def _check_plan(self, flags, data):
        plan = json.loads(data)
        if plan["max_depth"] != flags.max_depth or plan["n_shot"] < 1:
            return "plan does not match its flags"
        return None

    def _check_sweep(self, flags, data):
        from amplest.harness import CSV_COLUMNS, MODE_TAGS
        from amplest.likelihood import record_log_likelihood
        from amplest.planner import make_plan
        from amplest.rng import derive_key
        from amplest.sampler import amplitude_from_angle, draw_record

        rows = _rows(data, CSV_COLUMNS["sweep"])
        count = flags.points
        if len(rows) != count:
            return f"{len(rows)} rows, expected {count}"
        for i, row in enumerate(rows):
            if row["a_true"] != format(i / (count - 1), ".17g"):
                return f"row {i}: a_true {row['a_true']}"
            if int(row["seed"]) != derive_key(flags.seed, MODE_TAGS["sweep"], i, 0):
                return f"row {i}: seed {row['seed']}"
            err = abs(float(row["a_hat"]) - float(row["a_true"]))
            if row["abs_err"] != format(err, ".17g"):
                return f"row {i}: abs_err {row['abs_err']}"
        plan = make_plan(
            flags.epsilon,
            flags.delta,
            flags.max_depth,
            jittered=flags.jitter,
            spread_coeff=flags.spread_coeff,
        )
        size, step = plan.grid_size, math.pi / 2.0 / (plan.grid_size - 1)
        rescan = {0, count - 1, *random.Random(flags.seed).sample(range(count), RESCAN_ROWS)}
        for i in sorted(rescan):
            row = rows[i]
            record = draw_record(
                float(row["a_true"]), plan.schedule, plan.n_shot, int(row["seed"])
            )
            best, best_idx = -math.inf, 0
            for idx in range(size):
                value = record_log_likelihood(idx * step, record)
                if value > best:
                    best, best_idx = value, idx
            if row["a_hat"] != format(amplitude_from_angle(best_idx * step), ".17g"):
                return f"row {i}: a_hat {row['a_hat']} is not scalar grid index {best_idx}"
        return None

    def _check_quantile_rows(self, rows, runs):
        for i, row in enumerate(rows):
            if int(row["runs"]) != runs:
                return f"row {i}: runs {row['runs']}"
            if not _finite_nonnegative(row["eps_achieved"]):
                return f"row {i}: eps_achieved {row['eps_achieved']}"
        return None

    def _check_exceptional_region(self, flags, data):
        from amplest.harness import CSV_COLUMNS
        from amplest.planner import exceptional_values

        rows = _rows(data, CSV_COLUMNS["exceptional_region"])
        if len(rows) != flags.points:
            return f"{len(rows)} rows, expected {flags.points}"
        center = exceptional_values(flags.max_depth)[flags.k]
        half_width = 4.0 * flags.epsilon * (1 + 1e-9)
        amplitudes = [float(r["a_true"]) for r in rows]
        if any(b <= a for a, b in zip(amplitudes, amplitudes[1:])):
            return "a_true is not strictly increasing"
        if any(abs(a - center) > half_width for a in amplitudes):
            return "a_true leaves the band around the exceptional value"
        return self._check_quantile_rows(rows, flags.runs)

    def _check_precision_curve(self, flags, data):
        from amplest.harness import CSV_COLUMNS

        rows = _rows(data, CSV_COLUMNS["precision_curve"])
        expected = [(format(a, ".17g"), str(s)) for a in flags.amplitudes for s in flags.shots]
        got = [(r["a_true"], r["n_shot"]) for r in rows]
        if got != expected:
            return f"points {got} != {expected}"
        return self._check_quantile_rows(rows, flags.runs)


def runs_in_csv(data: bytes) -> int:
    """Estimation runs behind a CSV: one per sweep row, else the runs column.

    Unreadable output counts as no runs; the check has already failed it.
    """
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        return sum(int(r.get("runs", 1)) for r in rows)
    except (ValueError, UnicodeDecodeError):
        return 0


# ---------------------------------------------------------------- runner


@dataclass
class Run:
    workload: Workload
    seed: int
    smoke: bool
    work: Path
    deadline: float
    checker: Checker = field(default_factory=Checker)
    attempted: int = 0
    failures: list = field(default_factory=list)
    first_bytes: dict = field(default_factory=dict)
    unchecked: list = field(default_factory=list)

    @property
    def plan(self) -> dict:
        return self.workload.smoke_plan if self.smoke else self.workload.plan

    @property
    def size(self) -> dict:
        return self.workload.smoke_size if self.smoke else self.workload.size

    def experiment_args(self, variant_flags: tuple) -> list[str]:
        return [
            self.workload.command,
            *_flags(self.plan),
            *_flags(self.size),
            "--seed",
            str(self.seed),
            *variant_flags,
        ]

    def plan_args(self, variant_flags: tuple) -> list[str]:
        return ["plan", *_flags(self.plan), *variant_flags]

    def record(self, args: list[str], inv: Invocation, data: bytes) -> None:
        """Count one invocation; its output is checked by ``check_outputs``."""
        key = " ".join(args)
        self.attempted += 1
        if inv.status != 0:
            self.failures.append(f"{key}: exit status {inv.status}")
        elif data != self.first_bytes.setdefault(key, data):
            self.failures.append(f"{key}: bytes differ from the first round of this run")
        else:
            self.unchecked.append(args)

    def check_outputs(self) -> None:
        """Check every recorded output and log the invocations that fail.

        Runs after the measurement because the checks import numpy and
        amplest, and this process must stay smaller than its children (see
        ``invoke``). Identical outputs share one verdict.
        """
        for args in self.unchecked:
            reason = self.checker.check(args, self.first_bytes[" ".join(args)])
            if reason is not None:
                self.failures.append(f"{' '.join(args)}: {reason}")
        self.unchecked.clear()

    def remaining(self) -> float:
        """Seconds left before the run's deadline; raises once it has passed."""
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError(f"the run took longer than {RUN_LIMIT_S} s")
        return left

    def run_cli(self, name: str, args: list[str], env: dict):
        """Invoke ``amplest`` once and check its output; returns (invocation, bytes)."""
        if args[0] == "plan":
            out = self.work / f"{name}.json"
            inv = invoke([sys.executable, "-m", "amplest", *args], env, out, self.remaining())
            data = out.read_bytes()
        else:
            out = self.work / f"{name}.csv"
            out.unlink(missing_ok=True)
            inv = invoke(
                [sys.executable, "-m", "amplest", *args, "--out", str(out)],
                env,
                self.work / f"{name}.stdout",
                self.remaining(),
            )
            data = out.read_bytes() if out.exists() else b""
        self.record(args, inv, data)
        return inv, data


def _repetitions(start: float, seconds: float, minimum: int):
    """Count repetitions while one more, as long as the last, ends by ``seconds``."""
    count, last = 0, time.perf_counter()
    while True:
        yield count
        count += 1
        now = time.perf_counter()
        if count >= minimum and (now - start) + (now - last) > seconds:
            return
        last = now


def _own_peak_rss_mb() -> float:
    """This process's own high-water RSS.

    Not ``getrusage(RUSAGE_SELF)``, which also holds what the process that
    started the benchmark had resident when it spawned it.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/self/status")


def measure_rounds(run: Run, seconds: float) -> dict:
    """Rounds of (plan pair, experiment pair) filling ``seconds``.

    Returns every invocation by name (``plan-plain``, ``plain``, ...) with
    its timings and, for experiments, the runs its CSV reports. The plan
    invocations are interleaved with the experiments so that the set-up
    samples see the same machine conditions as the rest of the run.
    """
    env = child_env()
    samples: dict[str, list[dict]] = {}
    for _ in _repetitions(time.perf_counter(), seconds, MIN_ROUNDS):
        for variant, flags in VARIANTS:
            inv, _ = run.run_cli(f"plan-{variant}", run.plan_args(flags), env)
            samples.setdefault(f"plan-{variant}", []).append(asdict(inv))
        for variant, flags in VARIANTS:
            inv, data = run.run_cli(variant, run.experiment_args(flags), env)
            samples.setdefault(variant, []).append({**asdict(inv), "runs": runs_in_csv(data)})
    return samples


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Best-of-rounds times per invocation, summed over the two variants.

    The same invocation's wall time spreads from a hard floor into a long
    tail as other tenants of the machine slow its core (0.55-1.35 s for one
    ``precision-curve`` command within minutes on 2 vCPUs); cpu time
    follows. The minimum over rounds estimates the floor with a quarter of
    the run-to-run spread of the median (0.05 against 0.20 on the same
    samples), so every time metric uses it. Peak RSS does not drift and is
    the median over rounds.
    """
    samples = measure_rounds(run, seconds)
    plans = [samples[f"plan-{v}"] for v, _ in VARIANTS]
    experiments = [samples[v] for v, _ in VARIANTS]

    def best(invocations, key):
        return sum(min(inv[key] for inv in group) for group in invocations)

    own_mb = _own_peak_rss_mb()
    lightest_mb = min(inv["rss_mb"] for group in plans + experiments for inv in group)
    if own_mb >= lightest_mb:
        raise BenchError(
            f"the benchmark process peaked at {own_mb:.1f} MB, not below its children "
            f"({lightest_mb:.1f} MB): their peak RSS would be its own"
        )
    wall = best(experiments, "wall_s")
    metrics = {
        "wall_s": wall,
        "runs_per_s": sum(max(inv["runs"] for inv in group) for group in experiments) / wall,
        "cpu_s": best(experiments, "cpu_s"),
        "peak_rss_mb": max(statistics.median(inv["rss_mb"] for inv in g) for g in experiments),
        "setup_s": best(plans, "wall_s"),
    }
    return metrics, {"samples": samples}


def _p(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _durations_us(proc: dict, name: str) -> list[float]:
    return [(s[3] - s[2]) / 1e3 for s in proc["spans"] if s[1] == name]


def _harness_self_us(proc: dict) -> float:
    """Harness span time not covered by its direct children (one thread)."""
    spans = proc["spans"]
    ids = {s[0] for s in spans if s[1] == "harness"}
    children_ns = sum(s[3] - s[2] for s in spans if s[4] in ids)
    return sum(_durations_us(proc, "harness")) - children_ns / 1e3


def layer_metrics(replays: list[list[dict]], walls: dict) -> dict:
    """Per-layer metrics from traced replays; see LAYER_METRICS.

    Each replay holds one traced process per variant. Once-per-process
    times are summed over the variants and the median is taken across
    replays; per-call times are pooled over every call; sizes and counts
    are summed over the variants of the first replay (they repeat exactly).
    """

    def per_replay(fn):
        return statistics.median(sum(fn(proc) for proc in replay) for replay in replays)

    def pooled(name):
        return [v for replay in replays for proc in replay for v in _durations_us(proc, name)]

    def total(name):
        return per_replay(lambda proc: sum(_durations_us(proc, name)))

    later_max_us = [
        v for replay in replays for proc in replay for v in _durations_us(proc, "grid_maximize")[1:]
    ]
    quantile_us = pooled("achieved_precision") or [
        proc["quantile_posthoc_us"] for replay in replays for proc in replay
    ]
    notes = [proc["notes"] for proc in replays[0]]
    tables = [{(g, d) for g, d, _, _ in n["grid_maximize"]} for n in notes]
    estimates = [x for n in notes for x in n["grid_maximize"]]
    draw_us, harness_us = pooled("draw_record"), pooled("harness")
    runs = len(draw_us) // len(replays)
    return {
        "schedules.depths": sum(n["make_plan"][0][1] for n in notes),
        "schedules.build_us": per_replay(lambda proc: proc["schedule_build_us"]),
        "planner.make_plan_us": total("make_plan"),
        "planner.n_shot": sum(n["make_plan"][0][0] for n in notes),
        "planner.grid_size": sum(g for t in tables for g, _ in t),
        "cli.import_s": per_replay(lambda proc: proc["import_s"]),
        "rng.derive_key_us": statistics.median(pooled("derive_key")),
        "rng.substream_us": statistics.median(
            proc["substream_us"] for replay in replays for proc in replay
        ),
        "sampler.draw_us_p50": _p(draw_us, 0.50),
        "sampler.draw_us_p99": _p(draw_us, 0.99),
        "sampler.calls": runs,
        "sampler.depth_draws": sum(d for n in notes for _, d in n["draw_record"]),
        "sampler.share": sum(draw_us) / sum(harness_us),
        "likelihood.first_call_ms": per_replay(
            lambda proc: _durations_us(proc, "grid_maximize")[0]
        ) / 1e3,
        "likelihood.max_us_p50": _p(later_max_us, 0.50),
        "likelihood.max_us_p99": _p(later_max_us, 0.99),
        "likelihood.calls": len(estimates),
        "likelihood.share": sum(pooled("grid_maximize")) / sum(harness_us),
        "likelihood.cells_per_run": sum(g * d for t in tables for g, d in t),
        "likelihood.table_mb": sum(2 * d * g * 8 for t in tables for g, d in t) / 2**20,
        "likelihood.neg_inf": sum(bool(x[3]) for x in estimates),
        "likelihood.edge_hits": sum(x[2] in (0, x[0] - 1) for x in estimates),
        "harness.self_us_per_run": per_replay(_harness_self_us) / runs,
        "harness.pool_eff": total("harness") / 1e6 / (NPROC * walls["untraced"]),
        "harness.tasks": sum(n["harness"][0] for n in notes),
        "harness.workers": NPROC,
        "harness.quantile_us": statistics.median(quantile_us),
        "harness.write_ms": total("write_rows") / 1e3,
        "trace.overhead": statistics.median(walls["traced"]) / walls["one_worker"],
    }


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    walls = {"untraced": 0.0, "one_worker": 0.0, "traced": []}
    reference = {}
    for variant, flags in VARIANTS:
        args = run.experiment_args(flags)
        inv, _ = run.run_cli(variant, args, child_env())
        walls["untraced"] += inv.wall_s
        inv, reference[variant] = run.run_cli(f"{variant}-1w", args, child_env(1))
        walls["one_worker"] += inv.wall_s
    run.check_outputs()
    if run.failures:
        raise BenchError("untraced invocations failed: " + "; ".join(run.failures))

    replays = []
    for _ in _repetitions(start, seconds, 1):
        replay, wall = [], 0.0
        for variant, flags in VARIANTS:
            out = run.work / f"{variant}-traced.csv"
            spans = run.work / f"{variant}-spans.json"
            argv = [sys.executable, str(BENCH_DIR / "replay.py"), str(spans), "--"]
            argv += [*run.experiment_args(flags), "--out", str(out)]
            inv = invoke(argv, child_env(1), run.work / f"{variant}-traced.stdout", run.remaining())
            run.attempted += 1
            if inv.status != 0:
                raise BenchError(f"traced replay of {variant} exited with {inv.status}")
            if out.read_bytes() != reference[variant]:
                raise BenchError(f"traced replay of {variant} wrote different CSV bytes")
            data = json.loads(spans.read_text())
            called = {s[1] for s in data["spans"]}
            missing = [b for b in run.workload.boundaries if b not in called]
            if missing:
                raise BenchError(f"wrapped boundaries recorded zero calls: {missing}")
            wall += inv.wall_s
            replay.append(data)
        walls["traced"].append(wall)
        replays.append(replay)
    return layer_metrics(replays, walls), {"walls": walls, "replays": len(replays)}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            caches[name] = out.stdout.strip() or None
        except OSError:
            caches[name] = None
    return {
        "nproc": NPROC,
        "pinned": THREAD_PINS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "caches": caches,
        "machine": platform.machine(),
    }


def run_benchmark(name: str, seed: int | None, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run; returns the result line's fields plus details."""
    if not (SRC / "amplest" / "__init__.py").is_file():
        raise BenchError(f"no amplest package under {SRC}")
    workload = WORKLOADS[name]
    seed = workload.paper_seed if seed is None else seed
    work = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, smoke, work, time.perf_counter() + RUN_LIMIT_S)

    # Warm-up: compiles bytecode and fills the page cache; not counted.
    argv = [sys.executable, "-m", "amplest", *run.plan_args(())]
    invoke(argv, child_env(), work / "warmup.json", run.remaining())

    if trace:
        values, details = traced(run, seconds)
        units = {k: unit for k, (unit, _) in LAYER_METRICS.items()}
    else:
        values, details = end_to_end(run, seconds)
        units = END_TO_END_UNITS
    run.check_outputs()
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    report = {
        **result,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "failures": run.failures,
        "failed_frac": len(run.failures) / run.attempted,
        "layer_map": {k: moves for k, (_, moves) in LAYER_METRICS.items()} if trace else None,
        "details": details,
        "environment": environment(),
    }
    (work / "result.json").write_text(json.dumps(report, indent=2))
    return report


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the paper seed")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for self-tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for reason in report["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, metric in report["metrics"].items():
        print(f"{report['workload']} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{report['workload']} failed_frac {report['failed_frac']:.6g} fraction")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
