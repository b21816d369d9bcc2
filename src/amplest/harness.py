"""Desk-scale numerical experiments over the estimator, with CSV output.

The three sampling experiments run through one kernel, :func:`_run`. At each
point, an (amplitude, shots) pair, it draws ``runs`` measurement records and
takes each record's grid maximum-likelihood estimate. A ``sweep`` point is
one run at the planned shots on an even grid over [0, 1], and its row keeps
the estimate and seed. A ``precision_curve`` row keeps the (1 - delta)-
quantile of absolute error; its points run over (amplitude, shots) pairs in
row-major order. An ``exceptional_region`` scan is a precision curve at the
planned shots over the +-4 epsilon band around one exceptional value; the
band must lie inside [0, 1]. Rows are projected onto ``CSV_COLUMNS[mode]``.

Reproducibility contract (see README): run ``r`` of point ``i`` uses the
seed ``derive_key(base_seed, MODE_TAGS[mode], i, r)`` and floats are written
with 17 significant digits. ``AMPLEST_THREADS`` caps the worker count
(default: all cores); every run derives its own seed and rows come back in
point order, so files are byte-identical at any worker count.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from ._util import ceil_guarded
from .likelihood import grid_maximize
from .planner import (
    erfinv,
    exceptional_values,
    grid_points,
    make_plan,
    required_shots,
)
from .rng import derive_key
from .sampler import draw_record
from .schedules import Schedule, info_weight

__all__ = [
    "MODE_TAGS",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "achieved_precision",
    "sweep_amplitudes",
    "precision_curve",
    "exceptional_region_scan",
    "call_ratio_table",
    "write_rows",
]

MODE_TAGS = {
    "sweep": 1,
    "precision_curve": 2,
    "exceptional_region": 3,
    "oracle_validation": 4,
}

CSV_COLUMNS = {
    "sweep": ("a_true", "a_hat", "abs_err", "seed"),
    "precision_curve": ("a_true", "n_shot", "eps_achieved", "runs"),
    "exceptional_region": ("a_true", "eps_achieved", "runs"),
    "call_ratio": ("d", "n_calls", "n_calls_jittered", "ratio"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one harness invocation."""

    mode: str
    epsilon: float = 1e-3
    delta: float = 0.01
    max_depth: int = 16
    jittered: bool = False
    spread_coeff: float = 2.0
    grid_multiplier: float = 3.0
    amplitudes: Sequence[float] | int = 0
    runs_per_point: int = 1
    n_shot_list: Sequence[int] | None = None
    k_index: int | None = None
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("sweep", "precision_curve", "exceptional_region"):
            raise ValueError(f"unknown experiment mode {self.mode!r}")
        if not 0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.runs_per_point < 1:
            raise ValueError("runs_per_point must be at least 1")
        if not isinstance(self.amplitudes, int):
            if any(not 0 <= a <= 1 for a in self.amplitudes):
                raise ValueError("amplitudes must lie in [0, 1]")


def achieved_precision(errors: Sequence[float], delta: float) -> float:
    """Smallest error bound met by at least a (1 - delta) fraction of runs.

    The order statistic at rank ceil((1 - delta) * len(errors)), with no
    interpolation; this is the conservative reading of "achieved with
    probability at least 1 - delta".
    """
    if len(errors) == 0:
        raise ValueError("errors must be non-empty")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    rank = min(len(errors), max(1, ceil_guarded((1.0 - delta) * len(errors))))
    return sorted(errors)[rank - 1]


def _precision_from_shots(n_shot: int, delta: float, schedule: Schedule) -> float:
    """Precision the planner would pair with ``n_shot`` (worst-case amplitude)."""
    return erfinv(1.0 - delta) / (info_weight(schedule) * math.sqrt(2.0 * n_shot))


def _amplitudes(config: ExperimentConfig) -> list[float]:
    """The configured amplitudes; a count spans [0, 1] or the exceptional band."""
    if not isinstance(config.amplitudes, int):
        return [float(a) for a in config.amplitudes]
    count = config.amplitudes
    if count < 2:
        raise ValueError("an amplitude count must be at least 2")
    if config.mode != "exceptional_region":
        return [i / (count - 1) for i in range(count)]
    centers = exceptional_values(config.max_depth)
    if config.k_index is None or not 0 <= config.k_index < len(centers):
        raise ValueError(f"exceptional_region needs k_index in [0, {len(centers) - 1}]")
    center = centers[config.k_index]
    half_width = 4.0 * config.epsilon
    band = [
        center - half_width + i * (2 * half_width) / (count - 1) for i in range(count)
    ]
    if band[0] < 0.0 or band[-1] > 1.0:
        raise ValueError(
            f"k_index {config.k_index}: band [{band[0]!r}, {band[-1]!r}] leaves [0, 1]"
        )
    return band


@dataclass(frozen=True)
class _Job:
    """What every point of one experiment shares; sent to each worker chunk."""

    schedule: Schedule
    grid_size: int
    runs: int
    base_seed: int
    tag: int


def _estimates(job: _Job, i: int, a: float, n_shot: int) -> list[tuple[int, float]]:
    """``(seed, a_hat)`` of each run at point ``i``: amplitude a, n_shot shots."""
    out = []
    for r in range(job.runs):
        seed = derive_key(job.base_seed, job.tag, i, r)
        record = draw_record(a, job.schedule, n_shot, seed)
        out.append((seed, grid_maximize(record, job.grid_size).a_hat))
    return out


def _worker_count() -> int:
    env = os.environ.get("AMPLEST_THREADS")
    if env is not None:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(
                f"AMPLEST_THREADS must be an integer, got {env!r}"
            ) from None
        if count < 1:
            raise ValueError("AMPLEST_THREADS must be at least 1")
        return count
    return os.cpu_count() or 1


def _map_points(
    mode: str, job: _Job, points: list[tuple[float, int]]
) -> list[list[tuple[int, float]]]:
    """:func:`_estimates` at each ``(a, n_shot)`` point, serially or in a pool."""
    estimate = partial(_estimates, job)
    columns = (range(len(points)), *zip(*points))
    workers = _worker_count()
    if workers == 1 or len(points) < 4:
        return list(map(estimate, *columns))
    # imported here: the pool module is a measurable share of CLI start-up
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    chunk = max(1, len(points) // (workers * 4))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(estimate, *columns, chunksize=chunk))
    except BrokenProcessPool as exc:
        raise RuntimeError(
            f"{mode}: a worker process died while running {len(points)} points "
            f"on {workers} workers; AMPLEST_THREADS=1 runs the job serially"
        ) from exc


def _run(config: ExperimentConfig, mode: str) -> list[dict]:
    """Run experiment ``mode`` (see the module docstring); config.mode must match."""
    if config.mode != mode:
        raise ValueError(f"config.mode is {config.mode!r}, expected {mode!r}")
    if mode == "precision_curve" and not config.n_shot_list:
        raise ValueError("precision_curve needs a non-empty n_shot_list")
    plan = make_plan(
        config.epsilon,
        config.delta,
        config.max_depth,
        jittered=config.jittered,
        spread_coeff=config.spread_coeff,
        grid_multiplier=config.grid_multiplier,
    )
    grid_size = plan.grid_size
    if mode == "precision_curve":
        shot_list = [int(n) for n in config.n_shot_list]
        eps_min = _precision_from_shots(max(shot_list), config.delta, plan.schedule)
        grid_size = grid_points(config.grid_multiplier, eps_min)
    else:
        shot_list = [required_shots(config.epsilon, config.delta, plan.schedule)]
    points = [(a, n) for a in _amplitudes(config) for n in shot_list]
    runs = 1 if mode == "sweep" else config.runs_per_point
    job = _Job(plan.schedule, grid_size, runs, config.base_seed, MODE_TAGS[mode])
    rows = []
    for (a, n_shot), estimates in zip(points, _map_points(mode, job, points)):
        row = {"a_true": a, "n_shot": n_shot, "runs": runs}
        if mode == "sweep":
            row["seed"], row["a_hat"] = estimates[0]
            row["abs_err"] = abs(row["a_hat"] - a)
        else:
            errors = [abs(a_hat - a) for _, a_hat in estimates]
            row["eps_achieved"] = achieved_precision(errors, config.delta)
        rows.append({c: row[c] for c in CSV_COLUMNS[mode]})
    return rows


def sweep_amplitudes(config: ExperimentConfig) -> list[dict]:
    """One estimation run per amplitude on an even grid over [0, 1]."""
    return _run(config, "sweep")


def precision_curve(config: ExperimentConfig) -> list[dict]:
    """Error quantile versus shot count for each configured amplitude.

    The angle grid is fixed across all points at ``grid_multiplier /
    eps_min`` entries, with ``eps_min`` the precision the planner pairs
    with the largest shot count in the list.
    """
    return _run(config, "precision_curve")


def exceptional_region_scan(config: ExperimentConfig) -> list[dict]:
    """Error quantile over the +-4 epsilon band (in [0, 1]) of an exceptional value."""
    return _run(config, "exceptional_region")


def call_ratio_table(
    d_list: Sequence[int], eps: float, delta: float, c: float
) -> list[dict]:
    """Jittered versus unjittered call counts per maximum depth; no sampling."""
    if not d_list:
        raise ValueError("d_list must be non-empty")
    rows = []
    for d in d_list:
        calls_plain = make_plan(eps, delta, d).n_calls
        calls_spread = make_plan(eps, delta, d, jittered=True, spread_coeff=c).n_calls
        rows.append(
            {
                "d": d,
                "n_calls": calls_plain,
                "n_calls_jittered": calls_spread,
                "ratio": calls_spread / calls_plain,
            }
        )
    return rows


def write_rows(path: str, mode: str, rows: Iterable[dict]) -> None:
    """Write rows as CSV with the mode's column order; floats get 17 digits."""
    columns = CSV_COLUMNS[mode]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)
