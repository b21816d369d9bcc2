"""Desk-scale numerical experiments over the estimator, with CSV output.

Four experiment modes are provided. Each returns a list of row dicts and is
a pure function of its configuration, so re-running writes byte-identical
files at any worker count:

* ``sweep``: one estimation run per amplitude over an even grid of
  amplitudes; columns ``a_true, a_hat, abs_err, seed``.
* ``precision_curve``: the (1 - delta)-quantile of absolute error versus
  the number of shots; columns ``a_true, n_shot, eps_achieved, runs``.
* ``exceptional_region``: the same quantile scanned across a narrow band
  of amplitudes around one exceptional value; columns
  ``a_true, eps_achieved, runs``.
* ``call_ratio``: deterministic jittered/unjittered call-count ratios;
  columns ``d, n_calls, n_calls_jittered, ratio``.

Reproducibility contract: the seed of run ``r`` at point ``i`` is
``derive_key(base_seed, mode_tag, i, r)`` (see :mod:`amplest.rng`), with
mode tags sweep=1, precision_curve=2, exceptional_region=3, oracle
validation=4. For ``precision_curve`` the point index runs over
(amplitude, shots) pairs in row-major order. Floats are written with 17
significant digits. The environment variable ``AMPLEST_THREADS`` caps the
worker count (default: all cores); points are distributed across workers
but every row is computed from its pre-derived seed and written in point
order, so the output does not depend on scheduling.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ._util import ceil_guarded
from .likelihood import grid_maximize
from .planner import (
    erfinv,
    exceptional_values,
    make_plan,
    required_shots,
    total_calls,
)
from .rng import derive_key
from .sampler import draw_record
from .schedules import Schedule, exponential_schedule_to_depth, info_weight, jitter

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
    out_path: str | None = None

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


def _plan_schedule(config: ExperimentConfig) -> Schedule:
    plan = make_plan(
        config.epsilon,
        config.delta,
        config.max_depth,
        jittered=config.jittered,
        spread_coeff=config.spread_coeff,
    )
    return plan.schedule


def _amplitude_grid(config: ExperimentConfig) -> list[float]:
    if isinstance(config.amplitudes, int):
        count = config.amplitudes
        if count < 2:
            raise ValueError("an amplitude count must be at least 2")
        return [i / (count - 1) for i in range(count)]
    return [float(a) for a in config.amplitudes]


def _precision_from_shots(n_shot: int, delta: float, schedule: Schedule) -> float:
    """Precision the planner would pair with ``n_shot`` (worst-case amplitude)."""
    return erfinv(1.0 - delta) / (info_weight(schedule) * math.sqrt(2.0 * n_shot))


# Worker payloads are module-level functions over plain tuples so they can
# cross a process boundary.


def _one_estimate(
    a: float, schedule: Schedule, n_shot: int, grid_size: int, seed: int
) -> float:
    record = draw_record(a, schedule, n_shot, seed)
    return grid_maximize(record, grid_size).a_hat


def _sweep_point(args: tuple) -> dict:
    a, seed, schedule, n_shot, grid_size = args
    a_hat = _one_estimate(a, schedule, n_shot, grid_size, seed)
    return {"a_true": a, "a_hat": a_hat, "abs_err": abs(a_hat - a), "seed": seed}


def _quantile_point(args: tuple) -> dict:
    a, n_shot, schedule, grid_size, runs, delta, base_seed, tag, point_idx = args
    errors = []
    for r in range(runs):
        seed = derive_key(base_seed, tag, point_idx, r)
        a_hat = _one_estimate(a, schedule, n_shot, grid_size, seed)
        errors.append(abs(a_hat - a))
    return {
        "a_true": a,
        "n_shot": n_shot,
        "eps_achieved": achieved_precision(errors, delta),
        "runs": runs,
    }


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


def _map_points(fn: Callable[[tuple], dict], tasks: list[tuple]) -> list[dict]:
    workers = _worker_count()
    if workers == 1 or len(tasks) < 4:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def sweep_amplitudes(config: ExperimentConfig) -> list[dict]:
    """One estimation run per amplitude on an even grid over [0, 1]."""
    schedule = _plan_schedule(config)
    n_shot = required_shots(config.epsilon, config.delta, schedule)
    grid_size = max(2, ceil_guarded(config.grid_multiplier / config.epsilon))
    tag = MODE_TAGS["sweep"]
    tasks = [
        (a, derive_key(config.base_seed, tag, i, 0), schedule, n_shot, grid_size)
        for i, a in enumerate(_amplitude_grid(config))
    ]
    return _map_points(_sweep_point, tasks)


def precision_curve(config: ExperimentConfig) -> list[dict]:
    """Error quantile versus shot count for each configured amplitude.

    The angle grid is fixed across all points at ``grid_multiplier /
    eps_min`` entries, with ``eps_min`` the precision the planner pairs
    with the largest shot count in the list.
    """
    if not config.n_shot_list:
        raise ValueError("precision_curve needs a non-empty n_shot_list")
    schedule = _plan_schedule(config)
    eps_min = _precision_from_shots(max(config.n_shot_list), config.delta, schedule)
    grid_size = max(2, ceil_guarded(config.grid_multiplier / eps_min))
    tag = MODE_TAGS["precision_curve"]
    tasks = []
    point_idx = 0
    for a in _amplitude_grid(config):
        for n_shot in config.n_shot_list:
            tasks.append(
                (
                    a,
                    int(n_shot),
                    schedule,
                    grid_size,
                    config.runs_per_point,
                    config.delta,
                    config.base_seed,
                    tag,
                    point_idx,
                )
            )
            point_idx += 1
    return _map_points(_quantile_point, tasks)


def exceptional_region_scan(config: ExperimentConfig) -> list[dict]:
    """Error quantile across a +-4 epsilon band around one exceptional value."""
    if isinstance(config.amplitudes, int):
        if config.k_index is None:
            raise ValueError("exceptional_region needs k_index to place the band")
        centers = exceptional_values(config.max_depth)
        if not 0 <= config.k_index < len(centers):
            raise ValueError(f"k_index outside [0, {len(centers) - 1}]")
        center = centers[config.k_index]
        count = config.amplitudes
        if count < 2:
            raise ValueError("exceptional_region needs at least 2 scan points")
        half_width = 4.0 * config.epsilon
        amplitudes = [
            min(1.0, max(0.0, center - half_width + i * (2 * half_width) / (count - 1)))
            for i in range(count)
        ]
    else:
        amplitudes = [float(a) for a in config.amplitudes]
    schedule = _plan_schedule(config)
    n_shot = required_shots(config.epsilon, config.delta, schedule)
    grid_size = max(2, ceil_guarded(config.grid_multiplier / config.epsilon))
    tag = MODE_TAGS["exceptional_region"]
    tasks = [
        (
            a,
            n_shot,
            schedule,
            grid_size,
            config.runs_per_point,
            config.delta,
            config.base_seed,
            tag,
            i,
        )
        for i, a in enumerate(amplitudes)
    ]
    rows = _map_points(_quantile_point, tasks)
    return [
        {"a_true": r["a_true"], "eps_achieved": r["eps_achieved"], "runs": r["runs"]}
        for r in rows
    ]


def call_ratio_table(
    d_list: Sequence[int], eps: float, delta: float, c: float
) -> list[dict]:
    """Jittered versus unjittered call counts per maximum depth; no sampling."""
    if not d_list:
        raise ValueError("d_list must be non-empty")
    rows = []
    for d in d_list:
        plain = exponential_schedule_to_depth(d)
        spread = jitter(plain, c)
        n_plain = required_shots(eps, delta, plain)
        n_spread = required_shots(eps, delta, spread)
        calls_plain = total_calls(plain, n_plain)
        calls_spread = total_calls(spread, n_spread)
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
