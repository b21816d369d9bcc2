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

Points run in forked worker processes (:func:`_map_points`). With ``w``
workers, child ``k`` inherits the job through ``os.fork`` and computes
points ``k, k + w, ...``; the parent reads each child's pickled share from a
pipe, reaps every child and interleaves the shares back into point order.
An exception raised in a worker reaches the caller with its type and
message; a worker that dies without a result raises ``RuntimeError``. One
worker, fewer than four points, or a platform without ``os.fork`` runs the
points serially in the calling process.

Input is judged once: a bad field is refused, by name, when its
:class:`ExperimentConfig` is built, and an experiment refuses only another
mode's config. Reproducibility contract (see README): run ``r`` of point
``i`` uses the seed ``derive_key(base_seed, MODE_TAGS[mode], i, r)`` and
floats are written with 17 significant digits. ``AMPLEST_THREADS`` caps the
forked worker processes (default: the cores this process may run on); every
run derives its own seed and rows come back in point order, so files are
byte-identical at any worker count.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from numbers import Number, Real
from typing import Iterable, NoReturn, Sequence

import numpy as np

from ._util import ceil_guarded, json_int, positive_real
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
    """Inputs of one harness invocation; a bad field is refused here, by name.

    In every mode ``epsilon`` (< 0.5), ``delta`` (< 1), ``spread_coeff`` and
    ``grid_multiplier`` are finite positive numbers, kept as floats; integer
    fields refuse bools and floats; ``jittered`` is a bool; ``max_depth`` is
    >= 0, or >= 1 when jittered; ``amplitudes`` is a count >= 2 or a non-empty
    list of numbers in [0, 1], resolved once into ``points``; a ``k_index``
    must name an exceptional value even where a list leaves it unused.
    Per mode:

    * ``sweep``: ``runs_per_point`` is 1; no ``n_shot_list`` or ``k_index``.
    * ``precision_curve``: a non-empty ``n_shot_list`` of integers >= 1, kept
      as a tuple; no ``k_index``.
    * ``exceptional_region``: no ``n_shot_list``; a count of amplitudes needs
      a ``k_index`` whose band lies inside [0, 1].
    """

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
    points: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mode = self.mode
        if mode not in ("sweep", "precision_curve", "exceptional_region"):
            raise ValueError(f"unknown experiment mode {mode!r}")
        for name in ("epsilon", "delta", "spread_coeff", "grid_multiplier"):
            object.__setattr__(self, name, positive_real(getattr(self, name), name))
        if not self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if not self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        ints = ["max_depth", "runs_per_point", "base_seed"]
        if self.k_index is not None:
            ints.append("k_index")
        if isinstance(self.amplitudes, Number):
            ints.append("amplitudes")
        for name in ints:  # stored as ints: ``derive_key`` takes no numpy integer
            object.__setattr__(self, name, json_int(getattr(self, name), name))
        if self.runs_per_point < 1:
            raise ValueError("runs_per_point must be at least 1")
        if not isinstance(self.jittered, (bool, np.bool_)):
            raise ValueError(f"jittered must be a bool, got {self.jittered!r}")
        object.__setattr__(self, "jittered", bool(self.jittered))
        if self.max_depth < (1 if self.jittered else 0):
            raise ValueError("max_depth must be at least 0, and 1 when jittered")
        for name, unused in (
            ("runs_per_point", mode == "sweep" and self.runs_per_point != 1),
            ("n_shot_list", mode != "precision_curve" and self.n_shot_list is not None),
            ("k_index", mode != "exceptional_region" and self.k_index is not None),
        ):
            if unused:
                raise ValueError(f"{mode} does not use {name}; leave it unset")
        if mode == "precision_curve":
            shots = self.n_shot_list if isinstance(self.n_shot_list, Iterable) else ()
            shots = tuple(json_int(n, "n_shot_list") for n in shots)
            if not shots:
                raise ValueError("precision_curve needs a non-empty n_shot_list")
            if min(shots) < 1:
                raise ValueError(f"n_shot_list entries must be at least 1: {shots}")
            object.__setattr__(self, "n_shot_list", shots)
        object.__setattr__(self, "points", tuple(_amplitudes(self)))


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
    centers = exceptional_values(config.max_depth)
    needs_k = f"exceptional_region needs k_index in [0, {len(centers) - 1}]"
    if config.k_index is not None and not 0 <= config.k_index < len(centers):
        raise ValueError(needs_k)
    if not isinstance(config.amplitudes, int):
        values = config.amplitudes
        if isinstance(values, str) or not isinstance(values, Iterable):
            raise ValueError(f"amplitudes must be a count or a list, got {values!r}")
        values = list(values)
        if not values:
            raise ValueError("amplitudes must list at least one amplitude")
        for a in values:
            if isinstance(a, bool) or not (isinstance(a, Real) and 0 <= a <= 1):
                raise ValueError(f"amplitudes must lie in [0, 1], got {a!r}")
        return [float(a) for a in values]
    count = config.amplitudes
    if count < 2:
        raise ValueError(f"amplitudes must count at least 2 points, got {count}")
    if config.mode != "exceptional_region":
        return [i / (count - 1) for i in range(count)]
    if config.k_index is None:
        raise ValueError(needs_k)
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
    """What every point of one experiment shares; forked workers inherit it."""

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


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_points: int) -> int:
    """``AMPLEST_THREADS`` (default: usable cores), at most one per point."""
    env = os.environ.get("AMPLEST_THREADS")
    if env is None:
        count = _usable_cores()
    else:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(
                f"AMPLEST_THREADS must be an integer, got {env!r}"
            ) from None
        if count < 1:
            raise ValueError("AMPLEST_THREADS must be at least 1")
    return min(count, n_points)


def _map_points(
    mode: str, job: _Job, points: list[tuple[float, int]]
) -> list[list[tuple[int, float]]]:
    """:func:`_estimates` at each ``(a, n_shot)`` point, serially or in forked workers.

    With ``w`` workers the process forks ``w`` children; child ``k`` inherits
    ``job`` and ``points`` through the fork and computes points ``k, k + w,
    ...``. It pickles ``("ok", estimates)``, or ``("error", exc)`` when
    :func:`_estimates` raised, into its pipe and leaves through ``os._exit``,
    so no atexit handler runs and no inherited stdio buffer is flushed twice.
    The parent reads every pipe to EOF, reaps every child on every path,
    interleaves the shares back into point order and re-raises a worker's
    exception with its type and message; its traceback stays in the worker,
    and ``AMPLEST_THREADS=1`` reproduces it in this process. A worker that
    exits without a result raises :class:`RuntimeError` naming the worker's
    index and exit code.

    The points run serially, in this process, with one worker, below four
    points, or where ``os.fork`` does not exist.
    """
    workers = _worker_count(len(points))
    if workers == 1 or len(points) < 4 or not hasattr(os, "fork"):
        return [_estimates(job, i, a, n_shot) for i, (a, n_shot) in enumerate(points)]
    pids: list[int] = []
    pipes = []
    try:
        for k in range(workers):
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(job, points, k, workers, write)
            finally:
                os.close(write)
            pids.append(pid)
        payloads = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    out: list = [None] * len(points)
    for k, (payload, status) in enumerate(zip(payloads, statuses)):
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not payload:
            raise RuntimeError(
                f"{mode}: worker {k} exited with code {code} while running "
                f"{len(points)} points on {workers} workers; AMPLEST_THREADS=1 "
                "runs the job serially"
            )
        kind, value = pickle.loads(payload)
        if kind == "error":
            raise value
        out[k::workers] = value
    return out


def _worker(
    job: _Job, points: list[tuple[float, int]], k: int, workers: int, write: int
) -> NoReturn:
    """Forked child ``k`` of :func:`_map_points`: pickle its share; never returns."""
    code = 1
    try:
        try:
            share = range(k, len(points), workers)
            result = ("ok", [_estimates(job, i, *points[i]) for i in share])
        except Exception as exc:
            result = ("error", exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)


def _run(config: ExperimentConfig, mode: str) -> list[dict]:
    """Run experiment ``mode`` (see the module docstring); config.mode must match."""
    if config.mode != mode:
        raise ValueError(f"config.mode is {config.mode!r}, expected {mode!r}")
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
        shot_list = config.n_shot_list
        eps_min = _precision_from_shots(max(shot_list), config.delta, plan.schedule)
        grid_size = grid_points(config.grid_multiplier, eps_min)
    else:
        shot_list = [required_shots(config.epsilon, config.delta, plan.schedule)]
    points = [(a, n) for a in config.points for n in shot_list]
    runs = config.runs_per_point
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
