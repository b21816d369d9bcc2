"""Desk-scale numerical experiments over the estimator, with CSV output.

The three sampling experiments run through one kernel, :func:`_row`: at a
point, an (amplitude, shots) pair, it draws ``runs`` measurement records,
takes each one's grid maximum-likelihood estimate and returns the CSV row.
A ``sweep`` point is one run at the planned shots on an even grid over
[0, 1], and its row keeps the estimate and seed. A ``precision_curve`` row
keeps the (1 - delta)-quantile of absolute error; its points run over
(amplitude, shots) pairs in row-major order. An ``exceptional_region`` scan
is a precision curve at the planned shots over the +-4 epsilon band around
one exceptional value; the band must lie inside [0, 1]. Rows are projected
onto ``CSV_COLUMNS[mode]``. :func:`oracle_validation` checks the closed-form
probability those runs draw from against a dense statevector.

Points run in forked worker processes (:func:`_map_points`). With ``w``
workers, child ``k`` inherits the config through ``os.fork`` and returns
the rows of points ``k, k + w, ...``; the parent reads each child's pickled
rows from a pipe, reaps every child and interleaves them into point order.
An exception raised in a worker reaches the caller with its type and
message; a worker that dies without a result raises ``RuntimeError``. One
worker, fewer than four points, or a platform without ``os.fork`` runs the
points serially in the calling process.

Input is judged once: a bad field is refused, by name, when its
:class:`ExperimentConfig` is built (``make_plan`` judges the planning
fields), and an experiment refuses only another mode's config. The config
holds the plan and the points that the workers read. Reproducibility
contract (see README): run ``r`` of point ``i`` uses the seed
``derive_key(base_seed, MODE_TAGS[mode], i, r)`` and floats are written
with 17 significant digits. ``AMPLEST_THREADS`` caps the forked worker
processes (default: the cores this process may run on); every run derives
its own seed and rows come back in point order, so files are byte-identical
at any worker count.
"""

from __future__ import annotations

import csv
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from numbers import Number
from typing import Iterable, NoReturn, Sequence

from ._util import _MAX_EXACT, ceil_guarded, json_int, unit_real
from .likelihood import grid_maximize
from .planner import (
    Plan,
    _delta,
    _exceptional_value,
    _precision_from_shots,
    grid_points,
    make_plan,
    required_shots,
)
from .rng import derive_key, substream
from .sampler import angle_from_amplitude, draw_record, good_prob
from .schedules import _MAX_DEPTH

__all__ = [
    "MODE_TAGS",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "achieved_precision",
    "sweep_amplitudes",
    "precision_curve",
    "exceptional_region_scan",
    "call_ratio_table",
    "oracle_validation",
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

    :func:`make_plan` judges the six planning fields (``epsilon`` through
    ``grid_multiplier``) in every mode. Two fields are derived, once: the
    ``plan`` the runs use, which holds ``epsilon`` and ``delta`` as floats and
    ``max_depth`` as an int, and the ``points``, each amplitude paired with
    each shot count (the planned shots outside a precision curve).
    ``jittered`` is kept as a bool. The other integer fields refuse bools and
    floats; ``amplitudes`` is a count >= 2 or a non-empty list of numbers in
    [0, 1]; a ``k_index`` must name an exceptional value even where a list
    leaves it unused. A shot count above 2^53, the most shots a measurement
    record holds, is refused before any run, naming ``epsilon`` where the
    shots are planned, and so is a grid of more than 2^53 angles (see
    :func:`grid_points`). Per mode:

    * ``sweep``: ``runs_per_point`` is 1; no ``n_shot_list`` or ``k_index``.
    * ``precision_curve``: a non-empty ``n_shot_list`` of integers >= 1, kept
      as a tuple, whose largest entry sets the plan's grid size; no ``k_index``.
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
    plan: Plan = field(init=False, repr=False, compare=False)
    points: tuple[tuple[float, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mode = self.mode
        if mode not in ("sweep", "precision_curve", "exceptional_region"):
            raise ValueError(f"unknown experiment mode {mode!r}")
        plan = make_plan(
            self.epsilon,
            self.delta,
            self.max_depth,
            jittered=self.jittered,
            spread_coeff=self.spread_coeff,
            grid_multiplier=self.grid_multiplier,
        )
        object.__setattr__(self, "jittered", bool(self.jittered))
        ints = {"runs_per_point": 1, "base_seed": None}
        if self.k_index is not None:
            ints["k_index"] = None
        if isinstance(self.amplitudes, Number):
            ints["amplitudes"] = 2
        for name, least in ints.items():  # ``derive_key`` takes no numpy integer
            object.__setattr__(self, name, json_int(getattr(self, name), name, least))
        for name, unused in (
            ("runs_per_point", mode == "sweep" and self.runs_per_point != 1),
            ("n_shot_list", mode != "precision_curve" and self.n_shot_list is not None),
            ("k_index", mode != "exceptional_region" and self.k_index is not None),
        ):
            if unused:
                raise ValueError(f"{mode} does not use {name}; leave it unset")
        if mode == "precision_curve":
            shots = self.n_shot_list if isinstance(self.n_shot_list, Iterable) else ()
            shots = tuple(json_int(n, "n_shot_list", 1) for n in shots)
            if not shots:
                raise ValueError("precision_curve needs a non-empty n_shot_list")
            object.__setattr__(self, "n_shot_list", shots)
        else:  # bench/replay.py and tests/test_trace_hooks.py count this call
            shots = (required_shots(plan.epsilon, plan.delta, plan.schedule),)
        if max(shots) > _MAX_EXACT:
            source = "n_shot_list" if self.n_shot_list else "epsilon"
            raise ValueError(
                f"{source} gives {max(shots)} shots per depth, above the "
                f"exact-count limit {_MAX_EXACT}"
            )
        if self.n_shot_list:
            eps_min = _precision_from_shots(max(shots), plan.delta, plan.schedule)
            plan = replace(plan, grid_size=grid_points(self.grid_multiplier, eps_min))
        object.__setattr__(self, "plan", plan)
        points = tuple((a, n) for a in _amplitudes(self) for n in shots)
        object.__setattr__(self, "points", points)


def achieved_precision(errors: Sequence[float], delta: float) -> float:
    """Smallest error bound met by at least a (1 - delta) fraction of runs.

    The order statistic at rank ceil((1 - delta) * len(errors)), with no
    interpolation; this is the conservative reading of "achieved with
    probability at least 1 - delta". A NaN or negative error is refused.
    """
    if len(errors) == 0:
        raise ValueError("errors must be non-empty")
    for error in errors:
        if not error >= 0.0:  # NaN compares false
            raise ValueError(f"errors must be non-negative numbers, got {error!r}")
    delta = _delta(delta)
    rank = min(len(errors), max(1, ceil_guarded((1.0 - delta) * len(errors))))
    return sorted(errors)[rank - 1]


def _amplitudes(config: ExperimentConfig) -> list[float]:
    """The configured amplitudes; a count spans [0, 1] or the exceptional band."""
    last_k = 2 * config.plan.max_depth + 1
    needs_k = f"exceptional_region needs k_index in [0, {last_k}]"
    if config.k_index is not None and not 0 <= config.k_index <= last_k:
        raise ValueError(needs_k)
    if not isinstance(config.amplitudes, int):
        values = config.amplitudes
        if isinstance(values, str) or not isinstance(values, Iterable):
            raise ValueError(f"amplitudes must be a count or a list, got {values!r}")
        values = [unit_real(a, "amplitudes") for a in values]
        if not values:
            raise ValueError("amplitudes must list at least one amplitude")
        return values
    count = config.amplitudes
    if config.mode != "exceptional_region":
        return [i / (count - 1) for i in range(count)]
    if config.k_index is None:
        raise ValueError(needs_k)
    center = _exceptional_value(config.plan.max_depth, config.k_index)
    half_width = 4.0 * config.plan.epsilon
    band = [
        center - half_width + i * (2 * half_width) / (count - 1) for i in range(count)
    ]
    if band[0] < 0.0 or band[-1] > 1.0:
        raise ValueError(
            f"k_index {config.k_index}: band [{band[0]!r}, {band[-1]!r}] leaves [0, 1]"
        )
    return band


def _row(config: ExperimentConfig, i: int) -> dict:
    """The CSV row of point ``i``: its runs drawn, maximized and summarized."""
    (a, n_shot), plan, mode = config.points[i], config.plan, config.mode
    errors = []
    for r in range(config.runs_per_point):
        seed = derive_key(config.base_seed, MODE_TAGS[mode], i, r)
        record = draw_record(a, plan.schedule, n_shot, seed)
        a_hat = grid_maximize(record, plan.grid_size).a_hat
        errors.append(abs(a_hat - a))
    row = {"a_true": a, "n_shot": n_shot, "runs": config.runs_per_point}
    if mode == "sweep":  # one run: its seed and estimate are kept
        row.update(seed=seed, a_hat=a_hat, abs_err=errors[0])
    else:
        row["eps_achieved"] = achieved_precision(errors, plan.delta)
    return {c: row[c] for c in CSV_COLUMNS[mode]}


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_points: int) -> int:
    """``AMPLEST_THREADS`` (default: usable cores), at most one per point."""
    env = os.environ.get("AMPLEST_THREADS")
    try:
        count: object = _usable_cores() if env is None else int(env)
    except ValueError:  # json_int refuses the text by name
        count = env
    return min(json_int(count, "AMPLEST_THREADS", 1), n_points)


def _map_points(config: ExperimentConfig) -> list[dict]:
    """:func:`_row` of each of ``config.points``, serially or in forked workers.

    With ``w`` workers the process forks ``w`` children; child ``k`` inherits
    ``config`` through the fork and computes the rows of points ``k, k + w,
    ...``. It pickles ``("ok", rows)``, or ``("error", exc)`` when
    :func:`_row` raised, into its pipe and leaves through ``os._exit``,
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
    n_points = len(config.points)
    workers = _worker_count(n_points)
    if workers == 1 or n_points < 4 or not hasattr(os, "fork"):
        return [_row(config, i) for i in range(n_points)]
    pids: list[int] = []
    pipes = []
    try:
        for k in range(workers):
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(config, range(k, n_points, workers), write)
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
    out: list = [None] * n_points
    for k, (payload, status) in enumerate(zip(payloads, statuses)):
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not payload:
            raise RuntimeError(
                f"{config.mode}: worker {k} exited with code {code} while running "
                f"{n_points} points on {workers} workers; AMPLEST_THREADS=1 "
                "runs the job serially"
            )
        kind, value = pickle.loads(payload)
        if kind == "error":
            raise value
        out[k::workers] = value
    return out


def _worker(config: ExperimentConfig, share: range, write: int) -> NoReturn:
    """Forked child of :func:`_map_points`: pickle its ``share``; never returns."""
    code = 1
    try:
        try:
            result = ("ok", [_row(config, i) for i in share])
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
    return _map_points(config)


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
    d_list = [json_int(d, "d_list", 1, _MAX_DEPTH) for d in d_list]
    if not d_list:
        raise ValueError("d_list must be non-empty")
    rows = []
    for d in d_list:
        plain = make_plan(eps, delta, d).n_calls
        spread = make_plan(eps, delta, d, jittered=True, spread_coeff=c).n_calls
        row = (d, plain, spread, spread / plain)
        rows.append(dict(zip(CSV_COLUMNS["call_ratio"], row)))
    return rows


def oracle_validation(qubits: int, trials: int, max_power: int, seed: int) -> dict:
    """Largest gap of ``statevector.grover_power_probs`` from ``good_prob`` over
    powers 0..``max_power``, all inputs judged first; trial ``t`` on ``n`` qubits
    draws from ``substream(seed, MODE_TAGS["oracle_validation"], n, t)``, and
    its one state is stepped through the powers."""
    from .statevector import MAX_QUBITS, StatePrep, grover_power_probs
    qubits = json_int(qubits, "qubits", 1, MAX_QUBITS)
    trials = json_int(trials, "trials", 1)
    max_power = json_int(max_power, "max_power", 0)
    seed = json_int(seed, "seed")
    worst = 0.0
    for n in range(1, qubits + 1):
        dim = 1 << n
        for trial in range(trials):
            rng = substream(seed, MODE_TAGS["oracle_validation"], n, trial)
            good = frozenset(rng.choice(dim, rng.integers(1, dim), replace=False))
            a = float(rng.uniform(0.0, 1.0))
            sp, theta = StatePrep(n, good, a), angle_from_amplitude(a)
            for d, p in enumerate(grover_power_probs(sp, max_power)):
                worst = max(worst, abs(p - good_prob(theta, d)))
    return {"max_abs_deviation": worst, "cases": qubits * trials * (max_power + 1)}


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
