"""Traced single-process replay of one ``amplest`` CLI invocation.

Usage: ``python3 bench/replay.py SPANS_JSON -- <amplest arguments>``

The process imports ``amplest.cli`` (timing the import), wraps the public
lower-layer functions that ``amplest.harness`` calls, runs the command and
writes the spans and boundary counters to SPANS_JSON when it ends. Nothing
inside the package is edited: the wrappers replace module attributes, so
only calls that go through those attributes are seen. Run it with
``AMPLEST_THREADS=1`` so that every call happens in this process.

A span is ``[id, name, start_ns, end_ns, parent_id]``; ``parent_id`` is -1
at the top. After the command returns, three costs that no harness call
isolates are timed here on the command's own inputs: building the
schedule, opening the Philox substreams for the keys ``draw_record`` used,
and (for sweeps, which take no quantile) ``achieved_precision`` over the
written ``abs_err`` column.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from time import perf_counter_ns

# The harness span: the experiment function the CLI calls for each command.
HARNESS_FUNCTIONS = ("sweep_amplitudes", "precision_curve", "exceptional_region_scan")
# Functions imported into ``amplest.harness`` and called through it.
HARNESS_CALLEES = (
    "make_plan",
    "required_shots",
    "derive_key",
    "draw_record",
    "grid_maximize",
    "achieved_precision",
)
SUBSTREAM_SAMPLE = 200
REPEATS = 25


class Tracer:
    """In-memory span log with a parent stack (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [span_id, name, perf_counter_ns(), 0, parent]
            self.spans.append(span)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                self._stack.pop()
            if note is not None:
                self.notes.setdefault(name, []).append(note(args, kwargs, result))
            return result

        return traced


def _median_us(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]

    t0 = time.perf_counter()
    import amplest.cli as cli
    import amplest.harness as harness

    import_s = time.perf_counter() - t0
    from amplest.rng import substream
    from amplest.schedules import exponential_schedule_to_depth, jitter

    tracer = Tracer()
    achieved_precision = harness.achieved_precision
    notes = {
        "make_plan": lambda a, k, r: [r.n_shot, len(r.schedule.depths)],
        "draw_record": lambda a, k, r: [r.seed, len(r.entries)],
        "grid_maximize": lambda a, k, r: [
            r.grid_size,
            len(a[0].entries),
            r.grid_index,
            r.log_likelihood == -math.inf,
        ],
        "harness": lambda a, k, r: len(r),
    }
    for name in HARNESS_CALLEES:
        setattr(harness, name, tracer.wrap(name, getattr(harness, name), notes.get(name)))
    for name in HARNESS_FUNCTIONS:
        setattr(cli, name, tracer.wrap("harness", getattr(cli, name), notes["harness"]))
    cli.write_rows = tracer.wrap("write_rows", cli.write_rows)

    status = cli.main(cli_argv)

    args = cli.build_parser().parse_args(cli_argv)

    def build_schedule():
        schedule = exponential_schedule_to_depth(args.max_depth)
        return jitter(schedule, args.spread_coeff) if args.jitter else schedule

    keys = [
        (seed, j)
        for seed, depths in tracer.notes.get("draw_record", [])[:SUBSTREAM_SAMPLE]
        for j in range(depths)
    ]

    def open_substreams():
        for seed, j in keys:
            substream(seed, j)

    extra = {
        "schedule_build_us": _median_us(build_schedule),
        "substream_us": _median_us(open_substreams, 5) / max(1, len(keys)),
    }
    if "achieved_precision" not in {s[1] for s in tracer.spans}:
        with open(args.out) as f:
            column = f.readline().rstrip("\n").split(",").index("abs_err")
            errors = [float(line.split(",")[column]) for line in f]
        extra["quantile_posthoc_us"] = _median_us(
            lambda: achieved_precision(errors, args.delta)
        )

    with open(spans_path, "w") as f:
        json.dump(
            {
                "status": status,
                "import_s": import_s,
                "spans": tracer.spans,
                "notes": tracer.notes,
                **extra,
            },
            f,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
