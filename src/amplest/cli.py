"""Command-line interface: planning, single estimates, and experiment sweeps."""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING

from . import _find

if TYPE_CHECKING:
    from .planner import Plan

# The library names the handlers call, and only those, are found on first use
# in these modules' __all__ (PEP 562) and then kept on this module, so a
# command loads only what it runs: ``plan`` and ``exceptional`` stop at the
# planner, and no command searches the statevector. Any other name is refused
# before a module loads. Handlers read the names through ``_cli``, so a name
# replaced on the module is the one they call.
_LIBRARY = ("planner", "sampler", "likelihood", "harness")
_BORROWED = frozenset(
    "make_plan draw_record grid_maximize ExperimentConfig sweep_amplitudes "
    "precision_curve exceptional_region_scan write_rows exceptional_values "
    "call_ratio_table oracle_validation".split()
)
_cli = sys.modules[__name__]


def __getattr__(name: str) -> object:
    # any other name searches no module, so _find refuses it at once
    modules = _LIBRARY if name in _BORROWED else ()
    value = globals()[name] = _find(name, modules, __name__)
    return value


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _add_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--jitter", action="store_true")
    p.add_argument("--spread-coeff", type=float, default=2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amplest",
        description="Maximum-likelihood amplitude estimation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print a resource plan as JSON")
    _add_plan_args(p)
    p.add_argument("--grid-multiplier", type=float, default=3.0)

    p = sub.add_parser("estimate", help="simulate one run and print the estimate")
    _add_plan_args(p)
    p.add_argument("--amplitude", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--record", help="also write the measurement record JSON here")

    p = sub.add_parser("sweep", help="one run per amplitude over an even grid")
    _add_plan_args(p)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("precision-curve", help="error quantile vs shot count")
    _add_plan_args(p)
    p.add_argument("--amplitudes", type=_float_list, required=True)
    p.add_argument("--shots", type=_int_list, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("exceptional", help="list exceptional amplitudes as JSON")
    p.add_argument("--max-depth", type=int, required=True)

    p = sub.add_parser(
        "exceptional-region", help="error quantile across one exceptional band"
    )
    _add_plan_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--grid-multiplier", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("call-ratio", help="jittered vs plain call counts")
    p.add_argument("--depths", type=_int_list, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--spread-coeff", type=float, default=2.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "validate-oracle", help="statevector check of the closed-form probability"
    )
    p.add_argument("--qubits", type=int, default=4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--max-power", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _plan(args: argparse.Namespace, **extra: float) -> Plan:
    return _cli.make_plan(
        args.epsilon,
        args.delta,
        args.max_depth,
        jittered=args.jitter,
        spread_coeff=args.spread_coeff,
        **extra,
    )


def _cmd_plan(args: argparse.Namespace) -> None:
    plan = _plan(args, grid_multiplier=args.grid_multiplier)
    print(json.dumps(plan.to_dict(), indent=2))


def _cmd_estimate(args: argparse.Namespace) -> None:
    plan = _plan(args)
    record = _cli.draw_record(args.amplitude, plan.schedule, plan.n_shot, args.seed)
    # a record the maximizer refuses is not written
    estimate = _cli.grid_maximize(record, plan.grid_size)
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record.to_dict(), f, indent=2)
    print(json.dumps(estimate.to_dict(), indent=2))


# flags named unlike their ExperimentConfig field (scripts read the dests)
_FIELD_NAMES = {
    "jitter": "jittered",
    "points": "amplitudes",
    "runs": "runs_per_point",
    "shots": "n_shot_list",
    "k": "k_index",
    "seed": "base_seed",
}


def _cmd_experiment(args: argparse.Namespace) -> None:
    mode = args.command.replace("-", "_")
    fields = {
        _FIELD_NAMES.get(flag, flag): value
        for flag, value in vars(args).items()
        if flag not in ("command", "out")
    }
    experiment = {
        "sweep": _cli.sweep_amplitudes,
        "precision_curve": _cli.precision_curve,
        "exceptional_region": _cli.exceptional_region_scan,
    }[mode]
    config = _cli.ExperimentConfig(mode=mode, **fields)
    _cli.write_rows(args.out, mode, experiment(config))


def _cmd_exceptional(args: argparse.Namespace) -> None:
    print(json.dumps(_cli.exceptional_values(args.max_depth)))


def _cmd_call_ratio(args: argparse.Namespace) -> None:
    rows = _cli.call_ratio_table(
        args.depths, args.epsilon, args.delta, args.spread_coeff
    )
    _cli.write_rows(args.out, "call_ratio", rows)


def _cmd_validate_oracle(args: argparse.Namespace) -> None:
    report = _cli.oracle_validation(args.qubits, args.trials, args.max_power, args.seed)
    print(json.dumps(report))


_COMMANDS = {
    "plan": _cmd_plan,
    "estimate": _cmd_estimate,
    "sweep": _cmd_experiment,
    "precision-curve": _cmd_experiment,
    "exceptional": _cmd_exceptional,
    "exceptional-region": _cmd_experiment,
    "call-ratio": _cmd_call_ratio,
    "validate-oracle": _cmd_validate_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("out", "record"):
        path = getattr(args, flag, None) or ""
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            parser.error(f"--{flag}: directory {folder!r} does not exist")
        if os.path.isdir(path):
            parser.error(f"--{flag}: {path!r} is a directory")
    try:
        _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # bad input or a failed write reads like argparse's own errors: one
        # line, exit code 2
        parser.error(str(exc))
    return 0


def process_main() -> int:
    """Entry point of an ``amplest`` process: ``python -m amplest`` and the
    ``amplest`` script.

    Runs :func:`main`, then moves every object the garbage collector tracks
    (~22k, mostly numpy's and the package's) into its permanent generation,
    so that the interpreter's collections at exit pass them over. Only the
    process ends here; :func:`main` is also called in-process.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(process_main())
