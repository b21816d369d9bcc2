"""Command-line interface: planning, single estimates, and experiment sweeps."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    MODE_TAGS,
    ExperimentConfig,
    call_ratio_table,
    exceptional_region_scan,
    precision_curve,
    sweep_amplitudes,
    write_rows,
)
from .likelihood import grid_maximize
from .planner import Plan, exceptional_values, make_plan
from .rng import substream
from .sampler import angle_from_amplitude, draw_record, good_prob
from .statevector import StatePrep, grover_power_prob


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
    return make_plan(
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
    record = draw_record(args.amplitude, plan.schedule, plan.n_shot, args.seed)
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record.to_dict(), f, indent=2)
    estimate = grid_maximize(record, plan.grid_size)
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
    # looked up on each call, so replacing a module attribute is seen here
    experiment = {
        "sweep": sweep_amplitudes,
        "precision_curve": precision_curve,
        "exceptional_region": exceptional_region_scan,
    }[mode]
    write_rows(args.out, mode, experiment(ExperimentConfig(mode=mode, **fields)))


def _cmd_exceptional(args: argparse.Namespace) -> None:
    print(json.dumps(exceptional_values(args.max_depth)))


def _cmd_call_ratio(args: argparse.Namespace) -> None:
    rows = call_ratio_table(args.depths, args.epsilon, args.delta, args.spread_coeff)
    write_rows(args.out, "call_ratio", rows)


def _cmd_validate_oracle(args: argparse.Namespace) -> None:
    worst = 0.0
    cases = 0
    tag = MODE_TAGS["oracle_validation"]
    for n in range(1, args.qubits + 1):
        dim = 1 << n
        for trial in range(args.trials):
            rng = substream(args.seed, tag, n, trial)
            size = int(rng.integers(1, dim))
            good = frozenset(int(i) for i in rng.choice(dim, size=size, replace=False))
            a = float(rng.uniform(0.0, 1.0))
            sp = StatePrep(n_qubits=n, good_set=good, amplitude=a)
            theta = angle_from_amplitude(a)
            for power in range(args.max_power + 1):
                simulated = grover_power_prob(sp, power)
                expected = good_prob(theta, power)
                worst = max(worst, abs(simulated - expected))
                cases += 1
    print(json.dumps({"max_abs_deviation": worst, "cases": cases}))


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
    args = build_parser().parse_args(argv)
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
