"""Write ``golden.json``: SHA-256 of every workload output at the paper seeds.

Usage (from the repository root): ``python3 bench/make_golden.py``

Covers the ``amplest plan`` output and the experiment CSV of each workload
and variant, at full and smoke sizes. The README's reproducibility contract
makes these bytes a pure function of the flags, so the file is generated
once, at a commit whose outputs are the reference, and then only read.
Every output is checked before it is hashed, against the hashes already in
the file too, so a changed output stops the script instead of being
recorded: start from ``{}`` only when the reference itself moves.
"""

from __future__ import annotations

import json
import shutil
import time

import run as bench


def main() -> None:
    golden = {}
    for workload in bench.WORKLOADS.values():
        for smoke in (False, True):
            work = bench.OUT_DIR / f"golden-{workload.name}-{int(smoke)}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            deadline = time.perf_counter() + bench.RUN_LIMIT_S
            run = bench.Run(workload, workload.paper_seed, smoke, work, deadline)
            for variant, flags in bench.VARIANTS:
                for args in (run.plan_args(flags), run.experiment_args(flags)):
                    _, data = run.run_cli(variant, args, bench.child_env())
                    run.check_outputs()
                    if run.failures:
                        raise SystemExit("; ".join(run.failures))
                    golden[" ".join(args)] = bench.sha256_hex(data)
            shutil.rmtree(work)
    path = bench.BENCH_DIR / "golden.json"
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} hashes to {path}")


if __name__ == "__main__":
    main()
