"""The traced replay in ``bench/replay.py`` must see every layer it wraps.

The replay replaces module attributes of ``amplest.cli`` and
``amplest.harness``, so a call that stops going through one of them (say, a
table built at import that captures an experiment function) would leave its
layer blind without failing any other test. Each command runs in one
process, with ``AMPLEST_THREADS=1``, on a tiny input.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("replay", ROOT / "bench" / "replay.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

CALLEES = {*replay.HARNESS_CALLEES, "harness", "write_rows"}

COMMANDS = {
    "sweep --max-depth 4 --epsilon 1e-2 --points 5 --seed 1": CALLEES
    - {"achieved_precision"},
    "precision-curve --max-depth 4 --epsilon 1e-2 --amplitudes 0.3 --shots 16,32 "
    "--runs 3 --seed 1": CALLEES - {"required_shots"},
    "exceptional-region --max-depth 4 --epsilon 1e-2 --k 4 --points 4 --runs 3 "
    "--seed 1": CALLEES,
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_wrapped_boundary_records_calls(command, tmp_path):
    spans_path = tmp_path / "spans.json"
    env = {
        **os.environ,
        "AMPLEST_THREADS": "1",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path]),
    }
    subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "replay.py"),
            str(spans_path),
            "--",
            *command.split(),
            "--out",
            str(tmp_path / "out.csv"),
        ],
        check=True,
        env=env,
        cwd=tmp_path,
    )
    trace = json.loads(spans_path.read_text())
    assert trace["status"] == 0
    seen = {span[1] for span in trace["spans"]}
    assert COMMANDS[command] <= seen, f"no calls recorded: {COMMANDS[command] - seen}"
