"""What an ``amplest`` process loads, and how it ends.

A command imports only the modules it runs; importing the entry point, or
probing the package or the CLI for a dunder name, imports no library module.
A whole process (``python -m amplest`` or the ``amplest`` script) freezes the
objects the garbage collector tracks once its command has returned, so that the
collection at interpreter exit passes them over. Neither may change a byte
of what the command prints or writes, nor its exit code.
"""

import gc
import os
import subprocess
import sys

import pytest

from amplest.cli import main

PLAN = ["plan", "--max-depth", "16", "--epsilon", "1e-3", "--jitter"]
EXCEPTIONAL = ["exceptional", "--max-depth", "3"]
ESTIMATE = ["estimate", "--max-depth", "8", "--epsilon", "1e-2", "--amplitude", "0.3"]
ESTIMATE += ["--seed", "4", "--record", "record.json"]
SWEEP = ["sweep", "--max-depth", "4", "--epsilon", "1e-2", "--points", "9"]
SWEEP += ["--out", "sweep.csv"]
# every module a planning command has no use for
NOT_FOR_PLANNING = {
    "amplest.harness",
    "amplest.likelihood",
    "amplest.sampler",
    "amplest.rng",
    "amplest.statevector",
    "numpy.random",
}


def _python(*args, **kwargs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, **kwargs
    )


def _imported(*args, cwd):
    """Every module the command's process imports, by ``-X importtime``."""
    result = _python("-X", "importtime", "-m", "amplest", *args, cwd=cwd, text=True)
    assert result.returncode == 0, result.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and not line.endswith("imported package")
    }


class TestWhatEachCommandLoads:
    @pytest.mark.parametrize("args", [PLAN, EXCEPTIONAL], ids=["plan", "exceptional"])
    def test_planning_loads_no_experiment_module(self, args, tmp_path):
        imported = _imported(*args, cwd=tmp_path)
        assert "amplest.planner" in imported
        assert not imported & NOT_FOR_PLANNING

    def test_an_experiment_loads_no_statevector(self, tmp_path):
        imported = _imported(*SWEEP, cwd=tmp_path)
        assert {"amplest.harness", "amplest.likelihood", "numpy.random"} <= imported
        assert "amplest.statevector" not in imported

    def test_the_oracle_check_loads_the_statevector(self, tmp_path):
        args = ["validate-oracle", "--qubits", "2", "--trials", "2"]
        imported = _imported(*args, cwd=tmp_path)
        assert {"amplest.harness", "amplest.statevector"} <= imported


def _run(code, cwd):
    """What ``code`` prints in a fresh process."""
    return _python("-c", code, cwd=cwd, text=True, check=True).stdout


# ``code`` after importing the package and the CLI, then the modules it loaded
_AFTER_IMPORT = """
import sys
import amplest, amplest.cli as cli
before = set(sys.modules)
{code}
print(sorted(set(sys.modules) - before))
"""


class TestLazyNames:
    @pytest.mark.parametrize("owner", ["amplest", "cli"])
    def test_a_dunder_probe_loads_nothing(self, owner, tmp_path):
        # as inspect.unwrap and doctest probe; the import system probes
        # __path__ the same way for every ``from amplest.cli import ...``
        code = f"assert not hasattr({owner}, '__wrapped__')"
        assert _run(_AFTER_IMPORT.format(code=code), tmp_path) == "[]\n"

    def test_importing_the_entry_point_loads_no_library_module(self, tmp_path):
        code = (
            "import sys; from amplest.cli import main; "
            "print(sorted(m for m in sys.modules if m.startswith('amplest')))"
        )
        assert _run(code, tmp_path) == "['amplest', 'amplest.cli']\n"

    def test_an_unknown_name_is_refused_by_the_cli_module(self, tmp_path):
        code = "try:\n    cli.no_such_name\nexcept AttributeError as e:\n    print(e)"
        printed = _run(_AFTER_IMPORT.format(code=code), tmp_path).splitlines()[0]
        assert printed == "module 'amplest.cli' has no attribute 'no_such_name'"


class TestProcessEnd:
    @pytest.mark.parametrize(
        "args",
        [PLAN, EXCEPTIONAL, ESTIMATE, SWEEP],
        ids=["plan", "exceptional", "estimate", "sweep"],
    )
    def test_process_prints_and_writes_what_main_does(
        self, args, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(args) == 0
        printed = capsys.readouterr().out.encode()
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for path in tmp_path.iterdir():
            path.unlink()
        result = _python("-m", "amplest", *args, cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout == printed
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written

    def test_the_process_freezes_its_objects_and_main_does_not(self, tmp_path):
        frozen = gc.get_freeze_count()
        main(EXCEPTIONAL)
        assert gc.get_freeze_count() == frozen
        code = (
            "import gc, sys; from amplest.cli import process_main; "
            f"sys.argv[1:] = {EXCEPTIONAL!r}; "
            "status = process_main(); print(status, gc.get_freeze_count())"
        )
        result = _python("-c", code, cwd=tmp_path, text=True, check=True)
        status, count = map(int, result.stdout.splitlines()[-1].split())
        assert status == 0 and count > 10_000
