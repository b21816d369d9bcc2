"""The top-level ``amplest`` names are the library modules' ``__all__`` lists.

``amplest`` republishes ``likelihood``, ``planner``, ``sampler``,
``schedules`` and ``statevector``, each name loaded on first use, and the
README's library example runs from those names as printed. ``amplest.cli``
finds the names it calls in the same lists, with ``harness``'s.
"""

import ast
import contextlib
import io
import re
import types
from pathlib import Path

import pytest

import amplest
import amplest.cli as cli
from amplest import harness, likelihood, planner, sampler, schedules, statevector

MODULES = (likelihood, planner, sampler, schedules, statevector)
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_is_the_module_object(module):
    for name in module.__all__:
        assert getattr(amplest, name) is getattr(module, name), name


def test_no_other_public_name():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    others = {
        name: value
        for name, value in vars(amplest).items()
        if not name.startswith("_") and name not in listed
    }
    # an imported submodule binds itself on the package
    for name, value in others.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"amplest.{name}"
    assert isinstance(amplest.__version__, str)


def test_no_name_is_listed_by_two_searched_modules():
    # so the order in which the package or the CLI searches them never matters
    owners = {}
    for module in (*MODULES, harness):
        for name in module.__all__:
            assert owners.setdefault(name, module) is module, name


def test_every_name_the_cli_calls_resolves():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_cli"
    }
    assert called == cli._BORROWED
    for name in called:
        assert callable(getattr(cli, name)), name


def test_star_import_and_dir_give_the_listed_names():
    listed = {name for module in MODULES for name in module.__all__}
    namespace = {}
    exec("from amplest import *", namespace)
    assert namespace.keys() - {"__builtins__"} == listed
    assert listed <= set(dir(amplest))


def test_readme_library_example_runs_as_printed():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"## Library example\n.*?```python\n(.*?)```", text, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example.group(1), {})
    shots_and_calls, a_hat = out.getvalue().splitlines()
    assert shots_and_calls == "1267 82385"
    assert abs(float(a_hat) - 0.3) <= 1e-3
