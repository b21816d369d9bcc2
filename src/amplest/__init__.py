"""Maximum-likelihood quantum amplitude estimation via closed-form statistics.

The package covers the full desk-scale workflow: building Grover-depth
schedules (including depth jittering), budgeting shots and oracle calls for
a target precision, simulating measurement records, locating the
maximum-likelihood amplitude on an angle grid, and running reproducible
numerical experiments from the command line.

The top-level names are exactly the ``__all__`` lists of ``likelihood``,
``planner``, ``sampler``, ``schedules`` and ``statevector``, republished
here, so each module's ``__all__`` is the one statement of its public API.
They load on first use: ``import amplest`` imports none of the modules.
:func:`_find` is the one search for such a name; ``amplest.cli`` finds its
library names through it too. A dunder name is never searched for, so a
probe such as ``hasattr(amplest, "__wrapped__")`` imports nothing. The
experiment harness and the CLI stay in ``amplest.harness`` and
``amplest.cli``.
"""

import sys as _sys

__version__ = "0.1.0"

# None of the first four imports a module listed after it, so a name from
# one of them loads nothing that its own module does not import.
_MODULES = ("schedules", "planner", "sampler", "likelihood", "statevector")


def _module(name: str):
    path = f"{__name__}.{name}"
    __import__(path)  # unlike importlib.import_module, shown by -X importtime
    return _sys.modules[path]


def _find(name: str, modules: tuple[str, ...], owner: str) -> object:
    """``name`` from the first of ``modules``, imported in turn, whose
    ``__all__`` lists it; else ``AttributeError`` naming ``owner``. A dunder
    name imports nothing."""
    if not (name.startswith("__") and name.endswith("__")):
        for module in map(_module, modules):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {owner!r} has no attribute {name!r}")


def __getattr__(name: str) -> object:
    """Find a public name on first use, then keep it here (PEP 562)."""
    if name == "__all__":
        value = [listed for m in _MODULES for listed in _module(m).__all__]
    else:
        value = _find(name, _MODULES, __name__)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
