"""Maximum-likelihood quantum amplitude estimation via closed-form statistics.

The package covers the full desk-scale workflow: building Grover-depth
schedules (including depth jittering), budgeting shots and oracle calls for
a target precision, simulating measurement records, locating the
maximum-likelihood amplitude on an angle grid, and running reproducible
numerical experiments from the command line.

The top-level names are exactly the ``__all__`` lists of ``likelihood``,
``planner``, ``sampler``, ``schedules`` and ``statevector``, republished
here, so each module's ``__all__`` is the one statement of its public API.
They load on first use: ``import amplest`` imports none of the modules. The
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


def __getattr__(name: str) -> object:
    """Find a public name by importing the modules in turn (PEP 562)."""
    modules = (_module(m) for m in _MODULES)
    if name == "__all__":
        value = [listed for module in modules for listed in module.__all__]
    else:
        module = next((m for m in modules if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
