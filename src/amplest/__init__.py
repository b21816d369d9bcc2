"""Maximum-likelihood quantum amplitude estimation via closed-form statistics.

The package covers the full desk-scale workflow: building Grover-depth
schedules (including depth jittering), budgeting shots and oracle calls for
a target precision, simulating measurement records, locating the
maximum-likelihood amplitude on an angle grid, and running reproducible
numerical experiments from the command line.

The top-level names are exactly the ``__all__`` lists of ``likelihood``,
``planner``, ``sampler``, ``schedules`` and ``statevector``, republished
here, so each module's ``__all__`` is the one statement of its public API.
The experiment harness and the CLI stay in ``amplest.harness`` and
``amplest.cli``.
"""

from .likelihood import *
from .planner import *
from .sampler import *
from .schedules import *
from .statevector import *

__version__ = "0.1.0"
