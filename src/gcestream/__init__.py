"""Entropy-based regression over finite support grids, batch and streaming.

The estimator expresses each coefficient and each error term as the
expectation of a probability distribution over a user-chosen support grid,
then minimizes the divergence of those distributions from a prior subject to
the data constraints. The streaming variant carries the fitted coefficient
distributions forward as the prior for each incoming block, which yields a
nonnegative entropy ledger per update. A simulation harness reproduces the
sampling protocol used in the accompanying experiments.

Every public name is declared once, in its module's ``__all__`` (the
constants ``SUM_TOLERANCE`` and ``ZERO_CLAMP`` of ``core`` included), and is
importable from ``gcestream``, which republishes those lists unchanged.
"""

from . import core, experiments, metrics, simulation, solver, streaming
from .core import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .streaming import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *solver.__all__,
    *streaming.__all__,
    *simulation.__all__,
    *metrics.__all__,
    *experiments.__all__,
    "__version__",
]
