"""Controllable two-qubit open-system models: decoherence trajectories,
information-backflow measures, and remote-state-preparation fidelity.

The top level re-exports each library module's ``__all__``; the figure
runners stay in ``backflow.experiments``.
"""

__version__ = "0.1.0"

from . import channels, decoherence, linalg, measures, rsp
from .channels import *  # noqa: F401,F403
from .decoherence import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .rsp import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *channels.__all__,
    *decoherence.__all__,
    *linalg.__all__,
    *measures.__all__,
    *rsp.__all__,
]
