"""diffusim: seedable information-diffusion simulation on four network
families (complete, random, stochastic, scale-free) with a Monte Carlo
replication harness and structural analyses."""

from . import analysis, diffusion, ensemble, generators, graph, matrixio
from .analysis import *  # noqa: F403
from .diffusion import *  # noqa: F403
from .ensemble import *  # noqa: F403
from .generators import *  # noqa: F403
from .graph import *  # noqa: F403
from .matrixio import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ names its public API once; the package re-exports it
__all__ = [name for module in (analysis, diffusion, ensemble, generators,
                               graph, matrixio) for name in module.__all__]
__all__.append("__version__")
