"""Low multilinear rank tensor approximation via CUR-type decompositions.

The package provides the Chidori and Fiber tensor CUR decompositions built
from sampled subtensors and fibers, classical orthogonal Tucker baselines
(HOSVD, sequentially truncated HOSVD, HOOI), exactness and coherence
diagnostics, perturbation-bound evaluators, and a benchmark/compression CLI.
"""

from . import analysis, cur, experiments, linalg, sampling, tensor, tensorfile, tucker
from .analysis import *
from .cur import *
from .experiments import *
from .linalg import *
from .sampling import *
from .tensor import *
from .tensorfile import *
from .tucker import *

__version__ = "0.1.0"

# each module's __all__ is exactly what the package exports from it
__all__ = [
    *analysis.__all__, *cur.__all__, *experiments.__all__, *linalg.__all__,
    *sampling.__all__, *tensor.__all__, *tensorfile.__all__, *tucker.__all__,
]
