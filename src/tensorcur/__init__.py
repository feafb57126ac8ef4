"""Low multilinear rank tensor approximation via CUR-type decompositions.

The package provides the Chidori and Fiber tensor CUR decompositions built
from sampled subtensors and fibers, classical orthogonal Tucker baselines
(HOSVD, sequentially truncated HOSVD, HOOI), exactness and coherence
diagnostics, perturbation-bound evaluators, and a benchmark/compression CLI.
"""

from .analysis import (
    BoundReport,
    CoherenceReport,
    coherence,
    evaluate_error_bounds,
    relative_error,
    tensor_coherence,
)
from .cur import (
    CharacterizationReport,
    CurDecomposition,
    check_characterization,
    chidori_cur,
    cur_to_hosvd,
    cur_with_indices,
    fiber_cur,
    projection_reconstruct,
)
from .experiments import (
    CompressionResult,
    ExperimentConfig,
    compress,
    convert_factors,
    generate_synthetic,
    run_sweep,
    write_csv,
)
from .linalg import multilinear_rank, numerical_rank, pinv
from .sampling import (
    SamplingPlan,
    chidori_sample_sizes,
    fiber_sample_sizes,
    sample_without_replacement,
)
from .tensor import (
    composite_index,
    frobenius_norm,
    mode_product,
    multi_mode_product,
    select_fibers,
    unfold,
)
from .tensorfile import TensorFileError, read_tensor, write_tensor
from .tucker import HosvdDecomposition, hooi, hosvd, st_hosvd

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CharacterizationReport",
    "CoherenceReport",
    "CompressionResult",
    "CurDecomposition",
    "ExperimentConfig",
    "HosvdDecomposition",
    "SamplingPlan",
    "TensorFileError",
    "check_characterization",
    "chidori_cur",
    "chidori_sample_sizes",
    "coherence",
    "composite_index",
    "compress",
    "convert_factors",
    "cur_to_hosvd",
    "cur_with_indices",
    "evaluate_error_bounds",
    "fiber_cur",
    "fiber_sample_sizes",
    "frobenius_norm",
    "generate_synthetic",
    "hooi",
    "hosvd",
    "mode_product",
    "multi_mode_product",
    "multilinear_rank",
    "numerical_rank",
    "pinv",
    "projection_reconstruct",
    "read_tensor",
    "relative_error",
    "run_sweep",
    "sample_without_replacement",
    "select_fibers",
    "st_hosvd",
    "tensor_coherence",
    "unfold",
    "write_csv",
    "write_tensor",
]
