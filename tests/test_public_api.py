import importlib
import pkgutil

import tensorcur

# the package's public names; the export count is a design metric, so a name
# is added or removed here on purpose, never as a leftover
EXPORTS = [
    "BoundReport", "CharacterizationReport", "CoherenceReport", "CompressionResult",
    "CurDecomposition", "ExperimentConfig", "HosvdDecomposition", "SamplingPlan",
    "TensorFileError", "check_characterization", "chidori_cur", "chidori_sample_sizes",
    "coherence", "compress", "convert_factors", "cur_to_hosvd",
    "cur_with_indices", "evaluate_error_bounds", "fiber_cur", "fiber_sample_sizes",
    "frobenius_norm", "generate_synthetic", "hooi", "hosvd", "mode_product",
    "multi_mode_product", "multilinear_rank", "numerical_rank", "projection_reconstruct",
    "read_tensor", "relative_error", "run_sweep",
    "st_hosvd", "tensor_coherence", "unfold", "write_csv", "write_tensor",
]


def test_public_surface_is_pinned_and_every_export_resolves():
    assert len(EXPORTS) == 37
    assert sorted(tensorcur.__all__) == EXPORTS
    for info in pkgutil.iter_modules(tensorcur.__path__):
        module = importlib.import_module(f"tensorcur.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"tensorcur.{info.name}.__all__ names {missing}"
    namespace = {}
    exec("from tensorcur import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_the_module_lists_are_the_only_declaration():
    # tensorcur re-exports its modules' __all__, so together they hold each
    # export exactly once (EXPORTS has no repeats) and nothing else; helpers
    # stay importable from their modules
    declared = [
        name
        for info in pkgutil.iter_modules(tensorcur.__path__)
        for name in getattr(importlib.import_module(f"tensorcur.{info.name}"), "__all__", ())
    ]
    assert sorted(declared) == EXPORTS
