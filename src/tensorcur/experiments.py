"""Synthetic data generation, benchmark sweeps, and the compression workflow.

Seeding is derived, not shared: trial ``t`` of a sweep uses the generator
seeded with ``base_seed + t`` for data generation, and the same generator
then supplies sampling-plan seeds for the CUR methods in configuration
order.  Identical configurations therefore produce identical index draws and
identical error columns; only the timing columns vary between runs.
"""

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import relative_error
from .cur import CurDecomposition, cur_to_hosvd, cur_with_indices, draw_indices
from .sampling import SamplingPlan, chidori_sample_sizes, fiber_sample_sizes
from .tensor import as_index_array, check_ranks, frobenius_norm, multi_mode_product
from .tensorfile import read_tensor, write_tensor
from .tucker import hooi, hosvd, st_hosvd

__all__ = [
    "METHODS",
    "CSV_HEADER",
    "ExperimentConfig",
    "CompressionResult",
    "generate_synthetic",
    "run_sweep",
    "write_csv",
    "rows_to_csv",
    "compress",
    "convert_factors",
]

METHODS = ("fiber", "chidori", "hosvd", "st-hosvd", "hooi")
CUR_METHODS = ("fiber", "chidori")

CSV_HEADER = "method,d,r,sigma,trial,seed,rel_err,runtime_ms,rank_ok,resamples,extract_ms"

_MANIFEST_NAME = "manifest.json"


def generate_synthetic(dims, ranks, sigma, rng: np.random.Generator):
    """Random low multilinear rank tensor plus i.i.d. Gaussian noise.

    The exact tensor is a standard-normal core multiplied along each mode by
    a standard-normal ``d_i x r_i`` factor, so its multilinear rank equals
    ``ranks`` with probability 1.  ``sigma`` is the noise standard deviation;
    with ``sigma=0`` the noisy tensor equals the exact one bitwise.  Draw
    order is fixed (core, factors in mode order, then noise), so one seed
    pins all three outputs.

    Returns ``(exact, noisy, noise)``.
    """
    if np.isscalar(dims):
        dims = (int(dims),) * 3
    else:
        dims = tuple(int(d) for d in dims)
    ranks = check_ranks((ranks,) * len(dims) if np.isscalar(ranks) else ranks, dims)
    if sigma < 0:
        raise ValueError("noise level must be nonnegative")
    core = rng.standard_normal(ranks)
    factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
    exact = multi_mode_product(core, factors)
    noise = sigma * rng.standard_normal(dims)
    return exact, exact + noise, noise


@dataclass
class ExperimentConfig:
    """Sweep over cubic 3-mode synthetic tensors.

    One row is produced per ``(d, sigma, method, trial)``.  ``row_samples``
    and ``fiber_samples`` override the default log-scaled sampling sizes for
    the CUR methods (applied to every mode).
    """

    dims: list[int]
    rank: int
    sigmas: list[float]
    trials: int
    seed: int
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    row_samples: int | None = None
    fiber_samples: int | None = None
    max_resamples: int = 10

    def __post_init__(self):
        self.dims = [int(d) for d in self.dims]
        self.sigmas = [float(s) for s in self.sigmas]
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be a nonempty list of positive sizes")
        check_ranks((self.rank,), (min(self.dims),))
        if any(s < 0 for s in self.sigmas):
            raise ValueError("noise levels must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if self.max_resamples < 0:
            raise ValueError("max_resamples must be nonnegative")


def cur_sample_sizes(method: str, dims, ranks, row_samples=None, fiber_samples=None):
    """Per-mode ``(row_counts, fiber_counts)`` of a CUR method's plans:
    log-scaled defaults unless overridden, ``fiber_counts=None`` for Chidori."""
    if row_samples is not None:
        t = (int(row_samples),) * len(dims)
        for size, d in zip(t, dims):
            if not 1 <= size <= d:
                raise ValueError(f"row sample size {size} invalid for extent {d}")
    else:
        t = chidori_sample_sizes(dims, ranks)
    if method == "chidori":
        return t, None
    if fiber_samples is not None:
        s = (int(fiber_samples),) * len(dims)
        total = math.prod(dims)
        for i, size in enumerate(s):
            if not 1 <= size <= total // dims[i]:
                raise ValueError(f"fiber sample size {size} invalid at mode {i}")
    else:
        s = fiber_sample_sizes(dims, ranks)[1]
    return t, s


def _gated_cur(x, ranks, sizes, seeds):
    """Draw, extract and gate one CUR per seed until the rank gate passes.

    Returns ``(dec, mode_maps, runtime_s, extract_s, rank_ok, resamples)``;
    the times cover drawing, extraction and the gated mode maps, summed over
    attempts.
    """
    runtime = extract = 0.0
    for resamples, seed in enumerate(seeds):
        t0 = time.perf_counter()
        rows, cols = draw_indices(x, SamplingPlan(*sizes, seed=seed))
        t1 = time.perf_counter()
        dec = cur_with_indices(x, rows, ranks, cols)
        t2 = time.perf_counter()
        maps, rank_ok = dec.gated_mode_maps()
        runtime += time.perf_counter() - t0
        extract += t2 - t1
        if rank_ok:
            break
    return dec, maps, runtime, extract, rank_ok, resamples


def _timed_tucker(method, noisy, ranks):
    t0 = time.perf_counter()
    if method == "hosvd":
        dec = hosvd(noisy, ranks)
    elif method == "st-hosvd":
        dec = st_hosvd(noisy, ranks)
    else:
        dec = hooi(noisy, ranks)
    runtime = time.perf_counter() - t0
    return dec, dec.reconstruct(), runtime, 0.0, True, 0


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Run the configured sweep; one result dict per ``(d, sigma, method, trial)``.

    Within a trial every method sees the same noisy tensor; errors are
    measured against the exact tensor.  Timings cover the decomposition only
    (sampling, extraction, and the pseudoinverses with their rank gate for
    the CUR methods), never data generation, reconstruction, or error
    evaluation.
    """
    rows = []
    for d in cfg.dims:
        ranks = (cfg.rank,) * 3
        for sigma in cfg.sigmas:
            for trial in range(cfg.trials):
                seed = cfg.seed + trial
                rng = np.random.default_rng(seed)
                exact, noisy, _ = generate_synthetic(d, cfg.rank, sigma, rng)
                for method in cfg.methods:
                    if method in CUR_METHODS:
                        sizes = cur_sample_sizes(
                            method, noisy.shape, ranks, cfg.row_samples, cfg.fiber_samples
                        )
                        # drawn lazily: a resample takes the next seed from the trial rng
                        seeds = (int(rng.integers(2**63)) for _ in range(cfg.max_resamples + 1))
                        dec, maps, runtime, extract, rank_ok, resamples = _gated_cur(
                            noisy, ranks, sizes, seeds
                        )
                        approx = multi_mode_product(dec.core, maps)
                    else:
                        _, approx, runtime, extract, rank_ok, resamples = _timed_tucker(
                            method, noisy, ranks
                        )
                    rows.append(
                        {
                            "method": method,
                            "d": d,
                            "r": cfg.rank,
                            "sigma": sigma,
                            "trial": trial,
                            "seed": seed,
                            "rel_err": relative_error(exact, approx),
                            "runtime_ms": runtime * 1e3,
                            "rank_ok": rank_ok,
                            "resamples": resamples,
                            "extract_ms": extract * 1e3,
                        }
                    )
    return rows


def rows_to_csv(rows) -> str:
    """Serialize sweep rows with the fixed column order and formats."""
    fmt = ("{method},{d},{r},{sigma:g},{trial},{seed},{rel_err:.12e},"
           "{runtime_ms:.3f},{rank_ok:d},{resamples},{extract_ms:.3f}")
    lines = [CSV_HEADER] + [fmt.format(**{**row, "rank_ok": int(row["rank_ok"])}) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class CompressionResult:
    method: str
    ranks: tuple[int, ...]
    snr_db: float | None  # None marks an exact reconstruction
    runtime_ms: float
    extract_ms: float
    rank_ok: bool
    out_dir: str
    files: dict


def _write_cur_factors(out_dir: Path, dec: CurDecomposition, seed: int) -> dict:
    files = {"core": "core.tnsr", "fibers": [], "intersections": []}
    write_tensor(out_dir / "core.tnsr", dec.core)
    for i, (c, u) in enumerate(zip(dec.fibers, dec.intersections)):
        files["fibers"].append(f"fiber_{i}.tnsr")
        files["intersections"].append(f"intersection_{i}.tnsr")
        write_tensor(out_dir / files["fibers"][-1], c)
        write_tensor(out_dir / files["intersections"][-1], u)
    manifest = {
        "format": 1,
        "method": dec.variant,
        "dims": [int(d) for d in dec.dims],
        "ranks": [int(r) for r in dec.ranks],
        "seed": int(seed),
        "row_indices": [idx.tolist() for idx in dec.row_indices],
        "fiber_indices": [idx.tolist() for idx in dec.fiber_indices],
        "files": files,
    }
    (out_dir / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return files


def _write_tucker_factors(out_dir: Path, core, factors, method: str, dims) -> dict:
    files = {"core": "core.tnsr", "factors": []}
    write_tensor(out_dir / "core.tnsr", core)
    for i, w in enumerate(factors):
        files["factors"].append(f"factor_{i}.tnsr")
        write_tensor(out_dir / files["factors"][-1], w)
    manifest = {
        "format": 1,
        "method": method,
        "dims": [int(d) for d in dims],
        "ranks": [int(r) for r in core.shape],
        "files": files,
    }
    (out_dir / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return files


# bytes of last-mode slabs differenced at a time for the compress residual
_RESIDUAL_CHUNK_BYTES = 1 << 22


def _residual_norm(x: np.ndarray, approx: np.ndarray) -> float:
    """``frobenius_norm(x - approx)``, summed over chunks of last-mode slabs
    (contiguous in F order) so that no full-size difference is held."""
    step = max(1, _RESIDUAL_CHUNK_BYTES // x[..., 0].nbytes)
    total = 0.0
    for start in range(0, x.shape[-1], step):
        diff = (x[..., start : start + step] - approx[..., start : start + step]).ravel(order="K")
        total += float(diff @ diff)
        del diff  # one chunk difference at a time
    return math.sqrt(total)


def compress(
    input_path,
    method: str,
    ranks,
    seed: int = 0,
    out_dir=None,
    write_reconstruction: bool = False,
    row_samples: int | None = None,
    fiber_samples: int | None = None,
) -> CompressionResult:
    """Load a tensor file, decompose it, and write the factors.

    The SNR compares the loaded tensor against the method's reconstruction;
    an exact reconstruction is reported as ``snr_db=None`` (the "exact"
    sentinel).  Timing covers the decomposition only, not I/O.  An input
    with a non-finite value is rejected before it is decomposed.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    x = read_tensor(input_path)
    ranks = check_ranks(ranks, x.shape)
    norm = frobenius_norm(x)
    if not math.isfinite(norm):
        raise ValueError(f"{input_path} holds non-finite values")
    out_dir = Path(out_dir) if out_dir is not None else Path(str(input_path) + ".factors")
    out_dir.mkdir(parents=True, exist_ok=True)

    if method in CUR_METHODS:
        sizes = cur_sample_sizes(method, x.shape, ranks, row_samples, fiber_samples)
        dec, maps, runtime, extract, rank_ok, _ = _gated_cur(x, ranks, sizes, [int(seed)])
        approx = multi_mode_product(dec.core, maps)
        files = _write_cur_factors(out_dir, dec, seed)
    else:
        dec, approx, runtime, extract, rank_ok, _ = _timed_tucker(method, x, ranks)
        files = _write_tucker_factors(out_dir, dec.core, dec.factors, method, x.shape)

    if write_reconstruction:
        write_tensor(out_dir / "reconstruction.tnsr", approx)
        files["reconstruction"] = "reconstruction.tnsr"
    # a reconstruction exact to machine precision (e.g. ranks == dims) has a
    # roundoff-dominated SNR; report the exact sentinel instead of a number
    residual = _residual_norm(x, approx)
    snr = None if residual <= 1e-12 * norm else 20.0 * math.log10(norm / residual)
    return CompressionResult(
        method, ranks, snr, runtime * 1e3, extract * 1e3, rank_ok, str(out_dir), files
    )


def convert_factors(in_dir, out_dir):
    """Convert stored CUR factors to orthonormal Tucker factors on disk.

    Reads the manifest and factor files written by :func:`compress` for a
    CUR method, runs the CUR-to-Tucker conversion, and writes the resulting
    core and factors with a Tucker-style manifest.
    """
    in_dir = Path(in_dir)
    out_dir = Path(out_dir)
    manifest_path = in_dir / _MANIFEST_NAME
    if not manifest_path.exists():
        raise ValueError(f"no {_MANIFEST_NAME} in {in_dir}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    method = manifest.get("method")
    if method not in CUR_METHODS:
        raise ValueError(f"conversion requires CUR factors, found method {method!r}")
    files = manifest["files"]
    core = read_tensor(in_dir / files["core"])
    fibers = tuple(read_tensor(in_dir / f) for f in files["fibers"])
    inters = tuple(read_tensor(in_dir / f) for f in files["intersections"])
    dims = tuple(int(d) for d in manifest["dims"])
    ranks = tuple(int(r) for r in manifest["ranks"])
    n = len(dims)
    row_sets, fiber_sets = manifest["row_indices"], manifest["fiber_indices"]
    if not (len(fibers) == len(inters) == core.ndim == len(row_sets) == len(fiber_sets) == n):
        raise ValueError("inconsistent factor shapes: mode count mismatch")
    rows = tuple(as_index_array(idx, d) for idx, d in zip(row_sets, dims))
    cols = tuple(as_index_array(idx, math.prod(dims) // d) for idx, d in zip(fiber_sets, dims))
    for i in range(n):
        if fibers[i].ndim != 2 or inters[i].ndim != 2:
            raise ValueError("inconsistent factor shapes: factors must be matrices")
        if fibers[i].shape[0] != dims[i]:
            raise ValueError(f"inconsistent factor shapes: fiber {i} has {fibers[i].shape[0]} rows")
        if fibers[i].shape[1] != inters[i].shape[1]:
            raise ValueError(f"inconsistent factor shapes: column mismatch at mode {i}")
        if inters[i].shape[0] != core.shape[i]:
            raise ValueError(f"inconsistent factor shapes: core extent mismatch at mode {i}")
        if rows[i].size != core.shape[i] or cols[i].size != fibers[i].shape[1]:
            raise ValueError(f"inconsistent factor shapes: manifest index count at mode {i}")
    dec = CurDecomposition(method, core, fibers, inters, rows, cols, ranks)
    converted = cur_to_hosvd(dec)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_tucker_factors(out_dir, converted.core, converted.factors, "hosvd", dims)
    return converted
