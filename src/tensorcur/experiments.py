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
from .cur import CurDecomposition, cur_to_hosvd, cur_with_indices
from .linalg import numerical_rank, rank_r_pinv
from .sampling import (
    chidori_sample_sizes,
    fiber_sample_sizes,
    sample_without_replacement,
)
from .tensor import as_index_array, frobenius_norm, multi_mode_product
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

# relative singular-value gate deciding whether a sampled intersection matrix
# carries the full target rank; failures trigger a resample
_RANK_GATE_TOL = 1e-6

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
    if np.isscalar(ranks):
        ranks = (int(ranks),) * len(dims)
    else:
        ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(dims):
        raise ValueError("dims and ranks must have the same length")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    if any(r > d for r, d in zip(ranks, dims)):
        raise ValueError(f"ranks {ranks} exceed dims {dims}")
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
        if self.rank < 1 or self.rank > min(self.dims):
            raise ValueError("rank must be positive and no larger than every dim")
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


def _cur_sizes(method: str, dims, ranks, row_samples, fiber_samples):
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


def _timed_cur(noisy, ranks, t_sizes, s_sizes, seed_source, max_resamples):
    """Sample/extract/invert with per-stage timers, resampling on rank failure.

    Returns ``(dec, approx, runtime_s, extract_s, rank_ok, resamples)``.
    Stage times accumulate across attempts; reconstruction is not timed.
    """
    n = noisy.ndim
    sample_s = extract_s = pinv_s = 0.0
    dec = None
    pinvs = None
    rank_ok = False
    attempts = 0
    for attempt in range(max_resamples + 1):
        attempts = attempt
        rng = np.random.default_rng(next(seed_source))
        t0 = time.perf_counter()
        rows = tuple(
            sample_without_replacement(noisy.shape[i], t_sizes[i], rng) for i in range(n)
        )
        cols = None
        if s_sizes is not None:
            cols = tuple(
                sample_without_replacement(noisy.size // noisy.shape[i], s_sizes[i], rng)
                for i in range(n)
            )
        t1 = time.perf_counter()
        dec = cur_with_indices(noisy, rows, ranks, fiber_indices=cols)
        t2 = time.perf_counter()
        pinvs = [rank_r_pinv(u, r) for u, r in zip(dec.intersections, ranks)]
        t3 = time.perf_counter()
        sample_s += t1 - t0
        extract_s += t2 - t1
        pinv_s += t3 - t2
        rank_ok = all(
            numerical_rank(u, _RANK_GATE_TOL) >= r
            for u, r in zip(dec.intersections, ranks)
        )
        if rank_ok:
            break
    approx = multi_mode_product(dec.core, [c @ p for c, p in zip(dec.fibers, pinvs)])
    return dec, approx, sample_s + extract_s + pinv_s, extract_s, rank_ok, attempts


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
    (sampling, extraction, and pseudoinverse work for the CUR methods),
    never data generation, reconstruction, or error evaluation.
    """
    rows = []
    for d in cfg.dims:
        ranks = (cfg.rank,) * 3
        for sigma in cfg.sigmas:
            for trial in range(cfg.trials):
                seed = cfg.seed + trial
                rng = np.random.default_rng(seed)
                exact, noisy, _ = generate_synthetic(d, cfg.rank, sigma, rng)
                seed_source = iter(lambda: int(rng.integers(2**63)), None)
                for method in cfg.methods:
                    if method in CUR_METHODS:
                        t_sizes, s_sizes = _cur_sizes(
                            method, noisy.shape, ranks, cfg.row_samples, cfg.fiber_samples
                        )
                        _, approx, runtime, extract, rank_ok, resamples = _timed_cur(
                            noisy, ranks, t_sizes, s_sizes,
                            seed_source, cfg.max_resamples,
                        )
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
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            "{method},{d},{r},{sigma:g},{trial},{seed},{rel_err:.12e},"
            "{runtime_ms:.3f},{rank_ok:d},{resamples},{extract_ms:.3f}".format(
                method=row["method"],
                d=row["d"],
                r=row["r"],
                sigma=row["sigma"],
                trial=row["trial"],
                seed=row["seed"],
                rel_err=row["rel_err"],
                runtime_ms=row["runtime_ms"],
                rank_ok=int(row["rank_ok"]),
                resamples=row["resamples"],
                extract_ms=row["extract_ms"],
            )
        )
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
    sentinel).  Timing covers the decomposition only, not I/O.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    x = read_tensor(input_path)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != x.ndim:
        raise ValueError(f"expected {x.ndim} ranks, got {len(ranks)}")
    for k, (r, d) in enumerate(zip(ranks, x.shape)):
        if not 1 <= r <= d:
            raise ValueError(f"rank {r} out of range for extent {d} at mode {k}")
    out_dir = Path(out_dir) if out_dir is not None else Path(str(input_path) + ".factors")
    out_dir.mkdir(parents=True, exist_ok=True)

    if method in CUR_METHODS:
        t_sizes, s_sizes = _cur_sizes(method, x.shape, ranks, row_samples, fiber_samples)
        dec, approx, runtime, extract, rank_ok, _ = _timed_cur(
            x, ranks, t_sizes, s_sizes, iter([int(seed)]), max_resamples=0
        )
        files = _write_cur_factors(out_dir, dec, seed)
    else:
        dec, approx, runtime, extract, rank_ok, _ = _timed_tucker(method, x, ranks)
        files = _write_tucker_factors(out_dir, dec.core, dec.factors, method, x.shape)

    if write_reconstruction:
        write_tensor(out_dir / "reconstruction.tnsr", approx)
        files["reconstruction"] = "reconstruction.tnsr"
    # a reconstruction exact to machine precision (e.g. ranks == dims) has a
    # roundoff-dominated SNR; report the exact sentinel instead of a number
    residual, norm = frobenius_norm(x - approx), frobenius_norm(x)
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
