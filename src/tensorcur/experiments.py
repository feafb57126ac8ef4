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
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import relative_error
from .cur import CurDecomposition, cur_to_hosvd, cur_with_indices, draw_indices
from .sampling import SamplingPlan, chidori_sample_sizes, fiber_sample_sizes
from .tensor import as_index_array, check_ranks, frobenius_norm, multi_mode_product
from .tensorfile import SlabWriter, read_tensor, write_tensor
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

# draws after the first that a sweep's CUR method takes until its rank gate passes
_MAX_RESAMPLES = 10


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
    the CUR methods (applied to every mode).  A CUR method whose rank gate
    fails is redrawn, at most ``_MAX_RESAMPLES`` times.
    """

    dims: list[int]
    rank: int
    sigmas: list[float]
    trials: int
    seed: int
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    row_samples: int | None = None
    fiber_samples: int | None = None

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


def _decompose(method, x, ranks, seeds, row_samples, fiber_samples):
    """Decompose ``x`` with ``method``, timed.

    A CUR method draws, extracts and gates one decomposition per seed of
    ``seeds`` until the rank gate passes; a Tucker method takes no seed.  Its
    plan has the default sizes of :mod:`~tensorcur.sampling` unless
    ``row_samples`` or ``fiber_samples`` is given for every mode; the plan
    and the draw reject sizes out of range.
    Returns ``(dec, runtime_s, extract_s, rank_ok, resamples)``.  The
    runtime covers the Tucker decomposition, or for CUR the drawing, the
    extraction and the pseudoinverses with their rank gate, summed over
    attempts; forming the mode maps is left to reconstruction.
    """
    if method not in CUR_METHODS:
        t0 = time.perf_counter()
        dec = {"hosvd": hosvd, "st-hosvd": st_hosvd, "hooi": hooi}[method](x, ranks)
        return dec, time.perf_counter() - t0, 0.0, True, 0
    n = x.ndim
    t = chidori_sample_sizes(x.shape, ranks) if row_samples is None else (row_samples,) * n
    s = None  # Chidori takes its fibers at the rows' composite
    if method == "fiber":
        s = fiber_sample_sizes(x.shape, ranks)[1] if fiber_samples is None else (fiber_samples,) * n
    runtime = extract = 0.0
    for resamples, seed in enumerate(seeds):
        t0 = time.perf_counter()
        rows, cols = draw_indices(x, SamplingPlan(t, s, seed=seed))
        t1 = time.perf_counter()
        dec = cur_with_indices(x, rows, ranks, cols)
        t2 = time.perf_counter()
        rank_ok = dec.rank_ok
        runtime += time.perf_counter() - t0
        extract += t2 - t1
        if rank_ok:
            break
    return dec, runtime, extract, rank_ok, resamples


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
                    # drawn lazily: a CUR resample takes the next seed from the trial rng
                    seeds = (int(rng.integers(2**63)) for _ in range(_MAX_RESAMPLES + 1))
                    dec, runtime, extract, rank_ok, resamples = _decompose(
                        method, noisy, ranks, seeds, cfg.row_samples, cfg.fiber_samples
                    )
                    rows.append(
                        {
                            "method": method,
                            "d": d,
                            "r": cfg.rank,
                            "sigma": sigma,
                            "trial": trial,
                            "seed": seed,
                            "rel_err": relative_error(exact, dec.reconstruct()),
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


def _write_factors(out_dir: Path, method: str, dims, ranks, core, matrices: dict, **extra) -> dict:
    """Write ``core.tnsr``, each matrix ``matrices[name][i]`` to ``{name}_{i}.tnsr``
    and the manifest: format, method, dims, ranks, the ``extra`` entries and the
    file names, the list for ``name`` under ``files[name + "s"]``.  Returns
    ``files``."""
    files = {"core": "core.tnsr"}
    write_tensor(out_dir / "core.tnsr", core)
    for name, mats in matrices.items():
        files[name + "s"] = [f"{name}_{i}.tnsr" for i in range(len(mats))]
        for file, m in zip(files[name + "s"], mats):
            write_tensor(out_dir / file, m)
    manifest = {
        "format": 1,
        "method": method,
        "dims": [int(d) for d in dims],
        "ranks": [int(r) for r in ranks],
        **extra,
        "files": files,
    }
    (out_dir / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return files


# bytes of last-mode slabs reconstructed, written and differenced at a time
_STREAM_CHUNK_BYTES = 1 << 22


def _stream_reconstruction(x: np.ndarray, core, factors, path=None) -> float:
    """``frobenius_norm(x - core x_0 F_0 ... x_{n-1} F_{n-1})``, the ``hypot``
    of its norms over chunks of last-mode slabs (contiguous in F order); each
    chunk of the reconstruction is written to ``path`` when given.

    The head ``core x_0 F_0 ... x_{n-2} F_{n-2}`` is formed once, as a
    ``prod(d_<n-1) x k_{n-1}`` matrix ``H``.  Slab ``l`` is ``H @ F_{n-1}[l]``,
    one matrix-vector product per slab in every chunk, so its bytes do not
    depend on the chunk size; no full-size reconstruction is held.
    """
    head = multi_mode_product(core, list(factors[:-1]) + [None])
    h = head.reshape(math.prod(x.shape[:-1]), head.shape[-1], order="F")
    last = factors[-1]
    step = max(1, _STREAM_CHUNK_BYTES // x[..., 0].nbytes)
    norms = []
    with SlabWriter(path, x.shape) if path is not None else nullcontext() as out:
        for start in range(0, x.shape[-1], step):
            # (m, prod(d_<n-1), 1): slab by slab, each slab first index fastest
            slabs = np.matmul(h, last[start : start + step, :, None])
            chunk = slabs[:, :, 0].T.reshape(x.shape[:-1] + (-1,), order="F")
            if out is not None:
                out.write(chunk)
            np.subtract(chunk, x[..., start : start + step], out=chunk)
            norms.append(frobenius_norm(chunk))
            del slabs, chunk  # one chunk at a time
    return math.hypot(*norms)


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
    sentinel).  The reconstruction is never held whole: it is formed from
    the Tucker form (for CUR, ``core x_i right_i.T`` with factors ``C_i @
    left_i``) one chunk of last-mode slabs at a time, written when
    ``write_reconstruction`` is set and differenced against the input for
    the SNR in the same pass.  Timing covers the decomposition only, not
    I/O.  An input with a non-finite value is rejected before it is
    decomposed.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    x = read_tensor(input_path)
    ranks = check_ranks(ranks, x.shape)
    norm = frobenius_norm(x)
    if not math.isfinite(norm):
        raise ValueError(f"{input_path} holds non-finite values")
    dec, runtime, extract, rank_ok, _ = _decompose(
        method, x, ranks, [int(seed)], row_samples, fiber_samples
    )
    out_dir = Path(out_dir) if out_dir is not None else Path(str(input_path) + ".factors")
    out_dir.mkdir(parents=True, exist_ok=True)
    if method in CUR_METHODS:
        matrices = {"fiber": dec.fibers, "intersection": dec.intersections}
        extra = {"seed": int(seed), "row_indices": [i.tolist() for i in dec.row_indices],
                 "fiber_indices": [j.tolist() for j in dec.fiber_indices]}
    else:
        matrices, extra = {"factor": dec.factors}, {}
    files = _write_factors(out_dir, method, x.shape, dec.ranks, dec.core, matrices, **extra)

    rec_path = None
    if write_reconstruction:
        rec_path = out_dir / "reconstruction.tnsr"
        files["reconstruction"] = rec_path.name
    residual = _stream_reconstruction(x, *dec.tucker_form(), rec_path)
    # a reconstruction exact to machine precision (e.g. ranks == dims) has a
    # roundoff-dominated SNR; report the exact sentinel instead of a number
    snr = None if residual <= 1e-12 * norm else 20.0 * math.log10(norm / residual)
    return CompressionResult(
        method, ranks, snr, runtime * 1e3, extract * 1e3, rank_ok, str(out_dir), files
    )


def _require_keys(obj, keys, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where} lacks the key {key!r}")


def convert_factors(in_dir, out_dir):
    """Convert stored CUR factors to orthonormal Tucker factors on disk.

    Reads the manifest and factor files written by :func:`compress` for a
    CUR method, runs the CUR-to-Tucker conversion, and writes the resulting
    core and factors with a Tucker-style manifest.  A factor file holding a
    non-finite value is rejected by name.
    """
    in_dir = Path(in_dir)
    out_dir = Path(out_dir)
    manifest_path = in_dir / _MANIFEST_NAME
    if not manifest_path.exists():
        raise ValueError(f"no {_MANIFEST_NAME} in {in_dir}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    _require_keys(manifest, ("method",), _MANIFEST_NAME)
    method = manifest["method"]
    if method not in CUR_METHODS:
        raise ValueError(f"conversion requires CUR factors, found method {method!r}")
    _require_keys(manifest, ("files", "dims", "ranks", "row_indices", "fiber_indices"),
                  _MANIFEST_NAME)
    files = manifest["files"]
    _require_keys(files, ("core", "fibers", "intersections"), f"{_MANIFEST_NAME} 'files'")

    def read_finite(name):
        path = in_dir / name
        a = read_tensor(path)
        if not np.isfinite(a).all():
            raise ValueError(f"{path} holds non-finite values")
        return a

    core = read_finite(files["core"])
    fibers = tuple(read_finite(f) for f in files["fibers"])
    inters = tuple(read_finite(f) for f in files["intersections"])
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
    _write_factors(out_dir, "hosvd", dims, converted.ranks, converted.core,
                   {"factor": converted.factors})
    return converted
