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

from .cur import CurDecomposition, cur_to_hosvd, cur_with_indices, draw_indices
from .sampling import SamplingPlan, chidori_sample_sizes, fiber_sample_sizes
from .tensor import as_index_array, check_ranks, frobenius_norm, multi_mode_product, residual
from .tensorfile import SlabReader, SlabWriter, _create, read_tensor, write_tensor
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
_RECONSTRUCTION_NAME = "reconstruction.tnsr"

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
    if not 0 <= sigma < math.inf:
        raise ValueError(f"noise level {sigma} must be finite and nonnegative")
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
        for s in self.sigmas:
            if not 0 <= s < math.inf:
                raise ValueError(f"noise level {s} must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")


def _decompose(method, x, ranks, seeds, row_samples, fiber_samples):
    """Decompose ``x`` with ``method``, timed.

    A Tucker method takes no seed.  A CUR method draws, extracts and gates
    one decomposition per seed of ``seeds`` until the rank gate passes; its
    ``x`` may be a source of the tensor's slabs, which each attempt reads
    afresh, the reading timed as extraction.  Its plan has the default
    sizes of :mod:`~tensorcur.sampling` unless ``row_samples`` or
    ``fiber_samples`` is given for every mode; the plan and the draw reject
    sizes out of range.
    Returns ``(dec, runtime_s, extract_s, rank_ok, resamples)``.  The
    runtime covers the Tucker decomposition, or for CUR the drawing, the
    extraction and the pseudoinverses with their rank gate, summed over
    attempts; forming the mode maps is left to reconstruction.
    """
    if method not in CUR_METHODS:
        t0 = time.perf_counter()
        dec = {"hosvd": hosvd, "st-hosvd": st_hosvd, "hooi": hooi}[method](x, ranks)
        return dec, time.perf_counter() - t0, 0.0, True, 0
    n = len(x.shape)
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
    measured against the exact tensor, streamed from each decomposition's
    Tucker form by :func:`~tensorcur.tensor.residual`.  Timings cover the
    decomposition only (sampling, extraction, and the pseudoinverses with
    their rank gate for the CUR methods), never data generation,
    reconstruction, or error evaluation.
    """
    rows = []
    for d in cfg.dims:
        ranks = (cfg.rank,) * 3
        for sigma in cfg.sigmas:
            for trial in range(cfg.trials):
                seed = cfg.seed + trial
                rng = np.random.default_rng(seed)
                exact, noisy = generate_synthetic(d, cfg.rank, sigma, rng)[:2]
                norm = frobenius_norm(exact)
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
                            "rel_err": residual(exact, *dec.tucker_form()) / norm,
                            "runtime_ms": runtime * 1e3,
                            "rank_ok": rank_ok,
                            "resamples": resamples,
                            "extract_ms": extract * 1e3,
                        }
                    )
                del exact, noisy  # before the next trial's tensors are generated
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
    """What :func:`compress` did.  ``runtime_ms`` covers the decomposition:
    for CUR the draw, the gather pass over the file (reading included) and
    the rank gate, for Tucker the decomposition of the array read from it.
    ``extract_ms`` is the CUR gather pass, 0 for Tucker."""

    method: str
    ranks: tuple[int, ...]
    snr_db: float | None  # None marks an exact reconstruction
    runtime_ms: float
    extract_ms: float
    rank_ok: bool
    out_dir: str
    files: dict


def _factor_files(n: int, kinds) -> dict:
    """The manifest's file names: ``core.tnsr``, and for each kind the list of
    its ``n`` files ``{kind}_{i}.tnsr`` under ``kind + "s"``."""
    return {"core": "core.tnsr", **{k + "s": [f"{k}_{i}.tnsr" for i in range(n)] for k in kinds}}


def _write_factors(out_dir: Path, files: dict, method: str, dims, ranks, core, matrices: dict,
                   **extra) -> None:
    """Write ``core`` to ``files["core"]``, each matrix ``matrices[name][i]`` to
    ``files[name + "s"][i]`` (names from :func:`_factor_files`) and the
    manifest: format, method, dims, ranks, the ``extra`` entries and ``files``."""
    write_tensor(out_dir / files["core"], core)
    for name, mats in matrices.items():
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
    with _create(out_dir / _MANIFEST_NAME) as fh:
        fh.write(json.dumps(manifest, indent=1).encode("utf-8"))


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
    """Decompose a tensor file and write the factors.

    The file is read through one :class:`~tensorcur.tensorfile.SlabReader`
    in chunks of last-mode slabs.  Its first pass checks that every chunk is
    finite and gives ``||x||_F``.  A CUR method never holds the input whole:
    its indices are drawn from the dims alone and that pass gathers the core
    and fibers.  A Tucker method needs every entry and fills one F-ordered
    array from that pass.  The SNR compares the input against the method's
    reconstruction; an exact reconstruction is reported as ``snr_db=None``
    (the "exact" sentinel).  The reconstruction is never held whole either:
    it is streamed from the Tucker form by
    :func:`~tensorcur.tensor.residual`, after the rank gate and the factor
    files, against what was decomposed (for CUR a second pass over the
    file), and written when ``write_reconstruction`` is set.  Timing covers
    the decomposition (see :class:`CompressionResult`), not the factor files
    or the residual pass.  An input with a non-finite value or a negative
    seed is rejected before anything is written, and so is an input that is
    one of the files ``compress`` would write (the same file by
    :meth:`pathlib.Path.samefile`).  Each output replaces a regular file of its
    name in ``out_dir`` (see :mod:`~tensorcur.tensorfile`).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if seed < 0:  # a Tucker method draws nothing, so no plan would check it
        raise ValueError(f"seed {seed} must be nonnegative")
    reader = x = SlabReader(input_path)
    ranks = check_ranks(ranks, x.shape)
    out_dir = Path(out_dir) if out_dir is not None else Path(str(input_path) + ".factors")
    kinds = ("fiber", "intersection") if method in CUR_METHODS else ("factor",)
    files = _factor_files(len(x.shape), kinds)
    names = [_MANIFEST_NAME, _RECONSTRUCTION_NAME] if write_reconstruction else [_MANIFEST_NAME]
    for entry in files.values():  # a file name or a list of them
        names += [entry] if isinstance(entry, str) else entry
    for path in (out_dir / name for name in names):
        if path.exists() and path.samefile(input_path):
            raise ValueError(f"{path} is the input; compress would overwrite it")
    if method not in CUR_METHODS:  # Tucker needs every entry: one array from the checked pass
        x = np.empty(reader.shape, order="F")
        for start, chunk in reader:
            x[..., start : start + chunk.shape[-1]] = chunk
    dec, runtime, extract, rank_ok, _ = _decompose(
        method, x, ranks, [int(seed)], row_samples, fiber_samples
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    if method in CUR_METHODS:
        matrices = {"fiber": dec.fibers, "intersection": dec.intersections}
        extra = {"seed": int(seed), "row_indices": [i.tolist() for i in dec.row_indices],
                 "fiber_indices": [j.tolist() for j in dec.fiber_indices]}
    else:
        matrices, extra = {"factor": dec.factors}, {}
    _write_factors(out_dir, files, method, x.shape, dec.ranks, dec.core, matrices, **extra)

    writer = nullcontext()
    if write_reconstruction:
        files["reconstruction"] = _RECONSTRUCTION_NAME
        writer = SlabWriter(out_dir / files["reconstruction"], x.shape)
    with writer as out:
        res = residual(x, *dec.tucker_form(), out)
    # a reconstruction exact to machine precision (e.g. ranks == dims) has a
    # roundoff-dominated SNR; report the exact sentinel instead of a number
    snr = None if res <= 1e-12 * reader.norm else 20.0 * math.log10(reader.norm / res)
    return CompressionResult(
        method, ranks, snr, runtime * 1e3, extract * 1e3, rank_ok, str(out_dir), files
    )


def convert_factors(in_dir, out_dir):
    """Convert stored CUR factors to orthonormal Tucker factors on disk.

    Reads the manifest and factor files written by :func:`compress` for a
    CUR method, runs the CUR-to-Tucker conversion, and writes the resulting
    core and factors with a Tucker-style manifest.  A manifest that lacks a
    key or holds a value of the wrong JSON type (``dims``, ``ranks`` and each
    index set must be lists of integers) is rejected as such, a
    factor file holding a non-finite value is rejected by name, and so is
    one whose shape differs from the one its manifest's index sets give it
    (core ``|I_0| x ... x |I_{n-1}|``, fiber ``d_i x |J_i|``, intersection
    ``|I_i| x |J_i|``).  An ``out_dir`` that is ``in_dir`` is rejected too,
    since the Tucker files would replace the CUR ones.  Nothing is written for
    a rejected directory.  Each output replaces a regular file of its name in
    ``out_dir`` (see :mod:`~tensorcur.tensorfile`).
    """
    in_dir = Path(in_dir)
    out_dir = Path(out_dir)
    manifest_path = in_dir / _MANIFEST_NAME
    if not manifest_path.exists():
        raise ValueError(f"no {_MANIFEST_NAME} in {in_dir}")
    if out_dir.exists() and out_dir.samefile(in_dir):
        raise ValueError(f"out_dir {out_dir} is in_dir; convert would replace the CUR factors")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    def read_finite(name):
        path = in_dir / name
        a = read_tensor(path)
        if not np.isfinite(a).all():
            raise ValueError(f"{path} holds non-finite values")
        return a

    def ints(value):
        # a JSON list of integers, or a wrong JSON type (bool is an int to Python, not to JSON)
        if not isinstance(value, list) or any(type(v) is not int for v in value):
            raise TypeError(f"{value!r} is not a list of integers")
        return value

    try:
        method = manifest["method"]
        if method not in CUR_METHODS:
            raise ValueError(f"conversion requires CUR factors, found method {method!r}")
        files = manifest["files"]
        dims = tuple(ints(manifest["dims"]))
        ranks = check_ranks(ints(manifest["ranks"]), dims)
        row_sets, fiber_sets = manifest["row_indices"], manifest["fiber_indices"]
        n = len(dims)
        if {len(s) for s in (files["fibers"], files["intersections"], row_sets, fiber_sets)} != {n}:
            raise ValueError("inconsistent factor shapes: mode count mismatch")
        rows = tuple(as_index_array(ints(idx), d) for idx, d in zip(row_sets, dims))
        cols = tuple(
            as_index_array(ints(idx), math.prod(dims) // d) for idx, d in zip(fiber_sets, dims)
        )
        names = [files["core"], *files["fibers"], *files["intersections"]]
        arrays = [read_finite(name) for name in names]
    except KeyError as exc:
        raise ValueError(f"{_MANIFEST_NAME} lacks the key {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:  # a wrong JSON type, or an integer beyond int64
        raise ValueError(f"{manifest_path} is malformed: {exc}") from None
    # the shapes cur_with_indices gives the core, the fibers and the intersections
    shapes = [tuple(i.size for i in rows), *((d, j.size) for d, j in zip(dims, cols)),
              *((i.size, j.size) for i, j in zip(rows, cols))]
    for name, a, want in zip(names, arrays, shapes):
        if a.shape != want:
            raise ValueError(
                f"inconsistent factor shapes: {name} has shape {a.shape}, the manifest gives {want}"
            )
    dec = CurDecomposition(
        method, arrays[0], tuple(arrays[1 : n + 1]), tuple(arrays[n + 1 :]), rows, cols, ranks
    )
    converted = cur_to_hosvd(dec)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_factors(out_dir, _factor_files(n, ("factor",)), "hosvd", dims, converted.ranks,
                   converted.core, {"factor": converted.factors})
    return converted
