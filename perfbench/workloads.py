"""The benchmark's workloads: inputs made from a seed, one operation per
method, the output check that decides whether an operation failed, and a
digest of each output for the bit-identity checks.

A workload runs its methods in a fixed cycle.  ``generate`` runs in the
parent process and writes every input into the work directory; ``load``
runs in the measuring process, so the library only ever sees the generated
inputs and the measuring process never holds the generation temporaries.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import tensorcur as tc

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text(encoding="utf-8"))
LIMITS = SPEC["thresholds"]


class OpFailed(Exception):
    """An operation's output failed its check."""


def plan_seed(seed: int, cycle: int) -> int:
    """Plan seed shared by every method of one cycle of a workload run."""
    return int(np.random.SeedSequence((seed, cycle)).generate_state(1, np.uint64)[0] >> 1)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _sigma_r_rel(matrices, ranks) -> float:
    """Smallest ``sigma_r / sigma_1`` over matrices that must carry rank ``r``."""
    out = math.inf
    for m, r in zip(matrices, ranks):
        s = np.linalg.svd(m, compute_uv=False)
        out = min(out, float(s[r - 1] / s[0]) if s.size >= r and s[0] > 0 else 0.0)
    return out


def _rank_gate(intersections, ranks) -> bool:
    tol = LIMITS["rank_gate_tol"]
    return all(tc.numerical_rank(u, tol) >= r for u, r in zip(intersections, ranks))


@dataclass(frozen=True)
class CurWorkload:
    """Chidori and Fiber CUR on one in-memory cubic tensor.

    An op is ``chidori_cur``/``fiber_cur`` plus ``mode_maps()``.  The check
    applies the rank gate and compares the approximation with the exact
    tensor on a fixed seeded grid ``G_0 x G_1 x G_2``, so the exact tensor
    itself is never held by the measuring process.
    """

    dim: int
    rank: int
    sigma: float
    distribution: str
    grid: int
    methods = ("chidori", "fiber")

    @property
    def ranks(self):
        return (self.rank,) * 3

    @property
    def input_mb(self) -> float:
        return self.dim**3 * 8 / 1e6

    def generate(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        exact, noisy, _ = tc.generate_synthetic(self.dim, self.rank, self.sigma, rng)
        grid = [np.sort(rng.choice(self.dim, self.grid, replace=False)) for _ in range(3)]
        np.save(work / "noisy.npy", noisy)
        np.savez(work / "grid.npz", g0=grid[0], g1=grid[1], g2=grid[2],
                 values=exact[np.ix_(*grid)])

    def load(self, work: Path) -> dict:
        g = np.load(work / "grid.npz")
        return {
            "noisy": np.load(work / "noisy.npy"),
            "grid": (g["g0"], g["g1"], g["g2"]),
            "values": g["values"],
        }

    def plan(self, method: str, seed: int) -> tc.SamplingPlan:
        dims = (self.dim,) * 3
        if method == "chidori":
            return tc.SamplingPlan(tc.chidori_sample_sizes(dims, self.ranks),
                                   distribution=self.distribution, seed=seed)
        rows, fibers = tc.fiber_sample_sizes(dims, self.ranks)
        return tc.SamplingPlan(rows, fibers, distribution=self.distribution, seed=seed)

    def run(self, method: str, plan, inputs: dict):
        decompose = tc.chidori_cur if method == "chidori" else tc.fiber_cur
        dec = decompose(inputs["noisy"], plan, self.ranks)
        return dec, dec.mode_maps()

    def check(self, method: str, out, inputs: dict) -> float:
        dec, maps = out
        if not _rank_gate(dec.intersections, dec.ranks):
            raise OpFailed("rank gate failed")
        approx = tc.multi_mode_product(dec.core, [m[g] for m, g in zip(maps, inputs["grid"])])
        err = tc.relative_error(inputs["values"], approx)
        if not err <= LIMITS["cur_grid_rel_err"]:
            raise OpFailed(f"grid relative error {err:.3e} above {LIMITS['cur_grid_rel_err']}")
        return err

    def digest(self, method: str, out) -> str:
        dec, maps = out
        return _digest([dec.core, *dec.fibers, *dec.intersections,
                        *dec.row_indices, *dec.fiber_indices, *maps])

    def health(self, method: str, out, inputs: dict) -> dict:
        dec, _ = out
        read = dec.core.size + sum(c.size for c in dec.fibers)
        return {
            "sigma_r_rel": _sigma_r_rel(dec.intersections, dec.ranks),
            "entries_read": read,
            "read_fraction": read / inputs["noisy"].size,
            "rank_ok": _rank_gate(dec.intersections, dec.ranks),
        }


@dataclass(frozen=True)
class TuckerWorkload:
    """HOSVD, ST-HOSVD and HOOI on one in-memory cubic tensor, checked by
    the full relative error against the exact tensor."""

    dim: int
    rank: int
    sigma: float
    methods = ("hosvd", "st_hosvd", "hooi")

    @property
    def ranks(self):
        return (self.rank,) * 3

    @property
    def input_mb(self) -> float:
        return self.dim**3 * 8 / 1e6

    def generate(self, seed: int, work: Path) -> None:
        exact, noisy, _ = tc.generate_synthetic(
            self.dim, self.rank, self.sigma, np.random.default_rng(seed))
        np.save(work / "exact.npy", exact)
        np.save(work / "noisy.npy", noisy)

    def load(self, work: Path) -> dict:
        return {"exact": np.load(work / "exact.npy"), "noisy": np.load(work / "noisy.npy")}

    def plan(self, method: str, seed: int):
        return None

    def run(self, method: str, plan, inputs: dict):
        return getattr(tc, method)(inputs["noisy"], self.ranks)

    def check(self, method: str, out, inputs: dict) -> float:
        err = tc.relative_error(inputs["exact"], out.reconstruct())
        if not err <= LIMITS["tucker_rel_err"]:
            raise OpFailed(f"relative error {err:.3e} above {LIMITS['tucker_rel_err']}")
        return err

    def digest(self, method: str, out) -> str:
        return _digest([out.core, *out.factors])

    def health(self, method: str, out, inputs: dict) -> dict:
        unfoldings = [tc.unfold(out.core, k) for k in range(out.core.ndim)]
        return {"sigma_r_rel": _sigma_r_rel(unfoldings, self.ranks)}


@dataclass(frozen=True)
class CompressWorkload:
    """``compress(method="chidori", write_reconstruction=True)`` on a TNSR
    file written during set-up, then ``convert_factors`` on its output.

    Compress is checked by ``rank_ok`` and its SNR against the input; the
    converted factors must be orthonormal.
    """

    dims: tuple
    ranks: tuple
    sigma: float
    methods = ("compress", "convert")

    @property
    def input_mb(self) -> float:
        return math.prod(self.dims) * 8 / 1e6

    def generate(self, seed: int, work: Path) -> None:
        _, noisy, _ = tc.generate_synthetic(
            self.dims, self.ranks, self.sigma, np.random.default_rng(seed))
        tc.write_tensor(work / "input.tnsr", noisy)

    def load(self, work: Path) -> dict:
        return {"input": work / "input.tnsr", "factors": work / "factors",
                "converted": work / "converted"}

    def plan(self, method: str, seed: int):
        return seed

    def run(self, method: str, plan, inputs: dict):
        if method == "compress":
            return tc.compress(inputs["input"], "chidori", self.ranks, seed=plan,
                               out_dir=inputs["factors"], write_reconstruction=True)
        return tc.convert_factors(inputs["factors"], inputs["converted"])

    def check(self, method: str, out, inputs: dict):
        if method == "compress":
            if not out.rank_ok:
                raise OpFailed("rank gate failed")
            if out.snr_db is None:
                return 0.0
            if not out.snr_db >= LIMITS["compress_snr_db_min"]:
                raise OpFailed(f"SNR {out.snr_db:.2f} dB below {LIMITS['compress_snr_db_min']}")
            return 10.0 ** (-out.snr_db / 20.0)
        for w in out.factors:
            gap = np.abs(w.T @ w - np.eye(w.shape[1])).max()
            if not gap <= LIMITS["orthonormality_tol"]:
                raise OpFailed(f"converted factor off orthonormal by {gap:.3e}")
        return None

    def digest(self, method: str, out) -> str:
        if method == "convert":
            return _digest([out.core, *out.factors])
        h = hashlib.sha256()
        for path in sorted(Path(out.out_dir).iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def health(self, method: str, out, inputs: dict) -> dict:
        if method == "convert":
            return {}
        folder = Path(out.out_dir)
        manifest = json.loads((folder / "manifest.json").read_text(encoding="utf-8"))
        dims = manifest["dims"]
        read = math.prod(len(i) for i in manifest["row_indices"]) + sum(
            d * len(j) for d, j in zip(dims, manifest["fiber_indices"]))
        inters = [tc.read_tensor(folder / f) for f in manifest["files"]["intersections"]]
        return {
            "sigma_r_rel": _sigma_r_rel(inters, self.ranks),
            "entries_read": read,
            "read_fraction": read / math.prod(dims),
            "rank_ok": out.rank_ok,
        }


WORKLOADS = {
    "cur-uniform-300": CurWorkload(300, 5, 1e-4, "uniform", grid=16),
    "cur-length-300": CurWorkload(300, 5, 1e-4, "length", grid=16),
    "tucker-150": TuckerWorkload(150, 5, 1e-4),
    "compress-file": CompressWorkload((512, 512, 64), (20, 20, 5), 1e-3),
}

# the same workloads at sizes small enough for the benchmark's own tests
TINY = {
    "cur-uniform-300": CurWorkload(24, 3, 1e-4, "uniform", grid=6),
    "cur-length-300": CurWorkload(24, 3, 1e-4, "length", grid=6),
    "tucker-150": TuckerWorkload(16, 3, 1e-4),
    "compress-file": CompressWorkload((24, 24, 8), (4, 4, 2), 1e-3),
}
