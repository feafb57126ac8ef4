import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from tensorcur import (
    ExperimentConfig,
    SamplingPlan,
    chidori_sample_sizes,
    compress,
    convert_factors,
    cur_with_indices,
    frobenius_norm,
    fiber_sample_sizes,
    generate_synthetic,
    hosvd,
    multilinear_rank,
    read_tensor,
    run_sweep,
    st_hosvd,
    write_csv,
    write_tensor,
)
from tensorcur import TensorFileError, experiments, tensor, tensorfile
from tensorcur.cur import draw_indices
from tensorcur.experiments import CSV_HEADER, rows_to_csv
from tensorcur.tensor import residual
from tensorcur.tensorfile import SlabWriter

# non-timing columns (all but runtime_ms and extract_ms) of a sweep whose
# fiber rows all exhaust their 10 resamples, which shifts the chidori seeds
# after them; recorded from the sweep's earlier, separate CUR code
FORCED_RESAMPLE_SWEEP = """\
method,d,r,sigma,trial,seed,rel_err,rank_ok,resamples
fiber,15,3,0,0,11,3.143660411485e+00,0,10
chidori,15,3,0,0,11,5.246127787528e-13,1,0
hosvd,15,3,0,0,11,1.052110370143e-15,1,0
fiber,15,3,0,1,12,8.219305912826e-01,0,10
chidori,15,3,0,1,12,8.002456905793e-16,1,0
hosvd,15,3,0,1,12,9.475817970701e-16,1,0
fiber,15,3,0,2,13,1.699546544899e+00,0,10
chidori,15,3,0,2,13,6.150925722273e-16,1,0
hosvd,15,3,0,2,13,1.135529187086e-15,1,0
fiber,15,3,0,3,14,1.379093707349e+00,0,10
chidori,15,3,0,3,14,1.164179311948e-15,1,0
hosvd,15,3,0,3,14,1.219963073941e-15,1,0
fiber,15,3,0.001,0,11,3.143328712322e+00,0,10
chidori,15,3,0.001,0,11,1.594024849219e+00,1,0
hosvd,15,3,0.001,0,11,4.998265969358e-05,1,0
fiber,15,3,0.001,1,12,8.225084152633e-01,0,10
chidori,15,3,0.001,1,12,1.191320672450e-03,1,0
hosvd,15,3,0.001,1,12,6.501166940142e-05,1,0
fiber,15,3,0.001,2,13,1.700420365047e+00,0,10
chidori,15,3,0.001,2,13,5.742940644191e-04,1,0
hosvd,15,3,0.001,2,13,3.904217526622e-05,1,0
fiber,15,3,0.001,3,14,1.382002786073e+00,0,10
chidori,15,3,0.001,3,14,3.192613544067e-03,1,0
hosvd,15,3,0.001,3,14,3.983716012527e-05,1,0
fiber,25,3,0,0,11,8.732292197007e-01,0,10
chidori,25,3,0,0,11,9.646798395513e-16,1,0
hosvd,25,3,0,0,11,9.855599934642e-16,1,0
fiber,25,3,0,1,12,1.488780810953e+00,0,10
chidori,25,3,0,1,12,1.041374879882e-15,1,0
hosvd,25,3,0,1,12,1.037272196987e-15,1,0
fiber,25,3,0,2,13,9.421482343889e+00,0,10
chidori,25,3,0,2,13,1.201064190733e-15,1,0
hosvd,25,3,0,2,13,1.152072446470e-15,1,0
fiber,25,3,0,3,14,1.653688026056e+00,0,10
chidori,25,3,0,3,14,1.537227969505e-15,1,0
hosvd,25,3,0,3,14,9.695142726464e-16,1,0
fiber,25,3,0.001,0,11,8.716085869561e-01,0,10
chidori,25,3,0.001,0,11,4.025875979199e-03,1,0
hosvd,25,3,0.001,0,11,3.852099688639e-05,1,0
fiber,25,3,0.001,1,12,1.489624453665e+00,0,10
chidori,25,3,0.001,1,12,9.555460743970e-04,1,0
hosvd,25,3,0.001,1,12,3.368036065261e-05,1,0
fiber,25,3,0.001,2,13,9.437858667521e+00,0,10
chidori,25,3,0.001,2,13,2.416160134829e-03,1,0
hosvd,25,3,0.001,2,13,1.640158787790e-05,1,0
fiber,25,3,0.001,3,14,1.652457022987e+00,0,10
chidori,25,3,0.001,3,14,1.865754663770e-02,1,0
hosvd,25,3,0.001,3,14,2.176624349389e-05,1,0
"""


class TestGenerateSynthetic:
    def test_zero_noise_is_bitwise_identical(self):
        exact, noisy, noise = generate_synthetic(12, 3, 0.0, np.random.default_rng(0))
        assert np.array_equal(exact, noisy)
        assert np.all(noise == 0.0)

    def test_declared_multilinear_rank(self):
        exact, _, _ = generate_synthetic(20, 3, 0.0, np.random.default_rng(1))
        assert multilinear_rank(exact) == (3, 3, 3)

    def test_noise_scale_matches_sigma(self):
        d, sigma = 50, 0.37
        _, _, noise = generate_synthetic(d, 2, sigma, np.random.default_rng(2))
        observed = frobenius_norm(noise) / np.sqrt(d**3)
        assert abs(observed - sigma) <= 0.1 * sigma

    def test_same_seed_same_tensors(self):
        a = generate_synthetic(10, 2, 1e-3, np.random.default_rng(5))
        b = generate_synthetic(10, 2, 1e-3, np.random.default_rng(5))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_non_cubic_shapes(self):
        exact, _, _ = generate_synthetic((8, 12, 5), (2, 3, 2), 0.0, np.random.default_rng(3))
        assert exact.shape == (8, 12, 5)
        assert multilinear_rank(exact) == (2, 3, 2)

    def test_rank_above_extent(self):
        with pytest.raises(ValueError):
            generate_synthetic(4, 5, 0.0, np.random.default_rng(4))

    @pytest.mark.parametrize("sigma", [-1e-3, np.nan, np.inf])
    def test_rejects_a_noise_level_that_is_not_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError, match=f"^noise level {sigma} must be finite and nonnegative$"):
            generate_synthetic(6, 2, sigma, np.random.default_rng(4))


class TestConfigValidation:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig([10], 2, [0.0], 1, 0, methods=["hosvd", "cp"])

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ExperimentConfig([10], 2, [0.0], 0, 0)
        with pytest.raises(ValueError):
            ExperimentConfig([], 2, [0.0], 1, 0)
        with pytest.raises(ValueError):
            ExperimentConfig([10], 11, [0.0], 1, 0)
        with pytest.raises(ValueError):
            ExperimentConfig([10], 2, [-1.0], 1, 0)

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_rejects_a_noise_level_that_is_not_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError, match=f"^noise level {sigma} must be finite and nonnegative$"):
            ExperimentConfig([10], 2, [0.0, sigma], 1, 0)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed -3 must be nonnegative$"):
            ExperimentConfig([10], 2, [0.0], 1, -3)


class TestRunSweep:
    def test_noiseless_parity_and_schema(self):
        cfg = ExperimentConfig(dims=[30], rank=3, sigmas=[0.0], trials=2, seed=7)
        rows = run_sweep(cfg)
        assert len(rows) == 2 * 5
        for row in rows:
            assert set(row) == set(CSV_HEADER.split(","))
            assert row["rank_ok"]
            assert row["rel_err"] < 1e-9
            assert row["runtime_ms"] >= 0.0

    def test_cur_errors_within_hundredfold_of_hosvd_under_light_noise(self):
        cfg = ExperimentConfig(
            dims=[50], rank=5, sigmas=[1e-7], trials=3, seed=11,
            methods=["fiber", "chidori", "hosvd"],
        )
        rows = run_sweep(cfg)
        hosvd_err = {r["trial"]: r["rel_err"] for r in rows if r["method"] == "hosvd"}
        for row in rows:
            if row["method"] in ("fiber", "chidori"):
                assert row["rel_err"] <= 100.0 * hosvd_err[row["trial"]]

    def test_error_columns_deterministic_given_seed(self):
        cfg = ExperimentConfig(
            dims=[20], rank=2, sigmas=[1e-4], trials=3, seed=3,
            methods=["fiber", "chidori", "hosvd"],
        )
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert [r["rel_err"] for r in a] == [r["rel_err"] for r in b]
        assert [r["resamples"] for r in a] == [r["resamples"] for r in b]

    def test_sampling_size_overrides(self):
        cfg = ExperimentConfig(
            dims=[16], rank=2, sigmas=[0.0], trials=1, seed=0,
            methods=["fiber"], row_samples=8, fiber_samples=30,
        )
        rows = run_sweep(cfg)
        assert rows[0]["rel_err"] < 1e-9

    def test_a_trial_releases_its_tensors_before_the_next_is_generated(self, monkeypatch):
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1 << 16)
        d = 64
        cfg = ExperimentConfig(dims=[d], rank=2, sigmas=[1e-4], trials=3, seed=0,
                               methods=["chidori"])
        tracemalloc.start()
        try:
            run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # generating a trial holds its exact tensor, noise and noisy tensor;
        # the previous trial's three tensors sat on top and peaked at 6x
        assert peak < 4 * 8 * d**3

    def test_forced_resamples_are_pinned(self):
        cfg = ExperimentConfig(
            dims=[15, 25], rank=3, sigmas=[0, 1e-3], trials=4, seed=11,
            methods=["fiber", "chidori", "hosvd"], row_samples=3, fiber_samples=2,
        )
        lines = rows_to_csv(run_sweep(cfg)).splitlines()
        got = [",".join(f[:7] + f[8:10]) for f in (line.split(",") for line in lines)]
        assert got == FORCED_RESAMPLE_SWEEP.splitlines()

    def test_csv_serialization(self, tmp_path):
        cfg = ExperimentConfig(
            dims=[12], rank=2, sigmas=[1e-4], trials=1, seed=1, methods=["chidori"]
        )
        rows = run_sweep(cfg)
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "chidori"
        assert fields[1] == "12"
        assert fields[3] == "0.0001"
        assert "e" in fields[6]  # scientific notation for rel_err
        out = tmp_path / "sweep.csv"
        write_csv(rows, out)
        assert out.read_text(encoding="utf-8") == text


def make_tensor_file(tmp_path, dims, ranks, sigma, seed, name="input.tnsr"):
    _, noisy, _ = generate_synthetic(dims, ranks, sigma, np.random.default_rng(seed))
    path = tmp_path / name
    write_tensor(path, noisy)
    return path, noisy


class TestCompress:
    def test_full_rank_compression_reports_exact(self, tmp_path):
        path, x = make_tensor_file(tmp_path, (6, 5, 4), (2, 2, 2), 0.0, 0)
        result = compress(path, "hosvd", (6, 5, 4), out_dir=tmp_path / "out")
        assert result.snr_db is None  # exact sentinel

    def test_cur_factor_files_round_trip(self, tmp_path):
        path, x = make_tensor_file(tmp_path, (18, 16, 14), (3, 3, 3), 1e-4, 1)
        out = tmp_path / "factors"
        result = compress(path, "chidori", (3, 3, 3), seed=5, out_dir=out)
        assert result.snr_db is not None and result.snr_db > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["method"] == "chidori"
        core = read_tensor(out / manifest["files"]["core"])
        assert core.ndim == 3
        for name in manifest["files"]["fibers"] + manifest["files"]["intersections"]:
            assert (out / name).exists()

    def test_reconstruction_flag_writes_tensor(self, tmp_path):
        path, x = make_tensor_file(tmp_path, (10, 10, 10), (2, 2, 2), 1e-3, 2)
        out = tmp_path / "rec"
        result = compress(path, "st-hosvd", (2, 2, 2), out_dir=out, write_reconstruction=True)
        approx = read_tensor(out / "reconstruction.tnsr")
        assert approx.shape == x.shape
        # SNR recomputed from the written reconstruction matches the report
        num = frobenius_norm(x) ** 2
        den = frobenius_norm(x - approx) ** 2
        assert 10 * np.log10(num / den) == pytest.approx(result.snr_db, rel=1e-9)

    def test_rank_above_extent_rejected(self, tmp_path):
        path, _ = make_tensor_file(tmp_path, (5, 5, 5), (2, 2, 2), 0.0, 3)
        with pytest.raises(ValueError):
            compress(path, "hosvd", (6, 2, 2), out_dir=tmp_path / "x")

    @pytest.mark.parametrize("method", ["chidori", "hosvd"])
    def test_non_finite_input_rejected(self, tmp_path, method):
        _, x, _ = generate_synthetic(20, 2, 0.0, np.random.default_rng(0))
        x[3, 4, 5] = np.nan
        path = tmp_path / "nan.tnsr"
        write_tensor(path, x)
        with pytest.raises(ValueError, match="non-finite"):
            compress(path, method, (2, 2, 2), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "method, sizes", [("chidori", {"row_samples": 0}), ("fiber", {"fiber_samples": 100000})]
    )
    def test_bad_sample_sizes_leave_no_output_directory(self, tmp_path, method, sizes):
        path, _ = make_tensor_file(tmp_path, (6, 6, 6), (2, 2, 2), 0.0, 4)
        with pytest.raises(ValueError, match="sample size"):
            compress(path, method, (2, 2, 2), out_dir=tmp_path / "out", **sizes)
        assert not (tmp_path / "out").exists()

    def test_unknown_method_rejected(self, tmp_path):
        path, _ = make_tensor_file(tmp_path, (5, 5, 5), (2, 2, 2), 0.0, 4)
        with pytest.raises(ValueError):
            compress(path, "cp", (2, 2, 2), out_dir=tmp_path / "x")

    def test_benchmark_sized_input_completes(self, tmp_path):
        # tall hyperspectral-like shape with per-mode ranks
        path, _ = make_tensor_file(tmp_path, (1017, 1340, 33), (60, 60, 7), 1e-2, 5)
        result = compress(path, "fiber", (60, 60, 7), seed=9, out_dir=tmp_path / "hyper")
        assert result.snr_db is not None
        assert result.runtime_ms > 0.0


def reference_reconstruction(x, method, ranks, seed):
    """``multi_mode_product(core, maps)`` of the decomposition ``compress`` makes."""
    if method in ("chidori", "fiber"):
        t, s = fiber_sample_sizes(x.shape, ranks)
        rows, cols = draw_indices(x, SamplingPlan(t, s if method == "fiber" else None, seed=seed))
        return cur_with_indices(x, rows, ranks, cols).reconstruct()
    return {"hosvd": hosvd, "st-hosvd": st_hosvd}[method](x, ranks).reconstruct()


class TestStreamedReconstruction:
    """``compress`` writes and differences the reconstruction chunk by chunk
    of last-mode slabs, from the Tucker form, without building it whole."""

    SHAPES = [
        ((40,), (1,)),
        ((30, 25), (2, 2)),
        ((16, 14, 12), (2, 2, 2)),
        ((9, 8, 7, 6), (2, 2, 2, 2)),
        ((24, 22, 1), (2, 2, 1)),
    ]

    @pytest.mark.parametrize("method", ["chidori", "fiber", "hosvd", "st-hosvd"])
    @pytest.mark.parametrize("dims,ranks", SHAPES)
    def test_chunking_and_reference(self, tmp_path, monkeypatch, method, dims, ranks):
        path, x = make_tensor_file(tmp_path, dims, ranks, 1e-3, 13)
        written = []
        for chunk_bytes in (1, x.nbytes):  # one slab per chunk, then the whole tensor
            monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", chunk_bytes)
            out = tmp_path / f"out{chunk_bytes}"
            result = compress(path, method, ranks, seed=6, out_dir=out, write_reconstruction=True)
            written.append((out / "reconstruction.tnsr").read_bytes())
        assert written[0] == written[1]
        approx = read_tensor(out / "reconstruction.tnsr")
        ref = reference_reconstruction(x, method, ranks, 6)
        assert frobenius_norm(approx - ref) <= 1e-12 * frobenius_norm(ref)
        residual, norm = frobenius_norm(x - ref), frobenius_norm(x)
        if residual <= 1e-9 * norm:  # a vector is its own rank-1 reconstruction
            assert result.snr_db is None
        else:
            assert result.snr_db == pytest.approx(20 * np.log10(norm / residual), rel=1e-9)

    @pytest.mark.parametrize("method,row_samples", [("hosvd", None), ("chidori", 5)])
    def test_exact_sentinel(self, tmp_path, method, row_samples):
        path, x = make_tensor_file(tmp_path, (5, 5, 5), (2, 2, 2), 1e-3, 14)
        out = tmp_path / "out"
        result = compress(path, method, (5, 5, 5), out_dir=out, write_reconstruction=True,
                          row_samples=row_samples)
        assert result.snr_db is None
        assert frobenius_norm(read_tensor(out / "reconstruction.tnsr") - x) <= 1e-12 * frobenius_norm(x)

    def test_zero_intersections_stream_zeros(self, tmp_path):
        dims, ranks, seed = (12, 10, 8), (2, 2, 2), 3
        x = np.random.default_rng(15).standard_normal(dims)
        plan = SamplingPlan(chidori_sample_sizes(dims, ranks), seed=seed)
        rows, _ = draw_indices(x, plan)
        x[np.ix_(*rows)] = 0.0  # every intersection is a zero matrix: k_i = 0
        path = tmp_path / "x.tnsr"
        write_tensor(path, x)
        out = tmp_path / "out"
        result = compress(path, "chidori", ranks, seed=seed, out_dir=out, write_reconstruction=True)
        assert not result.rank_ok
        assert not read_tensor(out / "reconstruction.tnsr").any()
        assert result.snr_db == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("method", experiments.METHODS)
    @pytest.mark.parametrize("scale", [1e200, 1e153, 1e-160, 1e-170, 1e-300])
    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 22])
    def test_squares_that_overflow_are_scaled(self, tmp_path, monkeypatch, method, scale,
                                              chunk_bytes):
        # at 1e200 one slab's squares overflow; at 1e153 each slab's sum is
        # finite and only the running sum overflows, after some slabs; the
        # squares that underflow are subnormal at 1e-160 and 0 below
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", chunk_bytes)
        big = scale * np.random.default_rng(18).standard_normal((8, 8, 8))
        snrs = []
        for name, x in (("big", big), ("unit", big * (1.0 / scale))):
            write_tensor(tmp_path / f"{name}.tnsr", x)
            result = compress(tmp_path / f"{name}.tnsr", method, (2, 2, 2), seed=1,
                              out_dir=tmp_path / name)
            snrs.append(result.snr_db)
        assert np.isfinite(snrs[0])
        assert snrs[0] == pytest.approx(snrs[1], abs=1e-9)

    # sha256 over the names and bytes of the factor files and the manifest,
    # recorded from the code that built the reconstruction whole
    FACTOR_DIGESTS = {
        "chidori": "2dfb3f2b65005fc717e6c09859664097189a5838860c6a4a8afdb2574cccb9d8",
        "fiber": "f6dbf72630058e75f794ed340c0efd8421b5e807b19d123dbbe0d8ab93185828",
    }

    @pytest.mark.parametrize("method", ["chidori", "fiber"])
    def test_cur_factor_files_are_pinned(self, tmp_path, method):
        path = tmp_path / "x.tnsr"
        write_tensor(path, np.random.default_rng(21).standard_normal((12, 10, 8)))
        out = tmp_path / method
        compress(path, method, (2, 2, 2), seed=4, out_dir=out, write_reconstruction=True)
        h = hashlib.sha256()
        for f in sorted(out.iterdir()):
            if f.name != "reconstruction.tnsr":
                h.update(f.name.encode())
                h.update(f.read_bytes())
        assert h.hexdigest() == self.FACTOR_DIGESTS[method]

    def test_tucker_factor_files(self, tmp_path):
        path, _ = make_tensor_file(tmp_path, (12, 10, 8), (2, 3, 2), 1e-3, 16)
        out = tmp_path / "out"
        compress(path, "st-hosvd", (2, 3, 2), out_dir=out, write_reconstruction=True)
        dec = st_hosvd(read_tensor(path), (2, 3, 2))
        ref = tmp_path / "ref.tnsr"
        for name, array in [("core", dec.core)] + [
            (f"factor_{i}", w) for i, w in enumerate(dec.factors)
        ]:
            write_tensor(ref, array)
            assert (out / f"{name}.tnsr").read_bytes() == ref.read_bytes()

    def test_peak_memory_is_the_input_plus_one_chunk(self, tmp_path, monkeypatch):
        path, x = make_tensor_file(tmp_path, (128, 128, 32), (4, 4, 4), 1e-3, 17)
        nbytes = x.nbytes
        del x
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1 << 16)
        tracemalloc.start()
        try:
            compress(path, "hosvd", (4, 4, 4), out_dir=tmp_path / "out", write_reconstruction=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole reconstruction next to the input peaked at 2.2x
        assert peak < 1.5 * nbytes


class TestStreamedCurCompress:
    """A CUR ``compress`` reads the file in chunks of last-mode slabs, twice,
    and writes what it writes for the loaded tensor, byte for byte."""

    @pytest.mark.parametrize("method", ["chidori", "fiber"])
    @pytest.mark.parametrize("dims,ranks", [((26, 22, 9), (2, 2, 2)), ((9, 8, 7, 9), (2, 2, 2, 2))])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_files_match_the_loaded_tensor(self, tmp_path, monkeypatch, method, dims, ranks,
                                           dtype):
        path = tmp_path / "x.tnsr"
        write_tensor(path, generate_synthetic(dims, ranks, 1e-3, np.random.default_rng(19))[1],
                     dtype=dtype)
        x = read_tensor(path)
        # four slabs a chunk: the last extent is not a multiple of it
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 4 * 8 * x[..., 0].size)
        measured = []
        monkeypatch.setattr(tensorfile, "frobenius_norm",
                            lambda t: measured.append(t.shape[-1]) or frobenius_norm(t))
        out = tmp_path / "out"
        result = compress(path, method, ranks, seed=6, out_dir=out, write_reconstruction=True)
        # one norm per chunk, all in the gather pass; the residual pass takes none
        assert measured == [min(4, dims[-1] - s) for s in range(0, dims[-1], 4)]

        t, s = fiber_sample_sizes(dims, ranks)
        rows, cols = draw_indices(x, SamplingPlan(t, s if method == "fiber" else None, seed=6))
        dec = cur_with_indices(x, rows, ranks, cols)
        ref = tmp_path / "ref"
        ref.mkdir()
        write_tensor(ref / "core.tnsr", dec.core)
        for i, (c, u) in enumerate(zip(dec.fibers, dec.intersections)):
            write_tensor(ref / f"fiber_{i}.tnsr", c)
            write_tensor(ref / f"intersection_{i}.tnsr", u)
        with SlabWriter(ref / "reconstruction.tnsr", dims) as writer:
            res = residual(x, *dec.tucker_form(), writer)
        for f in ref.iterdir():
            assert (out / f.name).read_bytes() == f.read_bytes(), f.name
        assert result.snr_db == pytest.approx(20 * np.log10(frobenius_norm(x) / res), rel=1e-12)

    @pytest.mark.parametrize("method", ["chidori", "fiber", "hosvd"])
    def test_nan_in_the_last_slab_is_rejected_before_any_output(self, tmp_path, monkeypatch,
                                                                method):
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1)  # one slab a chunk
        x = generate_synthetic((12, 10, 8), (2, 2, 2), 1e-3, np.random.default_rng(20))[1]
        x[5, 4, -1] = np.nan
        path = tmp_path / "nan.tnsr"
        write_tensor(path, x)
        with pytest.raises(ValueError, match=re.escape(f"{path} holds non-finite values")):
            compress(path, method, (2, 2, 2), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["chidori", "fiber"])
    def test_truncated_file_is_rejected_by_name(self, tmp_path, method):
        path, _ = make_tensor_file(tmp_path, (12, 10, 8), (2, 2, 2), 1e-3, 21)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TensorFileError, match=re.escape(str(path))):
            compress(path, method, (2, 2, 2), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_peak_memory_is_a_fraction_of_the_input(self, tmp_path, monkeypatch):
        path, x = make_tensor_file(tmp_path, (128, 128, 32), (4, 4, 4), 1e-3, 17)
        nbytes = x.nbytes
        del x
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1 << 16)
        tracemalloc.start()
        try:
            compress(path, "chidori", (4, 4, 4), out_dir=tmp_path / "out",
                     write_reconstruction=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # loading the file put the whole input next to the fibers: above 1x
        assert peak < 0.5 * nbytes


class TestOneSvdPerIntersection:
    """The rank gate reads the singular values of the SVD that builds each
    pseudoinverse, so a CUR attempt makes one SVD per mode."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    @pytest.mark.parametrize("method", ["chidori", "fiber"])
    def test_sweep_attempt(self, svd_calls, method):
        [row] = run_sweep(ExperimentConfig([20], 2, [0.0], 1, 3, methods=[method]))
        assert row["rank_ok"] and row["resamples"] == 0
        assert len(svd_calls) == 3

    def test_every_resample(self, svd_calls):
        cfg = ExperimentConfig(
            [15], 3, [0.0], 1, 11, methods=["fiber"], row_samples=3, fiber_samples=2
        )
        [row] = run_sweep(cfg)
        assert row["resamples"] == 10
        assert len(svd_calls) == 3 * 11

    @pytest.mark.parametrize("method", ["chidori", "fiber"])
    @pytest.mark.parametrize("dims,ranks", [((12, 10, 8), (2, 2, 2)), ((8, 7, 6, 5), (2, 2, 2, 2))])
    def test_compress(self, tmp_path, svd_calls, method, dims, ranks):
        path, _ = make_tensor_file(tmp_path, dims, ranks, 0.0, 0)
        result = compress(path, method, ranks, seed=1, out_dir=tmp_path / "out")
        assert result.rank_ok
        assert len(svd_calls) == len(dims)


class TestConvert:
    def test_round_trip_parity_with_cur_reconstruction(self, tmp_path):
        path, x = make_tensor_file(tmp_path, (15, 15, 15), (2, 2, 2), 1e-4, 6)
        cur_dir = tmp_path / "cur"
        compress(path, "chidori", (2, 2, 2), seed=2, out_dir=cur_dir,
                 write_reconstruction=True)
        cur_rec = read_tensor(cur_dir / "reconstruction.tnsr")
        tucker_dir = tmp_path / "tucker"
        converted = convert_factors(cur_dir, tucker_dir)
        parity = frobenius_norm(cur_rec - converted.reconstruct())
        assert parity <= 1e-9 * frobenius_norm(cur_rec)
        manifest = json.loads((tucker_dir / "manifest.json").read_text())
        core = read_tensor(tucker_dir / manifest["files"]["core"])
        factors = [read_tensor(tucker_dir / f) for f in manifest["files"]["factors"]]
        assert core.shape == converted.core.shape
        for w in factors:
            assert np.linalg.norm(w.T @ w - np.eye(w.shape[1])) < 1e-10

    @pytest.mark.parametrize("sigma", [0.0, 1e-4])
    def test_svd_operands_are_rank_sized(self, tmp_path, monkeypatch, sigma):
        # the intersections are t x t^2 with t > r; maps and conversion work
        # from their rank-sized factors, so every SVD operand has a side no
        # longer than the largest target rank
        ranks = (2, 3, 2)
        path, _ = make_tensor_file(tmp_path, (20, 18, 16), ranks, sigma, 12)
        operands = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            operands.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        cur_dir = tmp_path / "cur"
        result = compress(path, "chidori", ranks, seed=3, out_dir=cur_dir)
        assert result.rank_ok
        convert_factors(cur_dir, tmp_path / "tucker")
        manifest = json.loads((cur_dir / "manifest.json").read_text())
        assert min(read_tensor(cur_dir / manifest["files"]["core"]).shape) > max(ranks)
        assert operands and all(min(shape) <= max(ranks) for shape in operands)

    def test_rank_one_input(self, tmp_path):
        rng = np.random.default_rng(7)
        t = np.multiply.outer(
            np.multiply.outer(rng.standard_normal(6), rng.standard_normal(5)),
            rng.standard_normal(4),
        )
        path = tmp_path / "rank1.tnsr"
        write_tensor(path, t)
        cur_dir = tmp_path / "cur1"
        compress(path, "chidori", (1, 1, 1), seed=0, out_dir=cur_dir)
        converted = convert_factors(cur_dir, tmp_path / "tucker1")
        assert converted.core.shape == (1, 1, 1)

    def test_tucker_factors_rejected(self, tmp_path):
        path, _ = make_tensor_file(tmp_path, (8, 8, 8), (2, 2, 2), 0.0, 8)
        out = tmp_path / "hosvd"
        compress(path, "hosvd", (2, 2, 2), out_dir=out)
        with pytest.raises(ValueError, match="CUR"):
            convert_factors(out, tmp_path / "nope")

    @pytest.mark.parametrize(
        "name,clobber,message",
        [
            ("fiber_0.tnsr", lambda a: a[..., None],
             r"fiber_0\.tnsr has shape \(9, 25, 1\), the manifest gives \(9, 25\)"),
            ("fiber_0.tnsr", lambda a: a[1:],
             r"fiber_0\.tnsr has shape \(8, 25\), the manifest gives \(9, 25\)"),
            ("fiber_1.tnsr", lambda a: a[:, 1:],
             r"fiber_1\.tnsr has shape \(9, 24\), the manifest gives \(9, 25\)"),
            ("intersection_2.tnsr", lambda a: a[1:],
             r"intersection_2\.tnsr has shape \(4, 25\), the manifest gives \(5, 25\)"),
        ],
    )
    def test_inconsistent_factor_shapes_rejected(self, tmp_path, name, clobber, message):
        path, _ = make_tensor_file(tmp_path, (9, 9, 9), (2, 2, 2), 0.0, 9)
        out = tmp_path / "broken"
        compress(path, "chidori", (2, 2, 2), seed=1, out_dir=out)
        write_tensor(out / name, clobber(read_tensor(out / name)))  # clobber one factor
        with pytest.raises(ValueError, match=f"inconsistent factor shapes: {message}"):
            convert_factors(out, tmp_path / "nope2")

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda m: m["row_indices"].__setitem__(1, [0, 9]), "out of range"),
            (lambda m: m["row_indices"].__setitem__(0, [3, 1]), "increasing"),
            (lambda m: m["row_indices"].__setitem__(2, [0]),
             r"inconsistent factor shapes: core\.tnsr has shape \(5, 5, 5\), "
             r"the manifest gives \(5, 5, 1\)"),
            (lambda m: m["fiber_indices"].__setitem__(0, [0, 81]), "out of range"),
            (lambda m: m["fiber_indices"].__setitem__(1, [5, 5]), "increasing"),
            (lambda m: m["fiber_indices"].__setitem__(2, [0, 1, 2]),
             r"inconsistent factor shapes: fiber_2\.tnsr has shape \(9, 18\), "
             r"the manifest gives \(9, 3\)"),
            (lambda m: m["row_indices"].pop(), "mode count"),
        ],
    )
    def test_bad_manifest_indices_rejected(self, tmp_path, mutate, message):
        path, _ = make_tensor_file(tmp_path, (9, 9, 9), (2, 2, 2), 0.0, 9)
        out = tmp_path / "cur"
        compress(path, "fiber", (2, 2, 2), seed=1, out_dir=out)
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        mutate(manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=message):
            convert_factors(out, tmp_path / "nope")

    @pytest.mark.parametrize(
        "key", ["files", "dims", "ranks", "row_indices", "fiber_indices",
                "files.core", "files.fibers", "files.intersections"],
    )
    def test_missing_manifest_key_rejected(self, tmp_path, key):
        path, _ = make_tensor_file(tmp_path, (9, 9, 9), (2, 2, 2), 0.0, 9)
        out = tmp_path / "cur"
        compress(path, "chidori", (2, 2, 2), seed=1, out_dir=out)
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        *outer, name = key.split(".")
        del (manifest[outer[0]] if outer else manifest)[name]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"lacks the key '{name}'"):
            convert_factors(out, tmp_path / "nope")
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("name", ["core.tnsr", "fiber_1.tnsr", "intersection_0.tnsr"])
    def test_non_finite_factor_file_rejected_by_name(self, tmp_path, name):
        path, _ = make_tensor_file(tmp_path, (9, 9, 9), (2, 2, 2), 1e-3, 9)
        out = tmp_path / "cur"
        compress(path, "fiber", (2, 2, 2), seed=1, out_dir=out)
        factor = read_tensor(out / name)
        factor.flat[0] = np.nan
        write_tensor(out / name, factor)
        with pytest.raises(ValueError, match=f"{name} holds non-finite values"):
            convert_factors(out, tmp_path / "nope")
        assert not (tmp_path / "nope").exists()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            convert_factors(tmp_path, tmp_path / "out")


def dir_bytes(d):
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())}


class TestOutputsReplaced:
    """A rerun into the same directory replaces every output with the same
    bytes, and no output may be the input."""

    @pytest.mark.parametrize("method", ["chidori", "fiber", "hooi"])
    def test_compress_twice_gives_identical_files(self, tmp_path, method):
        path, _ = make_tensor_file(tmp_path, (12, 10, 8), (2, 2, 2), 1e-3, 30)
        out = tmp_path / "out"
        compress(path, method, (2, 2, 2), seed=3, out_dir=out, write_reconstruction=True)
        first = dir_bytes(out)
        compress(path, method, (2, 2, 2), seed=3, out_dir=out, write_reconstruction=True)
        assert dir_bytes(out) == first
        assert "reconstruction.tnsr" in first and len(first) > 3

    def test_convert_twice_gives_identical_files(self, tmp_path):
        path, _ = make_tensor_file(tmp_path, (12, 10, 8), (2, 2, 2), 1e-3, 31)
        compress(path, "chidori", (2, 2, 2), seed=3, out_dir=tmp_path / "cur")
        convert_factors(tmp_path / "cur", tmp_path / "tucker")
        first = dir_bytes(tmp_path / "tucker")
        convert_factors(tmp_path / "cur", tmp_path / "tucker")
        assert dir_bytes(tmp_path / "tucker") == first

    @pytest.mark.parametrize(
        "method,name",
        [("chidori", "core.tnsr"), ("chidori", "manifest.json"), ("fiber", "fiber_1.tnsr"),
         ("fiber", "intersection_2.tnsr"), ("chidori", "reconstruction.tnsr"),
         ("hosvd", "factor_0.tnsr")],
    )
    def test_an_input_among_the_outputs_is_rejected(self, tmp_path, method, name):
        d = tmp_path / "d"
        d.mkdir()
        path, _ = make_tensor_file(d, (12, 10, 8), (2, 2, 2), 1e-3, 32, name=name)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(f"{path} is the input")):
            compress(path, method, (2, 2, 2), out_dir=d, write_reconstruction=True)
        assert dir_bytes(d) == {name: before}

    def test_an_output_linked_to_the_input_is_rejected(self, tmp_path):
        path, _ = make_tensor_file(tmp_path, (12, 10, 8), (2, 2, 2), 1e-3, 33)
        before = path.read_bytes()
        out = tmp_path / "out"
        out.mkdir()
        (out / "core.tnsr").symlink_to(path)
        with pytest.raises(ValueError, match="is the input"):
            compress(path, "chidori", (2, 2, 2), out_dir=out)
        assert path.read_bytes() == before and [f.name for f in out.iterdir()] == ["core.tnsr"]

    def test_an_unwritten_reconstruction_may_be_the_input(self, tmp_path):
        path, _ = make_tensor_file(tmp_path, (12, 10, 8), (2, 2, 2), 1e-3, 34,
                                   name="reconstruction.tnsr")
        before = path.read_bytes()
        compress(path, "chidori", (2, 2, 2), out_dir=tmp_path)
        assert path.read_bytes() == before and (tmp_path / "core.tnsr").exists()

    @pytest.mark.parametrize("spell", [lambda d: d, lambda d: d / ".", lambda d: d / ".." / "cur"])
    def test_convert_into_its_own_directory_is_rejected(self, tmp_path, spell):
        path, _ = make_tensor_file(tmp_path, (12, 10, 8), (2, 2, 2), 1e-3, 35)
        cur = tmp_path / "cur"
        compress(path, "chidori", (2, 2, 2), seed=3, out_dir=cur, write_reconstruction=True)
        before = dir_bytes(cur)
        with pytest.raises(ValueError, match="is in_dir"):
            convert_factors(cur, spell(cur))
        assert dir_bytes(cur) == before
        convert_factors(cur, tmp_path / "tucker")  # the CUR directory still converts
