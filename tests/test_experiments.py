import json

import numpy as np
import pytest

from tensorcur import (
    ExperimentConfig,
    compress,
    convert_factors,
    frobenius_norm,
    generate_synthetic,
    multilinear_rank,
    read_tensor,
    run_sweep,
    write_csv,
    write_tensor,
)
from tensorcur.experiments import CSV_HEADER, rows_to_csv

# non-timing columns (all but runtime_ms and extract_ms) of a sweep whose
# fiber rows all exhaust their 10 resamples, which shifts the chidori seeds
# after them; recorded from the sweep's earlier, separate CUR code
FORCED_RESAMPLE_SWEEP = """\
method,d,r,sigma,trial,seed,rel_err,rank_ok,resamples
fiber,15,3,0,0,11,3.143660411485e+00,0,10
chidori,15,3,0,0,11,6.300338051079e-13,1,0
hosvd,15,3,0,0,11,1.073321986506e-15,1,0
fiber,15,3,0,1,12,8.219305912826e-01,0,10
chidori,15,3,0,1,12,1.191169406600e-15,1,0
hosvd,15,3,0,1,12,9.442975599622e-16,1,0
fiber,15,3,0,2,13,1.699546544899e+00,0,10
chidori,15,3,0,2,13,1.100133351931e-15,1,0
hosvd,15,3,0,2,13,1.154531042182e-15,1,0
fiber,15,3,0,3,14,1.379093707349e+00,0,10
chidori,15,3,0,3,14,1.499308317945e-15,1,0
hosvd,15,3,0,3,14,1.228350757027e-15,1,0
fiber,15,3,0.001,0,11,3.143328712322e+00,0,10
chidori,15,3,0.001,0,11,1.594024849219e+00,1,0
hosvd,15,3,0.001,0,11,4.998265969356e-05,1,0
fiber,15,3,0.001,1,12,8.225084152633e-01,0,10
chidori,15,3,0.001,1,12,1.191320672450e-03,1,0
hosvd,15,3,0.001,1,12,6.501166940142e-05,1,0
fiber,15,3,0.001,2,13,1.700420365047e+00,0,10
chidori,15,3,0.001,2,13,5.742940644190e-04,1,0
hosvd,15,3,0.001,2,13,3.904217526621e-05,1,0
fiber,15,3,0.001,3,14,1.382002786073e+00,0,10
chidori,15,3,0.001,3,14,3.192613544068e-03,1,0
hosvd,15,3,0.001,3,14,3.983716012528e-05,1,0
fiber,25,3,0,0,11,8.732292197007e-01,0,10
chidori,25,3,0,0,11,1.493524241961e-15,1,0
hosvd,25,3,0,0,11,9.995337685905e-16,1,0
fiber,25,3,0,1,12,1.488780810953e+00,0,10
chidori,25,3,0,1,12,1.959087781122e-15,1,0
hosvd,25,3,0,1,12,1.047740687511e-15,1,0
fiber,25,3,0,2,13,9.421482343889e+00,0,10
chidori,25,3,0,2,13,1.625947913154e-15,1,0
hosvd,25,3,0,2,13,1.162241805282e-15,1,0
fiber,25,3,0,3,14,1.653688026056e+00,0,10
chidori,25,3,0,3,14,1.753816870959e-15,1,0
hosvd,25,3,0,3,14,9.931381981083e-16,1,0
fiber,25,3,0.001,0,11,8.716085869561e-01,0,10
chidori,25,3,0.001,0,11,4.025875979197e-03,1,0
hosvd,25,3,0.001,0,11,3.852099688639e-05,1,0
fiber,25,3,0.001,1,12,1.489624453665e+00,0,10
chidori,25,3,0.001,1,12,9.555460743969e-04,1,0
hosvd,25,3,0.001,1,12,3.368036065261e-05,1,0
fiber,25,3,0.001,2,13,9.437858667521e+00,0,10
chidori,25,3,0.001,2,13,2.416160134828e-03,1,0
hosvd,25,3,0.001,2,13,1.640158787790e-05,1,0
fiber,25,3,0.001,3,14,1.652457022987e+00,0,10
chidori,25,3,0.001,3,14,1.865754663770e-02,1,0
hosvd,25,3,0.001,3,14,2.176624349390e-05,1,0
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

    def test_inconsistent_factor_shapes_rejected(self, tmp_path):
        path, _ = make_tensor_file(tmp_path, (9, 9, 9), (2, 2, 2), 0.0, 9)
        out = tmp_path / "broken"
        compress(path, "chidori", (2, 2, 2), seed=1, out_dir=out)
        write_tensor(out / "fiber_0.tnsr", np.ones((3, 2)))  # clobber one factor
        with pytest.raises(ValueError, match="inconsistent"):
            convert_factors(out, tmp_path / "nope2")

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda m: m["row_indices"].__setitem__(1, [0, 9]), "out of range"),
            (lambda m: m["row_indices"].__setitem__(0, [3, 1]), "increasing"),
            (lambda m: m["row_indices"].__setitem__(2, [0]), "index count"),
            (lambda m: m["fiber_indices"].__setitem__(0, [0, 81]), "out of range"),
            (lambda m: m["fiber_indices"].__setitem__(1, [5, 5]), "increasing"),
            (lambda m: m["fiber_indices"].__setitem__(2, [0, 1, 2]), "index count"),
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

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            convert_factors(tmp_path, tmp_path / "out")
