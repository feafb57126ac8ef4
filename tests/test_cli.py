import json

import numpy as np
import pytest

from tensorcur import (
    SamplingPlan,
    chidori_cur,
    chidori_sample_sizes,
    evaluate_error_bounds,
    fiber_cur,
    fiber_sample_sizes,
    generate_synthetic,
    read_tensor,
    write_tensor,
)
from tensorcur.cli import main
from tensorcur.cur import draw_indices
from tensorcur.experiments import CSV_HEADER


def test_synthetic_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "synthetic", "--dims", "14", "--rank", "2", "--sigma", "0,1e-6",
        "--trials", "2", "--seed", "5", "--methods", "fiber,chidori,hosvd",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 3
    assert "wrote" in capsys.readouterr().out


def test_synthetic_determinism_across_runs(tmp_path):
    args = [
        "synthetic", "--dims", "12", "--rank", "2", "--sigma", "1e-4",
        "--trials", "2", "--seed", "9", "--methods", "chidori,hosvd",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    col = lambda p: [ln.split(",")[6] for ln in p.read_text().splitlines()[1:]]
    assert col(out1) == col(out2)


def test_compress_and_convert_subcommands(tmp_path, capsys):
    _, noisy, _ = generate_synthetic(12, 2, 1e-4, np.random.default_rng(0))
    src = tmp_path / "x.tnsr"
    write_tensor(src, noisy)
    cur_dir = tmp_path / "cur"
    code = main([
        "compress", "--input", str(src), "--method", "chidori",
        "--ranks", "2,2,2", "--seed", "3", "--out-dir", str(cur_dir),
        "--reconstruct",
    ])
    assert code == 0
    captured = capsys.readouterr()
    printed = captured.out
    assert "snr=" in printed and "runtime_ms=" in printed
    assert " rank_ok=1 " in printed
    assert "warning" not in captured.err
    assert (cur_dir / "manifest.json").exists()
    assert read_tensor(cur_dir / "reconstruction.tnsr").shape == noisy.shape

    tucker_dir = tmp_path / "tucker"
    code = main(["convert", "--in-dir", str(cur_dir), "--out-dir", str(tucker_dir)])
    assert code == 0
    manifest = json.loads((tucker_dir / "manifest.json").read_text())
    assert manifest["method"] == "hosvd"


def test_compress_exact_sentinel(tmp_path, capsys):
    _, noisy, _ = generate_synthetic(5, 2, 0.0, np.random.default_rng(1))
    src = tmp_path / "y.tnsr"
    write_tensor(src, noisy)
    main([
        "compress", "--input", str(src), "--method", "hosvd",
        "--ranks", "5,5,5", "--out-dir", str(tmp_path / "full"),
    ])
    assert "snr=exact" in capsys.readouterr().out


def test_compress_reports_rank_loss(tmp_path, capsys):
    # an exact rank-2 tensor cannot fill rank-3 intersections: the gate fails
    _, exact, _ = generate_synthetic(12, 2, 0.0, np.random.default_rng(0))
    src = tmp_path / "low.tnsr"
    write_tensor(src, exact)
    code = main([
        "compress", "--input", str(src), "--method", "chidori",
        "--ranks", "3,3,3", "--out-dir", str(tmp_path / "low"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert " rank_ok=0 " in captured.out
    assert "warning: rank gate failed" in captured.err


def test_compress_reports_a_reconstruction_without_signal(tmp_path, capsys):
    # a rank-1 spike on rows outside the drawn index sets: the sample sees only
    # 1e-6 noise, keeps its rank, and reconstructs none of the spike
    dims, ranks, seed = (16, 16, 16), (1, 1, 1), 4
    plan = SamplingPlan(chidori_sample_sizes(dims, ranks), seed=seed)
    rows, _ = draw_indices(np.empty(dims), plan)
    spike = []
    for d, idx in zip(dims, rows):
        v = np.ones(d)
        v[idx] = 0.0
        spike.append(v)
    rank_one = np.multiply.outer(np.multiply.outer(spike[0], spike[1]), spike[2])
    x = 1e-6 * np.random.default_rng(5).standard_normal(dims) + rank_one
    src = tmp_path / "spike.tnsr"
    write_tensor(src, x)
    code = main([
        "compress", "--input", str(src), "--method", "chidori", "--ranks", "1,1,1",
        "--seed", str(seed), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert " rank_ok=1 " in captured.out
    assert "rank gate" not in captured.err
    assert "warning: the reconstruction carries no signal" in captured.err


def test_check_bounds_prints_report(capsys):
    code = main([
        "check-bounds", "--dims", "20", "--rank", "2", "--sigma", "1e-6",
        "--seed", "4", "--method", "chidori",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "measured_error" in out
    assert "general_bound" in out
    assert "chidori_bound" in out
    assert "premise_ok" in out


def test_check_bounds_fiber_variant(capsys):
    code = main([
        "check-bounds", "--dims", "24,20,22", "--rank", "2", "--sigma", "1e-7",
        "--seed", "2", "--method", "fiber",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chidori_bound" not in out
    assert "guaranteed" in out


@pytest.mark.parametrize("method, dims, sigma, seed", [
    ("chidori", [20], 1e-6, 4),
    ("fiber", [24, 20, 22], 1e-7, 2),
    # the 60 x 16 mode-0 unfolding is tall, so the bounds take its thin SVD
    ("chidori", [60, 4, 4], 1e-6, 0),
    ("fiber", [60, 4, 4], 1e-6, 0),
])
def test_check_bounds_prints_the_bounds_of_one_draw_at_the_default_sizes(
        capsys, method, dims, sigma, seed):
    code = main([
        "check-bounds", "--dims", ",".join(map(str, dims)), "--rank", "2",
        "--sigma", str(sigma), "--seed", str(seed), "--method", method,
    ])
    assert code == 0
    exact, noisy, noise = generate_synthetic(dims if len(dims) > 1 else dims[0], 2, sigma,
                                             np.random.default_rng(seed))
    ranks = (2, 2, 2)
    rows = chidori_sample_sizes(exact.shape, ranks)
    if method == "chidori":
        dec = chidori_cur(noisy, SamplingPlan(rows, seed=seed), ranks)
    else:
        plan = SamplingPlan(rows, fiber_counts=fiber_sample_sizes(exact.shape, ranks)[1], seed=seed)
        dec = fiber_cur(noisy, plan, ranks)
    report = evaluate_error_bounds(exact, noise, dec)
    expected = [
        f"variant: {method}",
        f"measured_error:        {report.measured_error:.6e}",
        f"general_bound:         {report.general_bound:.6e}",
    ]
    if method == "chidori":
        expected.append(f"chidori_bound:         {report.chidori_bound:.6e}")
    expected += [
        f"premise_ok:            {list(report.premise_ok)}",
        f"guaranteed:            {report.guaranteed}",
        f"core_noise_norm:       {report.core_noise_norm:.6e}",
    ]
    assert capsys.readouterr().out.splitlines()[: len(expected)] == expected


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def assert_input_error(code, capsys, message):
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("tensorcur: error: ") and message in line


def test_convert_without_a_manifest_is_an_input_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["convert", "--in-dir", str(empty), "--out-dir", str(tmp_path / "out")])
    assert_input_error(code, capsys, "no manifest.json")


def test_convert_of_tucker_factors_is_an_input_error(tmp_path, capsys):
    _, noisy, _ = generate_synthetic(8, 2, 0.0, np.random.default_rng(2))
    src = tmp_path / "t.tnsr"
    write_tensor(src, noisy)
    tucker_dir = tmp_path / "tucker"
    main(["compress", "--input", str(src), "--method", "hosvd", "--ranks", "2,2,2",
          "--out-dir", str(tucker_dir)])
    capsys.readouterr()
    code = main(["convert", "--in-dir", str(tucker_dir), "--out-dir", str(tmp_path / "out")])
    assert_input_error(code, capsys, "conversion requires CUR factors")


def test_convert_of_a_manifest_without_files_is_an_input_error(tmp_path, capsys):
    cur_dir = tmp_path / "cur"
    cur_dir.mkdir()
    (cur_dir / "manifest.json").write_text(json.dumps({"method": "chidori"}))
    code = main(["convert", "--in-dir", str(cur_dir), "--out-dir", str(tmp_path / "out")])
    assert_input_error(code, capsys, "manifest.json lacks the key 'files'")


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(manifest):
        for step in path:
            manifest = manifest[step]
        manifest[key] = value

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _set("ranks", None),
        _set("ranks", 2),
        _set("dims", None),
        _set("dims", 2, None),
        _set("row_indices", None),
        _set("row_indices", 0, None),
        _set("fiber_indices", 5),
        _set("files", "fibers", None),
        _set("files", "core", 5),
        _set("dims", 0, float("inf")),
        _set("row_indices", 1, [0, 2**70]),
        _set("dims", "abc"),
        _set("row_indices", 0, [[0], [1, 2]]),
        _set("ranks", "222"),
    ],
    ids=["ranks=null", "ranks=2", "dims=null", "dims[2]=null", "row_indices=null",
         "row_indices[0]=null", "fiber_indices=5", "files.fibers=null", "files.core=5",
         "dims[0]=Infinity", "row_indices[1]=[0,2**70]", "dims=abc",
         "row_indices[0]=[[0],[1,2]]", "ranks=222"],
)
def test_convert_of_a_manifest_with_a_wrong_type_is_an_input_error(tmp_path, capsys, mutate):
    _, noisy, _ = generate_synthetic(9, 2, 0.0, np.random.default_rng(4))
    src = tmp_path / "t.tnsr"
    write_tensor(src, noisy)
    cur_dir = tmp_path / "cur"
    main(["compress", "--input", str(src), "--method", "fiber", "--ranks", "2,2,2",
          "--out-dir", str(cur_dir)])
    capsys.readouterr()
    manifest = json.loads((cur_dir / "manifest.json").read_text())
    mutate(manifest)
    (cur_dir / "manifest.json").write_text(json.dumps(manifest))
    code = main(["convert", "--in-dir", str(cur_dir), "--out-dir", str(tmp_path / "out")])
    assert_input_error(code, capsys, f"{cur_dir / 'manifest.json'} is malformed: ")
    assert not (tmp_path / "out").exists()


def test_compress_of_a_truncated_file_is_an_input_error(tmp_path, capsys):
    _, noisy, _ = generate_synthetic(8, 2, 0.0, np.random.default_rng(3))
    src = tmp_path / "cut.tnsr"
    write_tensor(src, noisy)
    src.write_bytes(src.read_bytes()[:-8])
    code = main(["compress", "--input", str(src), "--method", "chidori", "--ranks", "2,2,2",
                 "--out-dir", str(tmp_path / "out")])
    assert_input_error(code, capsys, str(src))
    assert not (tmp_path / "out").exists()


def test_compress_of_a_missing_file_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "absent.tnsr"
    code = main(["compress", "--input", str(src), "--method", "chidori", "--ranks", "2,2,2"])
    assert_input_error(code, capsys, "absent.tnsr")


@pytest.mark.parametrize("sizes", [["--row-samples", "0"], ["--fiber-samples", "100000"]])
def test_compress_with_bad_sample_sizes_leaves_no_output_directory(tmp_path, capsys, sizes):
    _, noisy, _ = generate_synthetic(8, 2, 0.0, np.random.default_rng(4))
    src = tmp_path / "t.tnsr"
    write_tensor(src, noisy)
    code = main(["compress", "--input", str(src), "--method", "fiber", "--ranks", "2,2,2",
                 "--out-dir", str(tmp_path / "out"), *sizes])
    assert_input_error(code, capsys, "sample size")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["core.tnsr", "fiber_1.tnsr", "intersection_0.tnsr"])
def test_convert_of_a_non_finite_factor_names_the_file(tmp_path, capsys, name):
    _, noisy, _ = generate_synthetic(8, 2, 1e-3, np.random.default_rng(5))
    src = tmp_path / "t.tnsr"
    write_tensor(src, noisy)
    cur_dir = tmp_path / "cur"
    main(["compress", "--input", str(src), "--method", "fiber", "--ranks", "2,2,2",
          "--out-dir", str(cur_dir)])
    capsys.readouterr()
    factor = read_tensor(cur_dir / name)
    factor.flat[0] = np.nan
    write_tensor(cur_dir / name, factor)
    code = main(["convert", "--in-dir", str(cur_dir), "--out-dir", str(tmp_path / "out")])
    assert_input_error(code, capsys, f"{cur_dir / name} holds non-finite values")


@pytest.mark.parametrize("ranks, message", [
    ([0, 2, 2], "rank 0 out of range for extent 12 at mode 0"),
    ([2, 2, 99], "rank 99 out of range for extent 12 at mode 2"),
    ([2, 2], "expected 3 ranks, got 2"),
], ids=["zero", "beyond-extent", "too-few"])
def test_convert_rejects_manifest_ranks_out_of_range(tmp_path, capsys, ranks, message):
    _, noisy, _ = generate_synthetic(12, 2, 1e-3, np.random.default_rng(8))
    src = tmp_path / "t.tnsr"
    write_tensor(src, noisy)
    cur_dir = tmp_path / "cur"
    main(["compress", "--input", str(src), "--method", "chidori", "--ranks", "2,2,2",
          "--out-dir", str(cur_dir)])
    capsys.readouterr()
    manifest = json.loads((cur_dir / "manifest.json").read_text())
    (cur_dir / "manifest.json").write_text(json.dumps({**manifest, "ranks": ranks}))
    code = main(["convert", "--in-dir", str(cur_dir), "--out-dir", str(tmp_path / "out")])
    assert_input_error(code, capsys, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dims", ["", ","], ids=["empty", "comma"])
def test_check_bounds_without_dims_is_an_input_error(capsys, dims):
    code = main(["check-bounds", "--dims", dims, "--rank", "2", "--sigma", "0"])
    assert_input_error(code, capsys, "tensor must have at least one mode")


@pytest.mark.parametrize("argv", [
    ["synthetic", "--dims", "8", "--rank", "2", "--sigma", "0,nan"],
    ["synthetic", "--dims", "8", "--rank", "2", "--sigma", "inf", "--methods", "hosvd"],
    ["synthetic", "--dims", "8", "--rank", "2", "--sigma", "0,-1e-3"],
    ["check-bounds", "--dims", "8", "--rank", "2", "--sigma", "nan"],
    ["check-bounds", "--dims", "8", "--rank", "2", "--sigma", "inf"],
])
def test_a_noise_level_that_is_not_finite_and_nonnegative_is_an_input_error(
        tmp_path, capsys, argv):
    sigma = argv[argv.index("--sigma") + 1].split(",")[-1]
    out = ["--out", str(tmp_path / "sweep.csv")] if argv[0] == "synthetic" else []
    code = main(argv + out)
    assert_input_error(code, capsys, f"noise level {float(sigma)} must be finite and nonnegative")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["synthetic", "compress", "check-bounds"])
def test_a_negative_seed_is_an_input_error(tmp_path, capsys, command):
    _, noisy, _ = generate_synthetic(8, 2, 0.0, np.random.default_rng(6))
    src = tmp_path / "t.tnsr"
    write_tensor(src, noisy)
    argv = {
        "synthetic": ["synthetic", "--dims", "8", "--rank", "2",
                      "--out", str(tmp_path / "sweep.csv")],
        "compress": ["compress", "--input", str(src), "--method", "chidori", "--ranks", "2,2,2",
                     "--out-dir", str(tmp_path / "out")],
        "check-bounds": ["check-bounds", "--dims", "8", "--rank", "2", "--sigma", "0"],
    }[command]
    code = main(argv + ["--seed", "-3"])
    assert_input_error(code, capsys, "seed -3 must be nonnegative")
    assert not (tmp_path / "out").exists() and not (tmp_path / "sweep.csv").exists()



@pytest.mark.parametrize("method", ["chidori", "fiber", "hosvd", "st-hosvd", "hooi"])
def test_compress_rejects_a_negative_seed_with_every_method(tmp_path, capsys, method):
    # a Tucker method draws no sample, so no sampling plan would see the seed
    _, noisy, _ = generate_synthetic(12, 2, 1e-3, np.random.default_rng(7))
    src = tmp_path / "t.tnsr"
    write_tensor(src, noisy)
    code = main(["compress", "--input", str(src), "--method", method, "--ranks", "2,2,2",
                 "--seed", "-1", "--out-dir", str(tmp_path / "out")])
    assert_input_error(code, capsys, "seed -1 must be nonnegative")
    assert not (tmp_path / "out").exists()


def _dir_bytes(d):
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())}


def test_compress_and_convert_rerun_into_their_directories(tmp_path, capsys):
    _, noisy, _ = generate_synthetic(12, 2, 1e-3, np.random.default_rng(8))
    src = tmp_path / "x.tnsr"
    write_tensor(src, noisy)
    compress_argv = ["compress", "--input", str(src), "--method", "chidori", "--ranks", "2,2,2",
                     "--seed", "3", "--out-dir", str(tmp_path / "cur"), "--reconstruct"]
    convert_argv = ["convert", "--in-dir", str(tmp_path / "cur"),
                    "--out-dir", str(tmp_path / "tucker")]
    assert main(compress_argv) == 0 and main(convert_argv) == 0
    first = _dir_bytes(tmp_path / "cur"), _dir_bytes(tmp_path / "tucker")
    assert main(compress_argv) == 0 and main(convert_argv) == 0
    assert (_dir_bytes(tmp_path / "cur"), _dir_bytes(tmp_path / "tucker")) == first


def test_compress_over_its_own_input_is_an_input_error(tmp_path, capsys):
    _, noisy, _ = generate_synthetic((12, 10, 8), 2, 1e-3, np.random.default_rng(9))
    src = tmp_path / "core.tnsr"
    write_tensor(src, noisy)
    before = src.read_bytes()
    code = main(["compress", "--input", str(src), "--method", "chidori", "--ranks", "2,2,2",
                 "--out-dir", str(tmp_path), "--reconstruct"])
    assert_input_error(code, capsys, f"{src} is the input")
    assert _dir_bytes(tmp_path) == {"core.tnsr": before}


def test_convert_into_its_own_directory_is_an_input_error(tmp_path, capsys):
    _, noisy, _ = generate_synthetic(12, 2, 1e-3, np.random.default_rng(10))
    src = tmp_path / "x.tnsr"
    write_tensor(src, noisy)
    cur_dir = tmp_path / "cur"
    main(["compress", "--input", str(src), "--method", "fiber", "--ranks", "2,2,2",
          "--out-dir", str(cur_dir)])
    capsys.readouterr()
    before = _dir_bytes(cur_dir)
    code = main(["convert", "--in-dir", str(cur_dir), "--out-dir", str(cur_dir)])
    assert_input_error(code, capsys, "is in_dir")
    assert _dir_bytes(cur_dir) == before
