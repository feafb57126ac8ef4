import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def latest_bench_file() -> Path:
    """The ``BENCH_<n>.json`` at the repository root with the largest ``n``."""
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert files, "no BENCH_*.json at the repository root"
    return files[-1]


def test_the_latest_bench_file_names_every_workload_and_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = json.loads(latest_bench_file().read_text(encoding="utf-8"))
    seeds = bench["seeds"]
    assert seeds and len(set(seeds)) == len(seeds)
    assert bench["commit"] and bench["command"]
    assert {"numpy", "blas_threads", "nproc"} <= bench["box"].keys()
    assert sorted(bench["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for name, workload in bench["workloads"].items():
        assert workload["failed"] == 0, name
        metrics = workload["metrics"]
        assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"]), name
        for m in spec["end_to_end"]:
            got = metrics[m["name"]]
            assert got["unit"] == m["unit"], (name, m["name"])
            assert len(got["values"]) == len(seeds), (name, m["name"])
            assert got["median"] == statistics.median(got["values"]), (name, m["name"])
            assert got["q1"] <= got["median"] <= got["q3"], (name, m["name"])
