"""Tests of the benchmark itself, at tiny sizes."""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

tc = run._import_library()
import workloads  # noqa: E402  (needs the library on sys.path)
from spans import ROOT as ROOT_SPAN  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# the end-to-end lines each workload prints for people, beyond BENCHMARK.json;
# the .tail lines need 20 samples and are checked in test_tail_has_ten_samples_beyond
PRINTED = {
    "cur-uniform-300": ["chidori_ms.p50", "fiber_ms.p50"],
    "cur-length-300": ["chidori_ms.p50", "fiber_ms.p50"],
    "tucker-150": ["hosvd_ms.p50", "st_hosvd_ms.p50", "hooi_ms.p50"],
    "compress-file": ["compress_ms.p50", "convert_ms.p50"],
}
COMMON = {"setup_s": "s", "ops_per_s": "1/s", "failed_frac": "ratio", "peak_rss_mb": "MB",
          "rel_err.max": "ratio", "op1_ms.p50": "ms", "op2_ms.p50": "ms"}


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120, check=False)


def _lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_every_metric_printed_with_unit(name):
    args = ["--workload", name, "--seed", "3", "--seconds", "0.4", "--tiny"]
    text, plain = _lines(_bench(*args, "--trace", "0"))
    traced_text, traced = _lines(_bench(*args, "--trace", "1"))

    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())

    printed = {}
    for line in text:
        parts = line.split()
        if len(parts) >= 3 and parts[0][0].isalpha() and parts[0] not in ("env", "digests"):
            printed[parts[0]] = parts[2]
    wanted = dict(COMMON, **{m: "ms" for m in PRINTED[name]})
    assert {m: printed.get(m) for m in wanted} == wanted

    # wrappers pass values through: traced outputs equal untraced ones bit for bit
    digest = [line for line in text if line.startswith("digests ")]
    assert digest and digest == [line for line in traced_text if line.startswith("digests ")]


def _tiny_session(name, tmp_path):
    wl = workloads.TINY[name]
    wl.generate(5, tmp_path)
    return run.Session(wl, 5, wl.load(tmp_path))


def _corrupt_fiber(out):
    dec, _ = out
    dec = dataclasses.replace(dec, fibers=(dec.fibers[0] * 1.1,) + dec.fibers[1:])
    return dec, dec.mode_maps()


def _corrupt_factor(out):
    factors = list(out.factors)
    factors[1] = factors[1] * 1.01
    return dataclasses.replace(out, factors=tuple(factors))


@pytest.mark.parametrize("name, corrupt", [
    ("cur-uniform-300", _corrupt_fiber),
    ("tucker-150", _corrupt_factor),
])
def test_corrupted_factor_counts_as_failure(name, corrupt, tmp_path, monkeypatch):
    session = _tiny_session(name, tmp_path)
    session.cycles(0, 0.0, "timed")
    assert all(r["ok"] for r in session.records)

    cls = type(session.wl)
    honest = cls.run
    monkeypatch.setattr(cls, "run", lambda self, *a: corrupt(honest(self, *a)))
    session.records.clear()
    session.cycles(1, 0.0, "timed")
    metrics = run.end_to_end(session.records, session.wl.methods)
    assert metrics["failed_frac"][0] == 1.0


def test_corrupted_converted_factor_counts_as_failure(tmp_path, monkeypatch):
    session = _tiny_session("compress-file", tmp_path)
    honest = workloads.CompressWorkload.run

    def run_op(self, method, plan, inputs):
        out = honest(self, method, plan, inputs)
        return _corrupt_factor(out) if method == "convert" else out

    monkeypatch.setattr(workloads.CompressWorkload, "run", run_op)
    session.cycles(0, 0.0, "timed")
    assert [r["ok"] for r in session.records] == [True, False]
    assert run.end_to_end(session.records, session.wl.methods)["failed_frac"][0] == 0.5


def test_replayed_plan_must_be_bit_identical(tmp_path, monkeypatch):
    session = _tiny_session("tucker-150", tmp_path)
    session.cycles(0, 0.0, "warmup")
    honest = workloads.TuckerWorkload.run

    def last_bit_off(self, *args):
        out = honest(self, *args)
        return dataclasses.replace(out, core=np.nextafter(out.core, 0.0))

    monkeypatch.setattr(workloads.TuckerWorkload, "run", last_bit_off)
    session.cycles(0, 0.0, "timed")
    assert not any(r["ok"] for r in session.records if r["phase"] == "timed")


def test_self_times_add_up_to_op_span(tmp_path):
    session = _tiny_session("compress-file", tmp_path)
    tracer = Tracer()
    tracer.install(tc, also=("cur.cur_with_indices",),
                   methods=((tc.CurDecomposition, "mode_maps"),))
    try:
        session.cycles(0, 0.0, "traced", tracer)
    finally:
        tracer.uninstall()
    assert tc.cur.unfold is tc.tensor.unfold and tc.chidori_cur is tc.cur.chidori_cur

    own = self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.name == ROOT_SPAN]
    assert len(roots) == 2
    for root in roots:
        spans = [s for s in tracer.spans if s.op == root.op]
        assert len(spans) > 5
        assert sum(own[s.id] for s in spans) == pytest.approx(root.end - root.start, rel=1e-9)
        assert all(own[s.id] >= 0 for s in spans)
    layers = {s.layer for s in tracer.spans if s.op is not None}
    assert {"experiments", "tensorfile", "cur", "tensor", "linalg"} <= layers


def test_nested_alloc_peak_folds_into_parent():
    import tracemalloc

    tracer = Tracer()
    inner = tracer.wrap(lambda: np.ones(1_000_000).sum(), "tensor.inner")
    outer = tracer.wrap(lambda: inner() + np.ones(10).sum(), "cur.outer")
    tracemalloc.start()
    try:
        with tracer.op(0):
            outer()
    finally:
        tracemalloc.stop()
    peaks = {s.name: s.alloc_peak for s in tracer.spans}
    assert peaks["tensor.inner"] >= 8_000_000
    assert peaks["cur.outer"] >= peaks["tensor.inner"]
    assert peaks[ROOT_SPAN] >= peaks["cur.outer"]


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(1, 21))) == (50, 10, 10)
    pct, value, beyond = run.tail(list(range(1, 101)))
    assert (pct, value, beyond) == (90, 90, 10)

    methods = ("compress", "convert")
    records = [{"method": m, "cycle": c, "ok": True, "ms": float(c + 1), "rel_err": None}
               for c in range(20) for m in methods]
    metrics = run.end_to_end(records[:-2], methods)
    assert "compress_ms.tail" not in metrics and "convert_ms.tail" not in metrics
    metrics = run.end_to_end(records, methods)
    assert metrics["compress_ms.tail"] == (10.0, "ms", "p50, n=20, 10 beyond")
    assert metrics["convert_ms.tail"][:2] == (10.0, "ms")
    assert metrics["op1_ms.p50"][:2] == metrics["compress_ms.p50"][:2] == (10.5, "ms")
    assert metrics["op2_ms.p50"][:2] == metrics["convert_ms.p50"][:2]


def test_peak_rss_leaves_out_generation(monkeypatch, capsys):
    ballast_mb = 256
    honest = workloads.TuckerWorkload.generate

    def bloated(self, seed, work):
        ballast = np.ones(ballast_mb * 2**17)  # every page written, so resident
        honest(self, seed, work)
        del ballast

    monkeypatch.setattr(workloads.TuckerWorkload, "generate", bloated)
    assert run.main(["--workload", "tucker-150", "--seed", "2", "--seconds", "0.2",
                     "--trace", "0", "--tiny"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "from timed phase" in next(line for line in out if line.startswith("peak_rss_mb"))
    peak = json.loads(out[-1])["metrics"]["peak_rss_mb"]["value"]
    assert 0 < peak < ballast_mb / 2


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _bench("--workload", "tucker-150", "--seed", "1", "--seconds", "1", "--tiny",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
