"""tensorcur benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload cur-uniform-300 --seed 1 --seconds 20 --trace 0

The parent process generates the workload's inputs from ``--seed`` into a
work directory (several times, to report a median set-up time), then starts
one measuring process.  That process loads the inputs, warms up with one
untimed cycle of the workload's methods, and runs cycles back to back for
``--seconds``, so each operation starts only after the previous one ends.
Every output is checked; ops whose plan seed repeats must give bit-identical
outputs.  Library defaults are kept, including the BLAS thread count, which
is recorded and never allowed above ``nproc``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` first runs untraced calibration cycles for a third of
``--seconds``, then installs span wrappers and ``tracemalloc`` and replays
the same plans (their outputs must be bit-identical to the untraced ones).
It writes the spans to ``perfbench/.out/`` and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_REPS = 3
DEADLINE_S = 170.0
TAIL_MIN_BEYOND = 10


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _import_library():
    sys.path.insert(0, str(SRC))
    import tensorcur

    if Path(tensorcur.__file__).resolve().parent != SRC / "tensorcur":
        raise ImportError(f"tensorcur imported from {tensorcur.__file__}, not from {SRC}")
    return tensorcur


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    base = Path(np.__file__).parent
    for lib in sorted(glob.glob(str(base.parent / "numpy.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload) -> dict:
    import ctypes

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    llc = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE, answered from cpuid
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "input_mb": round(workload.input_mb, 1),
        "llc_mib": round(llc / 2**20, 1) if llc > 0 else None,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------- measuring


def reset_peak_rss() -> bool:
    """Start a new RSS high-water mark for this process; False if the kernel
    refuses, and the mark then runs from the process's start."""
    try:
        Path("/proc/self/clear_refs").write_text("5", encoding="ascii")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """VmHWM of this process.  Unlike ``ru_maxrss``, which exec seeds with the
    peak of the process that started it, VmHWM covers this address space
    only, so the parent's input generation never shows in it."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


class Session:
    """Runs and checks ops, keeping one record per op."""

    def __init__(self, workload, seed: int, inputs: dict):
        self.wl = workload
        self.seed = seed
        self.inputs = inputs
        self.records: list[dict] = []
        self.digests: dict[tuple, str] = {}

    def op(self, method: str, cycle: int, phase: str, tracer=None) -> dict:
        from workloads import OpFailed, plan_seed

        rec = {"method": method, "cycle": cycle, "phase": phase, "ok": False,
               "ms": None, "rel_err": None, "health": None}
        op_id = len(self.records)
        self.records.append(rec)
        plan = self.wl.plan(method, plan_seed(self.seed, cycle))
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = self.wl.run(method, plan, self.inputs)
            else:
                with tracer.op(op_id):
                    out = self.wl.run(method, plan, self.inputs)
            rec["ms"] = (time.perf_counter() - t0) * 1e3
            if tracer is not None:
                rec["health"] = self.wl.health(method, out, self.inputs)
            rec["rel_err"] = self.wl.check(method, out, self.inputs)
            if cycle == 0:
                self._same_as_before((method, cycle), self.wl.digest(method, out))
            rec["ok"] = True
        except OpFailed as exc:
            rec["error"] = str(exc)
        except Exception as exc:  # the closed loop keeps running; the op counts as failed
            traceback.print_exc()
            rec["error"] = repr(exc)
        if not rec["ok"]:
            print(f"op {op_id} ({method}, cycle {cycle}) failed: {rec['error']}", file=sys.stderr)
        return rec

    def _same_as_before(self, key, digest: str) -> None:
        from workloads import OpFailed

        if self.digests.setdefault(key, digest) != digest:
            raise OpFailed("output not bit-identical to an earlier run of the same plan")

    def cycles(self, first: int, seconds: float, phase: str, tracer=None) -> int:
        """Run whole cycles from ``first`` until ``seconds`` have passed."""
        start = time.perf_counter()
        cycle = first
        while True:
            for method in self.wl.methods:
                self.op(method, cycle, phase, tracer)
            cycle += 1
            if time.perf_counter() - start >= seconds:
                return cycle


def tail(values):
    """Highest integer percentile with at least ten samples beyond it, as
    ``(percentile, value, samples beyond)``; None below twenty samples."""
    n = len(values)
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    pct = math.floor(100 * (n - TAIL_MIN_BEYOND) / n)
    rank = math.ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1], n - rank


def end_to_end(records, methods) -> dict:
    """Per-method latency, throughput, failures and worst error of the
    timed ops; every value is ``(value, unit, note)``.

    ``op1_ms.p50`` and ``op2_ms.p50`` repeat the medians of the first and
    second method of the cycle, so that every workload reports the same
    latency names."""
    out = {}
    for m in methods:
        ms = [r["ms"] for r in records if r["method"] == m and r["ok"]]
        if not ms:
            continue
        out[f"{m}_ms.p50"] = (statistics.median(ms), "ms", f"n={len(ms)}")
        t = tail(ms)
        if t is not None:
            out[f"{m}_ms.tail"] = (t[1], "ms", f"p{t[0]}, n={len(ms)}, {t[2]} beyond")
    for slot, m in enumerate(methods[:2], 1):
        if f"{m}_ms.p50" in out:
            out[f"op{slot}_ms.p50"] = (out[f"{m}_ms.p50"][0], "ms", f"{m}_ms.p50")
    cycles = defaultdict(list)
    for r in records:
        cycles[r["cycle"]].append(r)
    rates = [sum(r["ok"] for r in rs) / busy
             for rs in cycles.values() if (busy := sum(r["ms"] or 0.0 for r in rs) / 1e3) > 0]
    out["ops_per_s"] = (statistics.median(rates), "1/s",
                        f"completed ops over op time, median of {len(rates)} cycles")
    failed = len(records) - sum(r["ok"] for r in records)
    out["failed_frac"] = (failed / len(records), "ratio", f"{failed} of {len(records)}")
    errs = [r["rel_err"] for r in records if r["rel_err"] is not None]
    if errs:
        out["rel_err.max"] = (max(errs), "ratio", f"over {len(errs)} checked outputs")
    return out


MAX_LAYER = ("cur.extract_alloc_mb", "tensor.alloc_peak_mb", "sampling.alloc_peak_mb",
             "tensorfile.alloc_peak_mb")


def _op_layers(p) -> dict:
    ms, cnt, own = p["ms"], p["count"], p["self_ms"]
    return {
        "cur.extract_ms": ms["cur.cur_with_indices"],
        "cur.extract_alloc_mb": p["peak_mb"]["cur.cur_with_indices"],
        "tensor.self_ms": own["tensor"],
        "tensor.calls": p["calls"]["tensor"],
        "tensor.alloc_peak_mb": p["layer_peak_mb"]["tensor"],
        "sampling.self_ms": own["sampling"],
        "sampling.length_dist_ms": ms["sampling.length_distribution"],
        "sampling.draw_ms": ms["sampling.sample_without_replacement"],
        "sampling.indices_drawn": cnt["sampling.sample_without_replacement"],
        "sampling.alloc_peak_mb": p["layer_peak_mb"]["sampling"],
        "linalg.self_ms": own["linalg"],
        "linalg.pinv_ms": ms["linalg.rank_r_pinv"],
        "linalg.calls": p["calls"]["linalg"],
        "cur.mode_maps_ms": ms["cur.mode_maps"],
        "tucker.self_ms": own["tucker"],
        "tucker.calls": p["calls"]["tucker"],
        "tensorfile.read_ms": ms["tensorfile.read_tensor"],
        "tensorfile.write_ms": ms["tensorfile.write_tensor"],
        "tensorfile.bytes_read": cnt["tensorfile.read_tensor"],
        "tensorfile.bytes_written": cnt["tensorfile.write_tensor"],
        "tensorfile.alloc_peak_mb": p["layer_peak_mb"]["tensorfile"],
        "analysis.self_ms": own["analysis"],
        # compress rebuilds the CUR reconstruction by hand instead of calling reconstruct()
        "cur.reconstruct_ms": ms["cur.reconstruct"]
        + ms["experiments.compress>tensor.multi_mode_product"],
        "experiments.self_ms": own["experiments"],
        "cur.to_tucker_ms": ms["cur.cur_to_hosvd"],
        "cur.self_ms": own["cur"],
        "trace.spans": p["spans"],
    }


def per_layer(records, spans, methods) -> dict:
    """Per-layer values of the traced ops: within each cycle the per-op mean
    (the max for peaks), then the median over cycles."""
    from spans import op_profiles

    profiles = op_profiles(spans)
    cycles = defaultdict(list)
    for op_id, rec in enumerate(records):
        if rec["phase"] == "traced" and op_id in profiles:
            cycles[rec["cycle"]].append(_op_layers(profiles[op_id]))
    per_cycle = []
    for ops in cycles.values():
        row = {}
        for key in ops[0]:
            vals = [o[key] for o in ops]
            row[key] = max(vals) if key in MAX_LAYER else sum(vals) / len(vals)
        for io, moved in (("read", "bytes_read"), ("write", "bytes_written")):
            ms = row[f"tensorfile.{io}_ms"]
            row[f"tensorfile.{io}_mb_s"] = row[f"tensorfile.{moved}"] / 1e3 / ms if ms > 0 else 0.0
        per_cycle.append(row)
    out = {key: statistics.median(r[key] for r in per_cycle) for key in per_cycle[0]}

    traced = [r for r in records if r["phase"] == "traced"]
    health = [r["health"] for r in traced if r["health"]]
    sig = [h["sigma_r_rel"] for h in health if "sigma_r_rel" in h]
    out["linalg.sigma_r_rel_min"] = min(sig) if sig else 0.0
    cur_cycles = defaultdict(list)
    for r in traced:
        if r["health"] and "entries_read" in r["health"]:
            cur_cycles[r["cycle"]].append(r["health"])
    for key in ("entries_read", "read_fraction"):
        vals = [statistics.fmean(h[key] for h in hs) for hs in cur_cycles.values()]
        out[f"cur.{key}"] = statistics.median(vals) if vals else 0.0
    gated = [h["rank_ok"] for h in health if "rank_ok" in h]
    out["cur.rank_ok_ratio"] = sum(gated) / len(gated) if gated else 0.0

    ratios = []
    for m in methods:
        plain = [r["ms"] for r in records if r["phase"] == "calibrate" and r["method"] == m and r["ok"]]
        with_trace = [r["ms"] for r in traced if r["method"] == m and r["ok"]]
        if plain and with_trace:
            ratios.append(statistics.median(with_trace) / statistics.median(plain))
    out["trace.overhead_frac"] = statistics.geometric_mean(ratios) - 1.0 if ratios else 0.0
    return out


def child_main(work: Path) -> int:
    cfg = json.loads((work / "config.json").read_text(encoding="utf-8"))
    tc = _import_library()
    import workloads

    wl = (workloads.TINY if cfg["tiny"] else workloads.WORKLOADS)[cfg["workload"]]
    env = environment(wl)
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        return _fail(f"BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs")
    seconds = cfg["seconds"]

    t0 = time.perf_counter()
    session = Session(wl, cfg["seed"], wl.load(work))
    session.cycles(0, 0.0, "warmup")
    setup_s = time.perf_counter() - t0

    result = {"env": env, "child_setup_s": setup_s}
    if not cfg["trace"]:
        result["rss_from"] = "timed phase" if reset_peak_rss() else "process start"
        session.cycles(0, seconds, "timed")
        result["peak_rss_mb"] = peak_rss_mb()
        timed = [r for r in session.records if r["phase"] == "timed"]
        result["metrics"] = end_to_end(timed, wl.methods)
    else:
        import tracemalloc

        from spans import Tracer, write_spans

        session.cycles(1, seconds / 3, "calibrate")
        tracer = Tracer(counters={
            "sampling.sample_without_replacement": lambda a, k, r: len(r),
            "tensorfile.read_tensor": lambda a, k, r: os.path.getsize(a[0]),
            "tensorfile.write_tensor": lambda a, k, r: os.path.getsize(a[0]),
        })
        tracemalloc.start()
        tracer.install(tc, also=("cur.cur_with_indices",),
                       methods=((tc.CurDecomposition, "mode_maps"),
                                (tc.CurDecomposition, "reconstruct")))
        try:
            session.cycles(0, seconds * 2 / 3, "traced", tracer)
        finally:
            tracer.uninstall()
            tracemalloc.stop()
        size = "tiny-" if cfg["tiny"] else ""
        spans_path = OUT / f"spans-{size}{cfg['workload']}-seed{cfg['seed']}.jsonl"
        write_spans(tracer.spans, spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["layers"] = per_layer(session.records, tracer.spans, wl.methods)
    result["attempted"] = len(session.records)
    result["failed"] = sum(not r["ok"] for r in session.records)
    result["digests"] = {f"{m}/{c}": d for (m, c), d in session.digests.items()}
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


# ------------------------------------------------------------- orchestration


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in env and env[var].isdigit() and int(env[var]) > nproc():
            env[var] = str(nproc())
    return env


def parent_main(args) -> int:
    started = time.perf_counter()
    _import_library()
    import workloads

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    if args.workload not in table:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    wl = table[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.generate(args.seed, work)
            reps.append(time.perf_counter() - t0)
        (work / "config.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}), encoding="utf-8")
        budget = DEADLINE_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(work)],
                                  env=_child_env(), timeout=budget, check=False)
        except subprocess.TimeoutExpired:
            return _fail(f"measuring process exceeded {budget:.0f} s and was killed")
        if proc.returncode != 0:
            return _fail(f"measuring process exited with {proc.returncode}")
        res = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gen_s = statistics.median(reps)
    setup_s = gen_s + res["child_setup_s"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          " (one closed-loop client)")
    print("env " + json.dumps(res["env"]))
    print(f"digests {json.dumps(res['digests'], sort_keys=True)}")
    print(f"{'setup_s':<24}{setup_s:>14.4f} s      generation+write median of {SETUP_REPS} "
          f"{gen_s:.3f} s, load+warm-up {res['child_setup_s']:.3f} s")
    if args.trace:
        metrics = res["layers"]
        names = spec["per_layer"]
        print(f"spans written to {res['spans_file']}; file I/O rates are page-cache-warm")
        for m in names:
            print(f"{m['name']:<24}{metrics[m['name']]:>14.6g} {m['unit']}")
    else:
        metrics = {k: v[0] for k, v in res["metrics"].items()}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        print(f"{'peak_rss_mb':<24}{res['peak_rss_mb']:>14.4f} MB     VmHWM of the measuring "
              f"process from {res['rss_from']}")
        for name, (value, unit, note) in res["metrics"].items():
            print(f"{name:<24}{value:>14.6g} {unit:<6} {note}")
        names = spec["end_to_end"]
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        # a method without one successful op has no median: null, and correct is false
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in names},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the benchmark's tests")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "tensorcur" / "__init__.py").is_file():
        return _fail(f"no tensorcur sources under {SRC}")
    if args.child:
        return child_main(Path(args.child))
    if args.workload is None:
        return _fail("--workload is required")
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
