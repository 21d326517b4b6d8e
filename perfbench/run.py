#!/usr/bin/env python3
"""The repo benchmark: three fmm::Engine workloads, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Builds perfbench/ (and through it the fmm library from the repository root)
into .bench_build/perfbench, then measures workload W in fresh child
processes with a hermetic environment: every FMM_*/OMP_*/GOMP_* variable is
cleared, and the calibration and history caches point at fresh per-run
files, so every run starts equally cold.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1 runs the
workload twice, untraced and traced (FMM_TRACE, FMM_METRICS and the
benchmark's own spans), then the layer probes, and reports the per-layer
metrics.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is non-zero when a result fails its check or anything
cannot be built or run.  See perfbench/README.md for the metric list.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"

WORKLOADS = ("onelevel_1core", "serving_small", "parallel_mixed")

# The metric names and units come from BENCHMARK.json; a run that cannot
# produce every metric its mode lists fails instead of printing a result.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None

# Set-up is timed in the measuring process and in this many extra
# set-up-only processes; setup_s is the median.
SETUP_EXTRA = 2
# Rates are medians over equal time slices of the window, so a dip in the
# host's speed that lasts a few seconds moves them little.  Slices hold
# about 15 or more requests each at the default run length.
SLICES = {"onelevel_1core": 5, "serving_small": 10, "parallel_mixed": 5}
PATHS = {0: "gemm", 1: "fmm", 2: "auto"}
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no fmm sources next to {HERE.name}/ (expected {ROOT}/src)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    env = dict(os.environ, TMPDIR=str(tmp_dir()))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")


def tmp_dir():
    d = BUILD / "tmp"
    d.mkdir(parents=True, exist_ok=True)
    return d


def hermetic_env(run_dir, fmm_trace):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("FMM_", "OMP_", "GOMP_"))}
    env["FMM_CALIB_CACHE"] = str(run_dir / "calib_cache.txt")
    env["FMM_HISTORY_CACHE"] = str(run_dir / "history_cache.txt")
    env["FMM_METRICS"] = "1" if fmm_trace else "0"
    env["TMPDIR"] = str(tmp_dir())
    if fmm_trace:
        env["FMM_TRACE"] = str(run_dir / "fmm_trace.json")
        env["FMM_TRACE_BUF"] = "65536"
    return env


def child(mode, workload, seed, seconds, tag, fmm_trace=False, spans=False):
    """Runs the measuring binary once in a fresh run directory.

    fmm_trace turns on the library's FMM_TRACE/FMM_METRICS; spans records the
    benchmark's own spans."""
    run_dir = BUILD / "runs" / f"{workload}-{seed}-{os.getpid()}-{tag}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out = run_dir / "result.json"
    cmd = [str(BINARY), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--out", str(out)]
    if spans:
        cmd += ["--spans", str(run_dir / "bench_spans.json")]
    try:
        proc = subprocess.run(cmd, env=hermetic_env(run_dir, fmm_trace),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{mode} {workload} timed out")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if not out.is_file():
        fail(f"{mode} {workload} exited {proc.returncode} without a result")
    res = json.loads(out.read_text())
    res["run_dir"] = run_dir
    return res


def percentile(sorted_vals, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not sorted_vals:
        return float("nan")
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def requests_of(res):
    r = res["requests"]
    return [dict(path=int(p), f32=bool(f), flops=fl, lat=l, end=e, ok=bool(o))
            for p, f, fl, l, e, o in zip(r["path"], r["f32"], r["flops"],
                                         r["lat_s"], r["end_s"], r["ok"])]


def slice_median(reqs, window, slices, rate):
    """Median over equal time slices of rate(requests ending in the slice,
    slice length); slices without requests are skipped."""
    vals = []
    for i in range(slices):
        lo, hi = window * i / slices, window * (i + 1) / slices
        sel = [q for q in reqs if lo <= q["end"] < hi or
               (i == slices - 1 and q["end"] >= hi)]
        if sel:
            vals.append(rate(sel, hi - lo))
    return statistics.median(vals) if vals else rate(reqs, window)


def class_gflops(reqs, path):
    """Useful GFLOP/s of one request class: the median over its requests of
    2mnk / latency.  A flops-weighted sum would be dominated by the few
    largest requests of a skewed mix."""
    rates = [q["flops"] / q["lat"] * 1e-9 for q in reqs if q["path"] == path]
    return statistics.median(rates) if rates else float("nan")


def end_to_end(res, setup_samples):
    reqs = requests_of(res)
    window = res["window_s"]
    lat = sorted(q["lat"] * 1e6 for q in reqs)
    tail_q = float(res["tail"][1:])
    tail = percentile(lat, tail_q)
    k = SLICES[res["workload"]]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "gemm_gflops": class_gflops(reqs, 0),
        "fmm_gflops": class_gflops(reqs, 1),
        "auto_gflops": class_gflops(reqs, 2),
        "latency_p50_us": percentile(lat, 50),
        "latency_tail_us": tail,
        "requests_per_s": slice_median(reqs, window, k,
                                       lambda sel, dt: len(sel) / dt),
        "throughput_gflops": slice_median(
            reqs, window, k,
            lambda sel, dt: sum(q["flops"] for q in sel) / dt * 1e-9),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    notes = {
        "samples": len(reqs),
        "tail_percentile": res["tail"],
        "samples_beyond_tail": sum(1 for v in lat if v > tail),
        "per_class_samples": {PATHS[p]: sum(1 for q in reqs if q["path"] == p)
                              for p in PATHS},
        "f32_share": sum(q["f32"] for q in reqs) / max(len(reqs), 1),
        "window_s": window,
        "setup_samples_s": setup_samples,
        "engine_stats_delta": res["stats"],
        "bufpool_peak_mib": bufpool_peak_mib(res),
    }
    return metrics, notes


def bufpool_peak_mib(res):
    """The workload engine's recursive buffer-pool peak, from the
    metrics_report_json() gauges."""
    gauges = res["metrics_report"].get("gauges", {})
    return gauges.get("engine.recurse.peak_bytes", 0) / 2**20


def revision():
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    # Not a git checkout: fingerprint the library sources instead.
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


# --- traced run ------------------------------------------------------------

def load_trace_summary():
    """tools/trace_summary.py as a module (its loader validates the file)."""
    import importlib.util
    sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
    path = ROOT / "tools" / "trace_summary.py"
    spec = importlib.util.spec_from_file_location("trace_summary", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return path, mod


def self_times(spans):
    """Per-category self time: on each thread, every instant goes to the
    innermost open span (the one that started last).

    Waits (task.wait, worker.idle) are not work, and request spans cover a
    request end to end across threads (queue wait included), so they are
    left out; the Engine's own bookkeeping then shows as pool time (task
    bodies outside executor and recursive spans)."""
    by_thread = {}
    for e in spans:
        name = e.get("name", "")
        if name in ("task.wait", "worker.idle") or "request." in name:
            continue
        by_thread.setdefault((e.get("pid"), e.get("tid")), []).append(e)
    by_cat = {}
    for events in by_thread.values():
        points = []
        for i, e in enumerate(events):
            points.append((e["ts"], 1, i))
            points.append((e["ts"] + e.get("dur", 0), 0, i))
        points.sort()
        active, last = set(), None
        for t, is_start, i in points:
            if active and t > last:
                inner = max(active, key=lambda j: (events[j]["ts"],
                                                   -events[j].get("dur", 0)))
                cat = events[inner].get("cat", "?")
                by_cat[cat] = by_cat.get(cat, 0.0) + (t - last)
            if is_start:
                active.add(i)
            else:
                active.discard(i)
            last = t
    return by_cat


# Layers whose self time is a per-layer metric.  Every category's self
# time is also printed as a note; "recurse" stays a note because it reads
# exactly 0 on workloads that never descend.
SELF_LAYERS = ("pool", "executor", "bench")


def traced_metrics(workload, seed, seconds):
    half = max(seconds / 2.0, 1.0)
    plain = child("run", workload, seed, half, "untraced")
    traced = child("run", workload, seed, half, "traced", fmm_trace=True,
                   spans=True)
    probes = child("probe", workload, seed, 0, "probe", spans=True)
    summary_path, summary = load_trace_summary()
    trace_file = traced["run_dir"] / "fmm_trace.json"
    proc = subprocess.run([sys.executable, str(summary_path), str(trace_file)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"trace_summary.py rejected {trace_file}: {proc.stderr.strip()}")
    busy = [float(m.group(1)) / 100.0 for m in
            re.finditer(r"^\s+worker \d+\s+([\d.]+)%", proc.stdout, re.M)]
    doc, events = summary.load_events(str(trace_file))
    lib_spans = [e for e in events if e.get("ph") == "X"]
    waits = [e["dur"] for e in lib_spans if e.get("name") == "task.wait"]
    _, bench_spans = summary.load_events(str(traced["run_dir"] / "bench_spans.json"))

    stats = traced["stats"]
    reqs = requests_of(traced)
    m = dict(probes["layers"])
    m["engine.exec_cache.hit_ratio"] = (
        stats["hits"] / max(stats["hits"] + stats["misses"], 1))
    m["engine.choice_cache.hit_ratio"] = (
        stats["choice_hits"] / max(stats["choice_hits"] + stats["choice_misses"], 1))
    m["engine.history.useful_rerank_ratio"] = (
        stats["history_overrides"] / max(stats["choice_misses"], 1))
    m["task_pool.queue_wait_us"] = statistics.mean(waits) if waits else 0.0
    m["task_pool.worker_busy_frac"] = statistics.mean(busy) if busy else 0.0
    m["process.peak_threads"] = traced["peak_threads"]
    tput = lambda res: (sum(q["flops"] for q in requests_of(res)) /
                        res["window_s"])
    m["obs.trace_overhead_frac"] = 1.0 - tput(traced) / tput(plain)
    self_us = {layer: t / max(len(reqs), 1)
               for layer, t in self_times(lib_spans + bench_spans).items()}
    for layer in SELF_LAYERS:
        m[f"trace.self_us_per_request.{layer}"] = self_us.get(layer, 0.0)
    _, probe_spans = summary.load_events(str(probes["run_dir"] / "bench_spans.json"))
    probe_s = {}
    for e in probe_spans:
        if e["args"]["parent"] == 0:
            probe_s[e["cat"]] = probe_s.get(e["cat"], 0.0) + e["dur"] * 1e-6
    notes = {
        "probe_seconds_per_layer": probe_s,
        "self_us_per_request": self_us,
        "trace_events": len(events),
        "trace_dropped": doc.get("otherData", {}).get("dropped_events", 0),
        "traced_requests": len(reqs),
        "untraced_requests": len(requests_of(plain)),
        "stats_delta": stats,
        "bufpool_peak_mib": bufpool_peak_mib(traced),
    }
    runs = (plain, traced)
    failed = sum(not q["ok"] for r in runs for q in requests_of(r))
    failed += probes["failed_checks"]
    attempted = sum(len(requests_of(r)) for r in runs) + probes["checks"]
    for res in (plain, traced, probes):
        shutil.rmtree(res["run_dir"], ignore_errors=True)
    return m, notes, attempted, failed, probes.get("host", {})


# --- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if SPEC is None:
        fail(f"no BENCHMARK.json in {ROOT}")
    build()
    rev = revision()
    if args.trace:
        metrics, notes, attempted, failed, host = traced_metrics(
            args.workload, args.seed, args.seconds)
    else:
        setups = [child("setup", args.workload, args.seed, 0, f"setup{i}")
                  for i in range(SETUP_EXTRA)]
        res = child("run", args.workload, args.seed, args.seconds, "run")
        samples = [res["setup_s"]] + [s["setup_s"] for s in setups]
        metrics, notes = end_to_end(res, samples)
        reqs = requests_of(res)
        attempted = len(reqs) + 1 + SETUP_EXTRA  # + each set-up's first request
        failed = (sum(not q["ok"] for q in reqs) +
                  sum(not s["setup_ok"] for s in setups + [res]))
        host = res.get("host", {})
        for r in setups + [res]:
            shutil.rmtree(r["run_dir"], ignore_errors=True)
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail(f"metrics not produced: {', '.join(missing)}")
    metrics = {k: metrics[k] for k in units}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} revision={rev}")
    print("host " + json.dumps(host, sort_keys=True))
    for k, v in notes.items():
        print(f"note {k} = {json.dumps(v)}")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted})")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
