"""tvtsyn benchmark: one command per workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload stream-full-60ms --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from anywhere inside a checkout; the library is imported from the
checkout's own `src/`. Work files (the cached TVTW weights and the span dump)
go to `.bench_build/perfbench/` at the checkout root.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 feeds
every chunk (or utterance) a second time, right after the untraced call, to a
twin session with the library's entry points wrapped, and reports per-layer
metrics and the tracing overhead. Both modes check every output; the last
stdout line is the JSON result, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
WEIGHT_SEED = 0       # the benchmark's model; --seed varies only the inputs
SETUP_REPEATS = 7     # fresh set-up processes per run; their median is reported
CHILD_TIMEOUT_S = 120
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOTES = {
    "setup": "setup_s and setup_rss_mb come from fresh processes (median of "
             f"{SETUP_REPEATS}) with a warm page cache; the TVTW file is generated "
             "once and cached outside any timed region",
    "latency": "latency = chunk + hold (samples_in - samples_out after feed) + time "
               "from when the chunk was due until feed returns; offline: per-utterance "
               "synthesize time",
    "deadline_miss": "a chunk misses when due-to-return time exceeds the chunk duration",
    "bytes": "weight bytes come from tensor sizes of the parameter arrays each call "
             "reads, not from hardware counters",
}


def set_blas_threads() -> int:
    """At most one BLAS thread per CPU this process may run on; set before
    numpy is imported so that OpenBLAS picks it up."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tvtsyn
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tvtsyn from {src}: {exc}")
    if not Path(tvtsyn.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: tvtsyn imported from {tvtsyn.__file__}, not {src}")
    return tvtsyn


def run_setup_probe(wl, weights: Path, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--root", str(ROOT),
           "--workload", wl.name, "--weights", str(weights), "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def ensure_weights(tvtsyn, cfg) -> Path:
    """The cached full-config weight file, generated if absent."""
    path = WORK / f"weights-full-seed{WEIGHT_SEED}.tvtw"
    if not path.exists():
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tvtsyn.save_weights(tvtsyn.random_init(WEIGHT_SEED, cfg), tmp)
        os.replace(tmp, path)
    return path


def measure_setup(wl, weights: Path, seed: int) -> dict:
    with open(weights, "rb") as f:  # warm the page cache
        while f.read(1 << 23):
            pass
    runs = [run_setup_probe(wl, weights, seed) for _ in range(SETUP_REPEATS)]
    med = {k: statistics.median(r[k] for r in runs) for k in ("setup_s", "load_s", "rss_mb")}
    med.update(tensors=runs[0]["tensors"], file_bytes=runs[0]["file_bytes"],
               setup_s_runs=[r["setup_s"] for r in runs])
    return med


def end_to_end(setup: dict, m: dict) -> dict:
    return {
        "setup_s": (setup["setup_s"], "s"),
        "setup_rss_mb": (setup["rss_mb"], "MB"),
        "latency_ms_p50": (m["latency"]["p50"], "ms"),
        "latency_ms_tail": (m["latency"]["tail"], "ms"),
        "rtf": (m["rtf"], "ratio"),
        "audio_s_per_s": (m["audio_s_per_s"], "s/s"),
    }


def per_layer(setup: dict, layers: dict, root: str, extra: dict) -> dict:
    """Every per-layer metric. The root layer's glue is reported as `entry.*`
    on every workload: `streaming.feed` on streams, `model.synthesize` offline."""
    load_s = setup["load_s"]
    out = {
        "weights.load.self_ms": (1000.0 * load_s, "ms"),
        "weights.load.calls": (1, "count"),
        "weights.load.frames": (setup["tensors"], "count"),
        "weights.load.weight_mb": (setup["file_bytes"] / 1e6, "MB"),
        "weights.load.gbps": (setup["file_bytes"] / load_s / 1e9, "GB/s"),
    }
    for layer, r in layers.items():
        name = "entry" if layer == root else layer
        out[f"{name}.self_ms"] = (r["self_ms"], "ms")
        out[f"{name}.calls"] = (r["calls"], "count")
        out[f"{name}.frames"] = (r["frames"], "count")
        if layer != root:
            out[f"{name}.weight_mb"] = (r["weight_mb"], "MB")
            out[f"{name}.gbps"] = (r["gbps"], "GB/s")
    out.update(extra)
    return out


def run_workload(wl, model, cfg, inputs, setup, seconds, tracer, checks, report):
    import numpy as np

    import workloads as W

    if wl.streaming:
        verify_pieces = W.verify_stream(model, wl, inputs, checks)
        warm = W.warmup_chunks(wl, cfg)
        run = W.run_stream(model, wl, inputs, checks, warmup=warm, seconds=seconds,
                           tracer=tracer)
        W.check_measured_prefix(run, verify_pieces, checks)
        m = W.stream_metrics(wl, run)
        root, untraced_ms, traced_ms = "streaming.feed", run.feed_ms, run.traced_feed_ms
        outs = run.outputs[warm:]
    else:
        warm = 1
        run = W.run_offline(model, inputs, checks, warmup=warm, seconds=seconds,
                            tracer=tracer)
        m = W.offline_metrics(run)
        root, untraced_ms, traced_ms = "model.synthesize", run.latency_ms, run.traced_ms
        outs = run.outputs[warm:]
    report["untraced"] = m
    if tracer is None:
        return end_to_end(setup, m)

    tracer.write(WORK / f"spans-{wl.name}.jsonl")
    layers = tracer.layer_report()
    cnn_frames = layers["decoder.cnn"]["frames_total"]
    extra = {
        "decoder.cnn.useful_frame_ratio": (
            sum(o.size for o in outs) / W.HOP / cnn_frames if cnn_frames else 0.0, "ratio"),
        "trace.overhead_ms": (float(np.median(traced_ms) - np.median(untraced_ms)), "ms"),
        "trace.layer_share": (tracer.accounted_share(root), "ratio"),
    }
    report["layers"] = layers
    return per_layer(setup, layers, root, extra)


def run_all(names, seed: int, seconds: float) -> int:
    """Every workload, end to end and traced, each in a process of its own.
    Prints each run's lines, then one merged result keyed `<workload>/<metric>`."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            done = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)], capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines), flush=True)
            result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
            if result is None:
                merged["correct"] = False
                merged["attempted"] += 1
                merged["failed"] += 1
                continue
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    threads = set_blas_threads()
    tvtsyn = import_library()

    import spans
    import workloads as W

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*sorted(W.WORKLOADS), "all"],
                   help="one workload, or `all` for every workload, untraced and traced")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(W.WORKLOADS, args.seed, args.seconds)

    wl = W.WORKLOADS[args.workload]
    cfg = tvtsyn.ModelConfig()
    WORK.mkdir(parents=True, exist_ok=True)
    weights = ensure_weights(tvtsyn, cfg)
    setup = measure_setup(wl, weights, args.seed)

    model = tvtsyn.TvtSynModel.from_store(tvtsyn.load_weights(weights), cfg)
    inputs = W.make_inputs(wl, cfg, args.seed)
    checks = W.Checks()
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": threads, "setup": setup, "notes": NOTES}
    try:
        tracer = spans.Tracer() if args.trace else None
        metrics = run_workload(wl, model, cfg, inputs, setup, args.seconds, tracer,
                               checks, report)
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc()
        checks.record(False, "an operation raised; see stderr")
        metrics = {}
    report["failed_share"] = checks.failed / max(checks.attempted, 1)
    report["check_failures"] = checks.messages
    print(json.dumps({"report": report}, default=float))
    correct = checks.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
