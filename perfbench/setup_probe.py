"""Fresh-process set-up measurement for the benchmark.

Times set-up of one workload (load the TVTW file, build the model, open the
run's sessions) and reports peak RSS once set-up is done, as one JSON line.
run.py starts it with the BLAS thread settings it chose; numpy and tvtsyn are
imported before the clock starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's own peak RSS (VmHWM). ru_maxrss is not used: Linux
    carries it over from the parent across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout root holding src/tvtsyn")
    p.add_argument("--workload", required=True)
    p.add_argument("--weights", required=True, help="TVTW file to load")
    p.add_argument("--seed", type=int, required=True, help="input seed (speakers)")
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(args.root) / "src"))
    import tvtsyn
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    cfg = tvtsyn.ModelConfig()

    speakers = workloads.make_speakers(wl.sessions, cfg, args.seed)
    scfg = tvtsyn.StreamConfig(chunk_ms=wl.chunk_ms) if wl.streaming else None
    t0 = time.perf_counter()
    store = tvtsyn.load_weights(args.weights)
    t1 = time.perf_counter()
    model = tvtsyn.TvtSynModel.from_store(store, cfg)
    sessions = [tvtsyn.open_session(model, scfg, spk) for spk in speakers]
    t2 = time.perf_counter()
    rss_mb = peak_rss_mb()
    print(json.dumps({
        "setup_s": t2 - t0,
        "load_s": t1 - t0,
        "rss_mb": rss_mb,
        "tensors": len(store),
        "file_bytes": os.path.getsize(args.weights),
        "sessions": len(sessions),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
