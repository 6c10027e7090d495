"""One workload process: set up, run timed passes, check outputs, report JSON.

Run by `perfbench/run.py`, one process at a time:

    python3 -m perfbench.worker WORKLOAD --t0 T [--passes N] [--trace]

`--t0` is the parent's `time.monotonic()` just before it started this process.
CLOCK_MONOTONIC is system-wide, so the set-up time covers interpreter start,
the import of `cckp` and the workload's own set-up.  The last line of
standard output is one JSON object.

Each time is reported as measured (`setup_raw`, `walls_raw`) and scaled to
a reference machine speed (`setup_s`, `walls`).  The speed is probed with a
fixed pure-Python loop, in this process, right after set-up and after every
pass; a pass is scaled by the mean of the probes on either side of it.  On
a shared machine whose speed switches between states 1.5-1.8x apart for
seconds to minutes, the scaled times are the ones that stay comparable from
run to run; the loop runs no `cckp` code, so a change to the program moves
them exactly as it moves the raw times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time


# The speed probe, and its time at the reference speed (a shared 2-vCPU
# Linux VM running Python 3.11.7, in its faster state).
CALIB_LOOPS = 1_000_000
REFERENCE_CALIB_S = 0.07


def calib_s() -> float:
    """Time of a fixed pure-Python loop: a probe of the machine's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


def run(workload_name: str, t0: float, passes: int, trace: bool) -> dict:
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, load_refs

    workload = WORKLOADS[workload_name]
    refs = load_refs()
    workload.setup(refs)
    setup_raw = time.monotonic() - t0
    probes = [calib_s()]

    before = layers.memo_snapshot()
    tracer = Tracer(layers.SPANS) if trace else None
    outputs, walls_raw = [], []
    if tracer:
        tracer.install()
    try:
        for _ in range(passes):
            start = time.perf_counter()
            outputs.append(workload.run_pass())
            walls_raw.append(time.perf_counter() - start)
            probes.append(calib_s())
    finally:
        if tracer:
            tracer.uninstall()
    after = layers.memo_snapshot()
    walls = [
        w * 2 * REFERENCE_CALIB_S / (probes[i] + probes[i + 1])
        for i, w in enumerate(walls_raw)
    ]

    failures, digest = [], hashlib.sha256()
    for out in outputs:
        canonical, failed = workload.check(out, refs)
        failures.extend(failed)
        digest.update(json.dumps(canonical, sort_keys=True).encode())
    memo, absent = layers.memo_delta(before, after)
    result = {
        "setup_s": setup_raw * REFERENCE_CALIB_S / probes[0],
        "setup_raw": setup_raw,
        "walls": walls,
        "walls_raw": walls_raw,
        "calib_s": probes,
        "attempted": passes * len(workload.items(refs)),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest.hexdigest(),
        "peak_rss_mb": peak_rss_mb(),
        "memo": memo,
        "memo_absent": absent,
        "memo_after": after,
    }
    if tracer:
        result["layers"] = layers.span_metrics(tracer)
        result["unattributed_s"] = sum(walls_raw) - tracer.top_level_s
        result["trace_missing"] = tracer.missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("workload")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.t0, args.passes, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
