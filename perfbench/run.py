"""The cckp benchmark: one workload, closed loop, one process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding `src/cckp`.  Workloads: generator,
recursion, recursion-warm, verify (see perfbench/README.md).

`--trace 0` measures the end-to-end metrics: it starts workload processes one
after another until `--seconds` is used up and reports the median `wall_s`
(one timed pass), `setup_s` and `peak_rss_mb` over them.  `--trace 1`
alternates an untraced and a traced process and reports the per-layer
metrics of the traced ones.  Every pass's outputs are checked against
`perfbench/refs`.  `--seed` becomes `PYTHONHASHSEED` of every workload
process.  The last line of standard output is the JSON result; the line
before it holds drift diagnostics that are not metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # run as a script: make `perfbench` importable

from perfbench.layers import PER_LAYER, unit  # noqa: E402
from perfbench.worker import calib_s  # noqa: E402
from perfbench.workloads import WORKLOADS, load_refs  # noqa: E402

# recursion-warm: timed passes per process after its cache-filling set-up.
WARM_PASSES = 8
# A run ends within this many seconds: a workload process still running at
# the deadline is killed and counted failed.
RUN_LIMIT_S = 170
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def git_sha():
    # The ceiling keeps git from taking the commit of a repository above ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_env(seed: int) -> dict:
    """The workload processes' environment: no CCKP_* settings, bytecode
    caches written and read as for an installed package, the given hash seed."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("CCKP_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    return env


def run_worker(workload: str, env: dict, passes: int, trace: bool, timeout=RUN_LIMIT_S) -> dict:
    """Start one workload process, wait for it, and return its JSON report.

    A process that fails or times out yields {"error": ...}.
    """
    cmd = [sys.executable, "-m", "perfbench.worker", workload, "--passes", str(passes)]
    if trace:
        cmd.append("--trace")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"killed after {timeout:.0f} s"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no report"]
        return {"error": f"exit code {proc.returncode}: {tail[0]}"}


def measure(workload: str, seconds: float, trace: bool, env: dict, deadline=None) -> list:
    """Closed loop of workload processes until `seconds` are used up.

    A process is started only if it is predicted, from the previous one, to
    end within the budget; at least one (one pair when tracing) always runs.
    A process that fails counts every item it should have checked as failed.
    """
    w = WORKLOADS[workload]
    passes = 1 if (w.cold or trace) else WARM_PASSES
    items = passes * len(w.items(load_refs()))
    kinds = (False, True) if trace else (False,)
    reports = []
    start = time.monotonic()
    deadline = deadline or start + RUN_LIMIT_S
    last = 0.0
    while not reports or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        for traced in kinds:
            timeout = deadline - time.monotonic()
            report = run_worker(workload, env, passes, traced, timeout)
            if "error" in report:
                report.update(attempted=items, failed=items, failures=[report["error"]])
            report["traced"] = traced
            reports.append(report)
        last = time.monotonic() - t
    return reports


def summarize(reports: list, trace: bool) -> tuple[dict, dict]:
    """(result line, diagnostics) from the workload processes' reports."""
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    ok = [r for r in reports if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    walls = [x for r in plain for x in r["walls"]]

    metrics = {}
    if trace and traced and plain:
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(x for r in traced for x in r["walls"]) - statistics.median(walls)
            elif name == "trace.unattributed_s":
                value = statistics.median(r["unattributed_s"] for r in traced)
            elif name.startswith("diffring.memo."):
                value = statistics.median(r["memo"][name] for r in traced)
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit(name)}
    elif not trace and plain:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END}

    digests = sorted({r["digest"] for r in ok})
    diagnostics = {
        "processes": len(reports),
        "passes": len(walls),
        "wall_s_sorted": sorted(walls),
        "wall_raw_s": statistics.median(x for r in plain for x in r["walls_raw"]) if plain else None,
        "setup_raw_s": statistics.median(r["setup_raw"] for r in plain) if plain else None,
        "probe_s": statistics.median(x for r in plain for x in r["calib_s"]) if plain else None,
        "failed_frac": failed / attempted if attempted else None,
        "failures": failures[:5],
        "output_digests": digests,
        "memo_new": plain[0]["memo"] if plain else None,
        "memo_absent": plain[0]["memo_absent"] if plain else None,
        "memo_after": plain[0]["memo_after"] if plain else None,
        "trace_missing": traced[0]["trace_missing"] if traced else None,
    }
    correct = failed == 0 and len(ok) == len(reports)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cckp" / "__init__.py").is_file():
        print(f"error: no cckp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(args.seed)
    calib_start = calib_s()
    # Untimed: the first import writes the bytecode caches the timed
    # processes then read, as an installed package would have them.  An
    # import that fails here fails again, and is counted, in every process.
    subprocess.run(
        [
            sys.executable, "-c",
            "import cckp.cli, perfbench.worker, perfbench.workloads, perfbench.layers",
        ],
        cwd=ROOT, env=env, capture_output=True, timeout=RUN_LIMIT_S / 2,
    )
    reports = measure(args.workload, args.seconds, bool(args.trace), env, deadline=deadline)
    result, diagnostics = summarize(reports, bool(args.trace))
    diagnostics.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "pythonhashseed": env["PYTHONHASHSEED"],
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "env.calib_s": [calib_start, calib_s()],
        }
    )
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
