#!/usr/bin/env python3
"""Verification benchmark: time to verdict and throughput of haar-sentinel campaigns.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it starts four set-up-only processes and one measuring process,
each a fresh interpreter, and reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it starts one measuring process whose campaigns alternate
between untraced and traced, and reports the per-layer metrics.  Every output
is checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

# Fresh processes that only set up, on top of the measuring one; setup_s is
# the median over all of them.
SETUP_ONLY_RUNS = 4
# Everything, set-up processes included, must end within this many seconds.
DEADLINE_S = 170.0
# The tail percentile is the highest with at least this many campaigns beyond it.
TAIL_BEYOND = 10
UNTRACED_EXTRAS = ("failed_ratio", "samples_per_s", "moments_per_s")


class WorkerError(Exception):
    """A benchmark process failed, timed out, or printed no result."""


def run_worker(args, workdir: str, deadline: float, setup_only: bool) -> dict:
    """Run worker.py in a fresh interpreter; adds its set-up time to the result."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"benchmark process ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise WorkerError(f"benchmark process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("benchmark process printed no result")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = result["ready"] - launched
    return result


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it.

    With too few values for that, the maximum and 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def main(argv=None) -> int:
    bench_path = os.path.abspath("BENCHMARK.json")
    try:
        with open(bench_path) as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {bench_path}: {exc}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "haar_sentinel", "__init__.py")):
        print("error: run from the root of a haar-sentinel checkout (no src/haar_sentinel)",
              file=sys.stderr)
        return 2
    workdir = os.path.abspath(os.path.join(
        ".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    deadline = time.monotonic() + DEADLINE_S
    try:
        processes = [] if args.trace else [
            run_worker(args, workdir, deadline, setup_only=True) for _ in range(SETUP_ONLY_RUNS)
        ]
        res = run_worker(args, workdir, deadline, setup_only=False)
    except (WorkerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    processes.append(res)
    setups_raw = [r["setup_raw_s"] for r in processes]
    setups = [r["setup_raw_s"] * r["speed"] for r in processes]

    campaigns = res["campaigns"]
    plain = [c for c in campaigns if not c["traced"]]
    raw = [c["seconds"] for c in plain]
    times = [c["seconds"] * c["speed"] for c in plain]
    busy = sum(raw)
    failed = sum(1 for c in campaigns if c["problems"])
    tail_value, tail_pct = tail(times)
    values = {
        "campaign_s_p50": statistics.median(times),
        "campaign_s_tail": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mib"],
        "samples_per_s": _ratio(sum(c["samples"] for c in plain), busy),
        "moments_per_s": _ratio(sum(c["moments"] for c in plain), busy),
        "failed_ratio": failed / len(campaigns),
    }
    correct = failed == 0
    if args.trace:
        untraced_p50 = statistics.median(raw)
        overhead = statistics.median(c["seconds"] for c in campaigns if c["traced"]) - untraced_p50
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / untraced_p50
        values.update(res["layers"])
        correct = correct and res["counts_repeat"]

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}"
          f"  (closed loop, one client)")
    print(f"campaigns: {len(campaigns)} attempted, {failed} failed, "
          f"{len(plain)} untraced timed")
    beyond = f"{TAIL_BEYOND} campaigns beyond it" if len(times) > TAIL_BEYOND else "the maximum"
    print(f"campaign_s_p50 is the median of {len(times)} campaigns; campaign_s_tail is "
          f"p{tail_pct:.1f}, {beyond}")
    print(f"calibrated to the machine speed at which the calibration kernels take "
          f"{res['reference_s']:.4f} s; raw wall times: p50 {statistics.median(raw):.4f} s, "
          f"p{tail_pct:.1f} {tail(raw)[0]:.4f} s")
    if args.trace:
        print(f"spans written to {os.path.relpath(res['spans_path'])}; counts repeat "
              f"exactly across traced campaigns: {res['counts_repeat']}")
        wanted = bench["per_layer"]
        shown = wanted
    else:
        print(f"setup_s is the median of {len(setups)} fresh processes, calibrated: "
              + ", ".join(f"{s:.4f}" for s in setups) + "; raw: "
              + ", ".join(f"{s:.4f}" for s in setups_raw))
        wanted = bench["end_to_end"]
        # Throughput and failures of the untraced loop, printed but not in the result.
        shown = wanted + [m for m in bench["per_layer"] if m["name"] in UNTRACED_EXTRAS]
    for i, c in enumerate(campaigns):
        for problem in c["problems"]:
            print(f"FAILED campaign {i}: {problem}")
    for m in shown:
        print(f"  {m['name']:<26} {values[m['name']]:>16.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": len(campaigns), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
