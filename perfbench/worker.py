"""One benchmark process: set up, run campaigns in a closed loop, check every output.

run.py starts this script in a fresh interpreter from the root of a checkout,
once per measurement, so that one workload's import and memory peak never
carry into another's.  It prints one JSON line with the raw measurements.

Set-up is import, config load and one warm-up campaign at minimal budgets;
``ready`` is the CLOCK_MONOTONIC time at which the first timed campaign can
start, which run.py compares with the time it launched this process.

In the closed loop one campaign runs at a time and the next starts when its
verdict is in.  With --trace 1 odd-numbered campaigns run with the span
wrappers installed and even-numbered ones without, so the two halves give the
tracing overhead under the same conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import haar_sentinel

    if not os.path.abspath(haar_sentinel.__file__).startswith(src + os.sep):
        print(f"error: haar_sentinel imported from {haar_sentinel.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import calibration
    import spans
    import workloads

    wl = workloads.make_workload(args.workload)
    os.makedirs(args.workdir, exist_ok=True)
    wl.run(wl.prepare(args.workdir, workloads.campaign_seed(args.seed, -1), warm=True))
    ready = time.monotonic()
    cal = calibration.Calibration(wl.calibration)
    before = cal.kernel_seconds(repeats=5)
    setup_speed = cal.speed_factor(before)
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": setup_speed}))
        return 0

    tracer = spans.package_tracer() if args.trace else None
    campaigns = []
    first = None
    deadline = time.perf_counter() + args.seconds
    # A traced run needs at least one campaign of each kind.
    while time.perf_counter() < deadline or (tracer is not None and len(campaigns) < 2):
        index = len(campaigns)
        inp = wl.prepare(args.workdir, workloads.campaign_seed(args.seed, index))
        traced = tracer is not None and index % 2 == 1
        problems = []
        out = None
        with tracer.campaign(index) if traced else nullcontext():
            start = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception:
                problems.append("raised: " + traceback.format_exc().strip().splitlines()[-1])
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        after = cal.kernel_seconds()
        speed = cal.speed_factor((before + after) / 2)
        before = after
        samples = moments = 0
        if out is not None:
            problems += wl.check(inp, out)
            samples, moments = wl.work(out)
        if index == 0:
            first = out
        campaigns.append({"seconds": elapsed, "speed": speed, "traced": traced,
                          "problems": problems, "samples": samples, "moments": moments})
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Determinism: campaign 0 again, from a freshly written copy of its input.
    if first is not None:
        inp = wl.prepare(args.workdir, workloads.campaign_seed(args.seed, 0))
        campaigns[0]["problems"] += wl.determinism(inp, first)

    result = {"ready": ready, "speed": setup_speed, "reference_s": cal.reference_s,
              "campaigns": campaigns, "peak_rss_mib": peak_rss_mib}
    if tracer is not None and tracer.counts:
        result["layers"] = spans.layer_metrics(tracer)
        result["counts_repeat"] = spans.counts_repeat(tracer)
        spans_path = os.path.join(args.workdir, "spans.jsonl")
        tracer.write(spans_path)
        result["spans_path"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
