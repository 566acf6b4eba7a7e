#!/usr/bin/env python3
"""Count the campaigns whose verdicts miss, per sampling workload of the benchmark.

Campaign i of a workload in perfbench/workloads.py gets the seed
workloads.campaign_seed(workload_seed, i) and is written, run and checked as
the benchmark does it (VerifyCampaign.prepare, run, check).  A campaign fails
when a verdict differs from the one the workload expects.  Comparing the counts
of two checkouts shows whether a change to the random streams moved the share
of failed campaigns.  Nothing under perfbench/ is written to; the configs go to
a temporary directory.

Usage, from the root of a checkout: python scripts/verdict_rates.py [K] [workload_seed]
(defaults: K = 150, workload_seed = 424242).  Exits 1 when any campaign
fails, so a change to the streams cannot flip a benchmark verdict unseen.
"""

import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import VERIFY_CAMPAIGNS, campaign_seed  # noqa: E402


def main(argv):
    k = int(argv[1]) if len(argv) > 1 else 150
    workload_seed = int(argv[2]) if len(argv) > 2 else 424242
    print(f"{k} campaigns per workload, workload seed {workload_seed}")
    any_failed = False
    with tempfile.TemporaryDirectory() as workdir:
        for name, campaign in VERIFY_CAMPAIGNS.items():
            start = time.perf_counter()
            failed = []
            for i in range(k):
                path = campaign.prepare(workdir, campaign_seed(workload_seed, i))
                problems = campaign.check(path, campaign.run(path))
                if problems:
                    failed.append((i, problems))
            print(f"{name:<24} failed {len(failed)} of {k} "
                  f"({time.perf_counter() - start:.1f} s)")
            for i, problems in failed:
                print(f"  campaign {i}: {'; '.join(problems)}")
            any_failed = any_failed or bool(failed)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
