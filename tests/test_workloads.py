"""Every benchmark workload still runs on the package and passes the benchmark's own checks.

perfbench/workloads.py reads report fields, MomentBounds attributes, the
moments command's rows and perfbench/reference.json; a change that drops or
renames one of them breaks the benchmark.  One full-size campaign of each
workload named in BENCHMARK.json must come through check and determinism
with no problem.
"""

import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(os.path.join(ROOT, "perfbench")))
    import workloads

    return workloads


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_campaign_passes_the_benchmark_checks(tmp_path, workloads, name):
    wl = workloads.make_workload(name)
    inp = wl.prepare(str(tmp_path), workloads.campaign_seed(7331, 0))
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    assert sum(wl.work(out)) > 0
    assert wl.determinism(inp, out) == []
