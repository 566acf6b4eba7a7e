"""The benchmark's span tracer still finds every name it wraps, and counts real work.

perfbench/spans.py replaces functions at the module attributes their callers
look them up by; a refactor that renames or drops one of them breaks the
benchmark's --trace 1 run, or silently zeroes a layer metric.
"""

import json
import os

import pytest

from haar_sentinel import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH = os.path.join(ROOT, "perfbench")
# Per-layer metrics that perfbench/run.py computes itself rather than from the tracer.
RUN_METRICS = {"failed_ratio", "samples_per_s", "moments_per_s",
               "trace.overhead_s", "trace.overhead_ratio"}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    import spans

    return spans


def test_tracer_counts_every_layer_of_a_campaign(tmp_path, spans):
    tracer = spans.package_tracer()  # fails on a wrapped name that no longer exists
    spectrum = {"eigenvalues": [0, 1, 2], "multiplicities": [1, 1, 1]}
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "spectrum": spectrum, "ensemble": {"kind": "haar", "N": 3},
        "tiers": ["observable", "permutation", "mub"], "t": [1, 2], "epsilon": 0.05,
        "budgets": {"M": 64, "M_perm": 2, "M_u": 2}, "seed": 5,
    }))
    spectrum_path = tmp_path / "spectrum.json"
    spectrum_path.write_text(json.dumps(spectrum))

    with tracer.campaign(0):
        cli.main(["verify", "--config", str(config)])
    with tracer.campaign(1):
        assert cli.main(["moments", "--spectrum", str(spectrum_path), "--t", "1..3"]) == 0

    campaign, moments = tracer.counts[0], tracer.counts[1]
    assert campaign["verify.reports"] == 3  # each tier makes one call for all its orders
    for name in ("spectrum.assignments", "streams.calls"):
        assert campaign[name] > 0, name
    # every tier takes its moments from one exact_moments call, and CampaignConfig
    # checks the orders with another: no campaign calls the one-order exact_moment
    # that the tracer wraps
    assert campaign["haar_moments.exact_calls"] == 0
    # the moments command takes every order from one exact_moments call, which
    # the tracer does not wrap yet: it sees none of the table's exact moments
    assert moments["haar_moments.exact_calls"] == 0


def test_traced_campaigns_repeat_counts_and_give_every_layer_metric(tmp_path, spans):
    """A --trace 1 run is correct only if counts repeat and every per-layer metric exists.

    M spans two chunks and workers=2, so each chunk is drawn and reduced in a
    pool thread.
    """
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "spectrum": {"eigenvalues": [0, 1, 2, 3], "multiplicities": [1, 3, 3, 1]},
        "ensemble": {"kind": "haar", "N": 8}, "tiers": ["observable"], "t": [1, 2, 3, 4],
        "epsilon": 0.01, "budgets": {"M": 10_000}, "seed": 9, "workers": 2,
    }))
    tracer = spans.package_tracer()
    for index in range(2):
        with tracer.campaign(index):
            cli.run_campaign(cli.load_campaign(str(config)))

    assert spans.counts_repeat(tracer)
    assert tracer.counts[0]["streams.chunks"] == 2
    assert tracer.counts[0]["streams.words"] == 8 * 10_000
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]} - RUN_METRICS
    assert wanted <= set(spans.layer_metrics(tracer))
