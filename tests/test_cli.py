import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haar_sentinel import cli, streams, verify
from haar_sentinel.cli import (
    EXIT_INCOMPATIBLE,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNSUPPORTED_MUB,
    CAMPAIGN_KEYS,
    exit_code_for,
    load_campaign,
    main,
)
from haar_sentinel.ensembles import EnsembleSpec, natural_assignment
from haar_sentinel.haar_moments import exact_moment, sampling_error_bound
from haar_sentinel.mub import mub_basis, mub_complete_set
from haar_sentinel.spectrum import Permutation, Spectrum, apply_permutation, number_operator
from haar_sentinel.verify import RandomnessReport, average_randomness, estimate_moment

NUMBER_OP_3 = {"eigenvalues": [0, 1, 2, 3], "multiplicities": [1, 3, 3, 1]}
QUBIT = {"eigenvalues": [0, 1], "multiplicities": [1, 1]}


@pytest.fixture
def spectrum_file(tmp_path):
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(QUBIT))
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_moments_exact_golden(spectrum_file, capsys):
    assert main(["moments", "--spectrum", spectrum_file, "--t", "1..3"]) == EXIT_OK
    out = capsys.readouterr().out
    values = [float(line.split()[-1]) for line in out.splitlines()[1:]]
    assert values == pytest.approx([0.5, 0.375, 0.3125], abs=1e-12)


def test_moments_bounds_mode(tmp_path, capsys):
    path = write_json(tmp_path, "s.json", NUMBER_OP_3)
    assert main(["moments", "--spectrum", path, "--t", "2", "--mode", "bounds"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[2.25, 4.5]" in out


def test_moments_exact_within_bounds_at_first_order(tmp_path, capsys):
    path = write_json(tmp_path, "s.json", NUMBER_OP_3)
    main(["moments", "--spectrum", path, "--t", "1", "--mode", "exact"])
    exact = float(capsys.readouterr().out.splitlines()[1].split()[-1])
    assert exact == pytest.approx(12 / 8, abs=1e-12)
    main(["moments", "--spectrum", path, "--t", "1", "--mode", "bounds"])
    line = capsys.readouterr().out.splitlines()[1]
    lower = float(line.split("[")[1].split(",")[0])
    upper = float(line.split(",")[1].strip(" ]"))
    assert lower <= exact <= upper


def test_moments_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["moments", "--spectrum", str(path)]) == EXIT_INPUT


def test_moments_exact_at_large_dimension_and_order(tmp_path, capsys):
    # number_operator(20) at t=12: a multinomial sum of 141,120,525 terms
    s = number_operator(20)
    path = write_json(tmp_path, "s.json", s.to_json_dict())
    assert main(["moments", "--spectrum", path, "--t", "12"]) == EXIT_OK
    value = float(capsys.readouterr().out.splitlines()[1].split()[-1])
    assert value == pytest.approx(exact_moment(s, 12).value, rel=1e-11)


def test_moments_overflow_is_bad_input(tmp_path, capsys):
    path = write_json(tmp_path, "s.json", {"eigenvalues": [1e300], "multiplicities": [2]})
    assert main(["moments", "--spectrum", path, "--t", "2"]) == EXIT_INPUT
    assert "order 2" in capsys.readouterr().err


@pytest.mark.parametrize("orders, mode", [
    ("3..1", "exact"), ("0", "exact"), ("0", "bounds"), ("1,-2", "exact"), ("0..2", "bounds"),
])
def test_moments_rejects_orders_below_one(tmp_path, capsys, orders, mode):
    path = write_json(tmp_path, "s.json", NUMBER_OP_3)
    argv = ["moments", "--spectrum", path, "--t", orders, "--mode", mode]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t orders" in captured.err


def test_moments_rejects_repeated_orders(tmp_path, capsys):
    path = write_json(tmp_path, "s.json", NUMBER_OP_3)
    assert main(["moments", "--spectrum", path, "--t", "1,2,1"]) == EXIT_INPUT
    assert "distinct" in capsys.readouterr().err


def test_out_replaces_a_longer_file_and_keeps_its_link(tmp_path):
    path = write_json(tmp_path, "s.json", NUMBER_OP_3)
    target = tmp_path / "table.json"
    target.write_text("x" * 100_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["moments", "--spectrum", path, "--t", "1..2", "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    text = target.read_text()
    assert text.endswith("}\n")
    assert [r["t"] for r in json.loads(text)["moments"]] == [1, 2]


def test_generate_fixed_state_zero_rows(tmp_path):
    ens = write_json(tmp_path, "e.json", {
        "kind": "fixed_basis_state", "N": 8, "seed": 1,
        "params": {"basis_index": 0},
    })
    spectrum = write_json(tmp_path, "s.json", NUMBER_OP_3)
    out = tmp_path / "samples.csv"
    assert main(["generate", "--ensemble", ens, "--spectrum", spectrum,
                 "-M", "10", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "sample"
    assert len(lines) == 11
    assert all(float(v) == 0.0 for v in lines[1:])


def test_generate_is_deterministic(tmp_path):
    ens = write_json(tmp_path, "e.json", {"kind": "haar", "N": 2, "seed": 5})
    spectrum = write_json(tmp_path, "s.json", QUBIT)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["generate", "--ensemble", ens, "--spectrum", spectrum, "-M", "1000", "--out", str(out1)])
    main(["generate", "--ensemble", ens, "--spectrum", spectrum, "-M", "1000", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_haar_mean(tmp_path):
    ens = write_json(tmp_path, "e.json", {"kind": "haar", "N": 2, "seed": 5})
    spectrum = write_json(tmp_path, "s.json", QUBIT)
    out = tmp_path / "samples.csv"
    main(["generate", "--ensemble", ens, "--spectrum", spectrum, "-M", "100000", "--out", str(out)])
    values = np.loadtxt(out, skiprows=1)
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - 0.5) < 3 * se


def _campaign(tmp_path, **overrides):
    config = {
        "spectrum": {"eigenvalues": [0, 1, 2], "multiplicities": [1, 1, 1]},
        "ensemble": {"kind": "haar", "N": 3, "seed": 17},
        "tiers": ["observable", "permutation", "mub"],
        "t": [1],
        "epsilon": 0.05,
        "budgets": {"M": 20000, "M_perm": 4, "M_u": 2},
        "seed": 17,
    }
    config.update(overrides)
    return write_json(tmp_path, "campaign.json", config)


def test_verify_haar_all_tiers_exit_zero(tmp_path, capsys):
    cfg = _campaign(tmp_path)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert {r["verdict"] for r in doc["reports"]} == {"compatible"}
    assert len(doc["reports"]) == 3
    assert "meta" in doc


def test_verify_counterexample_separation(tmp_path):
    cfg = _campaign(
        tmp_path,
        spectrum=dict(NUMBER_OP_3),
        ensemble={"kind": "counterexample", "n": 3, "seed": 33},
        tiers=["observable", "permutation"],
        budgets={"M": 10000, "M_perm": 20},
        epsilon=0.01,
        seed=33,
    )
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INCOMPATIBLE
    reports = {r["tier"]: r["verdict"] for r in json.loads(out.read_text())["reports"]}
    assert reports["observable"] == "compatible"
    assert reports["permutation"] == "incompatible"


def test_verify_inconclusive_exit_code(tmp_path):
    # deterministic |0> ensemble: |R| = 1.5 sits above delta but below epsilon
    cfg = _campaign(
        tmp_path,
        spectrum=dict(NUMBER_OP_3),
        ensemble={"kind": "fixed_basis_state", "N": 8, "seed": 2,
                  "params": {"basis_index": 0}},
        tiers=["observable"],
        budgets={"M": 10000},
        epsilon=2.0,
        seed=2,
    )
    assert main(["verify", "--config", cfg]) == EXIT_INCONCLUSIVE


def test_verify_unsupported_mub_dimension(tmp_path):
    cfg = _campaign(
        tmp_path,
        spectrum={"eigenvalues": [0, 1], "multiplicities": [3, 3]},
        ensemble={"kind": "haar", "N": 6, "seed": 4},
        tiers=["mub"],
        seed=4,
    )
    assert main(["verify", "--config", cfg]) == EXIT_UNSUPPORTED_MUB


def test_verify_invalid_config(tmp_path):
    cfg = write_json(tmp_path, "c.json", {"spectrum": QUBIT})
    assert main(["verify", "--config", cfg]) == EXIT_INPUT


def test_verify_reports_deterministic_across_runs_and_workers(tmp_path):
    cfg = _campaign(tmp_path, budgets={"M": 5000, "M_perm": 3, "M_u": 2})
    outs = []
    for name, workers in (("r1.json", None), ("r2.json", None), ("r8.json", "8")):
        out = tmp_path / name
        argv = ["verify", "--config", cfg, "--out", str(out)]
        if workers:
            argv += ["--workers", workers]
        main(argv)
        outs.append(json.dumps(json.loads(out.read_text())["reports"], sort_keys=True))
    assert outs[0] == outs[1] == outs[2]


def test_verify_from_pregenerated_samples(tmp_path):
    # generate -> verify round trip through the CSV interface
    ens = write_json(tmp_path, "e.json", {"kind": "haar", "N": 8, "seed": 210})
    spectrum = write_json(tmp_path, "s.json", NUMBER_OP_3)
    csv = tmp_path / "samples.csv"
    main(["generate", "--ensemble", ens, "--spectrum", spectrum,
          "-M", "50000", "--out", str(csv)])
    cfg = write_json(tmp_path, "c.json", {
        "spectrum": NUMBER_OP_3,
        "samples": str(csv),
        "tiers": ["observable"],
        "t": [1],
        "epsilon": 0.05,
        "seed": 210,
    })
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())["reports"][0]
    assert report["provenance"]["samples_file"] == str(csv)
    assert report["provenance"]["M"] == 50000


def test_verify_samples_file_rejects_extended_tiers(tmp_path):
    csv = tmp_path / "samples.csv"
    csv.write_text("sample\n0.5\n0.25\n")
    cfg = write_json(tmp_path, "c.json", {
        "spectrum": QUBIT,
        "samples": str(csv),
        "tiers": ["observable", "permutation"],
        "t": [1],
        "epsilon": 0.05,
        "seed": 1,
    })
    assert main(["verify", "--config", cfg]) == EXIT_INPUT


@pytest.mark.parametrize("tiers", [["observable"], ["observable", "permutation"], ["mub"]])
def test_verify_config_with_samples_and_ensemble_is_bad_input(tmp_path, capsys, tiers):
    # one campaign, one state set: a samples file and an ensemble spec would be two
    csv = tmp_path / "samples.csv"
    csv.write_text("sample\n0.5\n0.25\n")
    cfg = write_json(tmp_path, "c.json", {
        "spectrum": QUBIT,
        "ensemble": {"kind": "haar", "N": 2},
        "samples": str(csv),
        "tiers": tiers,
        "t": [1],
        "epsilon": 0.05,
        "seed": 1,
    })
    assert main(["verify", "--config", cfg]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert '"ensemble"' in err and '"samples"' in err


def test_verify_config_with_neither_samples_nor_ensemble_is_bad_input(tmp_path, capsys):
    cfg = write_json(tmp_path, "c.json", {"spectrum": QUBIT, "t": [1], "epsilon": 0.05,
                                          "seed": 1})
    assert main(["verify", "--config", cfg]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert '"ensemble"' in err and '"samples"' in err


@pytest.mark.parametrize("config_workers, flag", [(-4, None), (0, None), (2, 0), (2, -1)])
def test_verify_rejects_worker_counts_below_one(tmp_path, config_workers, flag):
    cfg = _campaign(tmp_path, tiers=["observable"], workers=config_workers)
    argv = ["verify", "--config", cfg]
    if flag is not None:
        argv += ["--workers", str(flag)]
    assert main(argv) == EXIT_INPUT
    with pytest.raises(ValueError, match="workers"):
        load_campaign(cfg, workers_override=flag)


def test_verify_workers_flag_overrides_config(tmp_path):
    cfg = _campaign(tmp_path, tiers=["observable"], workers=-4)
    assert load_campaign(cfg, workers_override=2).workers == 2


def test_observable_samples_generated_once_per_campaign(tmp_path, monkeypatch):
    path = _campaign(
        tmp_path,
        spectrum=dict(NUMBER_OP_3),
        ensemble={"kind": "haar", "N": 8, "seed": 41},
        tiers=["observable"],
        t=[1, 2, 3, 4],
        budgets={"M": 20000},
        workers=2,
        seed=41,
    )
    cfg = load_campaign(path)
    normals = streams.standard_normals
    calls = []

    def counting(key, word_start, count):
        calls.append((key, word_start))
        return normals(key, word_start, count)

    monkeypatch.setattr(streams, "standard_normals", counting)
    reports = cli.run_campaign(cfg)
    # M spans three chunks: stream (0, 0) is drawn once, chunk by chunk, for all four orders;
    # a chunk's CHUNK_SAMPLES / 2 sample pairs read N radius words each
    chunk_words = streams.CHUNK_SAMPLES // 2 * cfg.spectrum.dimension
    key = streams.stream_key(cfg.ensemble.seed, 0, 0)
    assert sorted(calls) == [(key, w) for w in (0, chunk_words, 2 * chunk_words)]

    # reference: the per-order loop over the whole sample array
    monkeypatch.setattr(streams, "standard_normals", normals)
    assignment = natural_assignment(cfg.ensemble, cfg.spectrum)
    reference = [
        average_randomness(
            estimate_moment(cli.generate_expectation_samples(
                cfg.ensemble, assignment, None, cfg.m_samples, stream=(0, 0),
                workers=cfg.workers), t),
            cfg.spectrum, cfg.epsilon, provenance={"seed": cfg.ensemble.seed},
        ).to_json_dict()
        for t in cfg.orders
    ]
    assert [r["t"] for r in reports] == [1, 2, 3, 4]
    assert json.dumps(reports, sort_keys=True) == json.dumps(reference, sort_keys=True)


def _per_tier_reference(cfg, tier):
    """Extended-tier reports built by hand: one protocol draw per tier, one sample array per unit.

    Each unit's values are drawn once by generate_expectation_samples and
    every order is estimated from that one array.
    """
    s, spec, m = cfg.spectrum, cfg.ensemble, cfg.m_samples
    base = natural_assignment(spec, s)
    rng = verify._protocol_rng(cfg.seed, tier)
    extra = {"M_perm": cfg.m_perm}
    if tier == "permutation":
        units = [((0, p), None, Permutation(rng.permutation(s.dimension)))
                 for p in range(cfg.m_perm)]
    else:
        mubs = mub_complete_set(s.dimension)
        rounds = -(-cfg.m_u // len(mubs))
        picks = [int(b) for b in
                 np.concatenate([rng.permutation(len(mubs)) for _ in range(rounds)])[:cfg.m_u]]
        units = [((u, p), mubs.bases[b], Permutation(rng.permutation(s.dimension)))
                 for u, b in enumerate(picks) for p in range(cfg.m_perm)]
        extra.update(M_u=cfg.m_u, basis_indices=picks,
                     basis_labels=[mubs.bases[b].label for b in picks])
    values = [cli.generate_expectation_samples(spec, apply_permutation(base, perm), basis, m,
                                               stream=stream, workers=cfg.workers)
              for stream, basis, perm in units]
    reports = []
    for t in cfg.orders:
        means = [estimate_moment(v, t).mean for v in values]
        deviations = np.asarray(means) - exact_moment(s, t).value
        rms = float(np.sqrt(np.mean(deviations**2)))
        r_value = rms if float(np.sum(deviations)) >= 0 else -rms
        delta = sampling_error_bound(s, t, len(units) * m)
        means_key = "per_perm_means" if tier == "permutation" else "per_unit_means"
        reports.append(RandomnessReport(
            tier=tier, t=t, R=r_value, delta=delta, epsilon=cfg.epsilon,
            mu_haar=exact_moment(s, t).value,
            provenance={"seed": spec.seed, "campaign_seed": cfg.seed, "M": m, **extra,
                        "permutations": [hashlib.sha256(p.mapping.tobytes()).hexdigest()[:12]
                                         for _, _, p in units],
                        means_key: means},
        ).to_json_dict())
    return reports


def test_permutation_streams_drawn_once_per_campaign(tmp_path, monkeypatch):
    path = _campaign(
        tmp_path,
        spectrum=number_operator(3).to_json_dict(),
        ensemble={"kind": "counterexample", "n": 3, "seed": 43},
        tiers=["observable", "permutation"],
        t=[1, 2],
        budgets={"M": 2000, "M_perm": 5},
        seed=43,
    )
    cfg = load_campaign(path)
    gamma = streams.halfint_gamma_matrix
    calls = []

    def counting(key, start_sample, count, alpha):
        calls.append((key, start_sample))
        return gamma(key, start_sample, count, alpha)

    monkeypatch.setattr(streams, "halfint_gamma_matrix", counting)
    reports = cli.run_campaign(cfg)
    # one draw for the observable tier (stream (0, 0)) plus one per permutation
    # stream (0, p), not one per order
    key = lambda p: streams.stream_key(cfg.ensemble.seed, 0, p)
    assert len(calls) == 1 + cfg.m_perm
    assert sorted(calls) == sorted([(key(0), 0)] + [(key(p), 0) for p in range(cfg.m_perm)])

    monkeypatch.setattr(streams, "halfint_gamma_matrix", gamma)
    assert [(r["t"], r["tier"]) for r in reports] == [
        (1, "observable"), (1, "permutation"), (2, "observable"), (2, "permutation")]
    assert json.dumps(reports[1::2], sort_keys=True) == \
        json.dumps(_per_tier_reference(cfg, "permutation"), sort_keys=True)


def test_mub_streams_drawn_once_per_campaign(tmp_path, monkeypatch):
    path = _campaign(
        tmp_path,
        spectrum={"eigenvalues": [0, 1, 2], "multiplicities": [1, 2, 2]},
        ensemble={"kind": "haar", "N": 5, "seed": 44},
        tiers=["mub"],
        t=[1, 2],
        budgets={"M": 10000, "M_perm": 2, "M_u": 3},
        workers=2,
        seed=44,
    )
    cfg = load_campaign(path)
    normals = streams.standard_normals
    calls = []

    def counting(key, word_start, count):
        calls.append((key, word_start))
        return normals(key, word_start, count)

    monkeypatch.setattr(streams, "standard_normals", counting)
    reports = cli.run_campaign(cfg)
    # M spans two chunks: each (u, p) stream is drawn once, chunk by chunk; a
    # chunk's CHUNK_SAMPLES / 2 sample pairs read N radius words each
    chunk_words = streams.CHUNK_SAMPLES // 2 * cfg.spectrum.dimension
    expected = {(streams.stream_key(cfg.ensemble.seed, u, p), w)
                for u in range(cfg.m_u) for p in range(cfg.m_perm) for w in (0, chunk_words)}
    assert len(calls) == len(expected)
    assert set(calls) == expected

    monkeypatch.setattr(streams, "standard_normals", normals)
    assert json.dumps(reports, sort_keys=True) == \
        json.dumps(_per_tier_reference(cfg, "mub"), sort_keys=True)


@pytest.mark.parametrize("tier", ["permutation", "mub"])
def test_extended_tier_orders_share_one_protocol_draw(tmp_path, tier):
    """Order t's report does not depend on which other orders the campaign asks for.

    Each unit measures one probe and reduces every order from its values, so
    a campaign for [t] and one for [1, ..., 4] give the same order-t report,
    and within one campaign every order names the same permutations and bases.
    """
    def run(orders):
        cfg = _campaign(tmp_path, spectrum={"eigenvalues": [0, 1, 2], "multiplicities": [1, 2, 2]},
                        ensemble={"kind": "haar", "N": 5, "seed": 46}, tiers=[tier],
                        t=orders, budgets={"M": 300, "M_perm": 3, "M_u": 2}, seed=46)
        return cli.run_campaign(load_campaign(cfg))

    full = run([1, 2, 3, 4])
    for t in (1, 3, 4):
        [alone] = run([t])
        assert json.dumps(alone, sort_keys=True) == json.dumps(full[t - 1], sort_keys=True)
    keys = ("permutations", "basis_indices") if tier == "mub" else ("permutations",)
    for r in full[1:]:
        assert [r["provenance"][k] for k in keys] == [full[0]["provenance"][k] for k in keys]


def test_mub_tier_builds_only_the_drawn_bases(tmp_path, monkeypatch):
    path = _campaign(
        tmp_path,
        spectrum={"eigenvalues": [0, 1, 2, 3], "multiplicities": [16, 15, 15, 15]},
        ensemble={"kind": "haar", "N": 61, "seed": 45},
        tiers=["mub"],
        t=[1, 2],
        budgets={"M": 200, "M_perm": 2, "M_u": 2},
        seed=45,
    )
    built = []

    def counting(n_dim, index):
        built.append(index)
        return mub_basis(n_dim, index)

    def refuse(n_dim):
        raise AssertionError("the campaign built the complete set")

    monkeypatch.setattr(verify, "mub_basis", counting)
    monkeypatch.setattr(verify, "mub_complete_set", refuse)
    reports = cli.run_campaign(load_campaign(path))
    # each distinct drawn index is built once and shared by both orders
    drawn = [r["provenance"]["basis_indices"] for r in reports]
    assert all(len(picks) == 2 for picks in drawn)
    assert sorted(built) == sorted({b for picks in drawn for b in picks})
    assert len(built) <= 2 * len(reports)
    assert [r["provenance"]["basis_labels"] for r in reports] == \
        [[mub_basis(61, b).label for b in picks] for picks in drawn]


def test_samples_file_read_once_per_campaign(tmp_path, monkeypatch):
    csv = tmp_path / "samples.csv"
    csv.write_text("sample\n" + "".join(f"{float(v)!r}\n" for v in np.linspace(0.0, 3.0, 200)))
    path = write_json(tmp_path, "c.json", {
        "spectrum": NUMBER_OP_3,
        "samples": str(csv),
        "tiers": ["observable"],
        "t": [1, 2, 3],
        "epsilon": 0.05,
        "seed": 5,
    })
    load = cli.load_samples
    calls = []

    def counting(p, s):
        calls.append(p)
        return load(p, s)

    monkeypatch.setattr(cli, "load_samples", counting)
    reports = cli.run_campaign(load_campaign(path))
    assert calls == [str(csv)]
    assert [r["t"] for r in reports] == [1, 2, 3]
    assert all(r["provenance"]["samples_file"] == str(csv) for r in reports)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_samples_file_with_non_finite_value_is_bad_input(tmp_path, bad):
    from haar_sentinel.verify import load_samples

    csv = tmp_path / "samples.csv"
    csv.write_text(f"sample\n0.5\n{bad}\n0.25\n")
    with pytest.raises(ValueError, match=r"samples\.csv:3: .* not finite"):
        load_samples(str(csv), number_operator(1))
    cfg = write_json(tmp_path, "c.json", {
        "spectrum": QUBIT,
        "samples": str(csv),
        "tiers": ["observable"],
        "t": [1],
        "epsilon": 0.05,
        "seed": 1,
    })
    assert main(["verify", "--config", cfg]) == EXIT_INPUT


def test_samples_file_outside_the_spectrum_range_is_bad_input(tmp_path, capsys):
    from haar_sentinel.verify import load_samples

    csv = tmp_path / "samples.csv"
    # 1 + 1e-13 is rounding of a value at lambda_max and loads; 1e160 does not
    csv.write_text("sample\n0.5\n1.0000000000001\n1e160\n0.25\n")
    with pytest.raises(ValueError, match=r"samples\.csv:4: sample '1e160' lies outside"):
        load_samples(str(csv), number_operator(1))
    cfg = write_json(tmp_path, "c.json", {
        "spectrum": QUBIT,
        "samples": str(csv),
        "tiers": ["observable"],
        "t": [1],
        "epsilon": 0.05,
        "seed": 1,
    })
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
    assert "samples.csv:4" in capsys.readouterr().err
    assert not out.exists()


def test_samples_file_with_a_non_number_is_bad_input(tmp_path, capsys):
    from haar_sentinel.verify import load_samples

    csv = tmp_path / "samples.csv"
    csv.write_text("sample\n0.5\nabc\n0.25\n")
    with pytest.raises(ValueError, match=r"samples\.csv:3: sample 'abc' is not a number"):
        load_samples(str(csv), number_operator(1))
    cfg = write_json(tmp_path, "c.json", {
        "spectrum": QUBIT,
        "samples": str(csv),
        "tiers": ["observable"],
        "t": [1],
        "epsilon": 0.05,
        "seed": 1,
    })
    assert main(["verify", "--config", cfg]) == EXIT_INPUT
    assert "samples.csv:3: sample 'abc' is not a number" in capsys.readouterr().err


def test_load_samples_json_lines(tmp_path):
    from haar_sentinel.verify import load_samples

    path = tmp_path / "samples.jsonl"
    path.write_text("0.125\n0.5\n0.375\n")
    assert load_samples(str(path), number_operator(1)).tolist() == [0.125, 0.5, 0.375]


def test_exit_code_is_function_of_verdict_multiset():
    assert exit_code_for(["compatible", "compatible"]) == EXIT_OK
    assert exit_code_for(["compatible", "inconclusive"]) == EXIT_INCONCLUSIVE
    assert exit_code_for(["inconclusive", "incompatible"]) == EXIT_INCOMPATIBLE
    assert exit_code_for([]) == EXIT_OK


def test_mub_dump_and_check_round_trip(tmp_path, capsys):
    out = tmp_path / "mub5.json"
    assert main(["mub", "dump", "-N", "5", "--out", str(out)]) == EXIT_OK
    assert main(["mub", "check", "--file", str(out)]) == EXIT_OK
    assert "pairwise unbiased" in capsys.readouterr().out


def test_mub_dump_unsupported(capsys):
    assert main(["mub", "dump", "-N", "6"]) == EXIT_UNSUPPORTED_MUB


# One small campaign per ensemble kind, each through all three tiers.
PINNED_CAMPAIGNS = {
    "haar": ({"kind": "haar", "N": 5, "seed": 31},
             {"eigenvalues": [0, 1, 2], "multiplicities": [1, 2, 2]}),
    "counterexample": ({"kind": "counterexample", "n": 2, "seed": 32},
                       {"eigenvalues": [0, 1, 2], "multiplicities": [1, 2, 1]}),
    "fixed_basis_state": ({"kind": "fixed_basis_state", "N": 5, "seed": 33,
                           "params": {"basis_index": 3}},
                          {"eigenvalues": [0, 1, 2], "multiplicities": [1, 2, 2]}),
    "dirichlet_amplitudes": ({"kind": "dirichlet_amplitudes", "N": 5, "seed": 34,
                              "params": {"alpha": [0.5, 1.0, 1.5, 0.7, 2.25]}},
                             {"eigenvalues": [0, 1, 2], "multiplicities": [2, 2, 1]}),
}
PINNED_SAMPLING_DIGESTS = {
    "haar": "7310644339913b8d",
    "counterexample": "928d615c66e025f1",
    "fixed_basis_state": "123086e1e6883fbd",
    "dirichlet_amplitudes": "f57e140fb6c5bda8",
}


@pytest.mark.parametrize("kind", sorted(PINNED_CAMPAIGNS))
def test_extended_tier_sampling_is_pinned(tmp_path, kind):
    """Permutations, basis picks and per-unit means repeat their recorded values.

    None of these fields depends on the closed-form moment, so the digests
    pin the protocol draws and the sampling alone.  Means enter at 13
    significant digits, which keeps the digest independent of last-bit
    differences between BLAS builds in the basis rotation.
    """
    ensemble, spectrum = PINNED_CAMPAIGNS[kind]
    cfg = _campaign(tmp_path, spectrum=spectrum, ensemble=ensemble, t=[1, 2],
                    budgets={"M": 64, "M_perm": 2, "M_u": 2}, seed=ensemble["seed"])
    picked = []
    for report in cli.run_campaign(load_campaign(cfg)):
        fields = {k: report["provenance"][k] for k in
                  ("per_perm_means", "per_unit_means", "permutations", "basis_indices")
                  if k in report["provenance"]}
        for k in ("per_perm_means", "per_unit_means"):
            if k in fields:
                fields[k] = [f"{x:.12e}" for x in fields[k]]
        picked.append(fields)
    text = json.dumps(picked, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == PINNED_SAMPLING_DIGESTS[kind]


def test_moments_bounds_overflow_is_bad_input(tmp_path, capsys):
    path = write_json(tmp_path, "s.json", {"eigenvalues": [1e300], "multiplicities": [2]})
    assert main(["moments", "--spectrum", path, "--t", "2", "--mode", "bounds"]) == EXIT_INPUT
    assert "order 2" in capsys.readouterr().err


def test_verify_overflowing_sample_budget_is_bad_input(tmp_path, capsys):
    cfg = _campaign(tmp_path, spectrum={"eigenvalues": [0, 1e200], "multiplicities": [1, 1]},
                    ensemble={"kind": "haar", "N": 2, "seed": 5}, tiers=["observable"],
                    budgets={"M": 100})
    assert main(["verify", "--config", cfg]) == EXIT_INPUT
    assert "order 1" in capsys.readouterr().err


@pytest.mark.parametrize("payload, problem", [
    ({}, "missing key 'dimension' in MUB set"),
    ({"dimension": 2, "bases": [{"label": "computational"}]},
     "missing key 'columns' in MUB basis"),
    ({"dimension": 2, "bases": [{"label": "x", "columns": [[1, 0], [0, 1]]}]},
     "basis 'x': columns of shape (2, 2), expected (2, 2, 2)"),
], ids=["payload0", "payload1", "payload2"])
def test_mub_check_malformed_file_is_bad_input(tmp_path, capsys, payload, problem):
    path = write_json(tmp_path, "mub.json", payload)
    assert main(["mub", "check", "--file", path]) == EXIT_INPUT
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("overrides, problem", [
    ({"tiers": []}, "non-empty list"),
    ({"tiers": "observable"}, "non-empty list"),
    ({"tiers": ["observable", "observable"], "t": [1, 1]}, "tiers must be distinct"),
    ({"tiers": ["observable", "permutation", "observable"]}, "tiers must be distinct"),
    ({"t": [1, 2, 1]}, "t orders must be distinct"),
])
def test_verify_rejects_meaningless_tier_and_order_lists(tmp_path, capsys, overrides, problem):
    cfg = _campaign(tmp_path, budgets={"M": 100, "M_perm": 2, "M_u": 2}, **overrides)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_verify_rejects_non_finite_epsilon(tmp_path, capsys, epsilon):
    cfg = _campaign(tmp_path, tiers=["permutation"], epsilon=epsilon,
                    budgets={"M": 100, "M_perm": 2})
    assert main(["verify", "--config", cfg]) == EXIT_INPUT
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("ensemble, problem", [
    ({"kind": "fixed_basis_state", "N": 3, "seed": 1, "params": {"basis_index": 0.5}},
     "basis_index"),
    ({"kind": "dirichlet_amplitudes", "N": 3, "seed": 1,
      "params": {"alpha": [1.0, float("nan"), 0.5]}}, "alpha entry nan"),
    ({"kind": "fixed_basis_state", "N": 3, "seed": 1, "params": {"basis_index": True}},
     "basis_index"),
])
def test_verify_rejects_ensemble_params_without_meaning(tmp_path, capsys, ensemble, problem):
    cfg = _campaign(tmp_path, ensemble=ensemble, tiers=["observable"], budgets={"M": 100})
    assert main(["verify", "--config", cfg]) == EXIT_INPUT
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("overrides, problem", [
    ({"t": "12"}, "t: expected an integer, got '12'"),
    ({"t": [1.7, 2.9]}, "t: expected an integer, got 1.7"),
    ({"t": True}, "t: expected an integer, got True"),
    ({"budgets": {"M": 100.9}}, "M: expected an integer, got 100.9"),
    ({"budgets": {"M": 100, "M_perm": "2"}}, "M_perm: expected an integer, got '2'"),
    ({"budgets": {"M": 100, "M_u": 2.0}}, "M_u: expected an integer, got 2.0"),
    ({"budgets": []}, "budgets must be an object, got []"),
    ({"seed": 3.9}, "seed: expected an integer, got 3.9"),
    ({"workers": 1.5}, "workers: expected an integer, got 1.5"),
    ({"spectrum": {"eigenvalues": [0, 1, 2], "multiplicities": [1.7, 1, 1]}},
     "multiplicities: expected an integer, got 1.7"),
    ({"ensemble": {"kind": "haar", "N": 2.6, "seed": 17}}, "N: expected an integer, got 2.6"),
    ({"ensemble": {"kind": "haar", "N": 3, "seed": 3.9}}, "seed: expected an integer, got 3.9"),
    ({"ensemble": {"kind": "counterexample", "n": True, "seed": 17},
      "spectrum": {"eigenvalues": [0, 1], "multiplicities": [1, 1]}},
     "n: expected an integer, got True"),
    # checked before the pairs are sorted, which would compare None with {}
    ({"spectrum": {"eigenvalues": [1, 1], "multiplicities": [None, {}]}},
     "multiplicities: expected an integer, got None"),
])
def test_verify_accepts_only_json_integers(tmp_path, capsys, overrides, problem):
    cfg = _campaign(tmp_path, **{"budgets": {"M": 100, "M_perm": 2, "M_u": 2}, **overrides})
    assert main(["verify", "--config", cfg]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("overrides, problem", [
    ({"epsilon": "0.05"}, "epsilon: expected a real number, got '0.05'"),
    ({"epsilon": True}, "epsilon: expected a real number, got True"),
    ({"spectrum": {"eigenvalues": ["0", 1, 2], "multiplicities": [1, 1, 1]}},
     "eigenvalues: expected a real number, got '0'"),
    ({"spectrum": {"eigenvalues": [0, True, 2], "multiplicities": [1, 1, 1]}},
     "eigenvalues: expected a real number, got True"),
    ({"ensemble": {"kind": "dirichlet_amplitudes", "N": 3, "seed": 1,
                   "params": {"alpha": ["0.5", 1, 0.5]}}},
     "alpha: expected a real number, got '0.5'"),
    ({"ensemble": {"kind": "dirichlet_amplitudes", "N": 3, "seed": 1,
                   "params": {"alpha": [0.5, True, 0.5]}}},
     "alpha: expected a real number, got True"),
])
def test_verify_accepts_only_json_real_numbers(tmp_path, capsys, overrides, problem):
    cfg = _campaign(tmp_path, **{"budgets": {"M": 100, "M_perm": 2, "M_u": 2}, **overrides})
    assert main(["verify", "--config", cfg]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("eigenvalues, problem", [
    (["1", 2], "eigenvalues: expected a real number, got '1'"),
    ([0, False], "eigenvalues: expected a real number, got False"),
    ([0, 10**400], f"eigenvalues: {10**400} is beyond double-precision range"),
])
def test_moments_accepts_only_json_real_eigenvalues(tmp_path, capsys, eigenvalues, problem):
    path = write_json(tmp_path, "s.json", {"eigenvalues": eigenvalues, "multiplicities": [1, 1]})
    assert main(["moments", "--spectrum", path]) == EXIT_INPUT
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("dimension", [5.7, "5", True])
def test_mub_check_accepts_only_an_integer_dimension(tmp_path, capsys, dimension):
    path = tmp_path / "mub5.json"
    assert main(["mub", "dump", "-N", "5", "--out", str(path)]) == EXIT_OK
    payload = json.loads(path.read_text())
    payload["dimension"] = dimension
    path.write_text(json.dumps(payload))
    assert main(["mub", "check", "--file", str(path)]) == EXIT_INPUT
    assert f"dimension: expected an integer, got {dimension!r}" in capsys.readouterr().err


def test_extended_reports_rebuild_from_a_report_document_and_its_config(tmp_path):
    cfg = _campaign(tmp_path, ensemble={"kind": "haar", "N": 3, "seed": 29},
                    tiers=["permutation", "mub"], t=[1, 2],
                    budgets={"M": 300, "M_perm": 3, "M_u": 2}, seed=5)
    out = tmp_path / "report.json"
    main(["verify", "--config", cfg, "--out", str(out)])
    config = json.loads(Path(cfg).read_text())
    s = Spectrum.from_json_dict(config["spectrum"])
    reports = json.loads(out.read_text())["reports"]
    assert [r["tier"] for r in reports] == ["permutation", "mub"] * 2
    for report in reports:
        prov = report["provenance"]
        assert (prov["seed"], prov["campaign_seed"]) == (29, 5)
        spec = EnsembleSpec.from_json_dict(dict(config["ensemble"], seed=prov["seed"]))
        if report["tier"] == "permutation":
            (rebuilt,) = verify.permutation_randomness(
                spec, s, [report["t"]], prov["M_perm"], prov["M"], report["epsilon"],
                seed=prov["campaign_seed"])
        else:
            (rebuilt,) = verify.mub_randomness(
                spec, s, [report["t"]], prov["M_u"], prov["M_perm"], prov["M"],
                report["epsilon"], seed=prov["campaign_seed"])
        assert json.dumps(rebuilt.to_json_dict(), sort_keys=True) == json.dumps(report,
                                                                              sort_keys=True)


def test_mub_check_names_the_pair_that_is_not_unbiased(tmp_path, capsys):
    path = tmp_path / "mub5.json"
    assert main(["mub", "dump", "-N", "5", "--out", str(path)]) == EXIT_OK
    payload = json.loads(path.read_text())
    payload["bases"][2]["columns"] = payload["bases"][1]["columns"]
    path.write_text(json.dumps(payload))
    assert main(["mub", "check", "--file", str(path)]) == EXIT_INPUT
    assert "bases 1 and 2 are NOT unbiased (deviation 8.00e-01)" in capsys.readouterr().out


@pytest.mark.parametrize("entry, problem", [
    (lambda re, im: [float("nan"), float("nan")],
     "basis 'computational': columns not orthonormal (deviation nan)"),
    (lambda re, im: [re, float("inf")],
     "basis 'computational': columns not orthonormal (deviation nan)"),
    (lambda re, im: [re, im, 0.0, 0.0],
     "basis 'computational': columns of shape (2, 2, 4), expected (2, 2, 2)"),
], ids=["nan", "infinity", "four-wide"])
def test_mub_check_refuses_non_finite_and_malformed_entries(tmp_path, capsys, entry, problem):
    path = tmp_path / "mub2.json"
    assert main(["mub", "dump", "-N", "2", "--out", str(path)]) == EXIT_OK
    payload = json.loads(path.read_text())
    for basis in payload["bases"]:
        basis["columns"] = [[entry(*e) for e in column] for column in basis["columns"]]
    path.write_text(json.dumps(payload))
    assert main(["mub", "check", "--file", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("samples", [0, True, ["a"], {}])
def test_verify_samples_field_must_be_a_json_string(tmp_path, capsys, samples):
    path = write_json(tmp_path, "c.json", {"spectrum": NUMBER_OP_3, "samples": samples,
                                           "tiers": ["observable"], "t": [1],
                                           "epsilon": 0.05, "seed": 5})
    assert main(["verify", "--config", path]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"samples: expected a string, got {samples!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ensemble, problem", [
    ({"kind": "counterexample", "n": 6, "seed": 7, "params": {"n": 5}},
     "n is 6 but params.n is 5"),
    ({"kind": "haar", "N": 4, "n": 3, "seed": 7}, "N = 4 is not 2^n = 8"),
    # n is the counterexample's qubit count; no other kind has params to hold it
    ({"kind": "haar", "n": 3, "seed": 1},
     "n = 3 in ensemble spec applies to kind 'counterexample' only, not 'haar'"),
    ({"kind": "haar", "N": 8, "n": 3, "seed": 1},
     "n = 3 in ensemble spec applies to kind 'counterexample' only, not 'haar'"),
    ({"kind": "fixed_basis_state", "n": 2, "seed": 1, "params": {"basis_index": 0}},
     "n = 2 in ensemble spec applies to kind 'counterexample' only, not 'fixed_basis_state'"),
    # refused before 2^n is formed
    ({"kind": "counterexample", "n": 0, "seed": 1}, "n = 0 outside 1..20"),
    ({"kind": "counterexample", "n": 21, "seed": 1}, "n = 21 outside 1..20"),
    ({"kind": "counterexample", "params": {"n": 1_000_000}, "seed": 1},
     "n = 1000000 outside 1..20"),
])
def test_ensemble_spec_states_n_once(tmp_path, capsys, ensemble, problem):
    out = tmp_path / "samples.csv"
    assert main(["generate", "--ensemble", write_json(tmp_path, "e.json", ensemble),
                 "--spectrum", write_json(tmp_path, "s.json", QUBIT),
                 "-M", "10", "--out", str(out)]) == EXIT_INPUT
    assert problem in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change, key", [
    ({"tier": ["permutation"]}, "'tier'"),
    ({"budget": {"M": 50}}, "'budget'"),
    ({"ensemble": {"kind": "fixed_basis_state", "N": 3, "seed": 17,
                   "params": [["basis_index", 1]]}}, "params must be an object"),
    ({"ensemble": {"kind": "haar", "N": 3, "seed": 17, "params": {"alpha": [1, 1, 1]}}},
     "'alpha' in haar params"),
    ({"budgets": {"M": 100, "M_U": 2}}, "'M_U' in budgets"),
    ({"ensemble": {"kind": "haar", "N": 3, "seed": 17, "sed": 4}}, "'sed' in ensemble spec"),
    ({"spectrum": {"eigenvalues": [0, 1, 2], "multiplicities": [1, 1, 1],
                   "multiplicity": [3, 3, 3]}}, "'multiplicity' in spectrum"),
])
def test_verify_refuses_unknown_keys(tmp_path, capsys, change, key):
    assert main(["verify", "--config", _campaign(tmp_path, **change)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert key in captured.err
    assert captured.out == ""


def test_moments_refuses_unknown_spectrum_keys(tmp_path, capsys):
    path = write_json(tmp_path, "s.json", {"eigenvalues": [0, 1], "multiplicities": [1, 1],
                                           "multiplicity": [3, 3]})
    assert main(["moments", "--spectrum", path]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "unknown key 'multiplicity' in spectrum" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("where, key", [("set", "dimenson"), ("basis", "colums")])
def test_mub_check_refuses_unknown_keys(tmp_path, capsys, where, key):
    path = tmp_path / "mub3.json"
    assert main(["mub", "dump", "-N", "3", "--out", str(path)]) == EXIT_OK
    payload = json.loads(path.read_text())
    (payload if where == "set" else payload["bases"][1])[key] = 9
    path.write_text(json.dumps(payload))
    assert main(["mub", "check", "--file", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"unknown key {key!r} in MUB {where}" in captured.err
    assert captured.out == ""


def _spectrum_command(tmp_path, edit):
    return ["moments", "--spectrum", write_json(tmp_path, "s.json", edit(dict(QUBIT)))]


def _config_command(tmp_path, edit):
    config = json.loads(Path(_campaign(tmp_path)).read_text())
    return ["verify", "--config", write_json(tmp_path, "c.json", edit(config))]


def _ensemble_command(tmp_path, edit):
    return _config_command(tmp_path, lambda c: {**c, "ensemble": edit(c["ensemble"])})


def _mub_command(tmp_path, edit):
    path = tmp_path / "mub2.json"
    assert main(["mub", "dump", "-N", "2", "--out", str(path)]) == EXIT_OK
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return ["mub", "check", "--file", str(path)]


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("command, edit, problem", [
    (_spectrum_command, lambda s: "abc", "spectrum must be an object, got 'abc'"),
    (_spectrum_command, lambda s: _without(s, "multiplicities"),
     "missing key 'multiplicities' in spectrum"),
    (_ensemble_command, lambda e: [1], "ensemble spec must be an object, got [1]"),
    (_ensemble_command, lambda e: _without(e, "kind"), "missing key 'kind' in ensemble spec"),
    (_ensemble_command, lambda e: _without(e, "N"), "missing key 'N' (or 'n') in ensemble spec"),
    (_ensemble_command, lambda e: {**e, "params": 3}, "haar params must be an object, got 3"),
    (_config_command, lambda c: [1], "campaign config must be an object, got [1]"),
    (_config_command, lambda c: _without(c, "seed"), "missing key 'seed' in campaign config"),
    (_config_command, lambda c: _without(c, "epsilon"),
     "missing key 'epsilon' in campaign config"),
    (_config_command, lambda c: {**c, "budgets": 5}, "budgets must be an object, got 5"),
    (_mub_command, lambda m: "abc", "MUB set must be an object, got 'abc'"),
    (_mub_command, lambda m: _without(m, "bases"), "missing key 'bases' in MUB set"),
    (_mub_command, lambda m: {**m, "bases": [7]}, "MUB basis must be an object, got 7"),
    (_mub_command, lambda m: {**m, "bases": [_without(b, "columns") for b in m["bases"]]},
     "missing key 'columns' in MUB basis"),
], ids=["spectrum", "spectrum-key", "ensemble", "ensemble-key", "ensemble-N", "params",
        "config", "config-seed", "config-epsilon", "budgets", "mub-set", "mub-set-key",
        "mub-basis", "mub-basis-key"])
def test_readers_name_a_non_object_or_a_missing_key(tmp_path, capsys, command, edit, problem):
    assert main(command(tmp_path, edit)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, edit, problem", [
    (_spectrum_command, lambda s: {**s, "multiplicities": None},
     "multiplicities: expected a list, got None"),
    (_spectrum_command, lambda s: {**s, "eigenvalues": 3}, "eigenvalues: expected a list, got 3"),
    (_ensemble_command, lambda e: {**e, "kind": "dirichlet_amplitudes", "params": {"alpha": 3}},
     "alpha: expected a list, got 3"),
    (_ensemble_command, lambda e: {**e, "kind": ["haar"]},
     "kind: expected a string, got ['haar']"),
    (_mub_command, lambda m: {**m, "bases": 3}, "bases: expected a list, got 3"),
    (_mub_command, lambda m: {**m, "bases": [{**b, "label": [1, 2]} for b in m["bases"]]},
     "label: expected a string, got [1, 2]"),
], ids=["multiplicities", "eigenvalues", "alpha", "kind", "bases", "label"])
def test_readers_name_a_field_of_the_wrong_container_type(tmp_path, capsys, command, edit,
                                                          problem):
    assert main(command(tmp_path, edit)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""


SWEEP_VALUES = [None, True, "abc", 1.5, [], {}, float("nan")]
SWEEP_CONFIG = {
    "spectrum": {"eigenvalues": [0, 1, 2], "multiplicities": [1, 1, 1]},
    "ensemble": {"kind": "haar", "N": 3, "seed": 17},
    "tiers": ["observable", "permutation", "mub"],
    "t": [1],
    "epsilon": 0.05,
    "budgets": {"M": 64, "M_perm": 2, "M_u": 2},
    "seed": 17,
}
SWEEP_KINDS = {
    "counterexample": {"kind": "counterexample", "seed": 17, "params": {"n": 2}},
    "fixed_basis_state": {"kind": "fixed_basis_state", "N": 3, "seed": 17,
                          "params": {"basis_index": 0}},
    "dirichlet_amplitudes": {"kind": "dirichlet_amplitudes", "N": 3, "seed": 17,
                             "params": {"alpha": [0.5, 0.5, 0.5]}},
}
SWEEP_OBJECTS = ("campaign config", "budgets", "ensemble spec", "params", "spectrum", "MUB set",
                 "MUB basis")


def _sweep_fields() -> dict:
    """Each field: (its campaign config, or None for a MUB set; path to it; values valid there)."""
    config = SWEEP_CONFIG
    kinds = {kind: {**config, "ensemble": spec} for kind, spec in SWEEP_KINDS.items()}
    fields = {f"config-{key}": (config, (key,), ()) for key in CAMPAIGN_KEYS}
    fields["config-epsilon"] = (config, ("epsilon",), [1.5])
    fields["config-budgets"] = (config, ("budgets",), [{}])
    for key in ("M", "M_perm", "M_u"):
        fields[f"budgets-{key}"] = (config, ("budgets", key), ())
    for key in ("kind", "N", "n", "seed", "params"):
        fields[f"ensemble-{key}"] = (config, ("ensemble", key), [{}] if key == "params" else ())
    fields["params-n"] = (kinds["counterexample"], ("ensemble", "params", "n"), ())
    fields["params-basis_index"] = (kinds["fixed_basis_state"],
                                    ("ensemble", "params", "basis_index"), ())
    fields["params-alpha"] = (kinds["dirichlet_amplitudes"], ("ensemble", "params", "alpha"), ())
    fields["params-alpha-entry"] = (kinds["dirichlet_amplitudes"],
                                    ("ensemble", "params", "alpha", 1), [1.5])
    for key in ("eigenvalues", "multiplicities"):
        fields[f"spectrum-{key}"] = (config, ("spectrum", key), ())
        fields[f"spectrum-{key}-entry"] = (config, ("spectrum", key, 1),
                                           [1.5] if key == "eigenvalues" else ())
    for key in ("dimension", "bases"):
        fields[f"mub-{key}"] = (None, (key,), ())
    fields["mub-basis-label"] = (None, ("bases", 1, "label"), ["abc"])
    fields["mub-basis-columns"] = (None, ("bases", 1, "columns"), ())
    fields["mub-basis-entry"] = (None, ("bases", 1, "columns", 0, 0), ())
    return fields


SWEEP_FIELDS = _sweep_fields()


@pytest.mark.parametrize("case", list(SWEEP_FIELDS))
def test_every_reader_field_refuses_each_wrong_json_value(tmp_path, monkeypatch, capsys, case):
    """null, true, a string, 1.5, [], {} and NaN in one field: exit 2 naming the field.

    No message carries an "invalid <object>:" prefix or repeats the name of its object.
    """
    monkeypatch.chdir(tmp_path)  # a string spectrum or ensemble names a file; none exists
    base, path, valid = SWEEP_FIELDS[case]
    if base is None:
        base = mub_complete_set(2).to_json_dict()
        command = ["mub", "check", "--file"]
    else:
        command = ["verify", "--config"]
    field = [key for key in path if isinstance(key, str)][-1]
    failures = []
    for value in SWEEP_VALUES:
        if value in valid:
            continue
        document = copy.deepcopy(base)
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            code = main([*command, write_json(tmp_path, "input.json", document)])
        except Exception as exc:  # would be a traceback and exit 1 from the command line
            code = type(exc).__name__
        captured = capsys.readouterr()
        message = captured.err
        if (code != EXIT_INPUT or captured.out
                or not re.search(rf"\b{re.escape(field)}\b", message)
                or message.startswith("error: invalid ")
                or any(message.count(name) > 1 for name in SWEEP_OBJECTS)):
            failures.append((value, code, message))
    assert failures == []


@pytest.mark.parametrize("field", ["seed", "ensemble seed"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_verify_seeds_must_lie_in_64_bits(tmp_path, capsys, field, seed):
    # seed and seed mod 2^64 would draw byte-identical reports
    change = ({"seed": seed} if field == "seed"
              else {"ensemble": {"kind": "haar", "N": 3, "seed": seed}})
    assert main(["verify", "--config", _campaign(tmp_path, **change)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"seed {seed} lies outside 0..2^64-1" in captured.err
    assert captured.out == ""


def test_generate_needs_a_seed_in_the_spec(tmp_path, capsys):
    out = tmp_path / "samples.csv"
    assert main(["generate", "--ensemble", write_json(tmp_path, "e.json", {"kind": "haar", "N": 2}),
                 "--spectrum", write_json(tmp_path, "s.json", QUBIT),
                 "-M", "10", "--out", str(out)]) == EXIT_INPUT
    assert "ensemble spec needs a seed" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:  # the flag is gone; argparse refuses it
        main(["generate", "--ensemble", "e.json", "--spectrum", "s.json", "-M", "10",
              "--out", str(out), "--seed", "3"])
    assert exc.value.code == EXIT_INPUT


def test_pyproject_version_is_the_package_version():
    import re

    import haar_sentinel

    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml")) as fh:
        [version] = re.findall(r'^version = "([^"]+)"$', fh.read(), flags=re.M)
    assert version == haar_sentinel.__version__


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _run_python(code: str, tmp_path) -> str:
    """Run code in a fresh interpreter that imports the package under test."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def _verify_peak_rss(config: str, tmp_path, out: str = None) -> tuple[int, float]:
    """(exit code, peak RSS in MiB) of `verify` in a fresh interpreter.

    The command runs as a grandchild of the test process: Linux carries the
    RSS peak of a forked process's memory image into the ru_maxrss of the
    program it executes, so a direct child of a large test process would
    report that process's peak.
    """
    argv = ["verify", "--config", config] + (["--out", out] if out else [])
    code = f"""
import json, resource, subprocess, sys
done = subprocess.run([sys.executable, "-m", "haar_sentinel.cli", *{argv!r}],
                      stdout=subprocess.DEVNULL)
print(json.dumps([done.returncode,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]))
"""
    return tuple(json.loads(_run_python(code, tmp_path)))


def test_commands_that_never_sample_never_import_scipy(tmp_path):
    """Nor do Haar and counterexample campaigns: only non-half-integer Dirichlet shapes need it.

    Box-Muller normals and exponentials draw both half-integer gamma families
    with NumPy alone; scipy's inverse incomplete gamma function serves
    general_gamma_matrix only.
    """
    spectrum = write_json(tmp_path, "spectrum.json", NUMBER_OP_3)
    haar = write_json(tmp_path, "haar.json", {
        "spectrum": {"eigenvalues": [0, 1, 2], "multiplicities": [1, 1, 1]},
        "ensemble": {"kind": "haar", "N": 3, "seed": 17},
        "tiers": ["observable", "permutation", "mub"], "t": [1, 2], "epsilon": 0.05,
        "budgets": {"M": 2000, "M_perm": 2, "M_u": 2}, "seed": 17})
    counterexample = write_json(tmp_path, "counterexample.json", {
        "spectrum": {"eigenvalues": [0, 1, 2], "multiplicities": [1, 2, 1]},
        "ensemble": {"kind": "counterexample", "n": 2, "seed": 18},
        "tiers": ["observable", "permutation", "mub"], "t": [1, 2], "epsilon": 0.05,
        "budgets": {"M": 2000, "M_perm": 2, "M_u": 2}, "seed": 18})
    general = write_json(tmp_path, "general.json", {
        "spectrum": {"eigenvalues": [0, 1, 2], "multiplicities": [1, 1, 1]},
        "ensemble": {"kind": "dirichlet_amplitudes", "N": 3, "seed": 19,
                     "params": {"alpha": [0.3, 0.3, 0.3]}},
        "tiers": ["observable"], "t": [1], "epsilon": 0.05, "budgets": {"M": 2000}, "seed": 19})
    code = f"""
import contextlib, io, json, sys
from haar_sentinel import cli
loaded = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["moments", "--spectrum", {spectrum!r}, "--t", "1..4"],
                 ["mub", "dump", "-N", "5"],
                 ["verify", "--config", {haar!r}],
                 ["verify", "--config", {counterexample!r}],
                 ["verify", "--config", {general!r}]):
        loaded.append([cli.main(argv), "scipy" in sys.modules])
print(json.dumps(loaded))
"""
    codes, loaded = zip(*json.loads(_run_python(code, tmp_path)))
    assert codes[:2] == (EXIT_OK, EXIT_OK)
    # each campaign ran to its verdicts, whichever they are
    assert set(codes[2:]) <= {EXIT_OK, EXIT_INCOMPATIBLE, EXIT_INCONCLUSIVE}
    assert loaded == (False, False, False, False, True)


def test_mub_tier_runs_at_a_large_prime_dimension(tmp_path):
    # the complete set at N = 1021 would hold 1022 dense bases, about 17 GB
    campaign = _campaign(
        tmp_path,
        spectrum={"eigenvalues": [0, 1], "multiplicities": [511, 510]},
        ensemble={"kind": "haar", "N": 1021, "seed": 46},
        tiers=["mub"],
        budgets={"M": 200, "M_perm": 1, "M_u": 2},
        seed=46,
    )
    out = tmp_path / "report.json"
    exit_code, peak_mib = _verify_peak_rss(campaign, tmp_path, str(out))
    assert exit_code == EXIT_OK
    [report] = json.loads(out.read_text())["reports"]
    assert report["verdict"] == "compatible"
    assert peak_mib < 400


SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


@pytest.mark.parametrize("script, args", [
    ("counterexample_separation.py", ["3", "200", "2", "1"]),
    ("moment_table.py", ["3", "2", "0.01"]),
    ("verdict_rates.py", ["1"]),
])
def test_experiment_scripts_run(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_observable_tier_memory_does_not_grow_with_the_budget(tmp_path):
    # each chunk is reduced where it is drawn; an (M,) array of values at
    # M = 4e6 alone would be 31 MiB, and its t-th powers as much again
    campaign = _campaign(
        tmp_path,
        spectrum=QUBIT,
        ensemble={"kind": "haar", "N": 2, "seed": 47},
        tiers=["observable"],
        t=[1, 2, 3, 4],
        budgets={"M": 4_000_000},
        workers=2,
        seed=47,
    )
    exit_code, peak_mib = _verify_peak_rss(campaign, tmp_path)
    assert exit_code == EXIT_OK
    assert peak_mib < 90


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_observable_tier_bytes_equal_the_array_and_file_paths(tmp_path, workers):
    """The spec-driven tier, its samples as an array, and as a generated file agree byte for byte.

    M spans three chunks of the reduction grid.
    """
    ensemble = {"kind": "haar", "N": 8, "seed": 48}
    campaign = _campaign(tmp_path, spectrum=NUMBER_OP_3, ensemble=ensemble,
                         tiers=["observable"], t=[1, 2, 3, 4], budgets={"M": 20_000},
                         workers=workers, seed=48)
    cfg = load_campaign(campaign)
    tier = json.dumps(cli.run_campaign(cfg), sort_keys=True)

    csv = tmp_path / "samples.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--ensemble", write_json(tmp_path, "e.json", ensemble),
                     "--spectrum", write_json(tmp_path, "s.json", NUMBER_OP_3),
                     "-M", "20000", "--out", str(csv)]) == EXIT_OK
    array = cli.generate_expectation_samples(
        cfg.ensemble, natural_assignment(cfg.ensemble, cfg.spectrum), None, cfg.m_samples,
        workers=workers)
    for samples in (array, verify.load_samples(str(csv), cfg.spectrum)):
        reports = [average_randomness(estimate_moment(samples, t), cfg.spectrum, cfg.epsilon,
                                      provenance={"seed": cfg.ensemble.seed}).to_json_dict()
                   for t in cfg.orders]
        assert json.dumps(reports, sort_keys=True) == tier


@pytest.fixture
def no_stream(monkeypatch):
    """Fail any attempt to build a stream generator: checks must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was drawn before the input was checked")

    monkeypatch.setattr(streams, "generator", refuse)


@pytest.mark.parametrize("overrides, problem", [
    ({"budgets": {"M": 2**64}}, "budget M must be in 2..2^32, got 18446744073709551616"),
    ({"budgets": {"M": 2**32 + 1}}, "budget M must be in 2..2^32, got 4294967297"),
    ({"budgets": {"M": 100, "M_perm": 2**64}}, "budget M_perm must be in 1..4096"),
    ({"budgets": {"M": 100, "M_u": 4097}}, "budget M_u must be in 1..4096, got 4097"),
    ({"t": [10**400]}, "t orders must be at most 256, got 1000"),
    ({"t": [1, 257]}, "t orders must be at most 256, got 257"),
    # orders inside the cap whose moment leaves double range
    ({"t": [1, 40], "spectrum": {"eigenvalues": [0, 1e10], "multiplicities": [1, 2]}},
     "moment of order 40 exceeds double-precision range"),
    ({"t": [1], "spectrum": {"eigenvalues": [0, 1e200], "multiplicities": [1, 2]}},
     "of order 1 exceeds double-precision range"),
])
def test_verify_bounds_every_count_before_any_word_is_drawn(tmp_path, capsys, no_stream,
                                                           overrides, problem):
    cfg = _campaign(tmp_path, **{"budgets": {"M": 100, "M_perm": 2, "M_u": 2}, **overrides})
    assert main(["verify", "--config", cfg]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ensemble, m_samples, problem", [
    ({"kind": "haar", "N": 2, "seed": 1}, 2**64,
     "M = 18446744073709551616 samples outside 1..2^32"),
    ({"kind": "haar", "N": 2, "seed": 1}, 0, "M = 0 samples outside 1..2^32"),
    ({"kind": "dirichlet_amplitudes", "N": 2, "seed": 1, "params": {"alpha": [1e308, 0.5]}}, 4,
     "alpha: shapes summing to 1e+308 would draw"),
    ({"kind": "dirichlet_amplitudes", "N": 2, "seed": 1, "params": {"alpha": [2**64, 0.5]}}, 4,
     "alpha: shapes summing to 1.8446744073709552e+19 would draw"),
    ({"kind": "dirichlet_amplitudes", "N": 2, "seed": 1, "params": {"alpha": [2**20, 0.5]}}, 4,
     "would draw 1048578 words per sample, above 2^20"),
])
def test_generate_bounds_every_count_before_any_word_is_drawn(tmp_path, capsys, no_stream,
                                                             ensemble, m_samples, problem):
    out = tmp_path / "samples.csv"
    assert main(["generate", "--ensemble", write_json(tmp_path, "e.json", ensemble),
                 "--spectrum", write_json(tmp_path, "s.json", QUBIT),
                 "-M", str(m_samples), "--out", str(out)]) == EXIT_INPUT
    assert problem in capsys.readouterr().err
    assert not out.exists()


def test_dirichlet_shapes_at_the_word_cap_are_accepted():
    # 2^20 - 1 exponential words and one Box-Muller pair: 2^20 words per sample
    spec = EnsembleSpec(kind="dirichlet_amplitudes", dimension=2, seed=1,
                        params={"alpha": [2**20 - 1.5, 0.5]})
    assert streams.halfint_gamma_words(spec.params["alpha"]) == streams.MAX_SAMPLE_WORDS


@pytest.mark.parametrize("orders", ["1..10000000000", "1..257", "-10000000000..2"])
def test_moments_order_range_is_checked_before_it_is_listed(tmp_path, capsys, orders):
    spectrum = write_json(tmp_path, "s.json", QUBIT)
    assert main(["moments", "--spectrum", spectrum, f"--t={orders}"]) == EXIT_INPUT
    assert "t orders must be" in capsys.readouterr().err


@pytest.mark.parametrize("tiers", [["observable"], ["permutation", "mub"]])
def test_haar_reports_are_equal_at_one_and_two_workers_with_an_odd_budget(tmp_path, monkeypatch,
                                                                        tiers):
    # chunks of 300 samples: the last chunk of M = 1001 holds one sample of a pair
    monkeypatch.setattr(streams, "CHUNK_SAMPLES", 300)
    path = _campaign(tmp_path, spectrum={"eigenvalues": [0, 1, 2], "multiplicities": [1, 2, 2]},
                     ensemble={"kind": "haar", "N": 5, "seed": 49}, tiers=tiers, t=[1, 2],
                     budgets={"M": 1001, "M_perm": 2, "M_u": 2}, seed=49)
    one, two = (json.dumps(cli.run_campaign(load_campaign(path, workers_override=w)),
                           sort_keys=True) for w in (1, 2))
    assert one == two
