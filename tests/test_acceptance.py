"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import json
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import beta as beta_dist
from scipy.stats import ks_2samp, kstest

from haar_sentinel.cli import main
from haar_sentinel.ensembles import (
    EnsembleSpec,
    generate_expectation_samples,
    natural_assignment,
)
from haar_sentinel.haar_moments import exact_moment, moment_bounds, required_samples
from haar_sentinel.mub import mub_complete_set
from haar_sentinel.spectrum import (
    EigenAssignment,
    expand,
    make_spectrum,
    number_operator,
    trace,
)
from haar_sentinel.verify import average_randomness, estimate_moments, permutation_randomness
from oracles import generate_probe_samples, random_spectrum

THREE_QUBIT_COUNTER = make_spectrum((0, 1, 2, 3), (1, 3, 3, 1))


def announce(number, text):
    print(f"\nACCEPTANCE {number}: PASS — {text}")


def test_criterion_01_exact_moment_agrees_with_monte_carlo_oracle(one_hot_probes):
    started = time.monotonic()
    spec = EnsembleSpec(kind="haar", dimension=8, seed=8801)
    masses = generate_probe_samples(spec, one_hot_probes(8), 1_000_000)
    values = masses @ expand(THREE_QUBIT_COUNTER).as_array()
    zs = []
    for t in (1, 2, 3, 4):
        powered = values**t
        se = powered.std(ddof=1) / np.sqrt(powered.size)
        z = (exact_moment(THREE_QUBIT_COUNTER, t).value - powered.mean()) / se
        zs.append(z)
        assert abs(z) < 5, (t, z)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    announce(1, f"exact vs 10^6-state oracle, |z| = {max(abs(z) for z in zs):.2f} <= 5 "
                f"({elapsed:.1f}s)")


def test_criterion_02_closed_form_golden_values():
    qubit = make_spectrum((0, 1), (1, 1))
    golden = {1: 0.5, 2: 0.375, 3: 0.3125, 4: 35 / 128}
    for t, expected in golden.items():
        oracle, err = quad(lambda x, t=t: x**t / np.pi, 0, 1,
                           weight="alg", wvar=(-0.5, -0.5))
        assert err < 1e-12
        assert abs(oracle - expected) <= 1e-12
        assert abs(exact_moment(qubit, t).value - expected) <= 1e-12
    announce(2, "mu_1..mu_4 of diag(0,1) match quadrature to 1e-12")


def test_criterion_03_first_moment_identity():
    rng = np.random.default_rng(1301)
    for _ in range(100):
        s = random_spectrum(rng, max_levels=6, max_dimension=1024)
        expected = trace(s) / s.dimension
        assert abs(exact_moment(s, 1).value - expected) <= 1e-12 * max(1.0, abs(expected))
    announce(3, "mu_1 = Tr/N to 1e-12 for 100 randomized spectra")


def test_criterion_04_bound_sandwich():
    rng = np.random.default_rng(1301)  # same spectra family as criterion 3
    violations = 0
    checked = 0
    for _ in range(100):
        s = random_spectrum(rng, max_levels=6, max_dimension=1024)
        for t in range(1, 5):
            if t / s.dimension > 0.05:
                continue
            checked += 1
            value = exact_moment(s, t).value
            b = moment_bounds(s, t)
            if not (b.lower * (1 - 10 * t / s.dimension) <= value <= b.upper):
                violations += 1
    assert checked > 0
    assert violations == 0
    announce(4, f"sandwich held in all {checked} (spectrum, t) cases")


def test_criterion_05_sample_complexity_arithmetic():
    assert required_samples(THREE_QUBIT_COUNTER, 1, 0.01) == 225_000
    for eps in (0.01, 0.001):
        assert required_samples(THREE_QUBIT_COUNTER, 1, eps / 10) == 100 * required_samples(
            THREE_QUBIT_COUNTER, 1, eps
        )
    announce(5, "M(0.01) = 225000 and M scales exactly 100x per decade of epsilon")


def test_criterion_06_counterexample_separation():
    started = time.monotonic()
    n, m_samples, m_perm, epsilon = 6, 10_000, 20, 0.01
    s = number_operator(n)
    observable_compatible = 0
    permutation_incompatible = 0
    for trial in range(100):
        spec = EnsembleSpec(kind="counterexample", dimension=2**n,
                            seed=60_000 + trial, params={"n": n})
        samples = generate_expectation_samples(
            spec, natural_assignment(spec, s), None, m_samples
        )
        [obs] = average_randomness(estimate_moments(samples, [1]), s, epsilon)
        observable_compatible += obs.verdict == "compatible"
        [perm] = permutation_randomness(
            spec, s, [1], m_perm, m_samples, epsilon, seed=70_000 + trial,
        )
        permutation_incompatible += perm.verdict == "incompatible"
    elapsed = time.monotonic() - started
    assert observable_compatible >= 95, observable_compatible
    assert permutation_incompatible >= 95, permutation_incompatible
    assert elapsed < 300
    announce(6, f"observable compatible {observable_compatible}/100, "
                f"permutation incompatible {permutation_incompatible}/100 ({elapsed:.1f}s)")


def test_criterion_07_mub_validity():
    worst = {}
    for n_dim in (2, 3, 4, 5, 7):
        mubs = mub_complete_set(n_dim)
        assert len(mubs) == n_dim + 1
        _, _, dev = mubs.worst_pair()
        assert dev <= 1e-10, (n_dim, dev)
        worst[n_dim] = dev
    announce(7, "complete MUB sets exhaustively unbiased, worst deviation "
                f"{max(worst.values()):.2e}")


def test_criterion_08_dirichlet_aggregation_property(one_hot_probes):
    # eigenspace masses of Dirichlet(1/2)^8 states vs states of the aggregated law,
    # both sampled by the half-integer gamma generator of the ensembles
    rng = np.random.default_rng(23)
    p_values = []
    for trial in range(10):
        n_groups = int(rng.integers(2, 8))
        labels = rng.integers(0, n_groups, size=8)
        while len(set(labels.tolist())) < n_groups:
            labels = rng.integers(0, n_groups, size=8)
        indicators = [(labels == g).astype(float) for g in range(n_groups)]
        summed = generate_probe_samples(
            EnsembleSpec(kind="dirichlet_amplitudes", dimension=8, seed=2300 + trial,
                         params={"alpha": [0.5] * 8}),
            [EigenAssignment(ind) for ind in indicators], 100_000,
        )
        direct = generate_probe_samples(
            EnsembleSpec(kind="dirichlet_amplitudes", dimension=n_groups, seed=2400 + trial,
                         params={"alpha": [ind.sum() / 2 for ind in indicators]}),
            one_hot_probes(n_groups), 100_000,
        )
        p_values += [ks_2samp(summed[:, j], direct[:, j]).pvalue for j in range(n_groups)]
    # family-wise significance 0.01 over all comparisons
    assert min(p_values) > 0.01 / len(p_values), sorted(p_values)[:3]
    announce(8, f"group sums indistinguishable from aggregated parameters "
                f"(10 partitions, {len(p_values)} KS tests, min p {min(p_values):.3g} "
                f"> 0.01/{len(p_values)})")


def test_criterion_09_haar_amplitudes_follow_beta_marginals(one_hot_probes):
    p_values = {}
    for n_dim, seed in ((2, 901), (4, 902), (8, 903)):
        spec = EnsembleSpec(kind="haar", dimension=n_dim, seed=seed)
        masses = generate_probe_samples(spec, one_hot_probes(n_dim), 400_000)
        law = beta_dist(0.5, (n_dim - 1) / 2.0)
        for j in range(n_dim):
            p_values[n_dim, j] = kstest(masses[:, j], law.cdf).pvalue
    # family-wise significance 0.01 over all 14 columns
    worst = min(p_values, key=p_values.get)
    assert p_values[worst] > 0.01 / len(p_values), (worst, p_values[worst])
    announce(9, f"squared amplitudes match Beta(1/2, (N-1)/2) for N in {{2,4,8}} "
                f"({len(p_values)} KS tests on 400k states, min p {p_values[worst]:.3g} "
                f"> 0.01/{len(p_values)})")


def test_criterion_10_verification_campaigns_are_deterministic(tmp_path):
    config = {
        "spectrum": {"eigenvalues": [0, 1, 2], "multiplicities": [1, 1, 1]},
        "ensemble": {"kind": "haar", "N": 3, "seed": 3141},
        "tiers": ["observable", "permutation", "mub"],
        "t": [1],
        "epsilon": 0.05,
        "budgets": {"M": 10000, "M_perm": 4, "M_u": 2},
        "seed": 3141,
    }
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps(config))
    payloads = []
    for name, workers in (("a.json", "1"), ("b.json", "1"), ("c.json", "8")):
        out = tmp_path / name
        code = main(["verify", "--config", str(cfg), "--out", str(out),
                     "--workers", workers])
        assert code == 0
        doc = json.loads(out.read_text())
        payloads.append(json.dumps(doc["reports"], sort_keys=True).encode())
    assert payloads[0] == payloads[1] == payloads[2]
    announce(10, "reports byte-identical across repeat runs and worker counts 1 vs 8")
