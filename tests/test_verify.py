from fractions import Fraction
from hashlib import sha256
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64DXSM, SeedSequence

from haar_sentinel import streams
from haar_sentinel.ensembles import (
    EnsembleSpec,
    generate_expectation_samples,
    natural_assignment,
)
from haar_sentinel.haar_moments import exact_moment, sampling_error_bound
from haar_sentinel.mub import UnsupportedDimensionError
from haar_sentinel.spectrum import (
    Permutation,
    apply_permutation,
    expand,
    make_spectrum,
    number_operator,
)
from haar_sentinel.verify import (
    _protocol_rng,
    average_randomness,
    classify,
    estimate_moment,
    estimate_moments,
    mub_randomness,
    observable_estimates,
    permutation_randomness,
)
from oracles import generate_probe_samples

QUBIT = make_spectrum((0, 1), (1, 1))


def test_estimate_moment_constant_samples():
    est = estimate_moment([3.0] * 50, 2)
    assert est.mean == 9.0
    assert est.variance == 0.0
    assert est.stderr == 0.0


def test_estimate_moment_two_point():
    est = estimate_moment([0.0, 1.0], 1)
    assert est.mean == 0.5
    assert est.variance == 0.5
    assert est.stderr == 0.5


def test_estimate_moment_needs_two_samples():
    with pytest.raises(ValueError):
        estimate_moment([1.0], 1)


def test_estimate_moment_recomputation_identity():
    # variance must equal the M/(M-1)-corrected raw-moment difference
    rng = np.random.default_rng(6)
    samples = rng.uniform(0.0, 3.0, size=5000)
    for t in (1, 2, 3):
        est = estimate_moment(samples, t)
        m = samples.size
        raw = (samples ** (2 * t)).mean() - (samples**t).mean() ** 2
        corrected = raw * m / (m - 1)
        assert est.variance == pytest.approx(corrected, rel=1e-10)


def test_estimate_moment_against_exact_second_moment(one_hot_probes):
    spec = EnsembleSpec(kind="haar", dimension=2, seed=14)
    masses = generate_probe_samples(spec, one_hot_probes(2), 100_000)
    values = masses @ np.array([0.0, 1.0])
    est = estimate_moment(values, 2)
    assert abs(est.mean - 0.375) < 3 * est.stderr


def _oracle_moments(values, t):
    """Mean (math.fsum, correctly rounded) and exact M-1 variance of the float64 powers values**t."""
    powers = np.asarray(values) ** t
    exact = [Fraction(float(p)) for p in powers]
    mean = sum(exact) / len(exact)
    variance = sum((p - mean) ** 2 for p in exact) / (len(exact) - 1)
    return fsum(powers) / len(exact), variance


@pytest.mark.parametrize("m", [900, 1000, 2500])
def test_estimate_moment_merges_chunks_to_the_exact_oracle(monkeypatch, m):
    # three or more chunks, the last one short when 300 does not divide m
    monkeypatch.setattr(streams, "CHUNK_SAMPLES", 300)
    spec = EnsembleSpec(kind="haar", dimension=8, seed=61 + m)
    values = generate_expectation_samples(spec, expand(number_operator(3)), None, m)
    for t in (1, 2, 3, 4):
        est = estimate_moment(values, t)
        mean, variance = _oracle_moments(values, t)
        assert est.m_samples == m
        assert abs(est.mean - mean) <= 1e-14 * mean
        assert abs(Fraction(est.variance) - variance) <= Fraction(1e-14) * variance


@pytest.mark.parametrize("m", [2, 5000, streams.CHUNK_SAMPLES])
def test_estimate_moment_on_one_chunk_is_numpy_mean_and_var(m):
    values = np.random.default_rng(m).uniform(0.0, 3.0, size=m)
    for t in (1, 2, 3, 4):
        est = estimate_moment(values, t)
        assert est.mean == np.mean(values**t)
        assert est.variance == np.var(values**t, ddof=1)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=0, max_value=5, allow_nan=False),
    st.floats(min_value=1e-9, max_value=5, allow_nan=False),
)
def test_verdict_trichotomy_total_and_exclusive(r_value, delta, epsilon):
    verdict = classify(r_value, delta, epsilon)
    memberships = [
        abs(r_value) <= delta,
        abs(r_value) > delta and abs(r_value) > epsilon,
        delta < abs(r_value) <= epsilon,
    ]
    assert sum(memberships) == 1
    assert verdict == ("compatible", "incompatible", "inconclusive")[memberships.index(True)]


def test_average_randomness_haar_oracle_compatible():
    s = number_operator(3)
    spec = EnsembleSpec(kind="haar", dimension=8, seed=404)
    samples = generate_expectation_samples(spec, expand(s), None, 100_000)
    [report] = average_randomness(estimate_moments(samples, [1]), s, epsilon=0.01)
    assert report.verdict == "compatible"
    assert report.mu_haar == pytest.approx(1.5, abs=1e-12)
    assert report.provenance["required_samples"] == 225_000


def test_average_randomness_degenerate_ensemble_incompatible():
    s = number_operator(3)
    [report] = average_randomness(estimate_moments([0.0] * 10_000, [1]), s, epsilon=0.5)
    assert report.R == pytest.approx(-1.5)
    assert report.verdict == "incompatible"


def test_average_randomness_tiny_sample_has_huge_delta():
    # with M = 2 the resolution bound dwarfs any plausible deviation, so the
    # verdict cannot leave "compatible"; callers must budget via required_samples
    s = number_operator(3)
    spec = EnsembleSpec(kind="haar", dimension=8, seed=9)
    samples = generate_expectation_samples(spec, expand(s), None, 2)
    [report] = average_randomness(estimate_moments(samples, [1]), s, epsilon=0.01)
    assert report.delta > 1.0
    assert report.verdict == "compatible"


def test_average_randomness_reports_exact_moment_without_slack():
    s = make_spectrum(tuple(range(1, 9)), (2,) * 8)
    samples = list(np.linspace(1.0, 8.0, 100))
    [report] = average_randomness(estimate_moments(samples, [6]), s, epsilon=0.5)
    assert "mu_method" not in report.provenance
    assert report.mu_haar == exact_moment(s, 6).value
    assert report.delta == sampling_error_bound(s, 6, 100)


def test_permutation_identity_reduces_to_average_randomness():
    # one permutation: the tier is the observable tier of the permuted observable,
    # also where the deviation's square (about 1e-366 at 2^-300 scale) underflows
    spec = EnsembleSpec(kind="haar", dimension=8, seed=99)
    perm = Permutation(_protocol_rng(0, "permutation").permutation(8))
    for scale in (1.0, 2.0**-300):
        s = make_spectrum(tuple(k * scale for k in range(4)), (1, 3, 3, 1))
        [rep_perm] = permutation_randomness(spec, s, [2], 1, 5_000, 0.05, seed=0)
        samples = generate_expectation_samples(spec, apply_permutation(expand(s), perm), None,
                                               5_000, stream=(0, 0))
        [rep_obs] = average_randomness(estimate_moments(samples, [2]), s, epsilon=0.05)
        assert rep_perm.R == rep_obs.R != 0
        assert rep_perm.delta == rep_obs.delta
        assert rep_perm.verdict == rep_obs.verdict


@pytest.mark.parametrize("eigenvalues, t, epsilon, verdict, least_r", [
    ((0.0, 0.001), 60, 1e-190, "incompatible", 1e-181),  # squared deviations underflow to 0
    ((0.0, 1e160), 1, 1e170, "inconclusive", 1e159),  # squared deviations overflow to inf
])
def test_tiers_agree_where_squared_deviations_leave_double_range(eigenvalues, t, epsilon,
                                                                 verdict, least_r):
    # |0> reads a constant per unit; every tier's R is a finite signed RMS of deviations
    s = make_spectrum(eigenvalues, (1, 1))
    spec = EnsembleSpec(kind="fixed_basis_state", dimension=2, seed=4, params={"basis_index": 0})
    [obs] = average_randomness(observable_estimates(spec, s, [t], 2_000), s, epsilon)
    [perm] = permutation_randomness(spec, s, [t], 4, 2_000, epsilon, seed=4)
    [mub] = mub_randomness(spec, s, [t], 2, 4, 2_000, epsilon, seed=4)
    for report in (obs, perm, mub):
        assert np.isfinite(report.R) and report.verdict == verdict, report
    for report in (perm, mub):
        assert abs(report.R) > least_r, report


@pytest.mark.parametrize("tier,node,m_u", [("permutation", (1,), 1), ("mub", (2,), 7)])
def test_protocol_draws_are_redrawn_by_numpy_alone(tier, node, m_u):
    # N = 5 has N + 1 = 6 bases, so 7 picks take the first of a second ordering
    s = make_spectrum((0, 1, 2), (1, 2, 2))
    spec = EnsembleSpec(kind="haar", dimension=5, seed=3)
    m_perm, seed = 2, 2**64 - 1
    if tier == "mub":
        [report] = mub_randomness(spec, s, [1], m_u, m_perm, 50, 0.01, seed=seed)
    else:
        [report] = permutation_randomness(spec, s, [1], m_perm, 50, 0.01, seed=seed)
    rng = np.random.Generator(PCG64DXSM(SeedSequence(seed, spawn_key=node)))
    if tier == "mub":
        picks = np.concatenate([rng.permutation(6), rng.permutation(6)])[:m_u]
        assert report.provenance["basis_indices"] == picks.tolist()
    perms = [rng.permutation(5) for _ in range(m_u * m_perm)]
    assert report.provenance["permutations"] == [sha256(q.tobytes()).hexdigest()[:12]
                                                 for q in perms]


def test_permutation_tier_haar_compatible():
    s = number_operator(3)
    spec = EnsembleSpec(kind="haar", dimension=8, seed=1234)
    [report] = permutation_randomness(spec, s, [1], 20, 10_000, 0.01, seed=7)
    assert report.verdict == "compatible"
    assert len(report.provenance["permutations"]) == 20


def test_permutation_tier_counterexample_incompatible():
    n = 6
    s = number_operator(n)
    spec = EnsembleSpec(kind="counterexample", dimension=2**n, seed=81, params={"n": n})
    [report] = permutation_randomness(spec, s, [1], 20, 10_000, 0.01, seed=3)
    assert report.verdict == "incompatible"
    # same ensemble viewed through the unpermuted observable looks uniform
    a = natural_assignment(spec, s)
    samples = generate_expectation_samples(spec, a, None, 10_000)
    [report] = average_randomness(estimate_moments(samples, [1]), s, epsilon=0.01)
    assert report.verdict == "compatible"


def test_permutation_dispersion_separates_haar_from_counterexample():
    # per-permutation deviations stay inside delta for Haar and blow far past
    # it for the counterexample, whose spectrum relabeling rearranges
    n = 4
    s = number_operator(n)
    haar = EnsembleSpec(kind="haar", dimension=2**n, seed=70)
    [report] = permutation_randomness(haar, s, [1], 10, 10_000, 0.01, seed=55)
    assert report.verdict == "compatible"
    assert abs(report.R) <= report.delta

    ce = EnsembleSpec(kind="counterexample", dimension=2**n, seed=71, params={"n": n})
    [ce_report] = permutation_randomness(ce, s, [1], 10, 10_000, 0.01, seed=55)
    assert ce_report.verdict == "incompatible"
    assert abs(ce_report.R) > 10 * ce_report.delta


def test_mub_tier_haar_compatible():
    s = QUBIT
    spec = EnsembleSpec(kind="haar", dimension=2, seed=2024)
    [report] = mub_randomness(spec, s, [1], 3, 4, 10_000, 0.01, seed=5)
    assert report.verdict == "compatible"
    assert len(report.provenance["basis_indices"]) == 3


def test_mub_tier_fixed_state_incompatible():
    s = QUBIT
    spec = EnsembleSpec(kind="fixed_basis_state", dimension=2, seed=0,
                        params={"basis_index": 0})
    [report] = mub_randomness(spec, s, [1], 3, 2, 1_000, 0.01, seed=2)
    assert report.verdict == "incompatible"


@pytest.mark.parametrize("m_u", [2, 3, 4, 7])
def test_mub_picks_cover_the_complete_set_evenly(m_u):
    # distinct picks up to N + 1 = 3, then every basis floor or ceil of m_u / 3 times
    spec = EnsembleSpec(kind="haar", dimension=2, seed=3)
    for seed in range(20):
        [report] = mub_randomness(spec, QUBIT, [1], m_u, 1, 2, 0.01, seed=seed)
        counts = np.bincount(report.provenance["basis_indices"], minlength=3)
        assert counts.sum() == m_u and counts.max() - counts.min() <= 1, counts


def test_mub_tier_unsupported_dimension():
    s = make_spectrum((0, 1), (3, 3))  # N = 6
    spec = EnsembleSpec(kind="haar", dimension=6, seed=1)
    with pytest.raises(UnsupportedDimensionError):
        mub_randomness(spec, s, [1], 2, 2, 100, 0.01, seed=0)


@pytest.mark.parametrize("tier,budget", [
    ("permutation", {"m_perm": 0}), ("permutation", {"m_samples": 1}),
    ("mub", {"m_u": 0}), ("mub", {"m_perm": 0}), ("mub", {"m_samples": 1}),
])
def test_extended_tiers_reject_empty_budgets(tier, budget):
    spec = EnsembleSpec(kind="haar", dimension=2, seed=4)
    budgets = {"m_perm": 1, "m_samples": 100, **budget}
    with pytest.raises(ValueError, match="at least"):
        if tier == "mub":
            mub_randomness(spec, QUBIT, [1], epsilon=0.01, seed=4, **{"m_u": 1, **budgets})
        else:
            permutation_randomness(spec, QUBIT, [1], epsilon=0.01, seed=4, **budgets)


def test_delta_strictly_decreases_with_budgets():
    s = number_operator(2)
    spec = EnsembleSpec(kind="haar", dimension=4, seed=3)
    base = permutation_randomness(spec, s, [1], 2, 1_000, 0.01, seed=11)[0].delta
    more_perms = permutation_randomness(spec, s, [1], 4, 1_000, 0.01, seed=11)[0].delta
    more_samples = permutation_randomness(spec, s, [1], 2, 2_000, 0.01, seed=11)[0].delta
    assert more_perms < base
    assert more_samples < base
    mub_base = mub_randomness(spec, s, [1], 2, 2, 1_000, 0.01, seed=11)[0].delta
    mub_more = mub_randomness(spec, s, [1], 4, 2, 1_000, 0.01, seed=11)[0].delta
    assert mub_more < mub_base


def test_report_json_schema():
    s = number_operator(2)
    spec = EnsembleSpec(kind="haar", dimension=4, seed=8)
    samples = generate_expectation_samples(spec, expand(s), None, 1_000)
    [report] = average_randomness(estimate_moments(samples, [1]), s, epsilon=0.1)
    d = report.to_json_dict()
    assert set(d) == {"tier", "t", "R", "delta", "epsilon", "mu_haar", "verdict", "provenance"}
    assert d["tier"] == "observable"
    assert d["verdict"] in ("compatible", "incompatible", "inconclusive")


@pytest.mark.parametrize("samples, t", [([0.0, 1e200], 2), ([1e300, 1e300], 2), ([0.0, 1e160], 1)])
def test_estimate_moment_refuses_sums_out_of_double_range(samples, t):
    # the powers, or their centred squares, overflow: refused, not reported as inf
    with pytest.raises(ValueError, match=f"order {t}"):
        estimate_moment(samples, t)
