import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haar_sentinel.ensembles import (
    EnsembleSpec,
    generate_expectation_samples,
    haar_mass_samples,
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
    alpha_pairwise_check,
    average_randomness,
    classify,
    estimate_moment,
    mub_randomness,
    permutation_dispersion,
    permutation_randomness,
)

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


def test_estimate_moment_against_exact_second_moment():
    masses = haar_mass_samples(2, seed=14, m_samples=100_000)
    values = masses @ np.array([0.0, 1.0])
    est = estimate_moment(values, 2)
    assert abs(est.mean - 0.375) < 3 * est.stderr


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
    report = average_randomness(samples, s, 1, epsilon=0.01)
    assert report.verdict == "compatible"
    assert report.mu_haar == pytest.approx(1.5, abs=1e-12)
    assert report.provenance["required_samples"] == 225_000


def test_average_randomness_degenerate_ensemble_incompatible():
    s = number_operator(3)
    report = average_randomness([0.0] * 10_000, s, 1, epsilon=0.5)
    assert report.R == pytest.approx(-1.5)
    assert report.verdict == "incompatible"


def test_average_randomness_tiny_sample_has_huge_delta():
    # with M = 2 the resolution bound dwarfs any plausible deviation, so the
    # verdict cannot leave "compatible"; callers must budget via required_samples
    s = number_operator(3)
    spec = EnsembleSpec(kind="haar", dimension=8, seed=9)
    samples = generate_expectation_samples(spec, expand(s), None, 2)
    report = average_randomness(samples, s, 1, epsilon=0.01)
    assert report.delta > 1.0
    assert report.verdict == "compatible"


def test_average_randomness_reports_exact_moment_without_slack():
    s = make_spectrum(tuple(range(1, 9)), (2,) * 8)
    samples = list(np.linspace(1.0, 8.0, 100))
    report = average_randomness(samples, s, 6, epsilon=0.5)
    assert report.provenance["mu_method"] == "exact"
    assert report.mu_haar == exact_moment(s, 6).value
    assert report.delta == sampling_error_bound(s, 6, 100)


def test_permutation_identity_reduces_to_average_randomness():
    s = number_operator(3)
    spec = EnsembleSpec(kind="haar", dimension=8, seed=99)
    samples = generate_expectation_samples(spec, expand(s), None, 5_000, stream=(0, 0))
    rep_obs = average_randomness(samples, s, 2, epsilon=0.05)
    [rep_perm] = permutation_randomness(
        spec, s, [2], 1, 5_000, 0.05, [np.random.default_rng(0)],
        permutations=[Permutation.identity(8)],
    )
    assert rep_perm.R == rep_obs.R
    assert rep_perm.delta == rep_obs.delta
    assert rep_perm.verdict == rep_obs.verdict


def test_permutation_tier_haar_compatible():
    s = number_operator(3)
    spec = EnsembleSpec(kind="haar", dimension=8, seed=1234)
    [report] = permutation_randomness(spec, s, [1], 20, 10_000, 0.01, [np.random.default_rng(7)])
    assert report.verdict == "compatible"
    assert len(report.provenance["permutations"]) == 20


def test_permutation_tier_counterexample_incompatible():
    n = 6
    s = number_operator(n)
    spec = EnsembleSpec(kind="counterexample", dimension=2**n, seed=81, params={"n": n})
    [report] = permutation_randomness(spec, s, [1], 20, 10_000, 0.01, [np.random.default_rng(3)])
    assert report.verdict == "incompatible"
    # same ensemble viewed through the unpermuted observable looks uniform
    a = natural_assignment(spec, s)
    samples = generate_expectation_samples(spec, a, None, 10_000)
    assert average_randomness(samples, s, 1, epsilon=0.01).verdict == "compatible"


def _per_perm_estimates(spec, s, t, n_perms, m_samples, rng):
    base = natural_assignment(spec, s)
    estimates = []
    for p_idx in range(n_perms):
        perm = Permutation(tuple(int(x) for x in rng.permutation(base.dimension)))
        values = generate_expectation_samples(
            spec, apply_permutation(base, perm), None, m_samples, stream=(0, p_idx)
        )
        estimates.append(estimate_moment(values, t))
    return estimates


def test_permutation_dispersion_zero_for_identical_means():
    est = estimate_moment([1.0, 2.0, 3.0], 1)
    disp = permutation_dispersion([est, est, est], est, QUBIT, 1, 0.01)
    assert disp.dispersion == 0.0
    assert disp.within_bound


def test_permutation_dispersion_separates_haar_from_counterexample():
    n = 4
    s = number_operator(n)
    rng = np.random.default_rng(55)
    haar = EnsembleSpec(kind="haar", dimension=2**n, seed=70)
    base_samples = generate_expectation_samples(haar, expand(s), None, 10_000)
    baseline = estimate_moment(base_samples, 1)
    ests = _per_perm_estimates(haar, s, 1, 10, 10_000, rng)
    disp = permutation_dispersion(ests, baseline, s, 1, epsilon=0.01)
    assert disp.within_bound

    ce = EnsembleSpec(kind="counterexample", dimension=2**n, seed=71, params={"n": n})
    ce_samples = generate_expectation_samples(ce, natural_assignment(ce, s), None, 10_000)
    ce_baseline = estimate_moment(ce_samples, 1)
    ce_ests = _per_perm_estimates(ce, s, 1, 10, 10_000, rng)
    ce_disp = permutation_dispersion(ce_ests, ce_baseline, s, 1, epsilon=0.01)
    assert not ce_disp.within_bound
    assert ce_disp.dispersion > 100 * ce_disp.bound


def test_permutation_dispersion_needs_two_estimates():
    est = estimate_moment([1.0, 2.0], 1)
    with pytest.raises(ValueError):
        permutation_dispersion([est], est, QUBIT, 1, 0.01)


def test_alpha_pairwise_check_haar_under_bound():
    s = number_operator(3)
    masses = haar_mass_samples(8, seed=17, m_samples=100_000)
    bounds = np.cumsum((0,) + s.multiplicities)
    group = [masses[:, bounds[i]:bounds[i + 1]].sum(axis=1).mean() for i in range(s.levels)]
    check = alpha_pairwise_check(group, s, epsilon=0.01)
    assert check.within_bound
    assert np.allclose(check.inferred_alpha, np.array(s.multiplicities) / 2.0, atol=0.05)


def test_alpha_pairwise_check_concentrated_ensemble_flagged():
    s = number_operator(3)
    group = [1.0, 0.0, 0.0, 0.0]  # everything in one eigenspace
    check = alpha_pairwise_check(group, s, epsilon=0.01)
    assert not check.within_bound


def test_alpha_pairwise_check_single_eigenspace_error():
    with pytest.raises(ValueError):
        alpha_pairwise_check([1.0], make_spectrum((2.0,), (4,)), 0.01)


def test_mub_tier_haar_compatible():
    s = QUBIT
    spec = EnsembleSpec(kind="haar", dimension=2, seed=2024)
    [report] = mub_randomness(spec, s, [1], 3, 4, 10_000, 0.01, [np.random.default_rng(5)])
    assert report.verdict == "compatible"
    assert len(report.provenance["basis_indices"]) == 3


def test_mub_tier_fixed_state_incompatible():
    s = QUBIT
    spec = EnsembleSpec(kind="fixed_basis_state", dimension=2, seed=0,
                        params={"basis_index": 0})
    [report] = mub_randomness(spec, s, [1], 3, 2, 1_000, 0.01, [np.random.default_rng(2)])
    assert report.verdict == "incompatible"


def test_mub_tier_unsupported_dimension():
    s = make_spectrum((0, 1), (3, 3))  # N = 6
    spec = EnsembleSpec(kind="haar", dimension=6, seed=1)
    with pytest.raises(UnsupportedDimensionError):
        mub_randomness(spec, s, [1], 2, 2, 100, 0.01, [np.random.default_rng(0)])


def test_delta_strictly_decreases_with_budgets():
    s = number_operator(2)
    spec = EnsembleSpec(kind="haar", dimension=4, seed=3)
    rngs = lambda: [np.random.default_rng(11)]
    base = permutation_randomness(spec, s, [1], 2, 1_000, 0.01, rngs())[0].delta
    more_perms = permutation_randomness(spec, s, [1], 4, 1_000, 0.01, rngs())[0].delta
    more_samples = permutation_randomness(spec, s, [1], 2, 2_000, 0.01, rngs())[0].delta
    assert more_perms < base
    assert more_samples < base
    mub_base = mub_randomness(spec, s, [1], 2, 2, 1_000, 0.01, rngs())[0].delta
    mub_more = mub_randomness(spec, s, [1], 4, 2, 1_000, 0.01, rngs())[0].delta
    assert mub_more < mub_base


def test_report_json_schema():
    s = number_operator(2)
    spec = EnsembleSpec(kind="haar", dimension=4, seed=8)
    samples = generate_expectation_samples(spec, expand(s), None, 1_000)
    d = average_randomness(samples, s, 1, epsilon=0.1).to_json_dict()
    assert set(d) == {"tier", "t", "R", "delta", "epsilon", "mu_haar", "verdict", "provenance"}
    assert d["tier"] == "observable"
    assert d["verdict"] in ("compatible", "incompatible", "inconclusive")
