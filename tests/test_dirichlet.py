from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_dist
from scipy.stats import kstest, ks_2samp

from haar_sentinel.ensembles import EnsembleSpec
from haar_sentinel.spectrum import EigenAssignment
from oracles import dirichlet_mixed_moment, generate_probe_samples


def dirichlet_spec(alpha, seed):
    """The ensemble whose squared amplitudes are Dirichlet(alpha)."""
    return EnsembleSpec(kind="dirichlet_amplitudes", dimension=len(alpha), seed=seed,
                        params={"alpha": list(alpha)})


def beta_moment_by_quadrature(a, b, t):
    """Independent oracle: t-th moment of Beta(a, b) by numerical integration.

    The endpoint singularities x^(a-1) (1-x)^(b-1) are handled by the
    algebraic-weight quadrature rule, leaving a smooth integrand.
    """
    from scipy.special import beta as beta_fn

    value, err = quad(lambda x: x**t / beta_fn(a, b), 0.0, 1.0,
                      weight="alg", wvar=(a - 1.0, b - 1.0))
    assert err < 1e-12
    return value


def test_params_validation():
    assert dirichlet_spec((0.5, 1.5), 0).params["alpha"] == [0.5, 1.5]
    for alpha in ((), (0.5, 0.0), (0.5, float("nan")), (0.5, True), (0.5, "1.5")):
        with pytest.raises(ValueError, match="alpha"):
            EnsembleSpec(kind="dirichlet_amplitudes", dimension=max(len(alpha), 1), seed=0,
                         params={"alpha": list(alpha)})


def test_mixed_moment_trivial_cases():
    assert dirichlet_mixed_moment((0.5, 0.5), (0, 0)) == 1.0
    assert dirichlet_mixed_moment((0.5, 0.5), (1, 0)) == 0.5


def test_mixed_moment_against_quadrature_oracle():
    # the first coordinate of Dir(1/2, 1/2) is Beta(1/2, 1/2)
    for t in (1, 2, 3, 4):
        oracle = beta_moment_by_quadrature(0.5, 0.5, t)
        assert abs(dirichlet_mixed_moment((0.5, 0.5), (t, 0)) - oracle) < 1e-12
    assert dirichlet_mixed_moment((0.5, 0.5), (2, 0)) == 0.375


def test_mixed_moment_length_mismatch():
    with pytest.raises(ValueError):
        dirichlet_mixed_moment((1.0, 1.0), (1,))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=8),
    st.data(),
)
def test_first_moment_is_alpha_ratio(alpha, data):
    i = data.draw(st.integers(min_value=0, max_value=len(alpha) - 1))
    k = [0] * len(alpha)
    k[i] = 1
    assert abs(dirichlet_mixed_moment(alpha, k) - alpha[i] / fsum(alpha)) < 1e-15


def test_mixed_moment_against_monte_carlo(one_hot_probes):
    # mixed moments with d <= 4 and |k| <= 4 agree with the ensembles' samples,
    # on the half-integer gamma path and (last case) the general one
    cases = [
        ((0.5, 0.5, 1.5, 2.0), (2, 1, 0, 1)),
        ((1.0, 3.0), (2, 2)),
        ((0.5, 0.5, 0.5), (4, 0, 0)),
        ((2.5, 4.0, 1.0), (1, 1, 2)),
        ((0.7, 1.3, 2.2), (1, 2, 1)),
    ]
    for seed, (alpha, k) in enumerate(cases, start=2024):
        x = generate_probe_samples(dirichlet_spec(alpha, seed), one_hot_probes(len(alpha)),
                                   1_000_000)
        prod = np.prod(x ** np.asarray(k), axis=1)
        mc, se = prod.mean(), prod.std(ddof=1) / 1000.0
        exact = dirichlet_mixed_moment(alpha, k)
        assert abs(exact - mc) < 5 * se, (alpha, k, exact, mc, se)


def test_sample_on_simplex(one_hot_probes):
    for alpha in ((0.5, 1.0, 2.0), (0.3, 1.7, 4.1)):
        x = generate_probe_samples(dirichlet_spec(alpha, 11), one_hot_probes(3), 1000)
        assert np.all(x >= 0.0)
        assert np.abs(x.sum(axis=1) - 1.0).max() < 1e-12


def test_sample_single_component(one_hot_probes):
    x = generate_probe_samples(dirichlet_spec((2.0,), 0), one_hot_probes(1), 100)
    assert np.all(x == 1.0)


def test_symmetric_mean(one_hot_probes):
    x = generate_probe_samples(dirichlet_spec((1.0, 1.0), 3), one_hot_probes(2), 100_000)
    se = x[:, 0].std(ddof=1) / np.sqrt(100_000)
    assert abs(x[:, 0].mean() - 0.5) < 3 * se


def test_arcsine_marginal_goodness_of_fit(one_hot_probes):
    x = generate_probe_samples(dirichlet_spec((0.5, 0.5), 8), one_hot_probes(2), 100_000)
    assert kstest(x[:, 0], beta_dist(0.5, 0.5).cdf).pvalue > 0.01


def test_aggregation_matches_group_sums_in_distribution(one_hot_probes):
    # group sums of Dirichlet(alpha) masses vs masses of Dirichlet(summed alpha),
    # two-sample KS per group; these alphas take the general gamma path
    rng = np.random.default_rng(7)
    p_values = []
    for trial in range(5):
        d = int(rng.integers(3, 9))
        alpha = rng.uniform(0.3, 3.0, size=d)
        n_groups = int(rng.integers(2, d + 1))
        labels = rng.integers(0, n_groups, size=d)
        while len(set(labels.tolist())) < n_groups:
            labels = rng.integers(0, n_groups, size=d)
        indicators = [(labels == g).astype(float) for g in range(n_groups)]
        summed = generate_probe_samples(dirichlet_spec(alpha, 7000 + trial),
                                        [EigenAssignment(ind) for ind in indicators],
                                        100_000)
        direct = generate_probe_samples(dirichlet_spec([ind @ alpha for ind in indicators],
                                                       7100 + trial),
                                        one_hot_probes(n_groups), 100_000)
        p_values += [ks_2samp(summed[:, j], direct[:, j]).pvalue for j in range(n_groups)]
    # family-wise significance 0.01 over all comparisons
    assert min(p_values) > 0.01 / len(p_values), sorted(p_values)[:3]
