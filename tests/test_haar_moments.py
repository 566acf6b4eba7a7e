import itertools
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from haar_sentinel.ensembles import EnsembleSpec
from haar_sentinel.haar_moments import (
    composition_count,
    exact_moment,
    haar_variance,
    moment_bounds,
    required_samples,
    sampling_error_bound,
)
from haar_sentinel.spectrum import (
    expand,
    make_spectrum,
    number_operator,
    trace,
)
from oracles import generate_probe_samples, random_spectrum

QUBIT = make_spectrum((0, 1), (1, 1))
THREE_QUBIT_COUNTER = make_spectrum((0, 1, 2, 3), (1, 3, 3, 1))


def brute_force_compositions(t, levels, mask):
    """Oracle: filter the full integer grid."""
    out = []
    for k in itertools.product(range(t + 1), repeat=levels):
        if sum(k) == t and all(mask[i] or k[i] == 0 for i in range(levels)):
            out.append(k)
    return sorted(out)


def rising(a, k):
    """Pochhammer symbol (a)_k = Gamma(a + k) / Gamma(a), exactly."""
    return prod((a + i for i in range(k)), start=Fraction(1))


def rational_moment(s, t):
    """Oracle: the multinomial sum over compositions in exact rational arithmetic.

    Every eigenvalue is a double, hence exactly a Fraction; the gamma ratios
    are rising factorials of half-integers.
    """
    lams = [Fraction(lam) for lam in s.eigenvalues]
    halves = [Fraction(m, 2) for m in s.multiplicities]
    total = Fraction(0)
    for k in brute_force_compositions(t, s.levels, (True,) * s.levels):
        term = Fraction(factorial(t))
        for lam, a, k_i in zip(lams, halves, k):
            term *= lam**k_i * rising(a, k_i) / factorial(k_i)
        total += term
    return total / rising(Fraction(s.dimension, 2), t)


def test_compositions_examples():
    assert brute_force_compositions(2, 2, (True, True)) == [(0, 2), (1, 1), (2, 0)]
    assert composition_count(2, 2) == 3
    assert composition_count(0, 5) == 1
    assert composition_count(0, 0) == 1
    assert composition_count(3, 0) == 0
    masked = brute_force_compositions(3, 3, (True, False, True))
    assert len(masked) == composition_count(3, 2) == 4
    assert composition_count(12, 20) == 141_120_525  # number_operator(20) at t=12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.lists(st.booleans(), min_size=1, max_size=4),
)
def test_compositions_match_brute_force(t, mask):
    got = brute_force_compositions(t, len(mask), mask)
    assert len(got) == composition_count(t, sum(mask))


def test_exact_moment_matches_rational_oracle():
    rng = np.random.default_rng(2404)
    for _ in range(120):
        g = int(rng.integers(1, 5))
        lams = sorted({float(Fraction(int(rng.integers(0, 60)), int(rng.integers(1, 12))))
                       for _ in range(g)})
        mult = [int(m) for m in rng.integers(1, 200 // len(lams) + 1, size=len(lams))]
        s = make_spectrum(lams, mult)
        assert s.dimension <= 200
        for t in range(1, 7):
            want = rational_moment(s, t)
            assert abs(Fraction(exact_moment(s, t).value) - want) <= 1e-12 * want, (s, t)


def test_exact_moment_golden_values_against_quadrature():
    # With a single 0/1 eigenvalue pair the expectation value is Beta(1/2, 1/2);
    # its moments by numerical integration are the independent oracle.
    golden = {1: 0.5, 2: 0.375, 3: 0.3125, 4: 0.2734375}
    for t, expected in golden.items():
        oracle, err = quad(lambda x, t=t: x**t / np.pi, 0, 1,
                           weight="alg", wvar=(-0.5, -0.5))
        assert err < 1e-12
        assert abs(oracle - expected) < 1e-12
        assert abs(exact_moment(QUBIT, t).value - expected) < 1e-12


def test_exact_moment_first_order_is_normalized_trace():
    rng = np.random.default_rng(314)
    for _ in range(100):
        s = random_spectrum(rng)
        mu1 = exact_moment(s, 1).value
        expected = trace(s) / s.dimension
        assert abs(mu1 - expected) <= 1e-12 * max(1.0, abs(expected))


def test_exact_moment_zero_spectrum():
    s = make_spectrum((0.0,), (5,))
    assert exact_moment(s, 3).value == 0.0


def test_exact_moment_order_zero():
    assert exact_moment(QUBIT, 0).value == 1.0


def test_exact_moment_against_monte_carlo_oracle(one_hot_probes):
    spec = EnsembleSpec(kind="haar", dimension=8, seed=505)
    masses = generate_probe_samples(spec, one_hot_probes(8), 200_000)
    values = masses @ expand(THREE_QUBIT_COUNTER).as_array()
    for t in (1, 2, 3, 4):
        powered = values**t
        se = powered.std(ddof=1) / np.sqrt(len(powered))
        assert abs(exact_moment(THREE_QUBIT_COUNTER, t).value - powered.mean()) < 5 * se


def test_moment_bounds_example():
    b = moment_bounds(THREE_QUBIT_COUNTER, 2)
    assert b.lower == pytest.approx(2.25, abs=1e-12)
    assert b.lower_slack == pytest.approx(20 / 8)


def test_moment_bounds_hold_over_random_spectra_at_every_t_over_n():
    # the first two cases have a small top level, which puts the moment above
    # the paper's estimate (Tr O / N)^t (1 + t^2 + (3/8) t^2 G / min_m^2)
    cases = [(make_spectrum((0, 9), (10, 2)), 5), (make_spectrum((0, 6), (1825, 3)), 7)]
    rng = np.random.default_rng(4099)
    for _ in range(400):
        s = random_spectrum(rng, max_dimension=int(rng.choice([16, 64, 1024])))
        cases += [(s, t) for t in range(1, 9)]
    assert sum(t / s.dimension > 0.05 for s, t in cases) > 1000
    # two levels a few ulps to 1e-6 apart, where the moment meets the bound and
    # only the rounding of exact_moment (under 1e-12 relative at N <= 1024)
    # separates them
    cases += [(make_spectrum((lam, lam * (1 + d)), (n - top, top)), t)
              for n in (2, 61, 1024) for d in (2.3e-16, 1e-12, 1e-6)
              for lam in (1.0, 7.0) for top in {1, n - 1} for t in range(1, 9)]
    for s, t in cases:
        value = exact_moment(s, t).value
        b = moment_bounds(s, t)
        assert b.lower * (1 - 1e-12) <= value <= b.upper * (1 + 1e-12), (s, t)


def test_constant_spectrum_is_deterministic():
    s = make_spectrum((2.0,), (16,))
    for t in (1, 2, 3):
        mv = exact_moment(s, t).value
        b = moment_bounds(s, t)
        assert mv == pytest.approx(2.0**t, rel=1e-14)
        # the exact value sits on the lower bound, up to log-gamma rounding
        assert b.lower * (1 - 1e-12) <= mv <= b.upper
    assert haar_variance(s, 1) <= 1e-14  # analytically zero, log-gamma rounding residue


def test_bound_sandwich_over_random_spectra():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(100):
        s = random_spectrum(rng)
        for t in range(1, 5):
            if t / s.dimension > 0.05:
                continue
            checked += 1
            value = exact_moment(s, t).value
            b = moment_bounds(s, t)
            assert b.lower * (1 - 10 * t / s.dimension) <= value <= b.upper
    assert checked > 100


def test_moment_monotonicity_for_subunit_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_spectrum(rng, max_eigenvalue=1.0)
        lam_max = s.max_eigenvalue
        prev = exact_moment(s, 1).value
        for t in range(2, 5):
            cur = exact_moment(s, t).value
            assert cur <= prev * lam_max + 1e-12
            prev = cur


def test_haar_variance_values():
    assert haar_variance(QUBIT, 1) == pytest.approx(0.125, abs=1e-14)
    assert haar_variance(QUBIT, 2) == pytest.approx(35 / 128 - (3 / 8) ** 2, abs=1e-14)


def test_exact_moment_fails_only_when_the_value_overflows():
    # Jensen and the largest eigenvalue bracket every moment:
    # (Tr O / N)^t <= mu_t <= lambda_max^t.
    s = number_operator(20)
    for t in (12, 40, 120):
        value = exact_moment(s, t).value
        assert 10.0**t <= value <= 20.0**t
    # A rank-one projector at N = 2^20 has mu_100 = (1/2)_100 / (2^19)_100,
    # about exp(-956): it underflows to zero rather than raising.
    assert exact_moment(make_spectrum((0.0, 1.0), (2**20 - 1, 1)), 100).value == 0.0
    with pytest.raises(ValueError, match="order 2"):
        exact_moment(make_spectrum((1e300,), (2,)), 2)


def test_required_samples_golden():
    assert required_samples(THREE_QUBIT_COUNTER, 1, 0.01) == 225_000


def test_required_samples_inverse_square_scaling():
    # exact 100x growth per decade of epsilon (integral pre-ceiling values)
    for eps in (0.01, 0.05, 0.001):
        assert required_samples(THREE_QUBIT_COUNTER, 1, eps / 10) == 100 * required_samples(
            THREE_QUBIT_COUNTER, 1, eps
        )


def test_required_samples_constant_spectrum():
    # (2t/eps)^2 times the multiplicity correction 1 + 3/(8 N^2)
    n = 4
    s = make_spectrum((1.0,), (n,))
    expected = int(np.ceil(4.0 * (1 + 0.375 / n**2)))
    assert required_samples(s, 1, 1.0) == expected == 5


def test_sampling_error_bound_monotone_in_budget():
    d1 = sampling_error_bound(THREE_QUBIT_COUNTER, 1, 10_000)
    d2 = sampling_error_bound(THREE_QUBIT_COUNTER, 1, 20_000)
    d3 = sampling_error_bound(THREE_QUBIT_COUNTER, 1, 200_000)
    assert d1 > d2 > d3
    assert d1 == pytest.approx(1.5 * 2 * np.sqrt(1 + 0.375 * 4) / 100.0)


def test_paper_estimates_fail_only_when_the_value_overflows():
    huge = make_spectrum((1e300,), (2,))
    with pytest.raises(ValueError, match="order 2"):
        moment_bounds(huge, 2)
    with pytest.raises(ValueError, match="order 2"):
        sampling_error_bound(huge, 2, 100)
    # (Tr O / N)^t is in range, its squared budget is not
    wide = make_spectrum((0.0, 1e200), (1, 1))
    with pytest.raises(ValueError, match="order 1"):
        required_samples(wide, 1, 0.05)
    assert sampling_error_bound(wide, 1, 100) == pytest.approx(5e199 * 2 / 10 * 1.75**0.5)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0, -0.1])
def test_required_samples_needs_finite_positive_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        required_samples(THREE_QUBIT_COUNTER, 1, epsilon)
