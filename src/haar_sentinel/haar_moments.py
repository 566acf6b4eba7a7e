"""Closed-form moments of <psi|O|psi> over uniformly random states.

For an observable with G distinct eigenvalues lambda_i of multiplicities m_i
(dimension N = sum m_i), the expectation value of a uniformly random state is
distributed as lambda . x with x ~ Dirichlet(alpha), alpha_i = m_i/2.  Its
t-th moment is

    mu_t = t! Gamma(N/2)/Gamma(N/2 + t) * h_t,

where h_t is the z^t coefficient of prod_i (1 - lambda_i z)^(-alpha_i).  The
logarithmic derivative of that product gives the recurrence

    h_0 = 1,   h_k = (1/k) sum_{j=1..k} p_j h_{k-j},   p_j = sum_i alpha_i lambda_i^j,

which costs O(G t + t^2) and adds only positive terms, so nothing cancels.
The gamma ratio is formed in log space (it overflows double precision around
N ~ 350 if formed directly), and the recurrence runs on rescaled eigenvalues
so that h_t stays in range for every N <= 2^20.  The bounds below are
Jensen's and the convexity bound; the sample budgets are the paper's cheap
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, exp, fsum, inf, isfinite, lgamma, log

import numpy as np

from .spectrum import Spectrum, trace

LOG2 = log(2.0)

# Unquantified relative slack of the lower bound; reported, never subtracted.
LOWER_SLACK_COEFF = 10.0


@dataclass(frozen=True)
class MomentValue:
    """The exact moment of order t."""

    t: int
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("moments of a non-negative observable are non-negative")


@dataclass(frozen=True)
class MomentBounds:
    """Bounds on the moment: the base value (Tr O / N)^t and the convexity bound.

    ``lower`` is the base itself; the true moment may undercut it by a
    relative margin of order t/N, reported as ``lower_slack`` rather than
    folded into the bound with an invented constant.  ``upper`` bounds the
    true moment; where the two meet (levels a few ulps apart) a computed
    exact_moment can exceed it by its rounding error, which grows with N
    through the log-gamma difference of the gamma ratio: against rational
    arithmetic, for t <= 16, up to 8e-13 relative at N = 1024 and 1.1e-9 at
    N = 2^20.
    """

    t: int
    lower: float
    upper: float
    lower_slack: float

    def __post_init__(self):
        if self.lower < 0 or self.lower > self.upper:
            raise ValueError("bounds must satisfy 0 <= lower <= upper")


def composition_count(t: int, g: int) -> int:
    """Number of compositions of t into g non-negative parts.

    This is the size of the multinomial sum over g nonzero eigenvalues that
    the power-sum recurrence of exact_moment replaced; the benchmark tracer
    reports it as ``haar_moments.terms``.
    """
    if g == 0:
        return 1 if t == 0 else 0
    return comb(t + g - 1, g - 1)


def exact_moment(s: Spectrum, t: int) -> MomentValue:
    """Exact t-th moment of the expectation value under the uniform measure.

    Raises ValueError when the moment lies beyond double-precision range.
    """
    if t < 0:
        raise ValueError("order must be non-negative")
    if t == 0:
        return MomentValue(t=0, value=1.0)
    if t == 1 or s.levels == 1:
        # E <psi|O|psi> = Tr O / N, and O = lambda I gives lambda^t: closed
        # forms that the recurrence below reproduces only up to rounding
        mean = trace(s) / s.dimension
        return MomentValue(t=t, value=_in_range(t, lambda: mean**t, "moment"))
    lam_max = s.max_eigenvalue

    half_n = s.dimension / 2.0
    log_prefactor = lgamma(t + 1) + lgamma(half_n) - lgamma(half_n + t)
    # Unscaled, h_t grows like C(N/2+t-1, t) = exp(-log_prefactor).  Dividing
    # the eigenvalues by a power of two at least its t-th root keeps h_t <= 1
    # and every h_k below exp(t/e); powers of two scale without rounding.
    shift = ceil(-log_prefactor / (t * LOG2))
    scaled = np.asarray(s.eigenvalues, dtype=float) / lam_max * 2.0**-shift
    weighted = np.asarray(s.multiplicities, dtype=float) / 2.0
    power_sums = [0.0]
    for _ in range(t):
        weighted = weighted * scaled
        power_sums.append(float(weighted.sum()))
    h = [1.0]
    for k in range(1, t + 1):
        h.append(fsum(power_sums[j] * h[k - j] for j in range(1, k + 1)) / k)
    if h[t] == 0.0:
        return MomentValue(t=t, value=0.0)
    log_value = log_prefactor + t * (log(lam_max) + shift * LOG2) + log(h[t])
    return MomentValue(t=t, value=_in_range(t, lambda: exp(log_value), "moment"))


def _in_range(t: int, compute, what: str = "estimate") -> float:
    """compute(), or ValueError naming the order when it leaves double range."""
    try:
        value = compute()
    except OverflowError:
        value = inf
    if not isfinite(value):
        raise ValueError(f"{what} of order {t} exceeds double-precision range")
    return value


def _estimate_terms(s: Spectrum, t: int) -> tuple[float, float]:
    """The paper's base (Tr O / N)^t and level factor 1 + (3/8) G / min_m^2."""
    base = _in_range(t, lambda: (trace(s) / s.dimension) ** t)
    return base, 1.0 + 0.375 * s.levels / s.min_multiplicity**2


def moment_bounds(s: Spectrum, t: int) -> MomentBounds:
    """Cheap two-sided bounds: mu_t in [(Tr O / N)^t, (Tr O / N) * lambda_max^(t-1)].

    The expectation value x lies in [0, lambda_max] with mean Tr O / N, so
    x^t <= x lambda_max^(t-1) bounds mu_t from above for every spectrum and
    order.  The paper's estimate (Tr O / N)^t (1 + t^2 + (3/8) t^2 G / min_m^2)
    is not an upper bound: a small top level undercuts it at any t/N, e.g.
    eigenvalue 6 with multiplicity 3 beside 0 with multiplicity 1825, at t = 7
    (t/N = 0.004), has a moment 16.7 times the estimate.  The lower side
    carries an additional unquantified O(t/N) slack, exposed as
    ``lower_slack`` = 10 t / N.
    """
    if t < 1:
        raise ValueError("order must be at least 1")
    mean = trace(s) / s.dimension
    base = _in_range(t, lambda: mean**t)
    # equal to base in exact arithmetic when O is a multiple of the identity
    upper = max(base, _in_range(t, lambda: mean * s.max_eigenvalue ** (t - 1)))
    return MomentBounds(
        t=t,
        lower=base,
        upper=upper,
        lower_slack=LOWER_SLACK_COEFF * t / s.dimension,
    )


def haar_variance(s: Spectrum, t: int) -> float:
    """Variance of the t-th power of the expectation value: mu_2t - mu_t^2.

    Analytically non-negative; tiny negative rounding residue is clamped.
    """
    m2t = exact_moment(s, 2 * t).value
    mt = exact_moment(s, t).value
    return max(m2t - mt * mt, 0.0)


def required_samples(s: Spectrum, t: int, epsilon: float) -> int:
    """Monte Carlo sample count sufficient to resolve the t-th moment to epsilon.

    M = ceil( (2t/eps * (Tr O/N)^t)^2 * (1 + (3/8) G / min_m^2) ).

    Note an alternative derivation of this bound circulates with the trace
    factor unsquared and constant (4 + (3/2) G / min_m^2); the squared form
    implemented here is the sharper published statement.
    """
    if not (isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be a finite positive number, got {epsilon}")
    if t < 1:
        raise ValueError("order must be at least 1")
    base, factor = _estimate_terms(s, t)
    value = _in_range(t, lambda: (2.0 * t / epsilon * base) ** 2 * factor)
    # guard against 1-ulp overshoot turning an exact integer into integer+1
    nearest = round(value)
    if abs(value - nearest) <= 1e-9 * max(1.0, abs(value)):
        return int(nearest)
    return int(ceil(value))


def sampling_error_bound(s: Spectrum, t: int, effective_samples: int) -> float:
    """Resolution achievable with a given total sample budget.

    This inverts required_samples: it is the epsilon for which that budget is
    exactly sufficient, and serves as the verdict threshold of the
    verification tiers (with effective_samples = M, M*M_perm, or
    M*M_perm*M_u).
    """
    if effective_samples < 1:
        raise ValueError("need at least one sample")
    base, factor = _estimate_terms(s, t)
    return _in_range(t, lambda: base * 2.0 * t / effective_samples**0.5 * factor**0.5)
