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
N ~ 350 if formed directly), and the recurrence runs on eigenvalues divided
by lambda_max and by 2^shift, shift = ceil(-log_prefactor / (t log 2)), so
that h_t stays in range for every N <= 2^20.

The recurrence computes every lower order on its way to h_t.  So
exact_moments groups the requested orders by their shift and runs the power
sums and the recurrence once per group, up to the group's largest order: at
N = 2^12, orders 2..3 share shift 11 and orders 4..8 shift 10, so t = 1..8
takes two passes.  An order's value depends only on its shift, its prefactor
and p_1 .. p_t, never on the rest of its group, so it has the same bits
whichever orders are asked for with it.  The bounds below are
Jensen's and the convexity bound; the sample budgets are the paper's cheap
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, exp, fsum, inf, isfinite, lgamma, log
from operator import mul
from typing import Optional, Sequence

from .spectrum import Spectrum

LOG2 = log(2.0)

# lower_slack = LOWER_SLACK_COEFF t / N bounds nothing (moment_bounds); the benchmark reads it.
LOWER_SLACK_COEFF = 10.0


@dataclass(frozen=True)
class MomentValue:
    """The exact moment of order t."""

    t: int
    value: float


@dataclass(frozen=True)
class MomentBounds:
    """Bounds on the moment: the base value (Tr O / N)^t and the convexity bound.

    ``lower`` is the base itself, and mu_t >= (Tr O / N)^t holds exactly: x^t
    is convex and E x = Tr O / N.  ``lower_slack`` = 10 t / N bounds nothing;
    the benchmark reads it.  ``upper`` bounds the true moment; where the two
    meet (levels a few ulps apart) a computed exact_moment can exceed it by
    its rounding error, which grows with N through the log-gamma difference
    of the gamma ratio: against rational arithmetic, for t <= 16, up to 8e-13
    relative at N = 1024 and 1.1e-9 at N = 2^20.
    """

    t: int
    lower: float
    upper: float
    lower_slack: float


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
    return exact_moments(s, (t,))[0]


def exact_moments(s: Spectrum, orders: Sequence[int]) -> list[MomentValue]:
    """Exact moments of the given orders, in the order asked for.

    Orders that share a scaling shift share one pass of the power sums and
    of the recurrence, up to the largest of them, so each value has the bits
    of a call for its order alone.  Raises ValueError for the first order,
    in request order, that is negative or whose moment lies beyond
    double-precision range.
    """
    orders = tuple(orders)
    half_n = s.dimension / 2.0
    scaling = {}  # order -> (shift, log_prefactor), for orders the recurrence serves
    tops = {}  # shift -> largest order of its group
    for t in orders:
        if t >= 2 and s.levels > 1 and t not in scaling:
            log_prefactor = lgamma(t + 1) + lgamma(half_n) - lgamma(half_n + t)
            # Unscaled, h_t grows like C(N/2+t-1, t) = exp(-log_prefactor).
            # Dividing the eigenvalues by a power of two at least its t-th
            # root keeps h_t <= 1 and every h_k below exp(t/e); powers of two
            # scale without rounding.
            shift = ceil(-log_prefactor / (t * LOG2))
            scaling[t] = shift, log_prefactor
            tops[shift] = max(tops.get(shift, 0), t)
    h = {shift: _complete_sums(s, shift, top) for shift, top in tops.items()}
    return [_moment(s, t, scaling.get(t), h) for t in orders]


def _moment(s: Spectrum, t: int, scaling: Optional[tuple[int, float]],
            h: dict[int, list[float]]) -> MomentValue:
    """The order-t moment from its group's h_t, or from a closed form when scaling is None."""
    if t < 0:
        raise ValueError("order must be non-negative")
    if t == 0:
        return MomentValue(t=0, value=1.0)
    if scaling is None:
        # t = 1 or a one-level spectrum: E <psi|O|psi> = Tr O / N, and
        # O = lambda I gives lambda^t, closed forms that the recurrence
        # reproduces only up to rounding
        return MomentValue(t=t, value=_in_range(t, lambda: s.mean**t, "moment"))
    shift, log_prefactor = scaling
    h_t = h[shift][t]
    if h_t == 0.0:
        return MomentValue(t=t, value=0.0)
    log_value = log_prefactor + t * (log(s.max_eigenvalue) + shift * LOG2) + log(h_t)
    return MomentValue(t=t, value=_in_range(t, lambda: exp(log_value), "moment"))


def _complete_sums(s: Spectrum, shift: int, top: int) -> list[float]:
    """h_0 .. h_top of the eigenvalues divided by lambda_max and by 2^shift."""
    scaled = s.eigenvalues / s.max_eigenvalue * 2.0**-shift
    weighted = s.multiplicities / 2.0
    power_sums = []  # p_1 .. p_top
    for _ in range(top):
        weighted = weighted * scaled
        power_sums.append(float(weighted.sum()))
    h = [1.0]
    for k in range(1, top + 1):
        # h_k = (1/k) sum_j p_j h_{k-j}; fsum rounds the exact sum once
        h.append(fsum(map(mul, power_sums[:k], reversed(h))) / k)
    return h


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
    base = _in_range(t, lambda: s.mean**t)
    return base, 1.0 + 0.375 * s.levels / s.min_multiplicity**2


def moment_bounds(s: Spectrum, t: int) -> MomentBounds:
    """Cheap two-sided bounds: mu_t in [(Tr O / N)^t, (Tr O / N) * lambda_max^(t-1)].

    The expectation value x lies in [0, lambda_max] with mean Tr O / N, so
    x^t <= x lambda_max^(t-1) bounds mu_t from above for every spectrum and
    order.  The paper's estimate (Tr O / N)^t (1 + t^2 + (3/8) t^2 G / min_m^2)
    is not an upper bound: a small top level undercuts it at any t/N, e.g.
    eigenvalue 6 with multiplicity 3 beside 0 with multiplicity 1825, at t = 7
    (t/N = 0.004), has a moment 16.7 times the estimate.  The lower side is
    exact by Jensen's inequality: x^t is convex and E x = Tr O / N.
    ``lower_slack`` = 10 t / N is reported beside it but bounds nothing.
    """
    if t < 1:
        raise ValueError("order must be at least 1")
    base = _in_range(t, lambda: s.mean**t)
    # equal to base in exact arithmetic when O is a multiple of the identity
    upper = max(base, _in_range(t, lambda: s.mean * s.max_eigenvalue ** (t - 1)))
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
    m2t, mt = (mv.value for mv in exact_moments(s, (2 * t, t)))
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
