"""Moment estimation and the three-tier randomness verification protocol.

Tier "observable" checks that the empirical t-th moment of <psi|O|psi> over an
ensemble matches the closed-form uniform-measure value.  Tier "permutation"
repeats the check for the observable conjugated by uniformly random
permutations of its eigenbasis, which catches ensembles that imitate the
spectrum statistics of one fixed layout.  Tier "mub" additionally rotates the
permuted observable into bases drawn from a complete mutually unbiased set,
which makes the probed measurements tomographically complete.

The two extended tiers are one protocol: the permutation tier is the mub tier
with a single basis slot that holds no basis.  Every protocol draw comes from
the campaign seed: tier T draws its basis indices, then its permutations,
once per campaign, from the generator _protocol_rng(seed, T): the stream of
seed-tree node (TIERS.index(T),), built like every sampling stream (see
streams for the formula).
Unit (u, p), basis slot u and permutation p, measures one probe, O conjugated
by its permutation and basis, on the states of seed-tree node (u, p) and
reduces every order from those values, as the observable tier does with O.
The observable tier reads node (0, 0) too, so it measures the same states as
extended unit (0, 0), and the permutation tier's nodes (0, p) are the mub
tier's first slot: the tiers of one campaign are not independent samples.

Verdicts compare a discrepancy statistic R against the resolution delta that
the sampling budget can support:

    delta = (Tr O / N)^t * 2t / sqrt(M_eff) * sqrt(1 + (3/8) G / min_m^2),

with M_eff the total sample budget of the tier (M, M*M_perm, or
M*M_perm*M_u).  For the extended tiers R is the signed root-mean-square of
the per-permutation (or per-basis-and-permutation) deviations: an ensemble
only passes when every probed conjugation, not merely their average, stays
within budget resolution.  With a single unit this reduces exactly to the
plain signed deviation of the base tier.

Every tier reduces its samples chunk by chunk, in the thread that drew each
chunk, and merges the chunks in index order (_estimates); no tier holds more
than a chunk of values.  Raw sample arrays take the same path (estimate_moments).
The chunk grid holds whole Haar sample pairs, the samples 2m and 2m + 1 that
share one set of Box-Muller pairs (ensembles.state_blocks), except that the
last chunk of an odd M draws its last pair whole and measures one sample of it;
the values, and so the reports, do not depend on ``workers``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from hashlib import sha256
from math import isfinite, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from . import streams
from .ensembles import (
    EnsembleSpec,
    generate_expectation_samples,  # noqa: F401 -- perfbench/spans.py traces it under this module
    natural_assignment,
    probe_blocks,
)
from .haar_moments import (
    exact_moment,
    moment_bounds,  # noqa: F401 -- perfbench/spans.py traces it under this module
    required_samples,
    sampling_error_bound,
)
from .mub import (
    mub_basis,
    mub_complete_set,  # noqa: F401 -- perfbench/spans.py traces it under this module
)
from .spectrum import Permutation, Spectrum, apply_permutation

TIERS = ("observable", "permutation", "mub")

# An expectation value <psi|O|psi> is a convex combination of eigenvalues; a
# computed one may overshoot the range by rounding, about N * 2^-53 relative at
# worst, which stays below this slack up to N = 2^20.
SAMPLE_RANGE_RTOL = 1e-9


@dataclass(frozen=True)
class MomentEstimate:
    """Empirical t-th moment with its sampling uncertainty."""

    t: int
    mean: float
    variance: float
    m_samples: int
    stderr: float = field(init=False)

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be non-negative")
        object.__setattr__(self, "stderr", sqrt(self.variance / self.m_samples))


@dataclass(frozen=True)
class RandomnessReport:
    """Outcome of one verification tier at one moment order; fields in report key order."""

    tier: str
    t: int
    R: float
    delta: float
    epsilon: float
    mu_haar: float
    verdict: str = field(init=False)
    provenance: dict

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}")
        object.__setattr__(self, "verdict", classify(self.R, self.delta, self.epsilon))

    def to_json_dict(self) -> dict:
        return asdict(self)


def classify(r_value: float, delta: float, epsilon: float) -> str:
    """Total, mutually exclusive verdict rule on (|R|, delta, epsilon)."""
    if abs(r_value) <= delta:
        return "compatible"
    if abs(r_value) > epsilon:
        return "incompatible"
    return "inconclusive"


def load_samples(path: str, s: Spectrum) -> np.ndarray:
    """Read raw expectation-value samples from CSV ("sample" header) or JSON lines.

    Every value must be finite and inside the spectrum's range
    [lambda_min, lambda_max], up to a relative rounding slack of
    SAMPLE_RANGE_RTOL of the largest eigenvalue.
    """
    slack = SAMPLE_RANGE_RTOL * s.eigenvalues[-1]
    low, high = s.eigenvalues[0] - slack, s.eigenvalues[-1] + slack
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line == "sample"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: sample {line!r} is not a number") from None
            if not isfinite(value):
                raise ValueError(f"{path}:{lineno}: sample {line!r} is not finite")
            if not low <= value <= high:
                raise ValueError(f"{path}:{lineno}: sample {line!r} lies outside the spectrum's "
                                 f"range [{s.eigenvalues[0]!r}, {s.eigenvalues[-1]!r}]")
            values.append(value)
    if not values:
        raise ValueError(f"no samples in {path}")
    return np.asarray(values, dtype=float)


def _chunk_sums(values: np.ndarray, orders: Sequence[int]) -> tuple[int, np.ndarray]:
    """(c, [s, q]) of one chunk of c values: for each t in orders, the sum s of
    the t-th powers p = x**t and their centred sum of squares
    q = sum((p - s/c)**2), both NumPy pairwise sums.

    A sum that leaves double range is left infinite here; _merged refuses it.
    """
    c = values.size
    sums = np.empty((2, len(orders)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, t in enumerate(orders):
            p = values ** t
            s = p.sum()
            p -= s / c
            sums[:, j] = s, np.multiply(p, p, out=p).sum()
    return c, sums


def _merged(parts: Sequence[tuple[int, np.ndarray]],
            orders: Sequence[int]) -> list[MomentEstimate]:
    """One estimate per t in orders from the _chunk_sums of the chunks, in index order.

    The chunks are merged left to right (Chan, Golub and LeVeque):
    q = q_a + q_b + d**2 n_a n_b / n, with d the difference of their means.
    A single chunk gives exactly NumPy's mean and var(ddof=1).  Raises
    ValueError naming the order when a sum leaves double range.
    """
    n, (s, q) = parts[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for c, (s_c, q_c) in parts[1:]:
            d = s_c / c - s / n
            q = q + q_c + d * d * n * c / (n + c)
            s = s + s_c
            n += c
    for j, t in enumerate(orders):
        if not (isfinite(s[j]) and isfinite(q[j])):
            raise ValueError(f"sample moment of order {t} exceeds double-precision range")
    return [MomentEstimate(t=t, mean=float(s[j] / n), variance=float(q[j] / (n - 1)),
                           m_samples=n)
            for j, t in enumerate(orders)]


def _estimates(total: int, block: Callable[[int, int], np.ndarray],
               orders: Sequence[int], workers: int = 1) -> list[MomentEstimate]:
    """Estimates of the t-th powers of the values block(start, count), one per t in orders.

    Each chunk of streams.chunked_samples is reduced in the thread that drew
    it and the chunks are merged in index order, so nothing holds more than
    a chunk of values and the result never depends on ``workers``.
    """
    if total < 2:
        raise ValueError("need at least two samples")
    parts = streams.chunked_samples(total, lambda s0, c: _chunk_sums(block(s0, c), orders),
                                    workers)
    return _merged(parts, orders)


def estimate_moments(samples: Sequence[float], orders: Sequence[int]) -> list[MomentEstimate]:
    """Empirical t-th moments, one per t in orders, in one pass over the samples.

    Each is the mean of per-sample t-th powers with their M-1 variance,
    reduced on the chunk grid of the sampling tiers, so values written by
    ``generate`` and read back give the bits of the tier that drew them.
    """
    values = np.asarray(samples, dtype=float)
    return _estimates(values.size, lambda s0, c: values[s0:s0 + c], orders)


def estimate_moment(samples: Sequence[float], t: int) -> MomentEstimate:
    """Empirical t-th moment: estimate_moments for the one order t."""
    return estimate_moments(samples, [t])[0]


def _signed_rms(deviations: np.ndarray) -> float:
    """Root-mean-square magnitude, signed by the mean deviation.

    For a single deviation this is the deviation itself, so the extended
    tiers collapse to the base tier at unit budget.
    """
    rms = sqrt(float(np.mean(deviations**2)))
    return rms if float(np.sum(deviations)) >= 0 else -rms


def observable_estimates(
    spec: EnsembleSpec,
    s: Spectrum,
    orders: Sequence[int],
    m_samples: int,
    workers: int = 1,
) -> list[MomentEstimate]:
    """Order-t estimates, one per order, over m_samples states of seed-tree node (0, 0).

    The stream is drawn once for every order and reduced chunk by chunk where
    it is drawn, so memory stays O(chunk) in m_samples; average_randomness
    turns each estimate into the observable tier's report.
    """
    return _estimates(m_samples, probe_blocks(spec, natural_assignment(spec, s)), orders, workers)


def average_randomness(
    estimate: MomentEstimate,
    s: Spectrum,
    epsilon: float,
    provenance: Optional[dict] = None,
) -> RandomnessReport:
    """Observable-tier report at the estimate's order: its mean vs the closed form.

    The estimate comes from observable_estimates, which reduces a stream
    where it is drawn, or from estimate_moment on raw expectation values;
    on the same values both give the same report, bit for bit.
    """
    t, m = estimate.t, estimate.m_samples
    mu = exact_moment(s, t).value
    delta = sampling_error_bound(s, t, m)
    prov = {"M": m, "stderr": estimate.stderr,
            "required_samples": required_samples(s, t, epsilon), **(provenance or {})}
    return RandomnessReport(tier="observable", t=t, R=estimate.mean - mu, delta=delta,
                            epsilon=epsilon, mu_haar=mu, provenance=prov)


def _protocol_rng(seed: int, tier: str) -> np.random.Generator:
    """Generator of an extended tier's protocol draws (basis picks, permutations)."""
    return streams.generator(streams.stream_key(seed, TIERS.index(tier)))


def _extended_randomness(tier: str, spec: EnsembleSpec, s: Spectrum, orders: Sequence[int],
                         m_u: int, m_perm: int, m_samples: int, epsilon: float, seed: int,
                         workers: int) -> list[RandomnessReport]:
    """One report per order over m_u basis slots of m_perm permutations each.

    The tier's generator, _protocol_rng(seed, tier), is drawn once per
    campaign: m_u basis indices (mub tier only; the permutation tier has one
    slot with no basis), the first m_u entries of consecutive random orderings
    of the complete set, then m_u * m_perm permutations.  So the picks are
    distinct while m_u <= N + 1 and balanced to within one beyond that: a
    state visible in only some bases cannot slip past a budget that covers
    the set.  Each distinct pick is built once.  Unit i, the pair
    (u, p) = divmod(i, m_perm), measures one probe, O permuted by permutation
    i and rotated into basis u, on m_samples states of seed-tree node (u, p),
    and reduces every order from those values.  Per order, R is the signed
    RMS of the per-unit deviations and delta the resolution of the pooled
    budget m_u * m_perm * m_samples.
    """
    if m_u < 1 or m_perm < 1:
        raise ValueError("basis and permutation budgets must be at least 1")
    n_dim, n_units = s.dimension, m_u * m_perm
    rng = _protocol_rng(seed, tier)
    picks, bases = [None], {None: None}
    if tier == "mub":
        orderings = [rng.permutation(n_dim + 1) for _ in range(-(-m_u // (n_dim + 1)))]
        picks = [int(b) for b in np.concatenate(orderings)[:m_u]]
        bases = {b: mub_basis(n_dim, b) for b in set(picks)}
    perms = [Permutation(rng.permutation(n_dim)) for _ in range(n_units)]
    base = natural_assignment(spec, s)
    means = []  # per unit, one mean per order
    for i, perm in enumerate(perms):
        u, p = divmod(i, m_perm)
        block = probe_blocks(spec, apply_permutation(base, perm), bases[picks[u]], (u, p))
        means.append([est.mean for est in _estimates(m_samples, block, orders, workers)])
    prov = {"seed": spec.seed, "campaign_seed": seed, "M": m_samples, "M_perm": m_perm}
    if tier == "mub":
        prov.update(M_u=m_u, basis_indices=picks, basis_labels=[bases[b].label for b in picks])
    prov["permutations"] = [sha256(perm.mapping.tobytes()).hexdigest()[:12] for perm in perms]
    means_key = "per_perm_means" if tier == "permutation" else "per_unit_means"
    reports = []
    for t, unit_means in zip(orders, map(list, zip(*means))):
        mu = exact_moment(s, t).value
        reports.append(RandomnessReport(
            tier=tier, t=t, R=_signed_rms(np.asarray(unit_means) - mu),
            delta=sampling_error_bound(s, t, n_units * m_samples), epsilon=epsilon,
            mu_haar=mu, provenance={**prov, means_key: unit_means},
        ))
    return reports


def permutation_randomness(
    spec: EnsembleSpec,
    s: Spectrum,
    orders: Sequence[int],
    m_perm: int,
    m_samples: int,
    epsilon: float,
    seed: int,
    workers: int = 1,
) -> list[RandomnessReport]:
    """Permutation-tier reports, one per order, over m_perm uniform eigenbasis relabelings.

    The mub tier with a single slot and no basis: permutation p reads
    seed-tree node (0, p) and serves every order; the permutations are drawn
    once per campaign from the generator of (campaign seed, permutation).
    """
    return _extended_randomness("permutation", spec, s, orders, 1, m_perm, m_samples,
                                epsilon, seed, workers)


def mub_randomness(
    spec: EnsembleSpec,
    s: Spectrum,
    orders: Sequence[int],
    m_u: int,
    m_perm: int,
    m_samples: int,
    epsilon: float,
    seed: int,
    workers: int = 1,
) -> list[RandomnessReport]:
    """MUB-tier reports, one per order: permuted observables in random unbiased bases.

    Raises UnsupportedDimensionError when no complete set exists for the
    dimension; only the drawn bases are built.
    """
    return _extended_randomness("mub", spec, s, orders, m_u, m_perm, m_samples, epsilon,
                                seed, workers)
