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
the campaign seed: order t of tier T draws its basis indices, then its
permutations, from the generator _protocol_rng(seed, T, t): the stream of the
seed-tree leaf (seed, TIERS.index(T) + 1, substream_id(t, 0x70726F74)), whose
word w is output w of PCG64DXSM(SeedSequence(stream_key)), as for every
sampling stream (see streams).
Unit (u, p), basis slot u and permutation p, reads its states from seed-tree
node (u, p) of the ensemble's seed, once for all orders.  The observable tier
reads node (0, 0) too, so it measures the same states as extended unit (0, 0),
and the permutation tier's nodes (0, p) are the mub tier's first slot: the
tiers of one campaign are not independent samples.

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
than a chunk of values.  Raw sample arrays are reduced on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        if self.m_samples < 2:
            raise ValueError("need at least two samples")
        object.__setattr__(self, "stderr", sqrt(self.variance / self.m_samples))


@dataclass(frozen=True)
class RandomnessReport:
    """Outcome of one verification tier at one moment order."""

    tier: str
    t: int
    R: float
    delta: float
    epsilon: float
    mu_haar: float
    provenance: dict
    verdict: str = field(init=False)

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}")
        object.__setattr__(self, "verdict", classify(self.R, self.delta, self.epsilon))

    def to_json_dict(self) -> dict:
        return {
            "tier": self.tier,
            "t": self.t,
            "R": self.R,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "mu_haar": self.mu_haar,
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


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


def _chunk_sums(values: np.ndarray, powers: Sequence[tuple[int, int]]) -> tuple[int, np.ndarray]:
    """(c, [s, q]) of one chunk: for each (k, t) in powers, the sum s of the t-th
    powers p = x**t of row k of the (P, c) values, and their centred sum of
    squares q = sum((p - s/c)**2), both NumPy pairwise sums.

    A sum that leaves double range is left infinite here; _merged refuses it.
    """
    c = values.shape[1]
    sums = np.empty((2, len(powers)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (k, t) in enumerate(powers):
            p = values[k] ** t
            s = p.sum()
            p -= s / c
            sums[:, j] = s, np.multiply(p, p, out=p).sum()
    return c, sums


def _merged(parts: Sequence[tuple[int, np.ndarray]],
            powers: Sequence[tuple[int, int]]) -> list[MomentEstimate]:
    """One estimate per (k, t) in powers from the _chunk_sums of the chunks, in index order.

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
    for j, (_, t) in enumerate(powers):
        if not (isfinite(s[j]) and isfinite(q[j])):
            raise ValueError(f"sample moment of order {t} exceeds double-precision range")
    return [MomentEstimate(t=t, mean=float(s[j] / n), variance=float(q[j] / (n - 1)),
                           m_samples=n)
            for j, (_, t) in enumerate(powers)]


def _estimates(total: int, block: Callable[[int, int], np.ndarray],
               powers: Sequence[tuple[int, int]], workers: int = 1) -> list[MomentEstimate]:
    """Estimates of the t-th powers of row k of block(start, count), one per (k, t) in powers.

    Each chunk of streams.chunked_samples is reduced in the thread that drew
    it and the chunks are merged in index order, so nothing holds more than
    a chunk of values and the result never depends on ``workers``.
    """
    parts = streams.chunked_samples(total, lambda s0, c: _chunk_sums(block(s0, c), powers),
                                    workers)
    return _merged(parts, powers)


def estimate_moment(samples: Sequence[float], t: int) -> MomentEstimate:
    """Empirical t-th moment: mean of per-sample t-th powers, M-1 variance.

    Reduced on the chunk grid of the sampling tiers, so values written by
    ``generate`` and read back give the bits of the tier that drew them.
    """
    values = np.asarray(samples, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two samples")
    return _merged([_chunk_sums(values[None, s0:s0 + c], [(0, t)])
                    for s0, c in streams.chunk_grid(values.size)], [(0, t)])[0]


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
    if m_samples < 2:
        raise ValueError("need at least two samples")
    block = probe_blocks(spec, [(natural_assignment(spec, s), None)])
    return _estimates(m_samples, block, [(0, t) for t in orders], workers)


def average_randomness(
    samples: Sequence[float] | MomentEstimate,
    s: Spectrum,
    t: int,
    epsilon: float,
    provenance: Optional[dict] = None,
) -> RandomnessReport:
    """Observable-tier report: the empirical t-th moment vs the closed form.

    ``samples`` are raw expectation values, or their order-t estimate as
    observable_estimates draws it; on the same values both give the same
    report, bit for bit.  The closed form and the paper's estimates come
    first, so a spectrum whose estimates leave double range is refused
    before raw samples are raised to the t-th power.
    """
    if isinstance(samples, MomentEstimate):
        if samples.t != t:
            raise ValueError(f"estimate of order {samples.t} given for order {t}")
        m_samples = samples.m_samples
    else:
        samples = np.asarray(samples, dtype=float)
        if samples.size < 2:
            raise ValueError("need at least two samples")
        m_samples = samples.size
    mu = exact_moment(s, t).value
    delta = sampling_error_bound(s, t, m_samples)
    required = required_samples(s, t, epsilon)
    est = samples if isinstance(samples, MomentEstimate) else estimate_moment(samples, t)
    prov = {"M": est.m_samples, "stderr": est.stderr, "required_samples": required}
    if provenance:
        prov.update(provenance)
    return RandomnessReport(tier="observable", t=t, R=est.mean - mu, delta=delta,
                            epsilon=epsilon, mu_haar=mu, provenance=prov)


def _protocol_rng(seed: int, tier: str, t: int) -> np.random.Generator:
    """Generator of order t's protocol draws (basis picks, permutations) in an extended tier."""
    key = streams.stream_key(seed, TIERS.index(tier) + 1, streams.substream_id(t, 0x70726F74))
    return streams.generator(key)


def _extended_randomness(tier: str, spec: EnsembleSpec, s: Spectrum, orders: Sequence[int],
                         m_u: int, m_perm: int, m_samples: int, epsilon: float, seed: int,
                         workers: int) -> list[RandomnessReport]:
    """One report per order over m_u basis slots of m_perm permutations each.

    Order t's generator, _protocol_rng(seed, tier, t), draws m_u basis indices
    as the first m_u entries of consecutive random orderings of the complete
    set (mub tier only; the permutation tier has one slot with no basis), then
    m_perm permutations per slot.  So the picks are distinct while
    m_u <= N + 1, and each basis is picked floor or ceil of m_u / (N + 1)
    times beyond that: a state visible in only some bases cannot slip past a
    budget that covers the set.  Each distinct drawn basis is built once.  Unit i, the pair
    (u, p) = divmod(i, m_perm), reads m_samples states from seed-tree node
    (u, p) once and measures every order's probe on them; per order, R is the
    signed RMS of the per-unit deviations and delta the resolution of the
    pooled budget m_u * m_perm * m_samples.
    """
    if m_u < 1 or m_perm < 1:
        raise ValueError("basis and permutation budgets must be at least 1")
    if m_samples < 2:
        raise ValueError("need at least two samples per unit")
    n_dim, n_units = s.dimension, m_u * m_perm
    built = {None: None}
    picks, perms = [], []  # per order: m_u basis indices, m_u * m_perm permutations
    for t in orders:
        rng = _protocol_rng(seed, tier, t)
        drawn = [None]
        if tier == "mub":
            orderings = [rng.permutation(n_dim + 1) for _ in range(-(-m_u // (n_dim + 1)))]
            drawn = [int(b) for b in np.concatenate(orderings)[:m_u]]
        for b in drawn:
            if b not in built:
                built[b] = mub_basis(n_dim, b)
        picks.append(drawn)
        perms.append([Permutation(rng.permutation(n_dim)) for _ in range(n_units)])
    base = natural_assignment(spec, s)
    mus = [exact_moment(s, t).value for t in orders]
    deltas = [sampling_error_bound(s, t, n_units * m_samples) for t in orders]
    means = [[] for _ in orders]
    for i in range(n_units):
        u, p = divmod(i, m_perm)
        block = probe_blocks(spec, [(apply_permutation(base, perms[k][i]), built[picks[k][u]])
                                    for k in range(len(orders))], stream=(u, p))
        for k, est in enumerate(_estimates(m_samples, block, list(enumerate(orders)), workers)):
            means[k].append(est.mean)
    reports = []
    for k, t in enumerate(orders):
        prov = {"seed": spec.seed, "campaign_seed": seed, "M": m_samples, "M_perm": m_perm}
        if tier == "mub":
            prov.update(M_u=m_u, basis_indices=picks[k],
                        basis_labels=[built[b].label for b in picks[k]])
        prov.update({
            "permutations": [sha256(perm.mapping.tobytes()).hexdigest()[:12]
                             for perm in perms[k]],
            "per_perm_means" if tier == "permutation" else "per_unit_means": means[k],
        })
        reports.append(RandomnessReport(
            tier=tier, t=t, R=_signed_rms(np.asarray(means[k]) - mus[k]),
            delta=deltas[k], epsilon=epsilon, mu_haar=mus[k], provenance=prov,
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

    The mub tier with a single slot and no basis: permutation p of every
    order reads seed-tree node (0, p), and order t draws its permutations
    from the campaign seed's generator for (permutation, t).
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
