"""Moment estimation and the three-tier randomness verification protocol.

Tier "observable" checks that the empirical t-th moment of <psi|O|psi> over an
ensemble matches the closed-form uniform-measure value.  Tier "permutation"
repeats the check for the observable conjugated by uniformly random
permutations of its eigenbasis, which catches ensembles that imitate the
spectrum statistics of one fixed layout.  Tier "mub" additionally rotates the
permuted observable into bases drawn from a complete mutually unbiased set,
which makes the probed measurements tomographically complete.

Verdicts compare a discrepancy statistic R against the resolution delta that
the sampling budget can support:

    delta = (Tr O / N)^t * 2t / sqrt(M_eff) * sqrt(1 + (3/8) G / min_m^2),

with M_eff the total sample budget of the tier (M, M*M_perm, or
M*M_perm*M_u).  For the extended tiers R is the signed root-mean-square of
the per-permutation (or per-basis-and-permutation) deviations: an ensemble
only passes when every probed conjugation, not merely their average, stays
within budget resolution.  With a single unit this reduces exactly to the
plain signed deviation of the base tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from math import isfinite, sqrt
from typing import Optional, Sequence

import numpy as np

from .ensembles import (
    EnsembleSpec,
    generate_expectation_samples,  # noqa: F401 -- perfbench/spans.py traces it under this module
    generate_probe_samples,
    natural_assignment,
)
from .haar_moments import (
    exact_moment,
    moment_bounds,  # noqa: F401 -- perfbench/spans.py traces it under this module
    required_samples,
    sampling_error_bound,
)
from .mub import mub_complete_set
from .spectrum import EigenAssignment, Permutation, Spectrum, apply_permutation, trace

TIERS = ("observable", "permutation", "mub")
VERDICTS = ("compatible", "incompatible", "inconclusive")

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
    verdict: str
    provenance: dict

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}")
        expected = classify(self.R, self.delta, self.epsilon)
        if self.verdict != expected:
            raise ValueError(f"verdict {self.verdict!r} inconsistent with |R|, delta, epsilon")

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


@dataclass(frozen=True)
class PermutationDispersion:
    """Spread of per-permutation moment estimates around the baseline."""

    t: int
    per_perm_moments: tuple[float, ...]
    dispersion: float
    bound: float

    def __post_init__(self):
        if self.dispersion < 0:
            raise ValueError("dispersion is a variance, must be non-negative")

    @property
    def within_bound(self) -> bool:
        return self.dispersion <= self.bound


@dataclass(frozen=True)
class AlphaPairwiseCheck:
    """Deviation of inferred Dirichlet parameters from the multiplicity prediction."""

    statistic: float
    bound: float
    inferred_alpha: tuple[float, ...]

    @property
    def within_bound(self) -> bool:
        return self.statistic <= self.bound


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
            value = float(line)
            if not isfinite(value):
                raise ValueError(f"{path}:{lineno}: sample {line!r} is not finite")
            if not low <= value <= high:
                raise ValueError(f"{path}:{lineno}: sample {line!r} lies outside the spectrum's "
                                 f"range [{s.eigenvalues[0]!r}, {s.eigenvalues[-1]!r}]")
            values.append(value)
    if not values:
        raise ValueError(f"no samples in {path}")
    return np.asarray(values, dtype=float)


def estimate_moment(samples: Sequence[float], t: int) -> MomentEstimate:
    """Empirical t-th moment: mean of per-sample t-th powers, M-1 variance."""
    values = np.asarray(samples, dtype=float)
    m = values.size
    if m < 2:
        raise ValueError("need at least two samples")
    powered = values**t
    mean = float(powered.mean())
    variance = float(powered.var(ddof=1))
    return MomentEstimate(t=t, mean=mean, variance=variance, m_samples=m)


def _signed_rms(deviations: np.ndarray) -> float:
    """Root-mean-square magnitude, signed by the mean deviation.

    For a single deviation this is the deviation itself, so the extended
    tiers collapse to the base tier at unit budget.
    """
    rms = sqrt(float(np.mean(deviations**2)))
    return rms if float(np.sum(deviations)) >= 0 else -rms


def average_randomness(
    samples: Sequence[float],
    s: Spectrum,
    t: int,
    epsilon: float,
    provenance: Optional[dict] = None,
) -> RandomnessReport:
    """Base-tier report: empirical moment of raw samples vs the closed form.

    The closed form and the paper's estimates come first, so a spectrum whose
    estimates leave double range is refused before its samples are raised to
    the t-th power.
    """
    values = np.asarray(samples, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two samples")
    mu = exact_moment(s, t)
    delta = sampling_error_bound(s, t, values.size)
    required = required_samples(s, t, epsilon)
    est = estimate_moment(values, t)
    r_value = est.mean - mu.value
    prov = {
        "M": est.m_samples,
        "stderr": est.stderr,
        "mu_method": mu.method,
        "required_samples": required,
    }
    if provenance:
        prov.update(provenance)
    return RandomnessReport(
        tier="observable", t=t, R=r_value, delta=delta, epsilon=epsilon,
        mu_haar=mu.value, verdict=classify(r_value, delta, epsilon), provenance=prov,
    )


def _extended_reports(tier: str, spec: EnsembleSpec, s: Spectrum, orders: Sequence[int],
                      base: EigenAssignment, units: list, m_samples: int, epsilon: float,
                      workers: int, provenance: list[dict]) -> list[RandomnessReport]:
    """One report per order over units (stream, [(basis or None, permutation) per order]).

    Each unit draws m_samples states from its seed-tree stream once and
    measures, for every order, that order's permuted base assignment, rotated
    into its basis when one is given; per order, R is the signed RMS of the
    per-unit deviations and delta the resolution of the pooled budget
    len(units) * m_samples.
    """
    mus = [exact_moment(s, t) for t in orders]
    deltas = [sampling_error_bound(s, t, len(units) * m_samples) for t in orders]
    means = [[] for _ in orders]
    for stream, probes in units:
        values = generate_probe_samples(
            spec, [(apply_permutation(base, perm), basis) for basis, perm in probes],
            m_samples, stream=stream, workers=workers,
        )
        for k, t in enumerate(orders):
            means[k].append(estimate_moment(values[:, k], t).mean)
    means_key = "per_perm_means" if tier == "permutation" else "per_unit_means"
    reports = []
    for k, t in enumerate(orders):
        r_value = _signed_rms(np.asarray(means[k]) - mus[k].value)
        prov = {
            "seed": spec.seed,
            "M": m_samples,
            **provenance[k],
            "mu_method": mus[k].method,
            "permutations": [sha256(probes[k][1].mapping.tobytes()).hexdigest()[:12]
                             for _, probes in units],
            means_key: means[k],
        }
        reports.append(RandomnessReport(
            tier=tier, t=t, R=r_value, delta=deltas[k], epsilon=epsilon,
            mu_haar=mus[k].value, verdict=classify(r_value, deltas[k], epsilon),
            provenance=prov,
        ))
    return reports


def _check_rngs(orders: Sequence[int], rngs: Sequence[np.random.Generator]) -> None:
    if len(rngs) != len(orders):
        raise ValueError(f"need one protocol generator per order: "
                         f"{len(rngs)} for {len(orders)} orders")


def permutation_randomness(
    spec: EnsembleSpec,
    s: Spectrum,
    orders: Sequence[int],
    m_perm: int,
    m_samples: int,
    epsilon: float,
    rngs: Sequence[np.random.Generator],
    permutations: Optional[Sequence[Permutation]] = None,
    workers: int = 1,
) -> list[RandomnessReport]:
    """Permutation-tier reports, one per order, over m_perm uniform eigenbasis relabelings.

    Order t draws its m_perm permutations from its own generator (or uses the
    explicit ``permutations`` at every order).  Permutation p gets a block of
    m_samples states from seed-tree node (0, p), drawn once and shared by all
    orders; R is the signed RMS of the per-permutation deviations and delta
    the resolution of the pooled budget m_perm * m_samples.
    """
    if m_perm < 1:
        raise ValueError("need at least one permutation")
    if m_samples < 2:
        raise ValueError("need at least two samples per permutation")
    _check_rngs(orders, rngs)
    base = natural_assignment(spec, s)
    if permutations is None:
        perms = [[Permutation(rng.permutation(base.dimension)) for _ in range(m_perm)]
                 for rng in rngs]
    else:
        if len(permutations) != m_perm:
            raise ValueError("explicit permutation list must have length m_perm")
        perms = [list(permutations) for _ in orders]
    units = [((0, p_idx), [(None, per_order[p_idx]) for per_order in perms])
             for p_idx in range(m_perm)]
    return _extended_reports("permutation", spec, s, orders, base, units, m_samples, epsilon,
                             workers, [{"M_perm": m_perm} for _ in orders])


def permutation_dispersion(
    per_perm_estimates: Sequence[MomentEstimate],
    baseline: MomentEstimate,
    s: Spectrum,
    t: int,
    epsilon: float,
) -> PermutationDispersion:
    """Variance across permutations of (per-permutation mean - baseline mean).

    A permutation-insensitive ensemble keeps this below 2 epsilon / (Tr O)^2t;
    spectra rearranged under relabeling blow far past it.
    """
    if len(per_perm_estimates) < 2:
        raise ValueError("need at least two permutation estimates")
    diffs = np.array([e.mean - baseline.mean for e in per_perm_estimates])
    return PermutationDispersion(
        t=t,
        per_perm_moments=tuple(float(e.mean) for e in per_perm_estimates),
        dispersion=float(diffs.var(ddof=1)),
        bound=2.0 * epsilon / trace(s) ** (2 * t),
    )


def alpha_pairwise_check(group_masses: Sequence[float], s: Spectrum,
                         epsilon: float) -> AlphaPairwiseCheck:
    """Compare Dirichlet parameters inferred from eigenspace masses to m/2.

    ``group_masses`` are the ensemble-mean squared-amplitude masses per
    eigenspace.  Scaling them to total N/2 gives inferred parameters
    alpha_hat; the statistic is the mean squared pairwise deviation of
    alpha_hat differences from the multiplicity prediction (m_i - m_j)/2,
    normalized by (N/2)^2, checked against 2 epsilon / (Tr O)^2.
    """
    g = np.asarray(group_masses, dtype=float)
    if g.size != s.levels:
        raise ValueError(f"got {g.size} group masses for {s.levels} eigenspaces")
    if s.levels < 2:
        raise ValueError("pairwise statistic undefined for a single eigenspace")
    total = g.sum()
    if total <= 0:
        raise ValueError("group masses must have positive total")
    alpha_hat = g / total * (s.dimension / 2.0)
    m_half = np.asarray(s.multiplicities, dtype=float) / 2.0
    diffs = (alpha_hat[:, None] - alpha_hat[None, :]) - (m_half[:, None] - m_half[None, :])
    off_diag = ~np.eye(s.levels, dtype=bool)
    statistic = float(np.mean(diffs[off_diag] ** 2)) / (s.dimension / 2.0) ** 2
    return AlphaPairwiseCheck(
        statistic=statistic,
        bound=2.0 * epsilon / trace(s) ** 2,
        inferred_alpha=tuple(float(a) for a in alpha_hat),
    )


def mub_randomness(
    spec: EnsembleSpec,
    s: Spectrum,
    orders: Sequence[int],
    m_u: int,
    m_perm: int,
    m_samples: int,
    epsilon: float,
    rngs: Sequence[np.random.Generator],
    workers: int = 1,
) -> list[RandomnessReport]:
    """MUB-tier reports, one per order: permuted observables in random unbiased bases.

    Per order, m_u bases are drawn from that order's generator uniformly with
    replacement from the complete set for this dimension (raising
    UnsupportedDimensionError when none exists), then m_perm fresh
    permutations per basis.  The (basis slot u, permutation p) pair reads
    m_samples states from seed-tree node (u, p), drawn once and shared by all
    orders.
    """
    if m_u < 1 or m_perm < 1:
        raise ValueError("basis and permutation budgets must be at least 1")
    if m_samples < 2:
        raise ValueError("need at least two samples per (basis, permutation)")
    _check_rngs(orders, rngs)
    draws = _draw_mub_probes(s.dimension, rngs, m_u, m_perm)
    units = [((u_idx, p_idx), [probes[u_idx * m_perm + p_idx] for _, _, probes in draws])
             for u_idx in range(m_u) for p_idx in range(m_perm)]
    return _extended_reports(
        "mub", spec, s, orders, natural_assignment(spec, s), units, m_samples, epsilon,
        workers, [{"M_perm": m_perm, "M_u": m_u, "basis_indices": picks, "basis_labels": labels}
                  for picks, labels, _ in draws],
    )


def _draw_mub_probes(n_dim: int, rngs: Sequence[np.random.Generator], m_u: int,
                     m_perm: int) -> list[tuple[list[int], list[str], list]]:
    """Per order: basis indices, their labels and (basis matrix, permutation) per unit.

    Each generator draws m_u basis indices, then m_perm permutations per
    basis.  Only the drawn matrices outlive the call, so the rest of the
    complete set is freed before any state is sampled.
    """
    mubs = mub_complete_set(n_dim)
    draws = []
    for rng in rngs:
        picks = [int(b) for b in rng.integers(0, len(mubs), size=m_u)]
        probes = [(mubs.bases[b].matrix, Permutation(rng.permutation(n_dim)))
                  for b in picks for _ in range(m_perm)]
        draws.append((picks, [mubs.bases[b].label for b in picks], probes))
    return draws
