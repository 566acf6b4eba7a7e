"""Reference code the tests check the package against; no verdict or command uses it."""

from fractions import Fraction
from math import prod
from typing import Sequence

import numpy as np
from numpy.random import PCG64DXSM, SeedSequence

from haar_sentinel import streams
from haar_sentinel.ensembles import EnsembleSpec, state_blocks
from haar_sentinel.spectrum import EigenAssignment, Spectrum, make_spectrum


def _rising(a: Fraction, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a + 1) ... (a + k - 1)."""
    return prod((a + j for j in range(k)), start=Fraction(1))


def dirichlet_mixed_moment(alpha: Sequence[float], k: Sequence[int]) -> float:
    """Exact mixed moment E[prod_i x_i^(k_i)] of x ~ Dirichlet(alpha).

    prod_i (alpha_i)_(k_i) / (alpha_0)_(k_0), with alpha_0 = sum alpha_i and
    k_0 = sum k_i, in rational arithmetic on the exact binary values of alpha;
    only the final conversion to float rounds.
    """
    if len(k) != len(alpha):
        raise ValueError(f"order vector length {len(k)} != alpha length {len(alpha)}")
    for ki in k:
        if not isinstance(ki, (int, np.integer)) or ki < 0:
            raise ValueError(f"moment order {ki} is not a non-negative integer")
    exact = [Fraction(a) for a in alpha]
    numerator = prod((_rising(a, int(ki)) for a, ki in zip(exact, k)), start=Fraction(1))
    return float(numerator / _rising(sum(exact), int(sum(k))))


def random_spectrum(rng: np.random.Generator, max_levels: int = 6,
                    max_dimension: int = 1024, max_eigenvalue: float = 5.0,
                    allow_zero: bool = True) -> Spectrum:
    """Draw a random valid spectrum; handy for property tests."""
    g = int(rng.integers(1, max_levels + 1))
    lams = np.sort(rng.uniform(0.0, max_eigenvalue, size=g))
    while len(set(lams.tolist())) < g:
        lams = np.sort(rng.uniform(0.0, max_eigenvalue, size=g))
    if allow_zero and rng.random() < 0.3:
        lams[0] = 0.0
    mult = rng.integers(1, 64, size=g)
    n = int(mult.sum())
    if n > max_dimension:
        mult = np.maximum(1, (mult * max_dimension) // n)
    return make_spectrum(lams.tolist(), mult.tolist())


def raw_words(key: tuple[int, ...], word_start: int, count: int) -> np.ndarray:
    """Words [word_start, word_start+count) of seed-tree node key = (seed, *node), by NumPy alone.

    The documented construction: output w of
    PCG64DXSM(SeedSequence(seed, spawn_key=node)), reached by advance(w).
    """
    seed, *node = key
    bits = PCG64DXSM(SeedSequence(seed, spawn_key=node))
    bits.advance(word_start)
    return bits.random_raw(count)


def generate_probe_samples(
    spec: EnsembleSpec,
    probes: Sequence[EigenAssignment],
    m_samples: int,
    stream: tuple[int, int] = (0, 0),
    workers: int = 1,
) -> np.ndarray:
    """(M, P) expectation values: M states of one stream, each measured by P diagonal probes.

    The rows of ensembles.state_blocks, drawn once over the chunk grid of
    streams.chunked_samples and divided by their sums into masses, times the
    probe diagonals on the state's support; a one-hot probe's column is
    exactly its basis state's mass.
    """
    if m_samples < 1:
        raise ValueError("need at least one sample")
    support, states = state_blocks(spec, stream)
    diags = np.stack([a.as_array()[support] for a in probes], axis=1)

    def masses(s0, c):
        w = states(s0, c)
        return w / w.sum(axis=1, keepdims=True)

    return np.concatenate(streams.chunked_samples(m_samples, lambda s0, c: masses(s0, c) @ diags,
                                                  workers))
