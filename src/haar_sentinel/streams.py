"""Seeded random streams with per-sample addressing.

Reproducibility contract: every Monte Carlo sample owns a fixed range of raw
64-bit words inside one stream per leaf (seed, basis index, permutation index)
of the seed tree.  Word w of leaf (seed, u, p) is output w of
PCG64DXSM(SeedSequence(stream_key(seed, u, p))), reached by advance(w), so any
contiguous block of samples can be generated in one vectorized call and the
bits can never depend on chunking, scheduling, or worker count.  PCG64DXSM
replaced the counter-based generator of package 0.1.x because it draws a word
through Generator.random in about 2.2 ns against 5.3 ns (2-core x86-64
machine); streams drawn by 0.1.x cannot be redrawn by later versions.

All transforms applied to those words consume a fixed number of words per
sample (inverse-CDF transforms; gamma variates with half-integer shape are
built from exact exponential and half-normal-squared summands), which is what
keeps the per-sample word ranges static.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

T = TypeVar("T")

# scipy.special is imported by the functions that sample, on first use: the
# import takes about 0.3 s and 18 MiB of resident memory on a 2-core x86-64
# machine (scipy's array-API shim runs ``from numpy import *``, which loads
# numpy.f2py and numpy.testing), and the commands that never sample (moments,
# mub dump, mub check) would otherwise pay it at package import.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ROOT = 0x243F6A8885A308D3

CHUNK_SAMPLES = 8192


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijective avalanche on 64-bit words."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_id(*labels: int) -> int:
    """Fold integer labels into a 64-bit substream identifier."""
    h = _ROOT
    for label in labels:
        h = _mix64(h ^ _mix64(int(label) & _MASK64))
    return h


def check_seed(seed: int) -> None:
    """Refuse a seed outside 0..2^64-1: a key holds 64 seed bits, so it would alias another."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} lies outside 0..2^64-1")


def stream_key(seed: int, basis_index: int = 0, perm_index: int = 0) -> int:
    """128-bit entropy of one leaf of the seed tree; the one identity of its stream.

    The tree is seed -> basis index -> permutation index; sample index is
    resolved below by advancing the stream, not via the key.
    """
    check_seed(seed)
    return (int(seed) << 64) | substream_id(basis_index, perm_index)


def generator(key: int, word_start: int = 0) -> Generator:
    """Generator over the stream of leaf ``key``, positioned at word ``word_start``."""
    bits = PCG64DXSM(SeedSequence(key))
    bits.advance(int(word_start))
    return Generator(bits)


def uniforms(key: int, word_start: int, count: int) -> np.ndarray:
    """Strictly interior uniforms on (0, 1), one word each.

    Word w maps to ((w >> 11) + 1/2) * 2^-53: the half-step offset keeps
    inverse-CDF transforms away from the poles at 0 and 1.  Generator.random
    gives (w >> 11) * 2^-53 for the same words, and adding 2^-54 rounds the
    same real number (2(w >> 11) + 1) * 2^-54 to nearest-even, so the bits
    equal those of the formula.
    """
    u = generator(key, word_start).random(count)
    u += 2.0**-54
    return u


def standard_normals(key: int, word_start: int, count: int) -> np.ndarray:
    from scipy.special import ndtri

    u = uniforms(key, word_start, count)
    return ndtri(u, out=u)


def halfint_gamma_words(alpha: Sequence[float]) -> int:
    """Words consumed per sample by halfint_gamma_matrix for this alpha."""
    total = 0
    for a in alpha:
        m = int(a)
        if a - m not in (0.0, 0.5) or a <= 0:
            raise ValueError(f"shape {a} is not a positive half-integer")
        total += m + (1 if a - m == 0.5 else 0)
    return total


def halfint_gamma_matrix(key: int, start_sample: int, count: int,
                         alpha: Sequence[float]) -> np.ndarray:
    """(count, len(alpha)) exact Gamma(alpha_j, 1) variates, fixed word budget.

    Gamma(m) is a sum of m unit exponentials; Gamma(1/2) is half a squared
    standard normal; Gamma(m + 1/2) is their independent sum.  Each column
    therefore consumes exactly int(a) + (a is half-integral) words.
    """
    from scipy.special import ndtri

    words_per = halfint_gamma_words(alpha)
    u = uniforms(key, start_sample * words_per, count * words_per)
    u = u.reshape(count, words_per)
    out = np.empty((count, len(alpha)))
    col = 0
    for j, a in enumerate(alpha):
        m = int(a)
        g = np.zeros(count)
        if m:
            g -= np.log(u[:, col:col + m]).sum(axis=1)
            col += m
        if a - m == 0.5:
            z = ndtri(u[:, col])
            g += 0.5 * z * z
            col += 1
        out[:, j] = g
    return out


def general_gamma_matrix(key: int, start_sample: int, count: int,
                         alpha: Sequence[float]) -> np.ndarray:
    """Gamma variates for arbitrary positive shapes via inverse lower-gamma.

    One word per variate; slower than the half-integer path but exact in
    distribution for any alpha.
    """
    from scipy.special import gammaincinv

    d = len(alpha)
    u = uniforms(key, start_sample * d, count * d).reshape(count, d)
    return gammaincinv(np.asarray(alpha, dtype=float), u)


def chunked_samples(total: int, compute: Callable[[int, int], T],
                    workers: int = 1) -> list[T]:
    """compute(start, count) on each chunk of the CHUNK_SAMPLES grid, results in index order.

    The grid depends only on CHUNK_SAMPLES, so the results are bit-identical
    for any worker count; threads only change who evaluates which chunk.  A
    compute that reduces its chunk runs the reduction in the same thread
    that drew it, so no caller needs to hold all ``total`` samples at once.
    """
    jobs = [(s, min(CHUNK_SAMPLES, total - s)) for s in range(0, total, CHUNK_SAMPLES)]
    if workers <= 1 or len(jobs) <= 1:
        return [compute(s, c) for s, c in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda job: compute(*job), jobs))
