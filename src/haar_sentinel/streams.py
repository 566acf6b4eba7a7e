"""Seeded random streams with per-sample addressing.

Reproducibility contract: the seed tree is NumPy's SeedSequence spawn tree.
Word w of node (u, p) of seed ``seed`` is output w, reached by advance(w), of

    PCG64DXSM(SeedSequence(seed, spawn_key=(u, p))),

where SeedSequence(seed, spawn_key=(u, p)) is
SeedSequence(seed).spawn(u + 1)[u].spawn(p + 1)[p].  Every Monte Carlo sample
owns a fixed range of words of one node's stream, so NumPy alone redraws it,
any contiguous block of samples is one vectorized call, and the bits never
depend on chunking, scheduling, or worker count.

All transforms applied to those words consume a fixed number of words per
sample, which is what keeps the per-sample word ranges static.  Standard
normals come from the Box-Muller transform (Box and Muller, Ann. Math. Stat.
29, 610 (1958)), written with the half-angle tangent: a pair of uniforms
(a, b), a radius word and an angle word, gives the two normals r cos(theta)
and r sin(theta).  Haar states read their radius words from the start of a
node's stream and their angle words from ANGLE_WORDS on, so that the
transform runs on two contiguous arrays; the cosine normals of a pair block
are one sample and its sine normals the next (ensembles.state_blocks).
Gamma variates with half-integer shape are sums of exact unit exponentials
and halves of squared Box-Muller normals, from pairs of consecutive words;
the m exponentials of a Gamma(m) are -log of products of runs of at most RUN
uniforms, one log per run instead of one per word.  The bits therefore
depend on NumPy's dispatched float64 ``log`` and ``tan`` as well as on the
words: one NumPy build on one CPU family always gives the same values,
another may differ in the last bits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

T = TypeVar("T")
Key = tuple[int, ...]

# scipy.special is imported by general_gamma_matrix alone, on first use: the
# import takes about 0.2 s and 17 MiB of resident memory on a 2-core x86-64
# machine (scipy's array-API shim runs ``from numpy import *``, which loads
# numpy.f2py and numpy.testing), and only Dirichlet shapes that are not
# half-integers need its inverse incomplete gamma function.

CHUNK_SAMPLES = 8192

# Samples one stream may serve (a campaign's M, generate -M): the radius words
# of 2^32 Haar samples of dimension N <= 2^20 lie below 2^51, far from
# ANGLE_WORDS, and their chunk grid holds 2^19 jobs.
MAX_SAMPLES = 2**32

# Words one Dirichlet sample may read: room for N = 2^20 shapes of 1/2, and
# for the counterexample at n = 20 (2^19 + 2 words).
MAX_SAMPLE_WORDS = 2**20

# Word offset of a node's Box-Muller angle words: the pair whose radius is
# word w takes its angle from word ANGLE_WORDS + w of the same node.
ANGLE_WORDS = 2**64

# Uniforms per product in halfint_gamma_matrix: each is at least 2^-54, so a
# product of RUN = 18 is at least 2^-972, a normal double, and never underflows.
RUN = 18


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a seed outside 0..2^64-1, the range of campaign and ensemble seeds."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} {seed} lies outside 0..2^64-1")


def stream_key(seed: int, *node: int) -> Key:
    """The key (seed, *node) of one node of the seed tree; the one identity of its stream.

    A sample node is (basis index, permutation index); sample index is
    resolved below by advancing the stream, not via the key.
    """
    check_seed(seed)
    return (seed, *node)


def generator(key: Key, word_start: int = 0) -> Generator:
    """Generator over the stream of node ``key``, positioned at word ``word_start``."""
    seed, *node = key
    bits = PCG64DXSM(SeedSequence(seed, spawn_key=node))
    bits.advance(int(word_start))
    return Generator(bits)


def uniforms(key: Key, word_start: int, count: int) -> np.ndarray:
    """Uniforms on [2^-54, 1], one word each.

    Word w maps to ((w >> 11) + 1/2) * 2^-53: the half-step offset keeps
    every value away from 0.  Generator.random gives (w >> 11) * 2^-53 for
    the same words, and adding 2^-54 rounds the same real number
    (2(w >> 11) + 1) * 2^-54 to nearest-even, so the bits equal those of the
    formula.  Above 1/2 the spacing of doubles is 2^-53, so every word with
    w >> 11 >= 2^52 rounds, and two of them land on the ends of that range:
    w >> 11 = 2^52 gives exactly 1/2, and the top word (w >> 11 = 2^53 - 1)
    gives exactly 1.0.  -log u and Box-Muller take 1.0 without harm; a caller
    that cannot must clamp it.
    """
    return _fill_uniforms(generator(key, word_start), np.empty(count))


def _fill_uniforms(rng: Generator, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the uniforms of the next len(out) words of ``rng``."""
    rng.random(out=out)
    out += 2.0**-54
    return out


def _box_muller(a: np.ndarray, b: np.ndarray) -> None:
    """Normals from word-format uniforms, in place: a becomes r cos(theta), b r sin(theta).

    Entry k of the radius uniforms a and of the angle uniforms b gives
    r = sqrt(-2 log a_k) and t = tan(pi (b_k - 1/2)) = tan(theta/2) with
    theta uniform on (-pi, pi), and then the normals r cos(theta) =
    r (1 - t^2)/(1 + t^2) and r sin(theta) = r 2t/(1 + t^2).  The tangent is
    NumPy's vectorized loop where sin and cos are scalar ones, about ten times
    dearer per value.  Uniforms of the word format have a >= 2^-54 and
    |pi (b - 1/2)| <= fl(pi)/2, where |t| is at most about 1.6e16, so nothing
    overflows and no warning fires.  The one temporary is the size of b.
    """
    np.log(a, out=a)
    a *= -2.0
    np.sqrt(a, out=a)
    b -= 0.5
    b *= np.pi
    np.tan(b, out=b)
    s = np.square(b)
    s += 1.0
    np.divide(2.0, s, out=s)  # 2/(1 + t^2)
    b *= s
    b *= a
    s -= 1.0  # (1 - t^2)/(1 + t^2)
    a *= s


def standard_normals(key: Key, word_start: int, count: int) -> np.ndarray:
    """(2, count/2) normals of count words: the cosines in row 0, the sines in row 1.

    Pair k takes its radius from word word_start + k and its angle from word
    ANGLE_WORDS + word_start + k of the node, for k < count/2: two contiguous
    word ranges, so every pass of _box_muller is a contiguous loop.  Row 0
    holds the pairs' r cos(theta), row 1 their r sin(theta).
    """
    if count % 2:
        raise ValueError(f"Box-Muller normals come in pairs; {count} words is odd")
    pairs = count // 2
    z = np.empty((2, pairs))
    rng = generator(key, word_start)
    _fill_uniforms(rng, z[0])
    rng.bit_generator.advance(ANGLE_WORDS - pairs)
    _fill_uniforms(rng, z[1])
    _box_muller(z[0], z[1])
    return z


def _halfint_layout(alpha: Sequence[float]) -> tuple[list[int], list[int]]:
    """(exponential words per column, columns with a Gamma(1/2) part) of a half-integer alpha."""
    whole, halves = [], []
    for j, a in enumerate(alpha):
        m = int(a)
        if a - m not in (0.0, 0.5) or a <= 0:
            raise ValueError(f"shape {a} is not a positive half-integer")
        whole.append(m)
        if a - m == 0.5:
            halves.append(j)
    return whole, halves


def halfint_gamma_words(alpha: Sequence[float]) -> int:
    """Words consumed per sample by halfint_gamma_matrix for this alpha."""
    whole, halves = _halfint_layout(alpha)
    return sum(whole) + len(halves) + len(halves) % 2


def halfint_gamma_matrix(key: Key, start_sample: int, count: int,
                         alpha: Sequence[float]) -> np.ndarray:
    """(count, len(alpha)) exact Gamma(alpha_j, 1) variates, fixed word budget.

    Gamma(m) is a sum of m unit exponentials; Gamma(1/2) is half a squared
    standard normal; Gamma(m + 1/2) is their independent sum.  A sample's
    words are first int(a_j) exponential words per column j, column by
    column, then one Box-Muller normal per half-integer column, h of them in
    h + (h mod 2) words: halfint_gamma_words(alpha) in all.  A column's m
    exponentials are -log of the products of its words in runs of at most
    RUN, summed over the runs: one log per run, and a column with m = 1 is
    exactly -log u.
    """
    whole, halves = _halfint_layout(alpha)
    n_exp = sum(whole)
    words_per = halfint_gamma_words(alpha)
    u = uniforms(key, start_sample * words_per, count * words_per).reshape(count, words_per)
    cols = [j for j, m in enumerate(whole) if m]
    if cols:
        runs, firsts, word = [], [], 0
        for j in cols:
            firsts.append(len(runs))
            runs.extend(range(word, word + whole[j], RUN))
            word += whole[j]
        logs = np.multiply.reduceat(u[:, :n_exp], runs, axis=1)
        np.log(logs, out=logs)
        if len(runs) > len(cols):
            logs = np.add.reduceat(logs, firsts, axis=1)
    # allocated after the run products are freed: allocated before them, it
    # let the heap grow by 128 KiB about every 200 counterexample campaigns
    # (n = 8, M = 2,500, 17 calls each), against once in 400 this way
    out = np.zeros((count, len(alpha)))
    if cols:
        out[:, cols] = np.negative(logs, out=logs)
    if halves:
        _box_muller(u[:, n_exp::2], u[:, n_exp + 1::2])
        z = u[:, n_exp:n_exp + len(halves)]
        np.square(z, out=z)
        z *= 0.5
        out[:, halves] += z
    return out


def general_gamma_matrix(key: Key, start_sample: int, count: int,
                         alpha: Sequence[float]) -> np.ndarray:
    """Gamma variates for arbitrary positive shapes via inverse lower-gamma.

    One word per variate; slower than the half-integer path but exact in
    distribution for any alpha.  The top word's uniform 1.0 is clamped to
    1 - 2^-53, where gammaincinv is finite.
    """
    from scipy.special import gammaincinv

    d = len(alpha)
    u = uniforms(key, start_sample * d, count * d).reshape(count, d)
    np.minimum(u, 1.0 - 2.0**-53, out=u)
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
