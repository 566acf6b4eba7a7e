"""Seeded random streams with per-sample-pair and per-chunk addressing.

Reproducibility contract: the seed tree is NumPy's SeedSequence spawn tree.
Word w of node ``node`` of seed ``seed`` is output w, reached by advance(w), of

    PCG64DXSM(SeedSequence(seed, spawn_key=node)),

where SeedSequence(seed, spawn_key=(u, p)) is
SeedSequence(seed).spawn(u + 1)[u].spawn(p + 1)[p], and a longer key spawns
one level further per entry.  A sample node is (u, p).  Its samples are read
in one of two layouts, so that NumPy alone redraws them, any contiguous block
of samples is one vectorized call per chunk at most, and the bits never
depend on chunking, scheduling, or worker count:

- Per sample pair (Haar).  Standard normals come from the Box-Muller
  transform (Box and Muller, Ann. Math. Stat. 29, 610 (1958)), written with
  the half-angle tangent: a pair of uniforms (a, b), a radius word and an
  angle word, gives the two normals r cos(theta) and r sin(theta).  Haar
  states read their radius words from the start of the node's stream and
  their angle words from ANGLE_WORDS on, so that the transform runs on two
  contiguous arrays; the cosine normals of a pair block are one sample and
  its sine normals the next (ensembles.state_blocks).
- Per chunk (Dirichlet kinds).  Chunk k of the CHUNK_SAMPLES grid of node
  (u, p) is node (u, p, k), and its samples are the rows of one
  Generator.standard_gamma draw on that node's stream (gamma_matrix): the
  sampler of Marsaglia and Tsang (ACM TOMS 26, 363 (2000)), exact in law for
  every shape at O(1) words per variate.  It reads a variable number of
  words, so a sample has no fixed word range, and CHUNK_SAMPLES is part of
  this layout.

The bits therefore depend on NumPy's dispatched float64 ``log`` and ``tan``,
and on its ``standard_gamma``, as well as on the words: one NumPy build on
one CPU family always gives the same values, another may differ in the last
bits, and NumPy's RNG policy (NEP 19) lets a later version change
``standard_gamma``'s draws.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

T = TypeVar("T")
Key = tuple[int, ...]

CHUNK_SAMPLES = 8192

# Samples one stream may serve (a campaign's M, generate -M): the radius words
# of 2^32 Haar samples of dimension N <= 2^20 lie below 2^51, far from
# ANGLE_WORDS, and their chunk grid holds 2^19 jobs.
MAX_SAMPLES = 2**32

# Largest sum of the shapes of one Dirichlet sample: its gammas and their row
# sum stay finite, and the counterexample at n = 20 (shapes summing to 2^19)
# fits.
MAX_SHAPE_SUM = 2**20

# Word offset of a node's Box-Muller angle words: the pair whose radius is
# word w takes its angle from word ANGLE_WORDS + w of the same node.
ANGLE_WORDS = 2**64


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a seed outside 0..2^64-1, the range of campaign and ensemble seeds."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} {seed} lies outside 0..2^64-1")


def stream_key(seed: int, *node: int) -> Key:
    """The key (seed, *node) of one node of the seed tree; the one identity of its stream.

    A sample node is (basis index, permutation index).  A Haar sample is
    found by advancing its node's stream; a Dirichlet-kind sample by its
    chunk, the node's child (basis index, permutation index, chunk index).
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
    gives exactly 1.0.  Box-Muller takes 1.0 without harm; a caller that
    cannot must clamp it.
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


def gamma_matrix(key: Key, start_sample: int, count: int,
                 alpha: Sequence[float]) -> np.ndarray:
    """(count, len(alpha)) Gamma(alpha_j, 1) variates of samples start_sample.., by chunk node.

    Chunk k holds samples [kC, (k + 1)C), C = CHUNK_SAMPLES, and its rows are
    generator(key + (k,)).standard_gamma(alpha, size=(C, len(alpha))).  The
    draw fills rows in order, so a block that starts inside a chunk draws
    the chunk's prefix and drops its first rows, and a block that crosses a
    chunk edge joins the parts of each chunk it covers.
    """
    shapes = np.asarray(alpha, dtype=float)
    stop = start_sample + count
    parts = []
    for k in range(start_sample // CHUNK_SAMPLES, -(-stop // CHUNK_SAMPLES)):
        first = k * CHUNK_SAMPLES
        skip = max(start_sample - first, 0)
        rows = min(stop - first, CHUNK_SAMPLES)
        parts.append(generator((*key, k)).standard_gamma(shapes, (rows, len(shapes)))[skip:])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


halfint_gamma_matrix = gamma_matrix  # perfbench/spans.py traces it under this name; nothing calls it


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
