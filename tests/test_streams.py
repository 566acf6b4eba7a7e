import numpy as np
import pytest
from numpy.random import PCG64DXSM, Generator, SeedSequence
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest, norm, pearsonr

from haar_sentinel import streams
from haar_sentinel.ensembles import EnsembleSpec, counterexample_alphas, state_blocks
from haar_sentinel.spectrum import MAX_DIMENSION
from oracles import raw_words


@pytest.mark.parametrize("word_start", [0, 1, 2, 3, 4, 5, 6, 7, 2**40 + 5])
def test_uniforms_match_the_word_formula(word_start):
    key = streams.stream_key(20261019, 3, 7)
    count = 120_000
    w = raw_words(key, word_start, count)
    reference = ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u = streams.uniforms(key, word_start, count)
    # about half the words have w >> 11 >= 2^52, where (w >> 11) + 1/2 rounds
    assert np.count_nonzero(w >> np.uint64(63)) > count // 3
    assert u.dtype == np.float64 and u.shape == (count,)
    assert np.array_equal(u.view(np.uint64), reference.view(np.uint64))
    assert 0.0 < u.min() and u.max() < 1.0


KEYS = [streams.stream_key(0, 0, 0), streams.stream_key(20261019, 3, 7),
        streams.stream_key(2**63 + 11, 61, 15)]
# the 128-bit integer keys these nodes had up to package 0.5.0, kept as ids so
# the test ids stay stable
KEY_IDS = ["7998347603430539570", "373749840941112059089978552",
           "170141183460469231946959704178203361409"]


@pytest.mark.parametrize("key", KEYS, ids=KEY_IDS)
@pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 8191, 8193])
def test_uniforms_at_an_offset_are_a_slice_of_one_long_draw(key, start):
    count = 1000
    whole = streams.uniforms(key, 0, start + count)
    part = streams.uniforms(key, start, count)
    assert part.tobytes() == whole[start:].tobytes()


def test_leaves_of_the_seed_tree_start_with_different_words():
    # the root (seed,), protocol nodes (seed, T) and sample nodes (seed, u, p)
    leaves = [(0,), (0, 1), (0, 2), (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    first = {int(raw_words(streams.stream_key(*leaf), 0, 1)[0]) for leaf in leaves}
    assert len(first) == len(leaves)


@pytest.mark.parametrize("u,p", [(0, 0), (3, 7), (61, 15)])
def test_node_is_the_numpy_spawn_child(u, p):
    seed = 20261019
    child = SeedSequence(seed).spawn(u + 1)[u].spawn(p + 1)[p]
    words = streams.generator(streams.stream_key(seed, u, p)).bit_generator.random_raw(4)
    assert words.tolist() == PCG64DXSM(child).random_raw(4).tolist()


@pytest.mark.parametrize("seed,node,start", [(0, (0, 0), 0), (2**63 + 11, (61, 15), 8193)])
def test_sample_uniforms_are_redrawn_by_numpy_alone(seed, node, start):
    bits = PCG64DXSM(SeedSequence(seed, spawn_key=node))
    bits.advance(start)
    expected = Generator(bits).random(1000) + 2.0**-54
    u = streams.uniforms(streams.stream_key(seed, *node), start, 1000)
    assert u.tobytes() == expected.tobytes()


@pytest.mark.parametrize("s0,count", [(0, 1), (1, 5), (7, 300), (2999, 1)])
def test_halfint_gamma_rows_are_rows_of_one_large_call(s0, count):
    alpha = counterexample_alphas(8)
    key = streams.stream_key(9102, 0, 4)
    whole = streams.halfint_gamma_matrix(key, 0, 3000, alpha)
    part = streams.halfint_gamma_matrix(key, s0, count, alpha)
    assert part.tobytes() == whole[s0:s0 + count].tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
def test_keys_refuse_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match=f"seed {seed} lies outside 0..2\\^64-1"):
        streams.stream_key(seed)
    assert streams.stream_key(2**64 - 1, 2, 3) == (2**64 - 1, 2, 3)


def _word_uniforms(key, word_start, count):
    """The README word format ((w >> 11) + 1/2) 2^-53 of raw words, by NumPy alone."""
    return ((raw_words(key, word_start, count) >> np.uint64(11)).astype(np.float64) + 0.5) \
        * 2.0**-53


def test_normals_are_the_box_muller_pairs_of_the_radius_and_angle_ranges():
    key = streams.stream_key(20261020, 1, 2)
    pairs = 50_000
    a = _word_uniforms(key, 6, pairs)
    b = _word_uniforms(key, 2**64 + 6, pairs)
    r = np.sqrt(-2.0 * np.log(a))
    theta = 2.0 * np.pi * (b - 0.5)
    z = streams.standard_normals(key, 6, 2 * pairs)
    assert z.shape == (2, pairs) and streams.ANGLE_WORDS == 2**64
    assert np.allclose(z[0], r * np.cos(theta), rtol=1e-12, atol=1e-12)
    assert np.allclose(z[1], r * np.sin(theta), rtol=1e-12, atol=1e-12)


def test_normals_come_in_pairs():
    with pytest.raises(ValueError, match="7 words is odd"):
        streams.standard_normals(streams.stream_key(1), 0, 7)


def test_both_pair_positions_are_standard_normal_and_their_squares_uncorrelated():
    # amplitude k of the cosine sample 2m and of the sine sample 2m + 1
    _, states = state_blocks(EnsembleSpec(kind="haar", dimension=5, seed=20261020), (0, 0), True)
    z = states(0, 160_000)
    cosines, sines = z[0::2].ravel(), z[1::2].ravel()
    p_values = [kstest(cosines, norm.cdf).pvalue, kstest(sines, norm.cdf).pvalue]
    # r cos and r sin share r: uncorrelated, and independent only because r^2 is chi^2_2
    p_values.append(pearsonr(cosines**2, sines**2).pvalue)
    assert min(p_values) > 0.01 / len(p_values), p_values


@pytest.mark.parametrize("n_dim", [2, 8, 61])
@pytest.mark.parametrize("m", [0, 1, 2999])
def test_haar_sample_pairs_are_redrawn_by_numpy_alone(n_dim, m):
    # samples 2m and 2m + 1 share the pairs of radius words [mN, (m + 1)N) and
    # angle words 2^64 + [mN, (m + 1)N): the cosine of pair k is amplitude k of
    # sample 2m, its sine amplitude k of sample 2m + 1
    spec = EnsembleSpec(kind="haar", dimension=n_dim, seed=20261020)
    key = streams.stream_key(spec.seed, 3, 1)
    a = _word_uniforms(key, m * n_dim, n_dim)
    b = _word_uniforms(key, 2**64 + m * n_dim, n_dim)
    r = np.sqrt(-2.0 * np.log(a))
    t = np.tan(np.pi * (b - 0.5))
    expected = np.stack([r * (1 - t**2) / (1 + t**2), r * 2 * t / (1 + t**2)])
    _, states = state_blocks(spec, (3, 1), rotated=True)
    assert np.allclose(states(2 * m, 2), expected, rtol=1e-12, atol=1e-12)
    _, masses = state_blocks(spec, (3, 1))
    assert np.allclose(masses(2 * m, 2), expected**2, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("alpha, words", [
    ((0.5,), 2), ((0.5, 0.5), 2), ((1.5, 2.0, 0.5), 5), ((1.0, 3.0), 4),
    (counterexample_alphas(8), 127 + 2), (counterexample_alphas(3), 2 + 4),
])
def test_halfint_gamma_words_pad_an_odd_number_of_halves(alpha, words):
    assert streams.halfint_gamma_words(alpha) == words


@pytest.mark.parametrize("alpha", [(0.5, 0.5, 0.5), (2.0, 1.5, 3.5), (1.0, 3.0), (1.5, 0.5, 2.5)])
def test_halfint_gamma_words_are_exponentials_then_box_muller_pairs(alpha):
    # column j: -log of its int(a_j) words, in column order, plus z^2/2 of the
    # normal of its rank among the half-integer columns, read after every exponential
    key = streams.stream_key(20261020, 5, 1)
    count, words = 500, streams.halfint_gamma_words(alpha)
    u = streams.uniforms(key, 3 * words, count * words).reshape(count, words)
    n_exp = sum(int(a) for a in alpha)
    r = np.sqrt(-2.0 * np.log(u[:, n_exp::2]))
    theta = 2.0 * np.pi * (u[:, n_exp + 1::2] - 0.5)
    z = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=2).reshape(count, -1)
    reference, col, half = np.zeros((count, len(alpha))), 0, 0
    for j, a in enumerate(alpha):
        m = int(a)
        reference[:, j] = -np.log(u[:, col:col + m]).sum(axis=1)
        col += m
        if a - m:
            reference[:, j] += 0.5 * z[:, half] ** 2
            half += 1
    g = streams.halfint_gamma_matrix(key, 3, count, alpha)
    assert np.allclose(g, reference, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("alpha", [(0.5, 0.5, 0.5), (1.5, 0.5), (2.5, 1.0, 0.5, 3.5)])
def test_halfint_gamma_columns_follow_their_gamma_laws(alpha):
    g = streams.halfint_gamma_matrix(streams.stream_key(20261020, 0, len(alpha)), 0, 200_000,
                                     alpha)
    p_values = [kstest(g[:, j], gamma_dist(a).cdf).pvalue for j, a in enumerate(alpha)]
    assert min(p_values) > 0.01 / len(p_values), p_values


@pytest.mark.parametrize("rotated", [False, True])
def test_odd_dimension_states_are_rows_of_one_large_call(rotated):
    # N = 61 reads 61 radius and 61 angle words per sample pair, no spare word
    _, states = state_blocks(EnsembleSpec(kind="haar", dimension=61, seed=61), (1, 0), rotated)
    whole = states(0, 3000)
    for s0, count in ((0, 1), (1, 5), (7, 300), (2999, 1)):
        assert states(s0, count).tobytes() == whole[s0:s0 + count].tobytes()
    # rows are the draw itself, unnormalised: the cosines of the 1500 pairs are
    # the even samples, their sines the odd ones
    z = streams.standard_normals(streams.stream_key(61, 1, 0), 0, 3000 * 61).reshape(2, 1500, 61)
    raw = z if rotated else np.square(z)
    assert whole[0::2].tobytes() == raw[0].tobytes()
    assert whole[1::2].tobytes() == raw[1].tobytes()


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("n_dim", [2, 8, 60])
def test_even_dimension_states_are_rows_of_one_large_call(n_dim, rotated):
    # blocks at an odd start or of an odd count draw a spare sample of their end pairs
    spec = EnsembleSpec(kind="haar", dimension=n_dim, seed=n_dim)
    _, states = state_blocks(spec, (2, 3), rotated)
    whole = states(0, 1001)
    assert whole.shape == (1001, n_dim)
    for s0, count in ((0, 1), (1, 1), (1, 2), (3, 8), (4, 7), (5, 996), (1000, 1)):
        assert states(s0, count).tobytes() == whole[s0:s0 + count].tobytes()


@pytest.mark.parametrize("alpha", [(40.5, 100.0, 1.0, 2.5), (18.0, 19.0, 36.0, 37.0),
                                   counterexample_alphas(8)])
def test_halfint_gamma_run_products_match_a_sum_of_logs(alpha):
    # one log per run of up to RUN words against one log per word; 40.5 and 100
    # hold more than 2 RUN words, so their columns sum three runs or more
    key = streams.stream_key(20261021, 2, 3)
    count, words = 20_000, streams.halfint_gamma_words(alpha)
    u = streams.uniforms(key, 5 * words, count * words).reshape(count, words)
    n_exp = sum(int(a) for a in alpha)
    z = u[:, n_exp:].copy()
    streams._box_muller(z[:, 0::2], z[:, 1::2])
    reference, col, half = np.zeros((count, len(alpha))), 0, 0
    for j, a in enumerate(alpha):
        m = int(a)
        reference[:, j] = -np.log(u[:, col:col + m]).sum(axis=1)
        col += m
        if a - m:
            reference[:, j] += 0.5 * z[:, half] ** 2
            half += 1
    g = streams.halfint_gamma_matrix(key, 5, count, alpha)
    assert np.all(np.abs(g - reference) <= 4e-15 * reference)


def test_a_one_word_column_is_exactly_minus_log_u():
    alpha = (1.0, 40.0, 1.0)
    key = streams.stream_key(20261021, 0, 1)
    u = streams.uniforms(key, 0, 300 * 42).reshape(300, 42)
    g = streams.halfint_gamma_matrix(key, 0, 300, alpha)
    assert g[:, 0].tobytes() == (-np.log(u[:, 0])).tobytes()
    assert g[:, 2].tobytes() == (-np.log(u[:, 41])).tobytes()


def test_words_at_the_smallest_uniform_give_finite_gammas(monkeypatch):
    # every uniform is at least 2^-54, so a run of RUN = 18 multiplies to at least 2^-972
    monkeypatch.setattr(streams, "uniforms", lambda key, start, count: np.full(count, 2.0**-54))
    alpha = (1.0, 17.0, 18.0, 19.0, 36.0, 100.0)
    g = streams.halfint_gamma_matrix(streams.stream_key(1), 0, 10, alpha)
    assert np.all(np.isfinite(g))
    assert np.allclose(g, np.array(alpha) * 54 * np.log(2.0), rtol=1e-15, atol=0)


def test_a_uniform_of_one_gives_finite_general_gammas(monkeypatch):
    # the top word rounds to u = 1.0, where gammaincinv is infinite
    monkeypatch.setattr(streams, "uniforms", lambda key, start, count: np.ones(count))
    spec = EnsembleSpec(kind="dirichlet_amplitudes", dimension=3, seed=1,
                        params={"alpha": [0.3, 0.7, 2.2]})
    _, states = state_blocks(spec)
    g = states(0, 5)
    masses = g / g.sum(axis=1, keepdims=True)
    assert np.all(np.isfinite(masses))


def test_radius_words_of_every_admissible_haar_budget_lie_below_the_angle_range():
    pairs = -(-streams.MAX_SAMPLES // 2)
    assert pairs * MAX_DIMENSION < streams.ANGLE_WORDS
