import numpy as np
import pytest

from haar_sentinel import streams
from haar_sentinel.ensembles import counterexample_alphas
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


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 8191, 8193])
def test_uniforms_at_an_offset_are_a_slice_of_one_long_draw(key, start):
    count = 1000
    whole = streams.uniforms(key, 0, start + count)
    part = streams.uniforms(key, start, count)
    assert part.tobytes() == whole[start:].tobytes()


def test_leaves_of_the_seed_tree_start_with_different_words():
    leaves = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    first = {int(raw_words(streams.stream_key(*leaf), 0, 1)[0]) for leaf in leaves}
    assert len(first) == len(leaves)


@pytest.mark.parametrize("s0,count", [(0, 1), (1, 5), (7, 300), (2999, 1)])
def test_halfint_gamma_rows_are_rows_of_one_large_call(s0, count):
    alpha = counterexample_alphas(8)
    key = streams.stream_key(9102, 0, 4)
    whole = streams.halfint_gamma_matrix(key, 0, 3000, alpha)
    part = streams.halfint_gamma_matrix(key, s0, count, alpha)
    assert part.tobytes() == whole[s0:s0 + count].tobytes()
