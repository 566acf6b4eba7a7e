import numpy as np
import pytest

from haar_sentinel import streams


@pytest.mark.parametrize("word_start", [0, 1, 2, 3, 4, 5, 6, 7, 2**40 + 5])
def test_uniforms_match_the_word_formula(word_start):
    key = streams.stream_key(20261019, 3, 7)
    count = 120_000
    w = streams.raw_words(key, word_start, count)
    reference = ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u = streams.uniforms(key, word_start, count)
    # about half the words have w >> 11 >= 2^52, where (w >> 11) + 1/2 rounds
    assert np.count_nonzero(w >> np.uint64(63)) > count // 3
    assert u.dtype == np.float64 and u.shape == (count,)
    assert np.array_equal(u.view(np.uint64), reference.view(np.uint64))
    assert 0.0 < u.min() and u.max() < 1.0
