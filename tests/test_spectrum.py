import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haar_sentinel.spectrum import (
    EigenAssignment,
    Permutation,
    apply_permutation,
    expand,
    make_spectrum,
    number_operator,
    number_operator_assignment,
    trace,
)
from oracles import random_spectrum


def brute_force_number_operator(n):
    """Independent oracle: eigendecompose sum_k (1 - Z_k)/2 built by Kronecker products."""
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye = np.eye(2)
    total = np.zeros((2**n, 2**n))
    for k in range(n):
        factors = [eye] * n
        factors[k] = (np.eye(2) - z) / 2
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += term
    eigs = np.linalg.eigvalsh(total)
    distinct = sorted(set(round(e, 9) for e in eigs))
    counts = [int(sum(1 for e in eigs if round(e, 9) == d)) for d in distinct]
    return tuple(float(d) for d in distinct), tuple(counts)


def test_make_spectrum_smallest_qubit_observable():
    s = make_spectrum((0, 1), (1, 1))
    assert s.levels == 2
    assert s.dimension == 2


def test_number_operator_matches_brute_force_eigendecomposition():
    lams, mults = brute_force_number_operator(3)
    s = number_operator(3)
    assert s.eigenvalues == lams == (0.0, 1.0, 2.0, 3.0)
    assert s.multiplicities == mults == (1, 3, 3, 1)
    assert s.dimension == 8


def test_number_operator_binomial_multiplicities():
    assert number_operator(1).eigenvalues == (0.0, 1.0)
    assert number_operator(1).multiplicities == (1, 1)
    assert number_operator(2).multiplicities == (1, 2, 1)
    with pytest.raises(ValueError):
        number_operator(0)
    with pytest.raises(ValueError):
        number_operator(21)


def test_number_operator_assignment_is_popcount():
    a = number_operator_assignment(3)
    assert a.values.tolist() == [float(bin(i).count("1")) for i in range(8)]
    assert a.collapse() == number_operator(3)


def test_make_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        make_spectrum((1, 1), (2, 2))  # duplicate eigenvalue
    with pytest.raises(ValueError):
        make_spectrum((-1, 0), (1, 1))  # negative eigenvalue
    with pytest.raises(ValueError):
        make_spectrum((0, 1), (0, 1))  # non-positive multiplicity
    with pytest.raises(ValueError):
        make_spectrum((), ())  # empty
    with pytest.raises(ValueError):
        make_spectrum((0, 1), (1,))  # length mismatch


def test_make_spectrum_sorts_ascending():
    s = make_spectrum((3, 0, 1), (2, 1, 4))
    assert s.eigenvalues == (0.0, 1.0, 3.0)
    assert s.multiplicities == (1, 4, 2)


def test_trace_examples():
    assert trace(make_spectrum((0, 1), (1, 1))) == 1.0
    assert trace(make_spectrum((0, 1, 2, 3), (1, 3, 3, 1))) == 12.0
    assert trace(make_spectrum((2.5,), (7,))) == 2.5 * 7


def test_expand_examples():
    assert expand(make_spectrum((0, 1), (1, 1))).values.tolist() == [0.0, 1.0]
    assert expand(make_spectrum((0, 1, 2), (1, 2, 1))).values.tolist() == [0.0, 1.0, 1.0, 2.0]
    assert expand(make_spectrum((5,), (3,))).values.tolist() == [5.0, 5.0, 5.0]


def test_apply_permutation_examples():
    a = EigenAssignment((0.0, 1.0))
    assert apply_permutation(a, Permutation.identity(2)).values.tolist() == [0.0, 1.0]
    assert apply_permutation(a, Permutation((1, 0))).values.tolist() == [1.0, 0.0]


def test_apply_permutation_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_permutation(EigenAssignment((0.0, 1.0)), Permutation.identity(3))


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=32))
def test_permutation_preserves_multiset(seed, n):
    rng = np.random.default_rng(seed)
    s = random_spectrum(rng, max_levels=4, max_dimension=n)
    a = expand(s)
    p = Permutation(tuple(int(x) for x in rng.permutation(a.dimension)))
    assert sorted(apply_permutation(a, p).values) == sorted(a.values)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_trace_equals_sum_of_expansion(seed):
    rng = np.random.default_rng(seed)
    s = random_spectrum(rng)
    total = sum(expand(s).values)
    assert abs(trace(s) - total) <= 1e-12 * max(1.0, abs(total))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_expand_collapse_round_trip(seed):
    rng = np.random.default_rng(seed)
    s = random_spectrum(rng)
    assert expand(s).collapse() == s


def test_assignment_rejects_negative_values():
    with pytest.raises(ValueError):
        EigenAssignment((0.0, -1.0))


def test_assignment_and_permutation_are_read_only_arrays():
    a = EigenAssignment([0.0, 1.0, 1.0])
    p = Permutation([2, 0, 1])
    assert a.values.dtype == np.float64 and p.mapping.dtype == np.int64
    with pytest.raises(ValueError):
        a.values[0] = 5.0
    with pytest.raises(ValueError):
        p.mapping[0] = 1
    # stored by copy: the caller's array stays theirs
    source = np.array([1.0, 2.0])
    b = EigenAssignment(source)
    source[0] = 9.0
    assert b.values.tolist() == [1.0, 2.0]


def test_assignment_and_permutation_compare_by_value_and_are_unhashable():
    assert EigenAssignment((0.0, 1.0)) == EigenAssignment(np.array([0.0, 1.0]))
    assert EigenAssignment((0.0, 1.0)) != EigenAssignment((1.0, 0.0))
    assert EigenAssignment((0.0, 1.0)) != EigenAssignment((0.0, 1.0, 1.0))
    assert Permutation.identity(3) == Permutation((0, 1, 2))
    assert Permutation(np.array([2, 1, 0])) == Permutation((2, 1, 0))
    assert Permutation.identity(3) != Permutation.identity(4)
    with pytest.raises(TypeError):
        hash(EigenAssignment((0.0,)))
    with pytest.raises(TypeError):
        hash(Permutation.identity(2))


def test_validation_names_the_first_bad_value():
    with pytest.raises(ValueError, match=r"value -1\.0 "):
        EigenAssignment((0.0, -1.0, float("nan")))
    with pytest.raises(ValueError, match="value nan "):
        EigenAssignment((0.0, float("nan"), -1.0))
    with pytest.raises(ValueError, match="entry 7 is out of range"):
        Permutation((0, 7, 1, 5))
    with pytest.raises(ValueError, match="entry 2 is out of range or repeated"):
        Permutation((0, 2, 1, 2, 1))
    with pytest.raises(ValueError, match="integer indices"):
        Permutation((0.0, 1.0))
    with pytest.raises(ValueError, match="non-empty"):
        EigenAssignment(())
