import json

import numpy as np
import pytest

from haar_sentinel.mub import (
    UNBIASED_TOL,
    MubBasis,
    MubSet,
    UnsupportedDimensionError,
    check_mub,
    mub_basis,
    mub_complete_set,
)


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 7])
def test_complete_sets_are_pairwise_unbiased(n_dim):
    mubs = mub_complete_set(n_dim)
    assert len(mubs) == n_dim + 1
    for i in range(len(mubs.bases)):
        for j in range(i + 1, len(mubs.bases)):
            deviation = check_mub(mubs.bases[i], mubs.bases[j])
            assert deviation <= 1e-10, (n_dim, i, j, deviation)


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 7])
def test_every_basis_is_unitary(n_dim):
    for b in mub_complete_set(n_dim).bases:
        dev = np.abs(b.matrix.conj().T @ b.matrix - np.eye(n_dim)).max()
        assert dev <= 1e-10


def test_computational_basis_is_included():
    mubs = mub_complete_set(3)
    assert np.array_equal(mubs.bases[0].matrix, np.eye(3, dtype=complex))


@pytest.mark.parametrize("n_dim", [1, 6, 9, 10, 12])
def test_unsupported_dimensions(n_dim):
    with pytest.raises(UnsupportedDimensionError):
        mub_complete_set(n_dim)


def test_identical_bases_are_not_unbiased():
    mubs = mub_complete_set(3)
    deviation = check_mub(mubs.bases[1], mubs.bases[1])
    assert deviation > UNBIASED_TOL
    # self-overlaps are 0 or 1, so the deviation from 1/N is 1 - 1/N
    assert deviation == pytest.approx(1 - 1 / 3)


def test_check_mub_hadamard_pair():
    comp = MubBasis(np.eye(2, dtype=complex), label="comp")
    had = MubBasis(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), label="had")
    assert check_mub(comp, had) < 1e-15


def test_check_mub_dimension_mismatch():
    with pytest.raises(ValueError):
        check_mub(
            MubBasis(np.eye(2, dtype=complex), label="a"),
            MubBasis(np.eye(3, dtype=complex), label="b"),
        )


def test_basis_rejects_non_unitary():
    with pytest.raises(ValueError):
        MubBasis(np.array([[1, 1], [0, 1]], dtype=complex), label="bad")
    with pytest.raises(ValueError):
        MubBasis(np.eye(1, dtype=complex), label="too-small")


def test_basis_copies_the_callers_matrix():
    a = np.eye(2, dtype=complex)
    basis = MubBasis(a, "x")
    a[0, 0] = 2
    assert basis.matrix[0, 0] == 1
    assert not basis.matrix.flags.writeable


def test_mubset_requires_full_count():
    mubs = mub_complete_set(2)
    with pytest.raises(ValueError):
        MubSet(bases=mubs.bases[:2], dimension=2)


def test_json_round_trip_is_lossless():
    mubs = mub_complete_set(4)
    blob = json.dumps(mubs.to_json_dict())
    again = MubSet.from_json_dict(json.loads(blob))
    assert len(again) == len(mubs)
    for a, b in zip(again.bases, mubs.bases):
        assert a.label == b.label
        assert np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("p", [3, 5, 61])
def test_prime_bases_match_the_entrywise_formula(p):
    # entry (i, j) of basis r is omega^((r i^2 + j i) mod p) / sqrt(p), one value at a time
    omega = np.exp(2j * np.pi / p)
    bases = mub_complete_set(p).bases[1:]
    for r in (0, 1, p - 1):
        ref = np.empty((p, p), dtype=complex)
        for i in range(p):
            for j in range(p):
                ref[i, j] = omega ** np.int64((r * i * i + j * i) % p)
        assert np.array_equal(bases[r].matrix, ref / np.sqrt(p))


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 7, 61])
def test_single_basis_equals_the_complete_set_entry(n_dim):
    mubs = mub_complete_set(n_dim)
    for r in range(n_dim + 1):
        basis = mub_basis(n_dim, r)
        assert basis.label == mubs.bases[r].label
        assert basis.matrix.dtype == mubs.bases[r].matrix.dtype
        assert basis.matrix.tobytes() == mubs.bases[r].matrix.tobytes()


@pytest.mark.parametrize("index", [-1, 6, 60])
def test_single_basis_index_outside_the_set(index):
    with pytest.raises(ValueError, match="outside 0..5") as info:
        mub_basis(5, index)
    assert not isinstance(info.value, UnsupportedDimensionError)


@pytest.mark.parametrize("index", [0, 1, 6])
def test_single_basis_of_unsupported_dimension(index):
    with pytest.raises(UnsupportedDimensionError):
        mub_basis(6, index)
