"""Observables as spectra: eigenvalues, multiplicities, and eigenbasis layouts.

Everything downstream (moments, thresholds, sampling) depends on an observable
only through its spectrum and, where basis-state bookkeeping matters, through
a length-N eigenvalue assignment.  Full matrices are never stored: Spectrum,
EigenAssignment and Permutation each hold read-only NumPy arrays, stored by
copy, checked with vector operations, compared by value and unhashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, fsum, inf
from numbers import Integral, Real
from typing import Sequence

import numpy as np

MAX_DIMENSION = 2**20  # dense assignments only; desk-scale arrays


def check_keys(d: dict, known: Sequence[str], what: str, required: Sequence[str] = ()) -> None:
    """Raise ValueError unless ``d`` is an object with keys in ``known`` and all of ``required``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object, got {d!r}")
    for key in d:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {what}; known: {', '.join(known) or 'none'}")
    for key in required:
        if key not in d:
            raise ValueError(f"missing key {key!r} in {what}")


def require_int(value, name: str) -> int:
    """An integer input field as an int; a bool, float or string raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def require_real(value, name: str) -> float:
    """A real input field as a float; a bool, string, None or too large an int raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name}: expected a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: {value} is beyond double-precision range") from None


def require_list(value, name: str) -> list:
    """A list input field; any other JSON value raises ValueError naming it."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name}: expected a list, got {value!r}")
    return value


def require_str(value, name: str) -> str:
    """A string input field; any other JSON value raises ValueError naming it."""
    if not isinstance(value, str):
        raise ValueError(f"{name}: expected a string, got {value!r}")
    return value


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _finite_non_negative(values, what: str) -> np.ndarray:
    """values as a read-only float64 copy; ValueError names a non-finite or negative entry."""
    v = np.array(values, dtype=np.float64)
    if v.size and not 0 <= v.min() <= v.max() < inf:  # a NaN fails every comparison
        bad = ~(np.isfinite(v) & (v >= 0))
        raise ValueError(f"{what} {v[bad][0]} is not a finite non-negative real")
    return _read_only(v)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Distinct non-negative eigenvalues with multiplicities, sorted ascending.

    ``eigenvalues[i]`` (read-only float64 array) occurs ``multiplicities[i]``
    (read-only int64 array) times.  The fields derived once are Python numbers:
    the dimension N, ``mean`` = Tr O / N (the mean expectation value of a
    uniformly random state), the largest eigenvalue and the least multiplicity.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    dimension: int = field(init=False)
    mean: float = field(init=False)
    max_eigenvalue: float = field(init=False)
    min_multiplicity: int = field(init=False)

    def __post_init__(self):
        lam, m = np.asarray(self.eigenvalues), np.asarray(self.multiplicities)
        if lam.ndim != 1 or lam.size == 0 or lam.shape != m.shape:
            raise ValueError(f"spectrum needs one multiplicity per eigenvalue and at least one "
                             f"eigenvalue, got {lam.size} eigenvalues, {m.size} multiplicities")
        if lam.dtype.kind not in "iuf":
            raise ValueError("eigenvalues: expected real numbers")
        python_bools = m is not self.multiplicities and bool in map(type, self.multiplicities)
        if m.dtype.kind not in "iu" or python_bools:  # NumPy would read True as 1
            raise ValueError("multiplicities: expected integers (not bools) below 2**63")
        least = int(m.min())
        if least < 1:
            raise ValueError(f"multiplicities: {least} is not a positive integer")
        n = int(m.sum(dtype=np.float64))  # a float sum cannot wrap around
        if n > MAX_DIMENSION:
            raise ValueError(f"dimension {n} exceeds supported maximum {MAX_DIMENSION}")
        lam = _finite_non_negative(lam, "eigenvalues:")
        if not (lam[1:] > lam[:-1]).all():
            raise ValueError("eigenvalues must be distinct and ascending (make_spectrum sorts)")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "multiplicities", _read_only(m.astype(np.int64)))
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "mean", trace(self) / n)
        object.__setattr__(self, "max_eigenvalue", float(lam[-1]))
        object.__setattr__(self, "min_multiplicity", least)

    def __eq__(self, other):
        return (isinstance(other, Spectrum)
                and np.array_equal(self.eigenvalues, other.eigenvalues)
                and np.array_equal(self.multiplicities, other.multiplicities))

    @property
    def levels(self) -> int:
        """Number of distinct eigenvalues."""
        return self.eigenvalues.size

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "multiplicities": self.multiplicities.tolist(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Spectrum":
        keys = ("eigenvalues", "multiplicities")
        check_keys(d, keys, "spectrum", required=keys)
        return make_spectrum(*(require_list(d[k], k) for k in keys))


@dataclass(frozen=True, eq=False)
class EigenAssignment:
    """Length-N map from basis-state index to eigenvalue of a diagonal observable.

    ``values`` is a read-only float64 array; assignments compare by value.
    """

    values: np.ndarray

    def __post_init__(self):
        v = _finite_non_negative(self.values, "assignment value")
        if v.ndim != 1 or not 0 < v.size <= MAX_DIMENSION:
            raise ValueError(f"assignment must be a non-empty 1-D array of at most "
                             f"{MAX_DIMENSION} values")
        object.__setattr__(self, "values", v)

    def __eq__(self, other):
        return isinstance(other, EigenAssignment) and np.array_equal(self.values, other.values)

    @property
    def dimension(self) -> int:
        return self.values.size

    def as_array(self) -> np.ndarray:
        return self.values

    def collapse(self) -> Spectrum:
        """Recover the Spectrum whose expansion has this multiset of values."""
        return Spectrum(*np.unique(self.values, return_counts=True))


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection on basis-state indices 0..N-1, as a read-only int64 array."""

    mapping: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.mapping)
        if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
            raise ValueError("mapping must be a 1-D array of integer indices")
        m = raw.astype(np.int64)
        bad = (m < 0) | (m >= m.size)
        if not bad.any():
            bad = np.bincount(m, minlength=m.size)[m] > 1  # repeated entries
        if bad.any():
            raise ValueError(f"mapping entry {m[bad.argmax()]} is out of range or repeated: "
                             "mapping is not a bijection on 0..N-1")
        object.__setattr__(self, "mapping", _read_only(m))

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.mapping, other.mapping)

    @property
    def dimension(self) -> int:
        return self.mapping.size

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(np.arange(n))


def make_spectrum(eigenvalues: Sequence[float], multiplicities: Sequence[int]) -> Spectrum:
    """A spectrum from outside input: each entry checked, then sorted by eigenvalue."""
    if len(eigenvalues) != len(multiplicities):
        raise ValueError("eigenvalues and multiplicities must have equal length")
    lam = np.array([require_real(v, "eigenvalues") for v in eigenvalues])
    counts = np.array([require_int(m, "multiplicities") for m in multiplicities])
    order = np.argsort(lam)
    return Spectrum(lam[order], counts[order])


def trace(s: Spectrum) -> float:
    """Trace of the observable: sum of eigenvalues weighted by multiplicity."""
    return fsum(s.eigenvalues * s.multiplicities)


def number_operator(n: int) -> Spectrum:
    """Spectrum of the n-qubit excitation counter sum_k (1 - Z_k)/2.

    Eigenvalue k (the number of 1s in a basis state's bit pattern) has
    multiplicity C(n, k), so the dimension is 2**n.
    """
    if not 1 <= n <= 20:
        raise ValueError(f"qubit count {n} outside supported range 1..20")
    return Spectrum(np.arange(n + 1.0), np.array([comb(n, k) for k in range(n + 1)]))


def number_operator_assignment(n: int) -> EigenAssignment:
    """Computational-basis diagonal of the n-qubit excitation counter.

    Entry i is the popcount of i, i.e. the eigenvalues in their physical
    basis-state layout rather than the sorted canonical order of expand().
    """
    if not 1 <= n <= 20:
        raise ValueError(f"qubit count {n} outside supported range 1..20")
    bits = np.arange(2**n, dtype=np.uint32)
    pop = np.zeros(2**n)
    while bits.any():
        pop += bits & 1
        bits >>= 1
    return EigenAssignment(pop)


def expand(s: Spectrum) -> EigenAssignment:
    """Canonical assignment: each eigenvalue repeated by multiplicity, ascending."""
    return EigenAssignment(np.repeat(s.eigenvalues, s.multiplicities))


def apply_permutation(a: EigenAssignment, p: Permutation) -> EigenAssignment:
    """Conjugate a diagonal observable by a basis permutation.

    Entry i of the result is entry p(i) of the input, so the multiset of
    eigenvalues is preserved.
    """
    if a.dimension != p.dimension:
        raise ValueError(f"assignment dimension {a.dimension} != permutation dimension {p.dimension}")
    return EigenAssignment(a.values[p.mapping])

