"""Complete sets of mutually unbiased bases for prime dimensions and N = 4.

Two orthonormal bases U, V are mutually unbiased when every cross overlap
satisfies |<u_i|v_j>|^2 = 1/N.  A complete set holds N+1 pairwise unbiased
bases (the computational basis included), which is the maximum and exists for
every prime-power dimension.  Here the construction covers:

- N = 2: explicit three-basis table.
- odd prime N: quadratic-phase bases with entries omega^(r i^2 + j i)/sqrt(N),
  omega = exp(2 pi i / N); basis index r, column j.
- N = 4: a fixed verified table (general power-of-two machinery is out of
  scope; 4 keeps two-qubit demonstrations possible).

Each basis is built on its own by ``mub_basis``, so a caller that needs a few
bases of a large dimension never holds the (N+1) N^2 entries of the full set.

Whatever the formula, the product is pinned by its output property: the
exhaustive pairwise check below must pass at tolerance 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .spectrum import check_keys, require_int, require_list, require_str

UNBIASED_TOL = 1e-10


class UnsupportedDimensionError(ValueError):
    """No complete MUB construction is available for this dimension."""


@dataclass(frozen=True)
class MubBasis:
    """One orthonormal basis: a read-only copy of the columns of a unitary matrix."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"basis {self.label!r}: matrix must be square")
        if m.shape[0] < 2:
            raise ValueError(f"basis {self.label!r}: dimension must be at least 2")
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries: dev is nan or inf
            dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if not dev <= UNBIASED_TOL:
            raise ValueError(f"basis {self.label!r}: columns not orthonormal (deviation {dev:.2e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MubSet:
    """A complete family of N+1 pairwise unbiased bases for dimension N."""

    bases: tuple[MubBasis, ...]
    dimension: int

    def __post_init__(self):
        if len(self.bases) != self.dimension + 1:
            raise ValueError(f"complete set for N={self.dimension} needs {self.dimension + 1} bases")
        for b in self.bases:
            if b.dimension != self.dimension:
                raise ValueError("mixed dimensions in basis set")

    def __len__(self) -> int:
        return len(self.bases)

    def worst_pair(self) -> tuple[int, int, float]:
        """(i, j, deviation) of the pair of bases farthest from unbiased, first such pair on ties."""
        return max(((i, j, check_mub(u, v))
                    for (i, u), (j, v) in combinations(enumerate(self.bases), 2)),
                   key=lambda pair: pair[2])

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "bases": [
                {
                    "label": b.label,
                    "columns": np.stack([b.matrix.T.real, b.matrix.T.imag], axis=-1).tolist(),
                }
                for b in self.bases
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "MubSet":
        # columns[j][i] = [re, im] of entry i of basis vector j
        set_keys, basis_keys = ("dimension", "bases"), ("label", "columns")
        check_keys(d, set_keys, "MUB set", required=set_keys)
        n_dim = require_int(d["dimension"], "dimension")
        bases = []
        for e in require_list(d["bases"], "bases"):
            check_keys(e, basis_keys, "MUB basis", required=basis_keys)
            label = require_str(e["label"], "label")
            try:
                columns = np.asarray(e["columns"], dtype=float)
            except (TypeError, ValueError, OverflowError):  # ragged, or not all numbers
                raise ValueError(f"basis {label!r}: columns are not an array of numbers") from None
            if columns.shape != (n_dim, n_dim, 2):
                raise ValueError(f"basis {label!r}: columns of shape {columns.shape}, "
                                 f"expected ({n_dim}, {n_dim}, 2)")
            bases.append(MubBasis(columns.view(complex)[..., 0].T, label))
        return MubSet(bases=tuple(bases), dimension=n_dim)


def check_mub(u: MubBasis, v: MubBasis) -> float:
    """Largest deviation of a squared cross overlap from 1/N; unbiased up to UNBIASED_TOL."""
    if u.dimension != v.dimension:
        raise ValueError(f"dimension mismatch: {u.dimension} vs {v.dimension}")
    overlaps = np.abs(v.matrix.conj().T @ u.matrix) ** 2
    return float(np.abs(overlaps - 1.0 / u.dimension).max())


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _odd_prime_basis(p: int, r: int) -> np.ndarray:
    """Entries omega^(r i^2 + j i)/sqrt(p), read from a table of the p roots of unity."""
    roots = np.exp(2j * np.pi / p) ** np.arange(p) / np.sqrt(p)
    i = np.arange(p)[:, None]
    j = np.arange(p)[None, :]
    return roots[(r * i * i + j * i) % p]


_N2_TABLES = [
    np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
]

# Two-qubit table; each row below is one basis vector.  Verified exhaustively
# in tests via the pairwise overlap check.
_I = 1j
_N4_TABLES = [
    np.array(rows, dtype=complex).T / 2.0
    for rows in (
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]],
        [[1, -1, -_I, -_I], [1, 1, -_I, _I], [1, 1, _I, -_I], [1, -1, _I, _I]],
        [[1, -_I, -_I, -1], [1, _I, _I, -1], [1, -_I, _I, 1], [1, _I, -_I, 1]],
        [[1, -_I, -1, -_I], [1, _I, -1, _I], [1, -_I, 1, _I], [1, _I, 1, -_I]],
    )
]


def mub_basis(n_dim: int, index: int) -> MubBasis:
    """Basis ``index`` of the complete set for prime N or N = 4, built on its own.

    Index 0 is the computational basis and index r + 1 the basis labelled
    ``rotated-r``.  Raises UnsupportedDimensionError when no construction
    exists for N (no general one is known beyond prime powers, and only the
    prime + N=4 cases ship here), and ValueError for an index outside 0..N.
    """
    if n_dim < 2:
        raise UnsupportedDimensionError(f"dimension {n_dim} too small (need N >= 2)")
    if n_dim != 4 and not _is_prime(n_dim):
        raise UnsupportedDimensionError(
            f"no construction available for dimension {n_dim} (prime or 4 required)"
        )
    if not 0 <= index <= n_dim:
        raise ValueError(f"basis index {index} outside 0..{n_dim} for dimension {n_dim}")
    if index == 0:
        return MubBasis(np.eye(n_dim, dtype=complex), label="computational")
    r = index - 1
    if n_dim == 2:
        matrix = _N2_TABLES[r]
    elif n_dim == 4:
        matrix = _N4_TABLES[r]
    else:
        matrix = _odd_prime_basis(n_dim, r)
    return MubBasis(matrix, label=f"rotated-{r}")


def mub_complete_set(n_dim: int) -> MubSet:
    """The N+1 pairwise unbiased bases for prime N or N = 4, in index order."""
    return MubSet(tuple(mub_basis(n_dim, r) for r in range(n_dim + 1)), n_dim)
