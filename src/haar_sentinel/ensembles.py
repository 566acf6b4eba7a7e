"""State ensembles and expectation-value sampling.

Four ensemble kinds are supported:

- ``haar``: uniformly random states.  Amplitudes are a normalized spherically
  symmetric Gaussian vector, so the squared-amplitude vector is
  Dirichlet(1/2, ..., 1/2) distributed -- the convention under which all of
  the closed-form moments in this package are derived.
- ``counterexample``: the adversarial family for the n-qubit excitation
  counter.  Each state is supported on the n+1 sorted bit patterns
  0^k 1^(n-k), with squared amplitudes drawn from Dirichlet(C(n,k)/2): it
  reproduces the uniform-measure statistics of that observable exactly while
  living in an (n+1)-dimensional corner of state space.
- ``fixed_basis_state``: a deterministic computational basis state.
- ``dirichlet_amplitudes``: real non-negative amplitudes whose squares follow
  a caller-specified Dirichlet law.

Expectation sampling is deterministic per (seed, basis index, permutation
index, sample index) and independent of worker count; see streams.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from . import streams
from .dirichlet import DirichletParams
from .spectrum import (
    EigenAssignment,
    MAX_DIMENSION,
    Spectrum,
    expand,
    number_operator,
    number_operator_assignment,
)

ENSEMBLE_KINDS = ("haar", "counterexample", "fixed_basis_state", "dirichlet_amplitudes")


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over the computational basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        norm_sq = float(np.sum(amps.real**2 + amps.imag**2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state norm^2 = {norm_sq}, not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return len(self.amplitudes)

    def masses(self) -> np.ndarray:
        """Squared amplitudes: the measurement distribution in this basis."""
        a = self.amplitudes
        return a.real**2 + a.imag**2


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of a state ensemble, JSON-roundtrippable."""

    kind: str
    dimension: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "haar":
            if not 2 <= self.dimension <= MAX_DIMENSION:
                raise ValueError(f"haar dimension {self.dimension} outside 2..{MAX_DIMENSION}")
        elif self.kind == "counterexample":
            n = self.params.get("n")
            if n is None or not 1 <= n <= 20:
                raise ValueError("counterexample needs qubit count n in 1..20")
            if self.dimension != 2**n:
                raise ValueError(f"counterexample dimension must be 2^{n} = {2**n}")
        elif self.kind == "fixed_basis_state":
            b = self.params.get("basis_index")
            if not isinstance(b, (int, np.integer)) or not 0 <= b < self.dimension:
                raise ValueError(f"fixed_basis_state needs an integer basis_index in 0..N-1, "
                                 f"got {b!r}")
        elif self.kind == "dirichlet_amplitudes":
            alpha = self.params.get("alpha")
            if not alpha or len(alpha) != self.dimension:
                raise ValueError("dirichlet_amplitudes needs alpha of length N")
            DirichletParams(tuple(float(a) for a in alpha))  # raises on a bad entry

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "N": self.dimension, "seed": self.seed}
        if self.params:
            d["params"] = dict(self.params)
        if self.kind == "counterexample":
            d["n"] = self.params["n"]
        return d

    @staticmethod
    def from_json_dict(d: dict, default_seed: Optional[int] = None) -> "EnsembleSpec":
        kind = d["kind"]
        params = dict(d.get("params", {}))
        if "n" in d:
            params.setdefault("n", int(d["n"]))
        if "n" in params and "N" not in d:
            dim = 2 ** int(params["n"])
        else:
            dim = int(d["N"])
        seed = d.get("seed", default_seed)
        if seed is None:
            raise ValueError("ensemble spec needs a seed")
        return EnsembleSpec(kind=kind, dimension=dim, seed=int(seed), params=params)


def counterexample_support(n: int) -> np.ndarray:
    """Basis indices of the bit patterns 0^k 1^(n-k), for k = 0..n.

    Entry k is the integer with n-k trailing ones, i.e. 2^(n-k) - 1; its
    excitation count is n-k.
    """
    return np.array([2 ** (n - k) - 1 for k in range(n + 1)], dtype=np.int64)


def counterexample_alphas(n: int) -> tuple[float, ...]:
    return tuple(comb(n, k) / 2.0 for k in range(n + 1))


def sample_haar_state(n_dim: int, rng: np.random.Generator) -> StateVector:
    """One uniformly random state in the Dirichlet(1/2) squared-amplitude convention.

    A spherically symmetric real Gaussian vector is normalized; its squared
    coordinates are then Dirichlet(1/2, ..., 1/2).  (A complex Ginibre vector
    would instead give Dirichlet(1, ..., 1) masses, which is inconsistent
    with the half-integer moment formulas this package verifies against.)
    """
    if not 2 <= n_dim <= MAX_DIMENSION:
        raise ValueError(f"dimension {n_dim} outside supported range 2..{MAX_DIMENSION}")
    g = rng.standard_normal(n_dim)
    while True:
        norm = np.linalg.norm(g)
        if norm > 0:
            break
        g = rng.standard_normal(n_dim)
    return StateVector((g / norm).astype(complex))


def counterexample_state(n: int, rng: np.random.Generator) -> StateVector:
    """One state of the adversarial excitation-counter family on n qubits."""
    if not 1 <= n <= 20:
        raise ValueError(f"qubit count {n} outside supported range 1..20")
    alphas = np.asarray(counterexample_alphas(n))
    g = rng.gamma(shape=alphas)
    p = g / g.sum()
    amps = np.zeros(2**n, dtype=complex)
    amps[counterexample_support(n)] = np.sqrt(p)
    return StateVector(amps)


def expectation(psi: StateVector, a: EigenAssignment) -> float:
    """<psi| O |psi> for the diagonal observable with assignment a."""
    if psi.dimension != a.dimension:
        raise ValueError(f"state dimension {psi.dimension} != assignment dimension {a.dimension}")
    return float(psi.masses() @ a.as_array())


def _validate_unitary(basis: np.ndarray, n_dim: int) -> np.ndarray:
    u = np.asarray(basis, dtype=complex)
    if u.shape != (n_dim, n_dim):
        raise ValueError(f"basis shape {u.shape} does not match dimension {n_dim}")
    dev = np.abs(u.conj().T @ u - np.eye(n_dim)).max()
    if dev > 1e-10:
        raise ValueError(f"basis is not unitary (deviation {dev:.2e})")
    return u


def expectation_rotated(psi: StateVector, a: EigenAssignment, basis: np.ndarray) -> float:
    """Expectation after measuring in the columns of ``basis``.

    Equals expectation(basis^dagger psi, a): entry i of the rotated state is
    the overlap of basis column i with psi.
    """
    matrix = getattr(basis, "matrix", basis)
    u = _validate_unitary(matrix, psi.dimension)
    rotated = u.conj().T @ psi.amplitudes
    return float((rotated.real**2 + rotated.imag**2) @ a.as_array())


def natural_assignment(spec: EnsembleSpec, s: Spectrum) -> EigenAssignment:
    """The basis layout under which a campaign should evaluate this spectrum.

    The counterexample family is tied to the physical diagonal of the
    excitation counter (eigenvalue = popcount of the basis index), so it is
    paired with that layout; every other ensemble kind is basis-symmetric and
    uses the canonical ascending expansion.
    """
    if spec.kind == "counterexample":
        n = spec.params["n"]
        if s != number_operator(n):
            raise ValueError(
                "counterexample ensembles are defined for the matching "
                f"{n}-qubit excitation-counter spectrum"
            )
        return number_operator_assignment(n)
    if s.dimension != spec.dimension:
        raise ValueError(f"spectrum dimension {s.dimension} != ensemble dimension {spec.dimension}")
    return expand(s)


def _haar_mass_chunk(key: int, start: int, count: int, n_dim: int) -> np.ndarray:
    z = streams.standard_normals(key, start * n_dim, count * n_dim)
    g = z.reshape(count, n_dim) ** 2
    return g / g.sum(axis=1, keepdims=True)


def _haar_amplitude_chunk(key: int, start: int, count: int, n_dim: int) -> np.ndarray:
    z = streams.standard_normals(key, start * n_dim, count * n_dim).reshape(count, n_dim)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def generate_expectation_samples(
    spec: EnsembleSpec,
    a: EigenAssignment,
    basis: Optional[np.ndarray] = None,
    m_samples: int = 1,
    stream: tuple[int, int] = (0, 0),
    workers: int = 1,
) -> np.ndarray:
    """M raw expectation values <psi_i|O|psi_i>, deterministic per (seed, stream, i).

    ``stream`` is the (basis index, permutation index) node of the seed tree;
    sample i then draws from the fixed word range of that node's Philox
    stream, so the output never depends on chunking or ``workers``.
    """
    if m_samples < 1:
        raise ValueError("need at least one sample")
    if a.dimension != spec.dimension:
        raise ValueError(f"assignment dimension {a.dimension} != ensemble dimension {spec.dimension}")
    u = None if basis is None else _validate_unitary(getattr(basis, "matrix", basis), spec.dimension)
    key = streams.stream_key(spec.seed, *stream)
    diag = a.as_array()

    if spec.kind == "fixed_basis_state":
        b = spec.params["basis_index"]
        if u is None:
            value = diag[b]
        else:
            col_masses = u.real[b, :] ** 2 + u.imag[b, :] ** 2  # |<u_i|b>|^2
            value = float(col_masses @ diag)
        return np.full(m_samples, value)

    if spec.kind == "haar":
        if u is None:
            compute = lambda s0, c: _haar_mass_chunk(key, s0, c, spec.dimension) @ diag
        else:
            uc = u.conj()

            def compute(s0, c):
                amps = _haar_amplitude_chunk(key, s0, c, spec.dimension)
                rot = amps @ uc  # row r = basis^dagger psi_r, real states
                return (rot.real**2 + rot.imag**2) @ diag

        return streams.chunked_samples(m_samples, compute, workers)

    # counterexample and dirichlet_amplitudes: Dirichlet masses on a support
    if spec.kind == "counterexample":
        support = counterexample_support(spec.params["n"])
        alpha = counterexample_alphas(spec.params["n"])
    else:
        support = slice(None)
        alpha = tuple(float(x) for x in spec.params["alpha"])
    try:
        streams.halfint_gamma_words(alpha)
        gamma_matrix = streams.halfint_gamma_matrix
    except ValueError:
        gamma_matrix = streams.general_gamma_matrix
    diag_support = diag[support]
    uc_support = None if u is None else u.conj()[support, :]  # rows of basis^dagger on the support

    def compute(s0, c):
        g = gamma_matrix(key, s0, c, alpha)
        masses = g / g.sum(axis=1, keepdims=True)
        if u is None:
            return masses @ diag_support
        rot = np.sqrt(masses) @ uc_support
        return (rot.real**2 + rot.imag**2) @ diag

    return streams.chunked_samples(m_samples, compute, workers)


def haar_mass_samples(n_dim: int, seed: int, m_samples: int,
                      stream: tuple[int, int] = (0, 0), workers: int = 1) -> np.ndarray:
    """(M, N) squared-amplitude vectors of uniformly random states.

    Same stream addressing as generate_expectation_samples with a haar spec.
    """
    key = streams.stream_key(seed, *stream)
    return streams.chunked_samples(
        m_samples, lambda s0, c: _haar_mass_chunk(key, s0, c, n_dim), workers
    ).reshape(m_samples, n_dim)


def counterexample_group_masses(n: int, seed: int, m_samples: int,
                                stream: tuple[int, int] = (0, 0)) -> np.ndarray:
    """(M, n+1) squared amplitudes of the adversarial family on its support."""
    key = streams.stream_key(seed, *stream)
    alphas = counterexample_alphas(n)

    def compute(s0, c):
        g = streams.halfint_gamma_matrix(key, s0, c, alphas)
        return g / g.sum(axis=1, keepdims=True)

    return streams.chunked_samples(m_samples, compute).reshape(m_samples, n + 1)
