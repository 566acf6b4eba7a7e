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
from typing import Optional, Sequence

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
    z = streams.standard_normals(key, start * n_dim, count * n_dim).reshape(count, n_dim)
    g = np.square(z, out=z)
    g /= g.sum(axis=1, keepdims=True)
    return g


def _rotated_expectations(amps: np.ndarray, uc: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Expectations of real states (rows of amps) measured in the rotated basis.

    Row r of amps @ uc is basis^dagger psi_r.  The squared moduli are summed
    into one buffer, and every temporary is freed on return, before the next
    probe allocates its own.
    """
    rot = amps @ uc
    power = rot.real**2
    power += rot.imag**2
    return power @ diag


def generate_probe_samples(
    spec: EnsembleSpec,
    probes: Sequence[tuple[EigenAssignment, Optional[np.ndarray]]],
    m_samples: int,
    stream: tuple[int, int] = (0, 0),
    workers: int = 1,
) -> np.ndarray:
    """(M, P) expectation values: M states of one stream, each measured by P probes.

    A probe is an (assignment, basis or None) pair; column k holds
    <psi_i|O_k|psi_i> with O_k the diagonal observable of assignment k,
    rotated into the columns of basis k when one is given.  ``stream`` is the
    (basis index, permutation index) node of the seed tree; sample i draws
    from the fixed word range of that node's Philox stream, so column k is
    bit-identical to a one-probe call and never depends on chunking or
    ``workers``.  Each chunk's states are drawn once and measured by every
    probe, and only the chunk is held: memory is O(chunk * N + M * P).
    """
    if m_samples < 1:
        raise ValueError("need at least one sample")
    diags, conj_bases = [], []
    for a, basis in probes:
        if a.dimension != spec.dimension:
            raise ValueError(f"assignment dimension {a.dimension} != "
                             f"ensemble dimension {spec.dimension}")
        diags.append(a.as_array())
        conj_bases.append(None if basis is None else _validate_unitary(
            getattr(basis, "matrix", basis), spec.dimension).conj())
    key = streams.stream_key(spec.seed, *stream)
    plain = any(uc is None for uc in conj_bases)
    rotated = any(uc is not None for uc in conj_bases)

    if spec.kind == "fixed_basis_state":
        b = spec.params["basis_index"]
        # |<u_i|b>|^2 is row b of the conjugated basis, squared
        row = [diag[b] if uc is None else float((uc.real[b, :] ** 2 + uc.imag[b, :] ** 2) @ diag)
               for diag, uc in zip(diags, conj_bases)]
        return np.tile(np.asarray(row, dtype=float), (m_samples, 1))

    if spec.kind == "haar":
        support = slice(None)
        n_dim = spec.dimension

        def states(s0, c):
            """(masses, amplitudes) of the chunk, each only where a probe needs it."""
            z = streams.standard_normals(key, s0 * n_dim, c * n_dim).reshape(c, n_dim)
            masses = None
            if plain:
                masses = z * z if rotated else np.square(z, out=z)
                masses /= masses.sum(axis=1, keepdims=True)
            if rotated:
                z /= np.linalg.norm(z, axis=1, keepdims=True)
            return masses, z
    else:
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

        def states(s0, c):
            g = gamma_matrix(key, s0, c, alpha)
            g /= g.sum(axis=1, keepdims=True)
            return g, (np.sqrt(g) if rotated else None)

    # Unrotated probes read masses on the support; rotated ones take the rows
    # of basis^dagger on the support and read the full diagonal.
    measures = [(diag[support], None) if uc is None else (diag, uc[support, :])
                for diag, uc in zip(diags, conj_bases)]

    def compute(s0, c):
        masses, amps = states(s0, c)
        out = np.empty((c, len(measures)))
        for k, (diag, uc) in enumerate(measures):
            out[:, k] = masses @ diag if uc is None else _rotated_expectations(amps, uc, diag)
        return out

    return streams.chunked_samples(m_samples, compute, workers)


def generate_expectation_samples(
    spec: EnsembleSpec,
    a: EigenAssignment,
    basis: Optional[np.ndarray] = None,
    m_samples: int = 1,
    stream: tuple[int, int] = (0, 0),
    workers: int = 1,
) -> np.ndarray:
    """M raw expectation values <psi_i|O|psi_i>, deterministic per (seed, stream, i).

    The one-probe case of generate_probe_samples.
    """
    return generate_probe_samples(spec, [(a, basis)], m_samples, stream, workers)[:, 0]


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
        g /= g.sum(axis=1, keepdims=True)
        return g

    return streams.chunked_samples(m_samples, compute).reshape(m_samples, n + 1)
