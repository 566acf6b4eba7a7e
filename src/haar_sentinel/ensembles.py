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

Every kind is sampled by one routine, probe_blocks: it draws the states of
one seed-tree stream, a block at a time, and measures each by a list of
probes.  The values are deterministic per (seed, basis index, permutation
index, sample index) and independent of worker count; see streams.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, isfinite
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from . import streams
from .mub import MubBasis
from .spectrum import (
    EigenAssignment,
    MAX_DIMENSION,
    Spectrum,
    expand,
    number_operator,
    number_operator_assignment,
    require_int,
    require_real,
)

ENSEMBLE_KINDS = ("haar", "counterexample", "fixed_basis_state", "dirichlet_amplitudes")


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
            if isinstance(b, bool) or not isinstance(b, Integral) or not 0 <= b < self.dimension:
                raise ValueError(f"fixed_basis_state needs an integer basis_index in 0..N-1, "
                                 f"got {b!r}")
        elif self.kind == "dirichlet_amplitudes":
            alpha = self.params.get("alpha")
            if not alpha or len(alpha) != self.dimension:
                raise ValueError("dirichlet_amplitudes needs alpha of length N")
            for a in alpha:
                if not (isfinite(require_real(a, "alpha")) and a > 0):
                    raise ValueError(f"alpha entry {a} is not a positive real")

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
            params.setdefault("n", d["n"])
        if "n" in params:
            params["n"] = require_int(params["n"], "n")
        dim = 2 ** params["n"] if "n" in params and "N" not in d else require_int(d["N"], "N")
        seed = d.get("seed", default_seed)
        if seed is None:
            raise ValueError("ensemble spec needs a seed")
        return EnsembleSpec(kind=kind, dimension=dim, seed=require_int(seed, "seed"),
                            params=params)


def counterexample_support(n: int) -> np.ndarray:
    """Basis indices of the bit patterns 0^k 1^(n-k), for k = 0..n.

    Entry k is the integer with n-k trailing ones, i.e. 2^(n-k) - 1; its
    excitation count is n-k.
    """
    return np.array([2 ** (n - k) - 1 for k in range(n + 1)], dtype=np.int64)


def counterexample_alphas(n: int) -> tuple[float, ...]:
    return tuple(comb(n, k) / 2.0 for k in range(n + 1))


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


def _quadratic_form(basis: np.ndarray, support, diag: np.ndarray) -> np.ndarray:
    """Real K with <psi|U D U^dagger|psi> = psi^T K psi for every real psi on support S.

    K = Re(conj(U_S) D U_S^T) = U_r D U_r^T + U_i D U_i^T, with U_S the rows S
    of the basis and D = diag: the imaginary part of conj(U_S) D U_S^T is
    antisymmetric and drops out of a real quadratic form.  Complex amplitudes
    would need Im(K) as well.
    """
    u = basis[support, :]
    return (u.real * diag) @ u.real.T + (u.imag * diag) @ u.imag.T


def probe_blocks(
    spec: EnsembleSpec,
    probes: Sequence[tuple[EigenAssignment, Optional[MubBasis]]],
    stream: tuple[int, int] = (0, 0),
) -> Callable[[int, int], np.ndarray]:
    """block(start, count): the (P, count) expectation values of samples start.. of one stream.

    A probe is an (assignment, basis or None) pair; row k holds
    <psi_i|O_k|psi_i> with O_k the diagonal observable of assignment k,
    rotated into the columns of basis k when one is given (a MubBasis, checked
    unitary when it was built).  ``stream`` is the (basis index, permutation
    index) node of the seed tree; sample i draws from the fixed word range of
    that node's stream, whose word w is output w of
    PCG64DXSM(SeedSequence(stream_key(seed, u, p))) reached by advance(w), so
    row k is bit-identical to a one-probe block.  Each block's states are
    drawn once and measured by every probe.  Callers evaluate blocks on the
    fixed grid of streams.chunked_samples, so no value depends on ``workers``.

    Every kind has real amplitudes, so a rotated probe is one real quadratic
    form on the state's support S, formed once per call: a block of c states
    costs c |S|^2 multiply-adds per rotated probe instead of the 4 c |S| N of
    the complex product U^dagger psi.
    """
    diags, bases = [], []
    for a, basis in probes:
        if a.dimension != spec.dimension:
            raise ValueError(f"assignment dimension {a.dimension} != "
                             f"ensemble dimension {spec.dimension}")
        if basis is not None and basis.dimension != spec.dimension:
            raise ValueError(f"basis dimension {basis.dimension} does not match "
                             f"dimension {spec.dimension}")
        diags.append(a.as_array())
        bases.append(None if basis is None else basis.matrix)
    key = streams.stream_key(spec.seed, *stream)
    plain = any(u is None for u in bases)
    rotated = any(u is not None for u in bases)

    if spec.kind == "fixed_basis_state":
        support = [spec.params["basis_index"]]

        def states(s0, c):
            ones = np.ones((c, 1))
            return ones, ones
    elif spec.kind == "haar":
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

    # Unrotated probes read masses against the diagonal on the support;
    # rotated ones read amplitudes against their quadratic form.
    measures = [(diag[support], None) if u is None else (None, _quadratic_form(u, support, diag))
                for diag, u in zip(diags, bases)]

    def block(s0, c):
        masses, amps = states(s0, c)
        out = np.empty((len(measures), c))
        for k, (diag, form) in enumerate(measures):
            out[k] = masses @ diag if form is None else np.einsum("ij,ij->i", amps @ form, amps)
        return out

    return block


def generate_expectation_samples(
    spec: EnsembleSpec,
    a: EigenAssignment,
    basis: Optional[MubBasis] = None,
    m_samples: int = 1,
    stream: tuple[int, int] = (0, 0),
    workers: int = 1,
) -> np.ndarray:
    """M raw expectation values <psi_i|O|psi_i>, deterministic per (seed, stream, i).

    The one-probe blocks of probe_blocks, concatenated over the chunk grid of
    streams.chunked_samples.  This holds all M values; the verification tiers
    instead reduce each block in the thread that drew it.
    """
    if m_samples < 1:
        raise ValueError("need at least one sample")
    block = probe_blocks(spec, [(a, basis)], stream)
    return np.concatenate(streams.chunked_samples(m_samples, block, workers), axis=1)[0]

