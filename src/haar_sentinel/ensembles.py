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

Every kind draws its states by one routine, state_blocks, a block of one
seed-tree stream at a time, and probe_blocks measures them by one observable,
the probe.  The states are left unnormalised, as drawn, and every probe is a
ratio <psi|O|psi>/<psi|psi>, so no pass writes a normalised copy of a state.
The values are deterministic per (seed, basis index, permutation index,
sample index) and independent of worker count; see streams for the stream
formula.
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
    check_keys,
    expand,
    number_operator,
    number_operator_assignment,
    require_int,
    require_list,
    require_real,
    require_str,
)

# The parameters each kind reads, and the keys of a spec's JSON form.
PARAM_KEYS = {"haar": (), "counterexample": ("n",), "fixed_basis_state": ("basis_index",),
              "dirichlet_amplitudes": ("alpha",)}
SPEC_KEYS = ("kind", "N", "n", "seed", "params")

# Values per row block of a rotated probe's product amps @ K (64 KiB).
FORM_BLOCK_VALUES = 8192


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of a state ensemble, JSON-roundtrippable."""

    kind: str
    dimension: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PARAM_KEYS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        check_keys(self.params, PARAM_KEYS[self.kind], f"{self.kind} params")
        streams.check_seed(self.seed, "ensemble seed")
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
            alpha = require_list(self.params.get("alpha", []), "alpha")
            if len(alpha) != self.dimension:
                raise ValueError("dirichlet_amplitudes needs alpha of length N")
            for a in alpha:
                if not (isfinite(require_real(a, "alpha")) and a > 0):
                    raise ValueError(f"alpha entry {a} is not a positive real")
            total = sum(alpha)
            if total > streams.MAX_SHAPE_SUM:
                # a sample's gammas sum to one Gamma(sum(alpha)) variate
                raise ValueError(f"alpha: shapes summing to {total!r} would draw {total!r}-shape "
                                 f"row sums, past the cap sum(alpha) <= 2^20")

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "N": self.dimension, "seed": self.seed}
        if self.params:
            d["params"] = dict(self.params)
        if self.kind == "counterexample":
            d["n"] = self.params["n"]
        return d

    @staticmethod
    def from_json_dict(d: dict, default_seed: Optional[int] = None) -> "EnsembleSpec":
        check_keys(d, SPEC_KEYS, "ensemble spec", required=("kind",))
        kind = require_str(d["kind"], "kind")
        if kind not in PARAM_KEYS:
            raise ValueError(f"unknown ensemble kind {kind!r}")
        params = d.get("params", {})
        check_keys(params, PARAM_KEYS[kind], f"{kind} params")
        params = dict(params)
        ns = {require_int(source["n"], "n") for source in (d, params) if "n" in source}
        if len(ns) > 1:
            raise ValueError(f"n is {d['n']} but params.n is {params['n']}")
        if ns:
            params["n"] = ns.pop()
            if not 1 <= params["n"] <= 20:  # before 2^n is formed
                raise ValueError(f"n = {params['n']} outside 1..20")
        if "N" not in d and "n" not in params:
            raise ValueError("missing key 'N' (or 'n') in ensemble spec")
        dim = 2 ** params["n"] if "N" not in d else require_int(d["N"], "N")
        if "n" in params and dim != 2 ** params["n"]:
            raise ValueError(f"N = {dim} is not 2^n = {2 ** params['n']}")
        if "n" in d and kind != "counterexample":
            raise ValueError(f"n = {d['n']} in ensemble spec applies to kind 'counterexample' "
                             f"only, not {kind!r}")
        seed = d.get("seed", default_seed)
        if seed is None:
            raise ValueError("ensemble spec needs a seed")
        return EnsembleSpec(kind=kind, dimension=dim, seed=require_int(seed, "ensemble seed"),
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


def _drawn_blocks(
    spec: EnsembleSpec,
    stream: tuple[int, int],
    rotated: bool,
) -> tuple[slice | Sequence[int], Callable[[int, int], np.ndarray],
           Callable[[np.ndarray, int, int], np.ndarray]]:
    """(support S, rows, order): the states of state_blocks, in the order they are drawn.

    rows(start, count) holds the rows of samples start..start + count - 1,
    and order(x, start, count) picks those samples' entries of x, one per
    row along its first axis, in sample order.  A Haar block draws whole
    sample pairs: the cosine rows of its pairs, then their sine rows, with
    one spare row at an odd start and one at an odd end.  Every other kind
    draws its samples in order, and order returns x itself.
    """
    key = streams.stream_key(spec.seed, *stream)
    if spec.kind == "fixed_basis_state":
        return [spec.params["basis_index"]], lambda s0, c: np.ones((c, 1)), _as_drawn
    if spec.kind == "haar":
        n_dim = spec.dimension

        def rows(s0, c):
            first, stop = s0 // 2, (s0 + c + 1) // 2  # the sample pairs of samples s0..s0+c-1
            z = streams.standard_normals(key, first * n_dim, 2 * (stop - first) * n_dim)
            z = z.reshape(-1, n_dim)
            return z if rotated else np.square(z, out=z)

        return slice(None), rows, _pair_order
    # counterexample and dirichlet_amplitudes: Dirichlet masses on a support
    if spec.kind == "counterexample":
        support = counterexample_support(spec.params["n"])
        alpha = counterexample_alphas(spec.params["n"])
    else:
        support = slice(None)
        alpha = tuple(float(x) for x in spec.params["alpha"])

    def rows(s0, c):
        g = streams.gamma_matrix(key, s0, c, alpha)
        return np.sqrt(g, out=g) if rotated else g

    return support, rows, _as_drawn


def _as_drawn(x: np.ndarray, s0: int, c: int) -> np.ndarray:
    return x


def _pair_order(x: np.ndarray, s0: int, c: int) -> np.ndarray:
    """Samples s0..s0+c-1 of pair-major x: the entries of pair cosines, then of pair sines."""
    skip = s0 % 2
    return x.reshape(2, -1, *x.shape[1:]).swapaxes(0, 1).reshape(x.shape)[skip:skip + c]


def state_blocks(
    spec: EnsembleSpec,
    stream: tuple[int, int] = (0, 0),
    rotated: bool = False,
) -> tuple[slice | Sequence[int], Callable[[int, int], np.ndarray]]:
    """(support S, states): states(start, count) is the (count, |S|) block of samples start..

    Row i holds state i's unnormalised squared amplitudes on S, or its
    unnormalised real amplitudes when ``rotated``: the state is the row
    divided by its sum (plain) or by its Euclidean norm (rotated), which
    probe_blocks does as the denominator of a ratio.  ``stream`` is the
    (basis index, permutation index) node of the seed tree (see streams).
    Haar samples 2m and 2m + 1 share N Box-Muller pairs, the pairs of radius
    words [mN, (m + 1)N) and angle words ANGLE_WORDS + [mN, (m + 1)N) of the
    node: amplitude k of sample 2m is the cosine normal z of pair k,
    amplitude k of sample 2m + 1 its sine normal, and a Haar row is z^2, or z
    rotated.  A Dirichlet state's row is its gammas g, or sqrt(g) rotated,
    row i mod CHUNK_SAMPLES of its chunk's streams.gamma_matrix draw, from
    the node's child of that chunk index.  So a state is the same
    state whether it is measured rotated or not.  probe_blocks measures the
    rows in the order they are drawn and puts only the values in sample order.
    """
    support, rows, order = _drawn_blocks(spec, stream, rotated)
    return support, lambda s0, c: order(rows(s0, c), s0, c)


def probe_blocks(
    spec: EnsembleSpec,
    a: EigenAssignment,
    basis: Optional[MubBasis] = None,
    stream: tuple[int, int] = (0, 0),
) -> Callable[[int, int], np.ndarray]:
    """block(start, count): <psi_i|O|psi_i> for the states i of state_blocks(spec, stream).

    O is the diagonal of assignment ``a``, rotated into the columns of
    ``basis`` (a MubBasis, checked unitary when built) when one is given.
    Every kind has real amplitudes, so a rotated O is one real quadratic form
    K on the support S, formed once per call: c |S|^2 multiply-adds per block
    of c states instead of the 4 c |S| N of the complex product U^dagger psi.
    Each value is a ratio on the unnormalised rows w of state_blocks:
    (w . lambda_S)/(w . 1) unrotated, and w^T K w / w^T w rotated.  The
    values are computed on the rows as drawn, a Haar block's spare rows
    included, and only the values are put in sample order.
    """
    if a.dimension != spec.dimension:
        raise ValueError(f"assignment dimension {a.dimension} != "
                         f"ensemble dimension {spec.dimension}")
    if basis is not None and basis.dimension != spec.dimension:
        raise ValueError(f"basis dimension {basis.dimension} does not match "
                         f"dimension {spec.dimension}")
    support, states, order = _drawn_blocks(spec, stream, rotated=basis is not None)
    if basis is None:
        diag = a.as_array()[support]
        ones = np.ones_like(diag)

        # two matrix-vector products: one (c, 2) matrix product is about 1.5x
        # faster on 9-wide rows, but it raised the peak RSS by about 0.1 MiB
        def ratio(s0, c):
            w = states(s0, c)
            return order((w @ diag) / (w @ ones), s0, c)

        return ratio
    form = _quadratic_form(basis.matrix, support, a.as_array())
    # amps @ form row block by row block: a (c, |S|) product beside the states
    # would double the block's memory, which the allocator returns to the
    # system after every unit and takes back, a page fault at a time
    rows = max(1, FORM_BLOCK_VALUES // form.shape[0])

    def block(s0, c):
        amps = states(s0, c)
        values = np.empty(len(amps))
        for i in range(0, len(amps), rows):
            part = amps[i:i + rows]
            values[i:i + rows] = np.einsum("ij,ij->i", part @ form, part)
        values /= np.einsum("ij,ij->i", amps, amps)
        return order(values, s0, c)

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

    The blocks of probe_blocks, concatenated over the chunk grid of
    streams.chunked_samples.  This holds all M values; the verification tiers
    instead reduce each block in the thread that drew it.
    """
    if not 1 <= m_samples <= streams.MAX_SAMPLES:
        raise ValueError(f"M = {m_samples} samples outside 1..2^32")
    return np.concatenate(streams.chunked_samples(m_samples, probe_blocks(spec, a, basis, stream),
                                                  workers))

