import numpy as np
import pytest
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from haar_sentinel import streams
from haar_sentinel.ensembles import (
    EnsembleSpec,
    _quadratic_form,
    counterexample_alphas,
    counterexample_support,
    generate_expectation_samples,
    natural_assignment,
    probe_blocks,
    state_blocks,
)
from haar_sentinel.mub import MubBasis, mub_basis
from haar_sentinel.spectrum import (
    EigenAssignment,
    Permutation,
    apply_permutation,
    expand,
    make_spectrum,
    number_operator,
    number_operator_assignment,
)
from oracles import dirichlet_mixed_moment, generate_probe_samples


def test_haar_state_norm(one_hot_probes):
    for n_dim in (2, 5, 64):
        spec = EnsembleSpec(kind="haar", dimension=n_dim, seed=0)
        masses = generate_probe_samples(spec, one_hot_probes(n_dim), 1000)
        assert np.abs(masses.sum(axis=1) - 1.0).max() < 1e-12


def test_haar_masses_match_beta_marginals(one_hot_probes):
    # squared amplitude of one coordinate follows Beta(1/2, (N-1)/2)
    for n_dim, seed in ((2, 10), (4, 11)):
        spec = EnsembleSpec(kind="haar", dimension=n_dim, seed=seed)
        masses = generate_probe_samples(spec, one_hot_probes(n_dim), 100_000)
        for j in range(n_dim):
            p = kstest(masses[:, j], beta_dist(0.5, (n_dim - 1) / 2.0).cdf).pvalue
            assert p > 0.01, (n_dim, j, p)


def test_haar_state_via_rng_also_matches(one_hot_probes):
    # the per-unit streams that protocol generators pick for the extended
    # tiers (seed-tree nodes other than (0, 0)) also give the N=2 arcsine law
    spec = EnsembleSpec(kind="haar", dimension=2, seed=123)
    for stream in ((1, 3), (2, 7)):
        masses = generate_probe_samples(spec, one_hot_probes(2), 20_000, stream=stream)
        assert kstest(masses[:, 0], beta_dist(0.5, 0.5).cdf).pvalue > 0.01, stream


def test_counterexample_support_and_sparsity(one_hot_probes):
    support = counterexample_support(3)
    assert support.tolist() == [7, 3, 1, 0]
    spec = EnsembleSpec(kind="counterexample", dimension=8, seed=4, params={"n": 3})
    masses = generate_probe_samples(spec, one_hot_probes(8), 1000)
    assert np.all(np.delete(masses, support, axis=1) == 0.0)
    assert np.all(masses[:, support] > 0.0)
    assert np.abs(masses.sum(axis=1) - 1.0).max() < 1e-12


def test_counterexample_mean_expectation_matches_haar():
    # ensemble mean of <O> for the excitation counter is n/2
    n = 3
    a = number_operator_assignment(n)
    spec = EnsembleSpec(kind="counterexample", dimension=8, seed=21, params={"n": n})
    values = generate_expectation_samples(spec, a, None, 50_000)
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - 1.5) < 4 * se


def test_counterexample_group_masses_match_dirichlet_moments(one_hot_probes):
    n = 4
    spec = EnsembleSpec(kind="counterexample", dimension=2**n, seed=99, params={"n": n})
    masses = generate_probe_samples(spec, one_hot_probes(2**n), 100_000)
    masses = masses[:, counterexample_support(n)]
    alpha = counterexample_alphas(n)
    for k_index in range(n + 1):
        for order in (1, 2):
            k = [0] * (n + 1)
            k[k_index] = order
            exact = dirichlet_mixed_moment(alpha, k)
            observed = masses[:, k_index] ** order
            se = observed.std(ddof=1) / np.sqrt(observed.size)
            assert abs(observed.mean() - exact) < 5 * se


def test_expectation_examples():
    a = EigenAssignment((0.0, 1.0))
    for index, value in ((0, 0.0), (1, 1.0)):
        ket = EnsembleSpec(kind="fixed_basis_state", dimension=2, seed=0,
                           params={"basis_index": index})
        assert generate_expectation_samples(ket, a, None, 5).tolist() == [value] * 5
    const = EigenAssignment((2.5, 2.5, 2.5))
    haar = EnsembleSpec(kind="haar", dimension=3, seed=1)
    values = generate_expectation_samples(haar, const, None, 100)
    assert np.abs(values - 2.5).max() < 1e-12


def test_expectation_dimension_mismatch():
    spec = EnsembleSpec(kind="haar", dimension=2, seed=1)
    with pytest.raises(ValueError, match="dimension"):
        generate_expectation_samples(spec, EigenAssignment((1.0,)), None, 10)


def test_expectation_rotated():
    # the identity basis changes nothing; a constant observable stays constant
    spec = EnsembleSpec(kind="haar", dimension=4, seed=9)
    a = expand(number_operator(2))
    plain = generate_expectation_samples(spec, a, None, 500)
    identity = MubBasis(np.eye(4), "identity")
    assert np.abs(generate_expectation_samples(spec, a, identity, 500) - plain).max() < 1e-13
    const = EigenAssignment((3.0,) * 4)
    values = generate_expectation_samples(spec, const, mub_basis(4, 1), 500)
    assert np.abs(values - 3.0).max() < 1e-13


def test_fixed_basis_state_samples_are_constant():
    s = number_operator(3)
    spec = EnsembleSpec(kind="fixed_basis_state", dimension=8, seed=0,
                        params={"basis_index": 0})
    values = generate_expectation_samples(spec, number_operator_assignment(3), None, 100)
    assert np.all(values == 0.0)


def test_haar_sample_mean():
    spec = EnsembleSpec(kind="haar", dimension=2, seed=55)
    a = EigenAssignment((0.0, 1.0))
    values = generate_expectation_samples(spec, a, None, 100_000)
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - 0.5) < 3 * se


def test_generate_samples_deterministic():
    spec = EnsembleSpec(kind="haar", dimension=4, seed=777)
    a = expand(number_operator(2))
    v1 = generate_expectation_samples(spec, a, None, 10_000)
    v2 = generate_expectation_samples(spec, a, None, 10_000)
    assert np.array_equal(v1, v2)


def test_generate_samples_worker_count_invariance():
    spec = EnsembleSpec(kind="counterexample", dimension=16, seed=31, params={"n": 4})
    a = number_operator_assignment(4)
    v1 = generate_expectation_samples(spec, a, None, 30_000, workers=1)
    v8 = generate_expectation_samples(spec, a, None, 30_000, workers=8)
    assert np.array_equal(v1, v8)


def test_generate_samples_prefix_stability():
    # sample i depends only on (seed, stream, i), so prefixes agree across M
    spec = EnsembleSpec(kind="haar", dimension=3, seed=12)
    a = EigenAssignment((0.0, 1.0, 2.0))
    short = generate_expectation_samples(spec, a, None, 100)
    long = generate_expectation_samples(spec, a, None, 20_000)
    assert np.array_equal(short, long[:100])


def test_generate_samples_distinct_streams_differ():
    spec = EnsembleSpec(kind="haar", dimension=3, seed=12)
    a = EigenAssignment((0.0, 1.0, 2.0))
    v0 = generate_expectation_samples(spec, a, None, 100, stream=(0, 0))
    v1 = generate_expectation_samples(spec, a, None, 100, stream=(0, 1))
    assert not np.array_equal(v0, v1)


def test_rotated_sampling_matches_single_state_path():
    hadamard = MubBasis(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), "hadamard")
    spec = EnsembleSpec(kind="fixed_basis_state", dimension=2, seed=0,
                        params={"basis_index": 0})
    a = EigenAssignment((0.0, 1.0))
    values = generate_expectation_samples(spec, a, hadamard, 10)
    ket0 = np.array([[1.0, 0.0]])
    assert np.allclose(values, _complex_reference(ket0, hadamard.matrix, a.as_array()))
    assert values[0] == pytest.approx(0.5)


def test_dirichlet_amplitudes_kind():
    spec = EnsembleSpec(kind="dirichlet_amplitudes", dimension=3, seed=5,
                        params={"alpha": [1.0, 2.0, 3.0]})
    a = EigenAssignment((0.0, 1.0, 2.0))
    values = generate_expectation_samples(spec, a, None, 50_000)
    # mean of lambda . x for x ~ Dir(alpha) is lambda . alpha / alpha0
    expected = (0 * 1 + 1 * 2 + 2 * 3) / 6.0
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - expected) < 4 * se


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(kind="nope", dimension=4, seed=0)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="counterexample", dimension=9, seed=0, params={"n": 3})
    with pytest.raises(ValueError):
        EnsembleSpec(kind="fixed_basis_state", dimension=4, seed=0, params={"basis_index": 7})
    with pytest.raises(ValueError):
        EnsembleSpec(kind="dirichlet_amplitudes", dimension=3, seed=0, params={"alpha": [1.0]})


def test_ensemble_spec_json_round_trip():
    for spec in (EnsembleSpec(kind="counterexample", dimension=16, seed=42, params={"n": 4}),
                 EnsembleSpec(kind="fixed_basis_state", dimension=3, seed=2**64 - 1,
                              params={"basis_index": 2}),
                 EnsembleSpec(kind="dirichlet_amplitudes", dimension=2, seed=0,
                              params={"alpha": [0.5, 1.5]})):
        assert EnsembleSpec.from_json_dict(spec.to_json_dict()) == spec
    plain = EnsembleSpec.from_json_dict({"kind": "haar", "N": 8, "seed": 3})
    assert plain.dimension == 8


def test_natural_assignment_layouts():
    ce = EnsembleSpec(kind="counterexample", dimension=8, seed=0, params={"n": 3})
    assert natural_assignment(ce, number_operator(3)) == number_operator_assignment(3)
    with pytest.raises(ValueError):
        natural_assignment(ce, make_spectrum((0, 1), (4, 4)))
    haar = EnsembleSpec(kind="haar", dimension=8, seed=0)
    assert natural_assignment(haar, number_operator(3)) == expand(number_operator(3))


def test_natural_assignment_round_trips_at_the_qubit_limit():
    # counterexample n = 20 (N = 2^20), the largest supported campaign
    n = 20
    s = number_operator(n)
    spec = EnsembleSpec(kind="counterexample", dimension=2**n, seed=0, params={"n": n})
    base = natural_assignment(spec, s)
    perm = Permutation(np.random.default_rng(20).permutation(base.dimension))
    assert base.collapse() == s
    assert apply_permutation(base, perm).collapse() == s


def _complex_reference(amps, basis, diag):
    """<psi|U D U^dagger|psi> as |psi . conj(U)|^2 . d, one complex product per state."""
    rotated = amps.astype(complex) @ basis.conj()
    return (rotated.real**2 + rotated.imag**2) @ diag


def _rotated_cases():
    for n_dim in (2, 3, 5, 61, 127):
        for index in sorted({0, 1, n_dim // 2 + 1, n_dim}):
            yield "haar", n_dim, index
    for index in range(5):
        yield "counterexample", 4, index


@pytest.mark.parametrize("kind,n_dim,index", list(_rotated_cases()))
def test_rotated_expectations_match_the_complex_product(monkeypatch, kind, n_dim, index):
    # small chunks, so that workers=2 really splits the work
    monkeypatch.setattr(streams, "CHUNK_SAMPLES", 300)
    m = 700
    if kind == "haar":
        spec = EnsembleSpec(kind="haar", dimension=n_dim, seed=400 + n_dim)
        # the cosines of m/2 Box-Muller pair blocks are the even states, their sines the odd
        z = np.empty((m, n_dim))
        z[0::2], z[1::2] = streams.standard_normals(streams.stream_key(spec.seed, 1, 2), 0,
                                                    m * n_dim).reshape(2, m // 2, n_dim)
        amps = z / np.linalg.norm(z, axis=1, keepdims=True)
    else:
        spec = EnsembleSpec(kind="counterexample", dimension=4, seed=402, params={"n": 2})
        g = streams.halfint_gamma_matrix(streams.stream_key(spec.seed, 1, 2), 0, m,
                                         counterexample_alphas(2))
        amps = np.zeros((m, 4))
        amps[:, counterexample_support(2)] = np.sqrt(g / g.sum(axis=1, keepdims=True))
    diag = np.random.default_rng(n_dim + index).permutation(np.linspace(0.0, 3.0, n_dim))
    a = EigenAssignment(diag)
    basis = mub_basis(n_dim, index)
    one = generate_expectation_samples(spec, a, basis, m, stream=(1, 2), workers=1)
    two = generate_expectation_samples(spec, a, basis, m, stream=(1, 2), workers=2)
    assert one.tobytes() == two.tobytes()
    ref = _complex_reference(amps, basis.matrix, diag)
    assert np.abs(one - ref).max() <= 1e-13 * diag.max()


@pytest.mark.parametrize("spec,index", [
    (EnsembleSpec(kind="haar", dimension=8, seed=5), None),
    (EnsembleSpec(kind="haar", dimension=61, seed=5), 3),
    (EnsembleSpec(kind="counterexample", dimension=256, seed=5, params={"n": 8}), None),
    (EnsembleSpec(kind="counterexample", dimension=4, seed=5, params={"n": 2}), 2),
    (EnsembleSpec(kind="dirichlet_amplitudes", dimension=5, seed=5,
                  params={"alpha": [0.5, 1.0, 2.5, 40.5, 3.0]}), None),
    (EnsembleSpec(kind="dirichlet_amplitudes", dimension=5, seed=5,
                  params={"alpha": [0.5, 1.0, 2.5, 40.5, 3.0]}), 4),
])
def test_ratio_probes_match_the_normalised_state(spec, index):
    # probe_blocks measures the unnormalised rows of state_blocks as a ratio
    n_dim, m = spec.dimension, 20_000
    diag = np.random.default_rng(n_dim).permutation(np.linspace(0.0, 3.0, n_dim))
    basis = None if index is None else mub_basis(n_dim, index)
    values = probe_blocks(spec, EigenAssignment(diag), basis, (1, 2))(0, m)
    support, states = state_blocks(spec, (1, 2), rotated=basis is not None)
    w = states(0, m)
    if basis is None:
        ref = (w / w.sum(axis=1, keepdims=True)) @ diag[support]
    else:
        psi = w / np.linalg.norm(w, axis=1, keepdims=True)
        ref = np.einsum("ij,ij->i", psi @ _quadratic_form(basis.matrix, support, diag), psi)
    assert np.abs(values - ref).max() <= 1e-15 * diag.max()


def test_raw_basis_must_be_unitary():
    # a basis is checked once, when it is built; sampling checks only its dimension
    with pytest.raises(ValueError, match="not orthonormal"):
        MubBasis(np.array([[1, 1], [0, 1]], dtype=complex), "raw")
    spec = EnsembleSpec(kind="haar", dimension=5, seed=3)
    a = EigenAssignment((0.0, 1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError, match="does not match"):
        generate_expectation_samples(spec, a, mub_basis(3, 1), 10)
