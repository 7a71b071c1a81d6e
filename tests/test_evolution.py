import numpy as np
import pytest

from corrnoise.evolution import (
    CoherencePair,
    ProductState,
    ResourceLimitError,
    coherence_spectrum,
    decay_rate,
    decay_rate_derivative,
    drho_dxi,
    evolve,
    ghz_pair,
    index_from_pattern,
    pair_density,
    pattern_from_index,
    plus_product,
    random_pure_density,
    rate_derivative_matrix,
    rate_matrix,
    superoperator_spectrum,
    validate_density_matrix,
)
from corrnoise.model import build_n_qubit, build_single_qubit, build_two_qubit, with_perturbation

DOMAIN = (1e-6, 1.0)


def single():
    return build_single_qubit(DOMAIN)


def two():
    return build_two_qubit(DOMAIN)


def nqb(n):
    return build_n_qubit(n, DOMAIN)


def superoperator_rate_oracle(family, xi, pair):
    """Independent oracle: the decay rate of |alpha><beta| is the negated
    eigenvalue of the vectorized generator; each rate appears twice."""
    vals = superoperator_spectrum(family, xi)
    assert np.max(np.abs(vals.imag)) < 1e-10
    rates = np.sort(-vals.real)
    target = None
    # the rate matrix entry is indexed by the pair's basis indices; read that
    # entry directly from the diagonal superoperator action on the unit matrix
    ia, ib = pair.indices
    dim = 2 ** family.n_qubits
    basis_op = np.zeros((dim, dim))
    basis_op[ia, ib] = 1.0
    from corrnoise.evolution import superoperator_matrix

    sup = superoperator_matrix(family, xi)
    vec = basis_op.flatten(order="F")
    out = sup @ vec
    # |alpha><beta| must be an eigenvector
    nz = np.abs(vec) > 0
    target = float(np.real(out[nz][0] / vec[nz][0]))
    residual = np.max(np.abs(out - target * vec))
    assert residual < 1e-12
    return -target


class TestPatternsAndPairs:
    def test_pattern_roundtrip(self):
        for n in (1, 2, 4):
            for i in range(2**n):
                assert index_from_pattern(pattern_from_index(i, n)) == i

    def test_zero_state_is_all_plus(self):
        assert pattern_from_index(0, 3) == (1, 1, 1)
        assert pattern_from_index(7, 3) == (-1, -1, -1)

    def test_canonical_order_enforced(self):
        with pytest.raises(ValueError):
            CoherencePair((-1, 1), (1, 1))
        pair = CoherencePair.canonical((-1, 1), (1, 1))
        assert pair.alpha == (1, 1)

    def test_equal_patterns_rejected(self):
        with pytest.raises(ValueError):
            CoherencePair((1, -1), (1, -1))

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            CoherencePair((1, 0), (1, 1))

    def test_ghz_pair_label(self):
        assert ghz_pair(3).label == "000|111"


class TestDecayRate:
    def test_two_qubit_antisymmetric_pair(self):
        # alpha=(+1,-1) is |01>, beta=(-1,+1) is |10>
        pair = CoherencePair((1, -1), (-1, 1))
        xi = 0.17
        got = decay_rate(two(), xi, pair)
        assert got == pytest.approx(2.0 * xi, rel=1e-12)
        assert got == pytest.approx(superoperator_rate_oracle(two(), xi, pair), rel=1e-10)

    def test_two_qubit_symmetric_pair(self):
        pair = CoherencePair((1, 1), (-1, -1))
        xi = 0.17
        got = decay_rate(two(), xi, pair)
        assert got == pytest.approx(4.0 - 2.0 * xi, rel=1e-12)
        assert got == pytest.approx(superoperator_rate_oracle(two(), xi, pair), rel=1e-10)

    def test_nqubit_ghz_rate(self):
        for n in (2, 3, 4, 6):
            xi = 0.05
            got = decay_rate(nqb(n), xi, ghz_pair(n))
            assert got == pytest.approx(n * xi, rel=1e-12)
        # cross-check against the vectorized-generator oracle at N=3
        got = decay_rate(nqb(3), 0.05, ghz_pair(3))
        assert got == pytest.approx(superoperator_rate_oracle(nqb(3), 0.05, ghz_pair(3)), rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decay_rate(two(), 0.1, ghz_pair(3))

    def test_equal_content_families_share_one_cached_matrix(self):
        assert rate_matrix(nqb(3), 0.1) is rate_matrix(nqb(3), 0.1)
        assert rate_derivative_matrix(nqb(3)) is rate_derivative_matrix(nqb(3))
        assert rate_matrix(nqb(3), 0.1) is not rate_matrix(nqb(3), 0.2)

    def test_nonnegative_over_families_and_pairs(self):
        for fam in (single(), two(), nqb(3)):
            for xi in (1e-4, 0.1, 0.9):
                assert rate_matrix(fam, xi).min() >= 0.0


class TestDecayRateDerivative:
    def test_bell_pair(self):
        pair = CoherencePair((1, -1), (-1, 1))
        # finite-difference oracle on the xi-linear rate
        h = 1e-6
        fam = two()
        fd = (decay_rate(fam, 0.3 + h, pair) - decay_rate(fam, 0.3 - h, pair)) / (2 * h)
        got = decay_rate_derivative(fam, 0.3, pair)
        assert got == pytest.approx(2.0, rel=1e-12)
        assert got == pytest.approx(fd, rel=1e-8)

    def test_ghz_pair(self):
        for n in (2, 4, 6):
            got = decay_rate_derivative(nqb(n), 0.2, ghz_pair(n))
            assert got == pytest.approx(float(n), rel=1e-12)

    def test_zero_perturbation(self):
        fam = with_perturbation(two(), np.zeros((2, 2)), DOMAIN)
        for pair in (CoherencePair((1, -1), (-1, 1)), CoherencePair((1, 1), (-1, -1))):
            assert decay_rate_derivative(fam, 0.2, pair) == 0.0


class TestEvolve:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(1)
        rho = random_pure_density(2, rng)
        out = evolve(rho, two(), 0.3, 0.0)
        assert np.array_equal(out, rho)

    def test_single_qubit_plus_state(self):
        xi, t = 0.4, 1.7
        rho = plus_product(1).density()
        out = evolve(rho, single(), xi, t)
        assert out[0, 1] == pytest.approx(0.5 * np.exp(-xi * t), rel=1e-12)
        assert out[0, 0] == rho[0, 0]

    def test_diagonal_states_are_fixed_points(self):
        rho = np.diag([0.25, 0.25, 0.3, 0.2])
        for t in (0.1, 1.0, 50.0):
            assert np.array_equal(evolve(rho, two(), 0.2, t), rho)

    def test_trace_and_diagonal_exact(self):
        rng = np.random.default_rng(2)
        for fam in (two(), nqb(3)):
            rho = random_pure_density(fam.n_qubits, rng)
            out = evolve(rho, fam, 0.05, 2.3)
            assert np.max(np.abs(np.diagonal(out) - np.diagonal(rho))) <= 1e-14
            assert abs(np.trace(out) - np.trace(rho)) <= 1e-14

    def test_semigroup(self):
        rng = np.random.default_rng(3)
        for fam in (single(), two(), nqb(3)):
            rho = random_pure_density(fam.n_qubits, rng)
            t1, t2 = 0.37, 1.21
            once = evolve(rho, fam, 0.07, t1 + t2)
            twice = evolve(evolve(rho, fam, 0.07, t1), fam, 0.07, t2)
            assert np.max(np.abs(once - twice)) <= 1e-12

    def test_positivity_witness(self):
        rng = np.random.default_rng(4)
        for fam in (single(), two(), nqb(3)):
            for _ in range(100):
                rho = random_pure_density(fam.n_qubits, rng)
                out = evolve(rho, fam, 0.03, float(rng.uniform(0.0, 10.0)))
                assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] >= -1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve(np.eye(2) / 2, single(), 0.1, -1.0)


class TestDrhoDxi:
    def test_zero_time(self):
        rho = plus_product(2).density()
        assert np.all(drho_dxi(rho, two(), 0.2, 0.0) == 0.0)

    def test_single_qubit_closed_form(self):
        xi, t = 0.3, 0.9
        rho = plus_product(1).density()
        out = drho_dxi(rho, single(), xi, t)
        assert out[0, 1] == pytest.approx(-0.5 * t * np.exp(-xi * t), rel=1e-12)
        assert out[0, 0] == 0.0
        assert abs(np.trace(out)) == 0.0

    def test_matches_central_difference(self):
        # central-difference oracle, h = 1e-5
        rng = np.random.default_rng(5)
        h = 1e-5
        for fam in (two(), nqb(3)):
            rho = random_pure_density(fam.n_qubits, rng)
            xi, t = 0.2, 1.3
            exact = drho_dxi(rho, fam, xi, t)
            fd = (evolve(rho, fam, xi + h, t) - evolve(rho, fam, xi - h, t)) / (2 * h)
            assert np.max(np.abs(exact - fd)) < 1e-8


class TestCoherenceSpectrum:
    def test_single_qubit_has_one_pair(self):
        xi = 0.23
        spec = coherence_spectrum(single(), xi)
        assert len(spec) == 1
        pair, rate = spec[0]
        assert pair.label == "0|1"
        assert rate == pytest.approx(xi, rel=1e-12)

    def test_two_qubit_full_rate_set(self):
        # enumeration oracle: rates recomputed pair by pair via decay_rate
        xi = 0.2
        spec = coherence_spectrum(two(), xi)
        assert len(spec) == 6
        for pair, rate in spec:
            assert rate == pytest.approx(decay_rate(two(), xi, pair), abs=1e-14)
        rates = sorted(r for _, r in spec)
        expected = sorted([2 * xi, 1.0, 1.0, 1.0, 1.0, 4 - 2 * xi])
        assert rates == pytest.approx(expected)

    def test_sorted_ascending_with_lexicographic_ties(self):
        spec = coherence_spectrum(two(), 0.2)
        rates = [r for _, r in spec]
        assert rates == sorted(rates)
        ties = [p.indices for p, r in spec if r == pytest.approx(1.0)]
        assert ties == sorted(ties)

    def test_n6_minimum_is_ghz_pair(self):
        spec = coherence_spectrum(nqb(6), 0.01)
        pair, rate = spec[0]
        assert pair == ghz_pair(6)
        assert rate == pytest.approx(0.06, rel=1e-12)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            coherence_spectrum(build_n_qubit(13, DOMAIN), 0.1)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_read_only_arrays_and_pairs_on_demand(self, n):
        fam = single() if n == 1 else nqb(n)
        spec = coherence_spectrum(fam, 0.03)
        assert len(spec) == 2**n * (2**n - 1) // 2
        for arr in (spec.alpha_index, spec.beta_index, spec.rate):
            assert len(arr) == len(spec)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert np.all(spec.alpha_index < spec.beta_index)
        entries = list(spec)
        assert spec[-1] == entries[-1]
        for k, (pair, rate) in enumerate(entries):
            assert pair.indices == (spec.alpha_index[k], spec.beta_index[k])
            assert rate == spec.rate[k]

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_pairs_of_one_difference_class_tie_exactly_in_order(self, n):
        # Rates depend on a pair only through d = alpha - beta: every pair of
        # one class must carry the same float and be listed lexicographically.
        for xi in (0.01, 0.2, 0.7):
            classes = {}
            for position, (pair, rate) in enumerate(coherence_spectrum(nqb(n), xi)):
                d = tuple(a - b for a, b in zip(pair.alpha, pair.beta))
                classes.setdefault(d, []).append((position, pair.indices, rate))
            for members in classes.values():
                assert len({rate for _, _, rate in members}) == 1
                assert [idx for _, idx, _ in members] == sorted(idx for _, idx, _ in members)

    def test_dense_rates_agree_with_class_rates(self, random_complex_family):
        # rate_matrix keeps its own S C S^T expansion for propagation; it
        # must agree with the per-pair rate form up to rounding.
        fams = [single(), two()] + [nqb(n) for n in range(2, 9)] + [random_complex_family(n, n) for n in (3, 5)]
        for fam in fams:
            n = fam.n_qubits
            for xi in (1e-3, 0.01, 0.3, 0.9):
                spectrum = coherence_spectrum(fam, xi)
                ia, ib = np.array([pair.indices for pair, _ in spectrum]).T
                rates = np.array([rate for _, rate in spectrum])
                dense = rate_matrix(fam, xi)[ia, ib]
                assert np.max(np.abs(dense - rates)) <= 1e-15 * rates.max()
            if n <= 5:
                derivs = rate_derivative_matrix(fam)[ia, ib]
                per_pair = np.array([decay_rate_derivative(fam, 0.3, pair) for pair, _ in spectrum])
                assert np.max(np.abs(derivs - per_pair)) <= 1e-15 * max(np.max(np.abs(per_pair)), 1.0)


class TestSuperoperator:
    def test_single_qubit_spectrum(self):
        xi = 0.3
        vals = superoperator_spectrum(single(), xi)
        assert np.max(np.abs(vals.imag)) < 1e-12
        assert np.sort(vals.real) == pytest.approx([-xi, -xi, 0.0, 0.0], abs=1e-12)

    def test_two_qubit_contains_bell_rate_twice(self):
        xi = 0.11
        vals = np.sort(superoperator_spectrum(two(), xi).real)
        count = np.sum(np.abs(vals + 2 * xi) < 1e-10)
        assert count == 2

    def test_zero_perturbation_spectrum_is_xi_independent(self):
        fam = with_perturbation(two(), np.zeros((2, 2)), (0.1, 0.9))
        a = np.sort(superoperator_spectrum(fam, 0.1).real)
        b = np.sort(superoperator_spectrum(fam, 0.9).real)
        assert a == pytest.approx(b, abs=1e-12)

    def test_multiplicity_pattern_all_small_families(self):
        # {0 with multiplicity 2^N} union {-rate twice for each canonical pair}
        for fam in (single(), two(), nqb(3)):
            xi = 0.07
            expected = [0.0] * 2**fam.n_qubits
            for _, rate in coherence_spectrum(fam, xi):
                expected.extend([-rate, -rate])
            got = superoperator_spectrum(fam, xi)
            assert np.max(np.abs(got.imag)) < 1e-10
            assert np.max(np.abs(np.sort(got.real) - np.sort(expected))) < 1e-10

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            superoperator_spectrum(nqb(4), 0.1)


class TestStates:
    def test_product_state_vector(self):
        state = ProductState.polar((np.pi / 2, 0.0))
        vec = state.statevector()
        assert vec == pytest.approx(np.array([1, 0, 1, 0]) / np.sqrt(2))

    def test_statevector_matches_kron_chain_bitwise(self):
        def kron_reference(state):
            real = all(p == 0.0 for p in state.phis)
            vec = np.array([1.0], dtype=np.float64 if real else np.complex128)
            for theta, phi in zip(state.thetas, state.phis):
                amp1 = np.sin(theta / 2.0) * (1.0 if real else np.exp(1j * phi))
                vec = np.kron(vec, np.array([np.cos(theta / 2.0), amp1]))
            return vec

        rng = np.random.default_rng(31)
        for n in range(1, 9):
            for _ in range(10):
                thetas = tuple(rng.uniform(0.0, np.pi, size=n))
                for phis in ((0.0,) * n, tuple(rng.uniform(0.0, 2.0 * np.pi, size=n))):
                    state = ProductState(thetas, phis)
                    got, expected = state.statevector(), kron_reference(state)
                    assert got.dtype == expected.dtype
                    assert np.array_equal(got, expected)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            ProductState.polar((4.0,))
        with pytest.raises(ValueError):
            ProductState((np.pi / 2,), (7.0,))

    def test_pair_density_is_valid_state(self):
        rho = pair_density(ghz_pair(3))
        validate_density_matrix(rho)
        assert rho[0, 7] == pytest.approx(0.5)

    def test_phase_gives_complex_vector(self):
        state = ProductState((np.pi / 2,), (np.pi / 3,))
        vec = state.statevector()
        assert np.iscomplexobj(vec)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_validate_density_matrix_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            validate_density_matrix(np.array([[0.5, 0.5], [0.2, 0.5]]))
