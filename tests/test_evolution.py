import math

import numpy as np
import pytest
from scipy.linalg import expm

from corrnoise.evolution import (
    CoherencePair,
    ProductState,
    ResourceLimitError,
    coherence_spectrum,
    decay_rate,
    drho_dxi,
    evolve,
    ghz_density,
    ghz_pair,
    index_from_pattern,
    pair_density,
    pattern_from_index,
    plus_product,
    random_pure_density,
    rate_derivative_matrix,
    rate_matrix,
    superoperator_matrix,
    superoperator_spectrum,
    validate_density_matrix,
)
from corrnoise.evolution import (
    _RATE_BLOCK,
    _class_rates,
    _class_table,
    _decay_rates,
    _dense_rates,
    _pair_diff,
    _rate_form,
)
from corrnoise.model import DephasingFamily, build_n_qubit, build_single_qubit, build_two_qubit
from corrnoise.optimize import optimal_product_state
from conftest import decay_rate_derivative, with_perturbation

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
        assert CoherencePair((1, 1), (-1, 1)).indices == (0, 2)

    def test_equal_patterns_rejected(self):
        with pytest.raises(ValueError):
            CoherencePair((1, -1), (1, -1))

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            CoherencePair((1, 0), (1, 1))

    def test_ghz_pair_label(self):
        assert ghz_pair(3).label == "000|111"


class TestClassTable:
    @staticmethod
    def digit_oracle(n):
        """The arithmetic construction: row k - 1 of diffs is twice k's balanced-ternary digits by int64 // and %."""
        place = np.arange(n - 1, -1, -1)
        # k + (3^N - 1)/2 = k + 11...1 (base 3) has k's balanced digits plus 1.
        diffs = 2.0 * (np.arange((3**n + 1) // 2, 3**n)[:, None] // 3**place % 3 - 1)
        first = np.stack([(diffs < 0.0) @ 2**place, (diffs > 0.0) @ 2**place], axis=1)
        ternary = ((np.arange(2**n)[:, None] >> place) & 1) @ 3**place
        return diffs, first, ternary

    @staticmethod
    def concatenating_oracle(n):
        """The same lexicographic recursion, one np.column_stack/np.tile per level:
        all(m + 1) = [-2 | all(m)] ++ [0 | all(m)] ++ [+2 | all(m)] and
        classes(m + 1) = [0 | classes(m)] ++ [+2 | all(m)]."""
        digits = np.array([-2, 0, 2], dtype=np.int8)
        every = (np.zeros((1, 0), np.int8), np.zeros(1, np.int64), np.zeros(1, np.int64))
        classes = (np.zeros((0, 0), np.int8), np.zeros(0, np.int64), np.zeros(0, np.int64))
        ternary = np.zeros(1, np.int64)
        for m in range(n):
            (d, ia, ib), (cd, cia, cib), bit = every, classes, 1 << m
            classes = (
                np.column_stack((np.repeat(digits[1:], (len(cd), len(d))), np.concatenate((cd, d)))),
                np.concatenate((cia, ia)),
                np.concatenate((cib, ib + bit)),
            )
            if m + 1 < n:
                every = (
                    np.column_stack((np.repeat(digits, len(d)), np.tile(d, (3, 1)))),
                    np.tile(ia, 3) + np.repeat([bit, 0, 0], len(d)),
                    np.tile(ib, 3) + np.repeat([0, 0, bit], len(d)),
                )
            ternary = np.concatenate((ternary, ternary + 3**m))
        return classes[0], np.column_stack(classes[1:]), ternary

    @pytest.mark.parametrize("n", range(1, 13))
    def test_in_place_build_matches_concatenating_oracle(self, n):
        table = _class_table(n)
        assert not any(arr.flags.writeable for arr in table)
        for got, want in zip(table, self.concatenating_oracle(n)):
            assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, want.flags.c_contiguous)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_digit_oracle(self, n):
        table = _class_table(n)
        assert [arr.dtype for arr in table] == [np.int8, np.int64, np.int64]
        assert not any(arr.flags.writeable for arr in table)
        for got, want in zip(table, self.digit_oracle(n)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


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

    def test_memo_holds_what_one_search_reuses(self):
        # A search at fixed xi reuses its rate matrix and their derivative: two
        # misses, then hits.  A sweep over xi keeps no more than two matrices.
        _dense_rates.cache_clear()
        optimal_product_state(nqb(3), 0.05, "shot")
        info = _dense_rates.cache_info()
        assert (info.misses, info.currsize) == (2, 2) and info.hits > 0
        for xi in np.linspace(0.1, 0.9, 9):
            evolve(ghz_density(3), nqb(3), float(xi), 1.0)
        assert _dense_rates.cache_info().currsize == 2

    def test_class_rates_across_row_blocks_equal_one_row_rates(self, random_real_family):
        # 265,720 classes at N = 12 span 65 row blocks; the classes on both
        # sides of every block boundary carry their one-row rates bit for bit.
        fam, n = random_real_family(12, 12), 12
        diffs, first, _ = _class_table(n)
        assert len(diffs) > 2 * _RATE_BLOCK
        edges = np.arange(_RATE_BLOCK, len(diffs), _RATE_BLOCK)
        sampled = np.unique(np.concatenate([[0, len(diffs) - 1], edges - 1, edges]))
        for xi in (0.0, 0.31):
            rates, slopes = _class_rates(fam, xi), _class_rates(fam, None)
            for k in sampled:
                pair = CoherencePair.from_indices(*map(int, first[k]), n)
                assert rates[k].tobytes() == np.float64(decay_rate(fam, xi, pair)).tobytes()
                assert slopes[k].tobytes() == np.float64(decay_rate_derivative(fam, pair)).tobytes()

    def test_nonnegative_over_families_and_pairs(self):
        for fam in (single(), two(), nqb(3)):
            for xi in (1e-4, 0.1, 0.9):
                assert rate_matrix(fam, xi).min() >= 0.0

    def test_slightly_negative_rate_is_clipped_to_zero(self):
        # C's least eigenvalue is -5e-11, above PSD_EIG_FLOOR = -1e-10, so the
        # family is admitted, and its raw GHZ-class rate (1/4) d^T C d with
        # d = (2, 2) is -1.0e-10.  Every reader of the rate reads exactly +0.0.
        c = [[1, -1 - 5e-11], [-1 - 5e-11, 1]]
        fam, pair = DephasingFamily(2, c, np.zeros((2, 2)), (0, 1)), ghz_pair(2)
        assert _rate_form(fam.coefficient_matrix(0.5), _pair_diff(fam, pair))[0] == pytest.approx(-1e-10, rel=1e-6)
        spectrum, dense = coherence_spectrum(fam, 0.5), rate_matrix(fam, 0.5)
        assert spectrum[0][0] == pair
        for rate in (decay_rate(fam, 0.5, pair), dense[0, 3], dense[3, 0], spectrum.rate[0]):
            assert math.copysign(1.0, rate) == 1.0 and rate == 0.0


class TestDecayRateDerivative:
    def test_bell_pair(self):
        pair = CoherencePair((1, -1), (-1, 1))
        # finite-difference oracle on the xi-linear rate
        h = 1e-6
        fam = two()
        fd = (decay_rate(fam, 0.3 + h, pair) - decay_rate(fam, 0.3 - h, pair)) / (2 * h)
        got = decay_rate_derivative(fam, pair)
        assert got == pytest.approx(2.0, rel=1e-12)
        assert got == pytest.approx(fd, rel=1e-8)

    def test_ghz_pair(self):
        for n in (2, 4, 6):
            got = decay_rate_derivative(nqb(n), ghz_pair(n))
            assert got == pytest.approx(float(n), rel=1e-12)

    def test_zero_perturbation(self):
        fam = with_perturbation(two(), np.zeros((2, 2)), DOMAIN)
        for pair in (CoherencePair((1, -1), (-1, 1)), CoherencePair((1, 1), (-1, -1))):
            assert decay_rate_derivative(fam, pair) == 0.0


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

    def test_decayed_terms_past_the_float_range_are_zero(self):
        # t rate' overflows where exp(-rate t) is 0 (the GHZ class, rate' = 3 at
        # t = 1e308): the term is 0, not inf * 0 = nan, and no numpy warning
        # fires (an error under the test filter).
        fam = build_n_qubit(3, DOMAIN)
        rho = plus_product(3).density()
        assert 1e308 * float(rate_derivative_matrix(fam).max()) == math.inf
        out = drho_dxi(rho, fam, 0.01, 1e308)
        assert np.all(out == 0.0)
        # A stack keeps the bits of a state whose terms stay finite.
        stacked = drho_dxi(np.stack([rho, rho]), fam, 0.01, np.array([1e308, 1e-10]))
        assert np.all(stacked[0] == 0.0)
        assert np.any(stacked[1] != 0.0)
        assert stacked[1].tobytes() == drho_dxi(rho, fam, 0.01, 1e-10).tobytes()


class TestGeneratorRoute:
    """Propagation against its defining generator: expm of the dense superoperator."""

    @staticmethod
    def generator_evolve(rho, family, xi, t):
        # superoperator_matrix acts on column-stacked operators.
        out = expm(superoperator_matrix(family, xi) * t) @ rho.flatten(order="F")
        return out.reshape(rho.shape, order="F")

    def test_evolve_and_derivative_match_expm(self, random_real_family):
        rng = np.random.default_rng(31)
        fams = [single(), two(), nqb(3), random_real_family(2, 7), random_real_family(3, 8)]
        h = 1e-5
        for fam in fams:
            dim = 2**fam.n_qubits
            for xi in (0.05, 0.3):
                for t in (0.1, 2.0):
                    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
                    route = self.generator_evolve(rho, fam, xi, t)
                    assert np.max(np.abs(evolve(rho, fam, xi, t) - route)) <= 1e-12
                    up, down = (self.generator_evolve(rho, fam, xi + s, t) for s in (h, -h))
                    fd = (up - down) / (2 * h)
                    exact = drho_dxi(rho, fam, xi, t)
                    assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))


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

    @staticmethod
    def argsort_oracle(family, xi):
        """The float-sort construction: int64 triu_indices, class-rate gather, stable argsort of the rates."""
        diffs, _, ternary = _class_table(family.n_qubits)
        ia, ib = np.triu_indices(2**family.n_qubits, k=1)
        vals = _decay_rates(family, xi, diffs)[ternary[ib] - ternary[ia] - 1]
        order = np.argsort(vals, kind="stable")
        return ia[order], ib[order], vals[order]

    def assert_matches_argsort_oracle(self, family, xi):
        spec = coherence_spectrum(family, xi)
        ia, ib, rate = self.argsort_oracle(family, xi)
        n = family.n_qubits
        for arr in (spec.alpha_index, spec.beta_index):
            assert arr.dtype == (np.uint8 if n <= 8 else np.uint16)
        assert np.array_equal(spec.alpha_index, ia)
        assert np.array_equal(spec.beta_index, ib)
        assert np.array_equal(spec.rate.view(np.uint64), rate.view(np.uint64))

    @pytest.mark.parametrize("family", ["single", "two"] + [f"nqb{n}" for n in range(2, 10)])
    def test_rank_sort_matches_argsort_oracle(self, family):
        fam = {"single": single, "two": two}.get(family, lambda: nqb(int(family[3:])))()
        for xi in (1e-3, 0.047, 0.5):
            self.assert_matches_argsort_oracle(fam, xi)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_rank_sort_matches_argsort_oracle_on_random_families(self, n, random_real_family):
        # Many distinct class rates (from n = 6 more than 256, so a 16-bit rank key).
        for seed in (n, 100 + n):
            for xi in (0.0, 0.31, 1.0):
                self.assert_matches_argsort_oracle(random_real_family(n, seed), xi)

    def test_rank_sort_with_a_32_bit_key(self, random_real_family):
        # 88,573 distinct class rates: the rank key no longer fits 16 bits.
        self.assert_matches_argsort_oracle(random_real_family(11, 11), 0.31)

    def test_dense_rates_agree_with_class_rates(self, random_real_family):
        # Per-pair loop oracle (1/4) sum_jl d_j d_l C_jl, summed exactly by
        # fsum: every pair for N <= 5, seeded pairs above.  The dense matrices
        # gather the class rates, so they equal the spectrum's rates bitwise.
        rng = np.random.default_rng(29)
        fams = [single(), two()] + [nqb(n) for n in range(2, 9)] + [random_real_family(n, n) for n in (3, 5)]
        for fam in fams:
            n = fam.n_qubits
            if n <= 5:
                ia, ib = np.triu_indices(2**n, k=1)
            else:
                ia, ib = rng.integers(0, 2**n, size=(2, 200))
            patterns = [np.array(pattern_from_index(i, n)) for i in range(2**n)]

            def loop_rates(matrix):
                out = []
                for a, b in zip(ia, ib):
                    d = patterns[a] - patterns[b]
                    terms = (matrix[j, l].real * d[j] * d[l] for j in range(n) for l in range(n))
                    out.append(0.25 * math.fsum(terms))
                return np.array(out)

            for xi in (1e-3, 0.01, 0.3, 0.9):
                dense = rate_matrix(fam, xi)
                rates = loop_rates(fam.coefficient_matrix(xi))
                assert np.max(np.abs(dense[ia, ib] - rates)) <= 1e-15 * rates.max()
                assert np.all(np.diagonal(dense) == 0.0)
                spectrum = coherence_spectrum(fam, xi)
                assert np.array_equal(dense[spectrum.alpha_index, spectrum.beta_index], spectrum.rate)
            derivs = loop_rates(fam.delta_c)
            assert np.max(np.abs(rate_derivative_matrix(fam)[ia, ib] - derivs)) <= 1e-15 * max(
                np.max(np.abs(derivs)), 1.0
            )


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
        state = ProductState((np.pi / 2, 0.0))
        vec = state.statevector()
        assert vec == pytest.approx(np.array([1, 0, 1, 0]) / np.sqrt(2))

    def test_statevector_matches_kron_chain_bitwise(self):
        def kron_reference(thetas):
            vec = np.array([1.0])
            for theta in thetas:
                vec = np.kron(vec, np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)]))
            return vec

        rng = np.random.default_rng(31)
        for n in range(1, 9):
            for _ in range(10):
                thetas = tuple(rng.uniform(0.0, np.pi, size=n))
                got, expected = ProductState(thetas).statevector(), kron_reference(thetas)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            ProductState((4.0,))
        with pytest.raises(ValueError):
            ProductState(())

    def test_pair_density_is_valid_state(self):
        rho = pair_density(ghz_pair(3))
        validate_density_matrix(rho)
        assert rho[0, 7] == pytest.approx(0.5)

    def test_validate_density_matrix_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            validate_density_matrix(np.array([[0.5, 0.5], [0.2, 0.5]]))
