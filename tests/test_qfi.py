import math

import numpy as np
import pytest

from corrnoise.evolution import (
    CoherencePair,
    ProductState,
    evolve,
    ghz_density,
    ghz_pair,
    pair_density,
    pair_state,
    plus_product,
    random_pure_density,
    random_pure_state,
    rate_matrix,
)
from corrnoise.model import DephasingFamily, build_n_qubit, build_single_qubit, build_two_qubit, with_perturbation
from corrnoise.qfi import (
    DivergentQfiError,
    ExtrapolationError,
    bures_distance_sq,
    coherence_pair_qfi_shot,
    coherence_pair_qfi_shot_peak,
    coherence_pair_qfi_timeavg,
    fidelity,
    hermitian_eig,
    qfi_exact,
    qfi_exact_value,
    qfi_fidelity_check,
    shot_optimum_value,
    shot_optimum_x,
    time_averaged_qfi,
    time_averaged_qfi_limit,
    time_averaged_qfi_limit_pure,
)

DOMAIN = (1e-6, 1.0)


def single():
    return build_single_qubit(DOMAIN)


def two():
    return build_two_qubit(DOMAIN)


def single_qubit_qfi_oracle(xi, t, gamma=1.0):
    """Closed-form per-shot QFI of |+> under single-qubit rate estimation."""
    x = gamma * xi * t
    return (gamma * t) ** 2 * math.exp(-2 * x) / (1.0 - math.exp(-2 * x))


def dephased_fidelity_oracle(a, b):
    """2x2 analytic fidelity between |+> states dephased by factors a and b."""
    return 0.5 * (1 + math.exp(-a - b)) + 0.5 * math.sqrt((1 - math.exp(-2 * a)) * (1 - math.exp(-2 * b)))


class TestHermitianEig:
    def test_scaled_identity(self):
        dec = hermitian_eig(np.eye(2) / 2)
        assert dec.eigenvalues == pytest.approx([0.5, 0.5])

    def test_projector(self):
        dec = hermitian_eig(0.5 * np.ones((2, 2)))
        assert dec.eigenvalues == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_reconstruction_residual_dim64(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        m = 0.5 * (a + a.conj().T)
        dec = hermitian_eig(m)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(recon - m)) <= 1e-10 * max(1.0, np.max(np.abs(m)))
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(64))) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(8)
        rho = random_pure_density(2, rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_dephased_pair_closed_form(self):
        fam = single()
        rho0 = plus_product(1).density()
        a, b = 0.7, 1.9
        rho = evolve(rho0, fam, 0.5, a / 0.5)
        sigma = evolve(rho0, fam, 0.5, b / 0.5)
        assert fidelity(rho, sigma) == pytest.approx(dephased_fidelity_oracle(a, b), rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        rho = evolve(random_pure_density(2, rng), two(), 0.2, 0.7)
        sigma = evolve(random_pure_density(2, rng), two(), 0.2, 1.9)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(2) / 2, np.eye(4) / 4)


class TestBures:
    def test_zero_distance(self):
        rho = np.diag([0.3, 0.7])
        assert bures_distance_sq(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert bures_distance_sq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(2.0)

    def test_algebraic_identity_with_fidelity(self):
        rng = np.random.default_rng(10)
        rho = evolve(random_pure_density(2, rng), two(), 0.3, 0.5)
        sigma = evolve(random_pure_density(2, rng), two(), 0.3, 2.5)
        lhs = 8.0 * (1.0 - math.sqrt(fidelity(rho, sigma)))
        assert lhs == pytest.approx(4.0 * bures_distance_sq(rho, sigma), rel=1e-12)

    def test_triangle_inequality_for_d(self):
        rng = np.random.default_rng(11)
        rho0 = random_pure_density(2, rng)
        a = evolve(rho0, two(), 0.2, 0.3)
        b = evolve(rho0, two(), 0.2, 1.0)
        c = evolve(rho0, two(), 0.2, 3.0)
        dab = math.sqrt(bures_distance_sq(a, b))
        dbc = math.sqrt(bures_distance_sq(b, c))
        dac = math.sqrt(bures_distance_sq(a, c))
        assert dac <= dab + dbc + 1e-12


class TestQfiExact:
    def test_single_qubit_closed_form(self):
        fam = single()
        rho = plus_product(1).density()
        for xi in (0.05, 0.3):
            for t in (0.2, 1.0, 5.0):
                got = qfi_exact_value(rho, fam, xi, t)
                assert got == pytest.approx(single_qubit_qfi_oracle(xi, t), rel=1e-10)

    def test_zero_perturbation_gives_zero(self):
        fam = with_perturbation(two(), np.zeros((2, 2)), (0.1, 0.9))
        rho = plus_product(2).density()
        assert qfi_exact_value(rho, fam, 0.5, 1.0) == 0.0

    def test_n6_ghz_peak_value(self, x_star):
        # oracle: x* from bisection; peak = (G'/G)^2 x* e^{-2 x*} at t = x*/G
        fam = build_n_qubit(6, DOMAIN)
        xi = 0.01
        rate = 6 * xi
        t = x_star / rate
        expected = (1.0 / xi) ** 2 * x_star * math.exp(-2 * x_star)
        got = qfi_exact_value(ghz_density(6), fam, xi, t)
        assert got == pytest.approx(expected, rel=1e-3)
        assert got == pytest.approx(0.1619 / xi**2, rel=1e-3)

    def test_result_wrapper(self):
        res = qfi_exact(plus_product(1).density(), single(), 0.1, 1.0)
        assert res.regime == "per_shot"
        assert res.time == 1.0
        assert res.probe.startswith("state:")

    def test_preconditions(self):
        rho = plus_product(1).density()
        with pytest.raises(ValueError):
            qfi_exact_value(rho, single(), 0.1, 0.0)
        with pytest.raises(ValueError):
            qfi_exact_value(rho, single(), 1e-6, 1.0)  # boundary, not interior


class TestQfiFidelityCheck:
    def test_matches_closed_form(self):
        fam = single()
        rho = plus_product(1).density()
        xi, t = 0.1, 2.0
        got = qfi_fidelity_check(rho, fam, xi, t)
        assert got == pytest.approx(single_qubit_qfi_oracle(xi, t), rel=1e-3)

    def test_richardson_extrapolation_tightens(self):
        # halving the step and extrapolating kills the O(dxi) error
        fam = single()
        rho = plus_product(1).density()
        xi, t = 0.1, 2.0
        exact = qfi_exact_value(rho, fam, xi, t)
        f1 = qfi_fidelity_check(rho, fam, xi, t, dxi=1e-4 * xi)
        f2 = qfi_fidelity_check(rho, fam, xi, t, dxi=5e-5 * xi)
        extrapolated = 2.0 * f2 - f1
        assert extrapolated == pytest.approx(exact, rel=1e-5)

    def test_zero_perturbation(self):
        fam = with_perturbation(two(), np.zeros((2, 2)), (0.1, 0.9))
        rho = plus_product(2).density()
        assert abs(qfi_fidelity_check(rho, fam, 0.5, 1.0)) < 1e-10

    def test_step_outside_domain_rejected(self):
        fam = build_single_qubit((0.05, 0.1))
        rho = plus_product(1).density()
        with pytest.raises(ValueError):
            qfi_fidelity_check(rho, fam, 0.09999, 1.0, dxi=1e-3)


class TestTimeAveraged:
    def test_single_qubit_formula(self):
        fam = single()
        rho = plus_product(1).density()
        xi, t = 0.2, 1.4
        got = time_averaged_qfi(rho, fam, xi, t)
        expected = single_qubit_qfi_oracle(xi, t) / t
        assert got.value == pytest.approx(expected, rel=1e-10)
        assert got.regime == "time_averaged"

    def test_limit_reproduces_small_t(self):
        fam = single()
        rho = plus_product(1).density()
        xi = 0.1
        limit = time_averaged_qfi_limit(rho, fam, xi)
        assert limit.value == pytest.approx(0.5 / xi, rel=1e-6)
        assert limit.time == 0.0

    def test_long_time_decays_to_zero(self):
        fam = single()
        rho = plus_product(1).density()
        assert time_averaged_qfi(rho, fam, 0.2, 500.0).value < 1e-30

    def test_limit_closed_forms(self):
        xi = 0.1
        assert time_averaged_qfi_limit(plus_product(1).density(), single(), xi).value == pytest.approx(
            5.0, rel=1e-6
        )
        bell = pair_density(CoherencePair.from_indices(1, 2, 2))
        assert time_averaged_qfi_limit(bell, two(), xi).value == pytest.approx(10.0, rel=1e-6)
        fam4 = build_n_qubit(4, DOMAIN)
        assert time_averaged_qfi_limit(ghz_density(4), fam4, xi).value == pytest.approx(20.0, rel=1e-6)

    def test_zero_perturbation_limit_is_zero(self):
        fam = with_perturbation(two(), np.zeros((2, 2)), (0.1, 0.9))
        res = time_averaged_qfi_limit(plus_product(2).density(), fam, 0.5)
        assert res.value == 0.0

    def test_nonconvergence_carries_sequence(self):
        # with only two levels the diagonal cannot reach the tolerance; the
        # error must expose the extrapolant sequence
        rho = plus_product(1).density()
        with pytest.raises(ExtrapolationError) as err:
            time_averaged_qfi_limit(rho, single(), 0.1, levels=2)
        assert len(err.value.extrapolants) == 2


def family_n(n):
    return two() if n == 2 else build_n_qubit(n, DOMAIN)


def richardson_oracle(rho, family, xi):
    """Richardson limit and the tolerance it supports.

    At small xi Richardson sometimes stops short of its 1e-6 target on
    asymmetric product probes; its last extrapolant is then good to ~1e-5.
    """
    try:
        return time_averaged_qfi_limit(rho, family, xi).value, 1e-6
    except ExtrapolationError as exc:
        return exc.extrapolants[-1], 1e-5


class TestPureProbeLimit:
    def test_random_pure_states_match_richardson(self):
        rng = np.random.default_rng(21)
        for n in range(2, 7):
            fam = family_n(n)
            for xi in (1e-2, 1e-1):
                psi = random_pure_state(n, rng)
                exact = time_averaged_qfi_limit_pure(psi, fam, xi)
                oracle, rtol = richardson_oracle(np.outer(psi, psi.conj()), fam, xi)
                assert exact.value == pytest.approx(oracle, rel=rtol)
                assert exact.regime == "time_averaged" and exact.time == 0.0

    def test_product_probes_match_richardson_and_statevector_route(self):
        rng = np.random.default_rng(22)
        for n in range(2, 7):
            fam = family_n(n)
            for xi in (1e-2, 1e-1):
                for phis in ((0.0,) * n, tuple(rng.uniform(0.0, 2.0 * np.pi, size=n))):
                    probe = ProductState(tuple(rng.uniform(0.0, np.pi, size=n)), phis)
                    exact = time_averaged_qfi_limit_pure(probe, fam, xi)
                    assert exact.probe == probe
                    via_vector = time_averaged_qfi_limit_pure(probe.statevector(), fam, xi).value
                    assert exact.value == pytest.approx(via_vector, rel=1e-10)
                    oracle, rtol = richardson_oracle(probe.density(), fam, xi)
                    assert exact.value == pytest.approx(oracle, rel=rtol)

    def test_complex_hermitian_family_matches_richardson(self):
        rng = np.random.default_rng(23)
        base = build_n_qubit(3, DOMAIN)
        delta = base.delta_c + 0.05j * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
        fam = with_perturbation(base, delta, DOMAIN)
        for xi in (1e-2, 1e-1):
            psi = random_pure_state(3, rng)
            exact = time_averaged_qfi_limit_pure(psi, fam, xi).value
            oracle, rtol = richardson_oracle(np.outer(psi, psi.conj()), fam, xi)
            assert exact == pytest.approx(oracle, rel=rtol)

    def test_pair_states_match_pair_closed_form(self):
        for fam, xi in ((two(), 0.07), (build_n_qubit(3, DOMAIN), 0.03), (build_n_qubit(4, DOMAIN), 0.2)):
            n = fam.n_qubits
            for ia in range(2**n):
                for ib in range(ia + 1, 2**n):
                    pair = CoherencePair.from_indices(ia, ib, n)
                    expected = coherence_pair_qfi_timeavg(fam, xi, pair).value
                    got = time_averaged_qfi_limit_pure(pair_state(pair), fam, xi).value
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_z_eigenstates_give_zero(self):
        fam = build_n_qubit(4, DOMAIN)
        probe = ProductState.polar((0.0, np.pi, np.pi, 0.0))
        assert time_averaged_qfi_limit_pure(probe, fam, 0.03).value == 0.0
        assert time_averaged_qfi_limit_pure(probe.statevector(), fam, 0.03).value == 0.0

    def test_zero_perturbation_gives_zero(self):
        fam = with_perturbation(two(), np.zeros((2, 2)), (0.1, 0.9))
        assert time_averaged_qfi_limit_pure(plus_product(2), fam, 0.5).value == 0.0

    def test_dark_coherence_reported_divergent(self):
        # C(xi) = xi * I on [0, 1]: nothing decays at xi = 0, yet dC = I
        fam = DephasingFamily(2, 1.0, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
        with pytest.raises(DivergentQfiError):
            time_averaged_qfi_limit_pure(ProductState.polar((1.0, 2.0)), fam, 0.0)
        with pytest.raises(DivergentQfiError):
            time_averaged_qfi_limit_pure(pair_state(CoherencePair((1, 1), (1, -1))), fam, 0.0)

    def test_direct_ratio_approaches_closed_form_at_small_xi(self):
        # Richardson stops short here; the direct F(t)/t keeps closing in on
        # the exact limit as t falls.
        fam, xi = two(), 1e-3
        probe = ProductState.polar((1.0, 2.0))
        exact = time_averaged_qfi_limit_pure(probe, fam, xi).value
        gaps = [abs(qfi_exact_value(probe.density(), fam, xi, t) / t - exact) for t in (1e-4, 1e-5, 1e-6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3 * exact

    def test_input_validation(self):
        fam = two()
        with pytest.raises(ValueError):
            time_averaged_qfi_limit_pure(plus_product(3), fam, 0.1)
        with pytest.raises(ValueError):
            time_averaged_qfi_limit_pure(np.ones(4), fam, 0.1)
        with pytest.raises(ValueError):
            time_averaged_qfi_limit_pure(np.ones(8) / np.sqrt(8), fam, 0.1)
        with pytest.raises(ValueError):
            time_averaged_qfi_limit_pure(plus_product(2), fam, 2.0)


class TestSldKernel:
    """One relative kernel policy for every SLD sum, per shot and in the t -> 0+ limit."""

    # Two-qubit family, xi = 1e-3: the O(t) eigenvalues of this product probe
    # are 3.5e-5 t and 0.07 t.  At t = 1e-8 the smaller sits below an absolute
    # 1e-12 cutoff but above 1e-13 of the largest; at t = 1e-9 below both.
    XI = 1e-3
    PROBE = ProductState.polar((0.3, 2.9))

    def test_small_t_keeps_the_order_t_eigenvalues(self):
        exact = time_averaged_qfi_limit_pure(self.PROBE, two(), self.XI).value
        assert exact == pytest.approx(34.5945, rel=1e-5)
        got = qfi_exact_value(self.PROBE.density(), two(), self.XI, 1e-8) / 1e-8
        assert got == pytest.approx(exact, rel=1e-3)

    def test_unresolved_t_raises_instead_of_dropping_weight(self):
        with pytest.raises(DivergentQfiError, match="too small"):
            qfi_exact_value(self.PROBE.density(), two(), self.XI, 1e-9)


class TestCoherencePairQfi:
    def test_bell_time_averaged(self):
        pair = CoherencePair((1, -1), (-1, 1))
        for xi in (0.01, 0.1, 0.5):
            got = coherence_pair_qfi_timeavg(two(), xi, pair)
            assert got.value == pytest.approx(1.0 / xi, rel=1e-12)

    def test_ghz_time_averaged(self):
        for n in (2, 4, 6):
            fam = build_n_qubit(n, DOMAIN)
            got = coherence_pair_qfi_timeavg(fam, 0.1, ghz_pair(n))
            assert got.value == pytest.approx(n / (2 * 0.1), rel=1e-12)

    def test_matches_limit_of_pair_superposition(self):
        pair = CoherencePair((1, -1), (-1, 1))
        xi = 0.07
        closed = coherence_pair_qfi_timeavg(two(), xi, pair).value
        numeric = time_averaged_qfi_limit(pair_density(pair), two(), xi).value
        assert numeric == pytest.approx(closed, rel=1e-6)

    def test_insensitive_pair_gives_zero(self):
        pair = CoherencePair((1, 1), (1, -1))  # single flip: no xi dependence
        fam = build_n_qubit(2, DOMAIN)
        assert coherence_pair_qfi_timeavg(fam, 0.2, pair).value >= 0.0
        fam0 = with_perturbation(two(), np.zeros((2, 2)), (0.1, 0.9))
        assert coherence_pair_qfi_timeavg(fam0, 0.2, pair).value == 0.0

    def test_dark_pair_reported_divergent(self):
        # C(xi) = xi * I on [0, 1]: at the boundary xi = 0 every pair is dark
        # but still carries sensitivity through dC = I
        from corrnoise.model import DephasingFamily

        fam = DephasingFamily(2, 1.0, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
        pair = CoherencePair((1, 1), (1, -1))
        with pytest.raises(DivergentQfiError):
            coherence_pair_qfi_timeavg(fam, 0.0, pair)
        with pytest.raises(DivergentQfiError):
            coherence_pair_qfi_shot(fam, 0.0, pair, 1.0)

    def test_shot_formula_matches_qfi_exact(self):
        rng = np.random.default_rng(12)
        fam = two()
        xi = 0.13
        indices = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for ia, ib in indices:
            pair = CoherencePair.from_indices(ia, ib, 2)
            t = float(rng.uniform(0.1, 3.0))
            closed = coherence_pair_qfi_shot(fam, xi, pair, t).value
            exact = qfi_exact_value(pair_density(pair), fam, xi, t)
            assert closed == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_shot_optimum_constants(self, x_star, shot_peak_constant):
        assert shot_optimum_x() == pytest.approx(x_star, abs=1e-12)
        assert shot_optimum_value() == pytest.approx(shot_peak_constant, abs=1e-12)
        assert x_star == pytest.approx(0.796812, abs=1e-6)

    def test_shot_peak_against_grid_scan(self, x_star):
        fam = build_n_qubit(6, DOMAIN)
        pair = ghz_pair(6)
        xi = 0.01
        peak = coherence_pair_qfi_shot_peak(fam, xi, pair)
        ts = np.geomspace(0.1, 100.0, 4000)
        grid_best = max(coherence_pair_qfi_shot(fam, xi, pair, float(t)).value for t in ts)
        assert peak.value >= grid_best - 1e-9
        assert peak.value == pytest.approx(grid_best, rel=1e-5)
        assert peak.time == pytest.approx(x_star / 0.06, rel=1e-9)

    def test_zero_sensitivity_shot(self):
        fam0 = with_perturbation(two(), np.zeros((2, 2)), (0.1, 0.9))
        pair = CoherencePair((1, -1), (-1, 1))
        assert coherence_pair_qfi_shot(fam0, 0.2, pair, 1.0).value == 0.0


class TestQfiProperties:
    def test_monotone_supremum(self):
        rng = np.random.default_rng(13)
        for fam in (single(), two(), build_n_qubit(3, DOMAIN)):
            xi = 0.05
            rho = random_pure_density(fam.n_qubits, rng)
            limit = time_averaged_qfi_limit(rho, fam, xi).value
            max_rate = float(rate_matrix(fam, xi).max())
            for t in np.geomspace(1e-3 / max_rate, 1e2 / max_rate, 20):
                avg = qfi_exact_value(rho, fam, xi, float(t)) / float(t)
                assert avg <= limit * (1.0 + 1e-6)

    def test_bures_convexity_chain(self):
        rng = np.random.default_rng(14)
        fam = two()
        xi, dxi = 0.05, 5e-4
        for _ in range(20):
            rho = random_pure_density(2, rng)
            tau = float(rng.uniform(0.05, 1.0))
            base = bures_distance_sq(evolve(rho, fam, xi, tau), evolve(rho, fam, xi + dxi, tau))
            for m in (2, 4, 8):
                lhs = bures_distance_sq(
                    evolve(rho, fam, xi, m * tau), evolve(rho, fam, xi + dxi, m * tau)
                )
                assert lhs <= m * base + 1e-10

    def test_qfi_convexity(self):
        rng = np.random.default_rng(15)
        fam = two()
        for _ in range(20):
            rho1 = random_pure_density(2, rng)
            rho2 = random_pure_density(2, rng)
            p = float(rng.uniform(0.1, 0.9))
            mix = p * rho1 + (1 - p) * rho2
            lhs = qfi_exact_value(mix, fam, 0.05, 1.0)
            rhs = p * qfi_exact_value(rho1, fam, 0.05, 1.0) + (1 - p) * qfi_exact_value(
                rho2, fam, 0.05, 1.0
            )
            assert lhs <= rhs + 1e-8

    def test_z_rotation_covariance(self):
        rng = np.random.default_rng(16)
        for fam in (two(), build_n_qubit(3, DOMAIN)):
            rho = random_pure_density(fam.n_qubits, rng)
            phases = rng.uniform(0.0, 2 * np.pi, size=fam.n_qubits)
            diag = np.array([1.0])
            for p in phases:
                diag = np.kron(diag, np.array([1.0, np.exp(1j * p)]))
            rotated = (diag[:, None] * rho) * diag.conj()[None, :]
            base = qfi_exact_value(rho, fam, 0.05, 1.0)
            rot = qfi_exact_value(rotated, fam, 0.05, 1.0)
            assert rot == pytest.approx(base, rel=1e-9)

    def test_crosscheck_ratio_window(self):
        rng = np.random.default_rng(17)
        fam = build_n_qubit(3, DOMAIN)
        xi = 0.05
        rates = rate_matrix(fam, xi)
        slow = float(rates[rates > 0].min())
        checked = 0
        while checked < 10:
            rho = random_pure_density(3, rng)
            t = float(rng.uniform(0.3, 2.0)) / slow
            exact = qfi_exact_value(rho, fam, xi, t)
            if exact * (1e-4 * xi) ** 2 / 8.0 < 4e-12:
                continue
            checked += 1
            ratio = qfi_fidelity_check(rho, fam, xi, t) / exact
            assert 0.999 <= ratio <= 1.001
