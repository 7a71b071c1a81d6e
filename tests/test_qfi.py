import decimal
import math

import numpy as np
import pytest

from corrnoise.evolution import (
    CoherencePair,
    ProductState,
    decay_rate,
    drho_dxi,
    evolve,
    ghz_density,
    ghz_pair,
    pair_density,
    plus_product,
    random_pure_density,
    rate_matrix,
)
from corrnoise.model import (
    DephasingFamily,
    FamilyValidationError,
    build_n_qubit,
    build_single_qubit,
    build_two_qubit,
)
from corrnoise.optimize import _fold_theta, default_time_bracket
from corrnoise.qfi import (
    KERNEL_RTOL,
    QfiResult,
    DivergentQfiError,
    ExtrapolationError,
    bures_distance_sq,
    coherence_pair_qfi_shot,
    coherence_pair_qfi_shot_peak,
    fidelity,
    product_qfi_value_grad,
    qfi_exact_value,
    qfi_fidelity_check,
    richardson_limit,
    shot_optimum_value,
    shot_optimum_x,
    state_hash,
    time_averaged_qfi_limit,
    _sld_rate,
)
from conftest import coherence_pair_qfi_timeavg, decay_rate_derivative, with_perturbation

DOMAIN = (1e-6, 1.0)


def single():
    return build_single_qubit(DOMAIN)


def two():
    return build_two_qubit(DOMAIN)


def single_qubit_qfi_oracle(xi, t, gamma=1.0):
    """Closed-form per-shot QFI of |+> under single-qubit rate estimation."""
    x = gamma * xi * t
    return (gamma * t) ** 2 * math.exp(-2 * x) / (1.0 - math.exp(-2 * x))


def azimuthal_density(thetas, phis):
    """Product-probe density with azimuths phis, from an explicit kron chain; real when every phi is 0."""
    vec = np.array([1.0])
    for theta, phi in zip(thetas, phis):
        vec = np.kron(vec, [np.cos(theta / 2.0), np.sin(theta / 2.0) * (np.exp(1j * phi) if phi else 1.0)])
    return np.outer(vec, vec.conj())


def dephased_fidelity_oracle(a, b):
    """2x2 analytic fidelity between |+> states dephased by factors a and b."""
    return 0.5 * (1 + math.exp(-a - b)) + 0.5 * math.sqrt((1 - math.exp(-2 * a)) * (1 - math.exp(-2 * b)))


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(8)
        rho = random_pure_density(2, rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_bit_identical_states_give_exactly_one(self):
        # The square-root route lands some ulps off 1 on about half of these
        # states; equal inputs skip it.
        rng = np.random.default_rng(31)
        for dim in (2, 4, 8, 16) * 10:
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            assert fidelity(rho, rho.copy()) == 1.0

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
        rho = plus_product(1).density()
        res = QfiResult(qfi_exact_value(rho, single(), 0.1, 1.0), "shot", 1.0, state_hash(rho))
        assert res.regime == "shot"
        assert res.time == 1.0
        assert res.probe.startswith("state:")

    def test_result_rejects_infinite_time(self):
        with pytest.raises(ValueError, match="finite"):
            QfiResult(1.0, "shot", math.inf, "probe")

    @pytest.mark.parametrize("regime", ["per_shot", "time_averaged", "Time", ""])
    def test_result_rejects_words_outside_regimes(self, regime):
        with pytest.raises(ValueError, match="regime must be one of"):
            QfiResult(1.0, regime, 1.0, "probe")

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
        # halving the step and extrapolating kills the O(dxi^2) error of the central difference
        fam = single()
        rho = plus_product(1).density()
        xi, t = 0.1, 2.0
        exact = qfi_exact_value(rho, fam, xi, t)
        f1 = qfi_fidelity_check(rho, fam, xi, t, dxi=1e-2 * xi)
        f2 = qfi_fidelity_check(rho, fam, xi, t, dxi=5e-3 * xi)
        extrapolated = (4.0 * f2 - f1) / 3.0
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
        got = qfi_exact_value(rho, fam, xi, t) / t
        expected = single_qubit_qfi_oracle(xi, t) / t
        assert got == pytest.approx(expected, rel=1e-10)

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
        assert qfi_exact_value(rho, fam, 0.2, 500.0) / 500.0 < 1e-30

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
            richardson_limit(rho, single(), 0.1, levels=2)
        assert len(err.value.extrapolants) == 2


def family_n(n):
    return two() if n == 2 else build_n_qubit(n, DOMAIN)


def richardson_oracle(rho, family, xi):
    """Richardson limit and the tolerance it supports.

    At small xi Richardson sometimes stops short of its 1e-6 target on
    asymmetric product probes; its last extrapolant is then good to ~1e-5.
    """
    try:
        return richardson_limit(rho, family, xi).value, 1e-6
    except ExtrapolationError as exc:
        return exc.extrapolants[-1], 1e-5


class TestPureProbeLimit:
    def test_random_pure_states_match_richardson(self):
        rng = np.random.default_rng(21)
        for n in range(2, 7):
            fam = family_n(n)
            for xi in (1e-2, 1e-1):
                rho = random_pure_density(n, rng)
                exact = time_averaged_qfi_limit(rho, fam, xi)
                oracle, rtol = richardson_oracle(rho, fam, xi)
                assert exact.value == pytest.approx(oracle, rel=rtol)
                assert exact.regime == "time" and exact.time == 0.0

    def test_product_probes_match_richardson_and_statevector_route(self):
        # The polar-only probe must score what the same probe with azimuths does.
        rng = np.random.default_rng(22)
        for n in range(2, 7):
            fam = family_n(n)
            for xi in (1e-2, 1e-1):
                for phis in ((0.0,) * n, tuple(rng.uniform(0.0, 2.0 * np.pi, size=n))):
                    thetas = tuple(rng.uniform(0.0, np.pi, size=n))
                    probe, rho = ProductState(thetas), azimuthal_density(thetas, phis)
                    exact = time_averaged_qfi_limit(probe, fam, xi)
                    assert exact.probe == probe
                    via_density = time_averaged_qfi_limit(rho, fam, xi).value
                    assert exact.value == pytest.approx(via_density, rel=1e-10)
                    oracle, rtol = richardson_oracle(rho, fam, xi)
                    assert exact.value == pytest.approx(oracle, rel=rtol)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_qubit_relabelling_keeps_the_limit(self, n, random_real_family):
        # Relabel the qubits by a permutation P: the family becomes (P C0 P^T,
        # P dC P^T) and the angles P theta, and the limit stays; only the
        # summation order changes.  Probes: |+>^N and three random ones.
        # Measured maximum over these cases: 5.4e-15 relative.
        rng = np.random.default_rng(100 + n)
        for fam_seed in range(6):
            fam = random_real_family(n, fam_seed)
            perm = rng.permutation(n)
            relabelled = DephasingFamily(
                n, fam.c0[np.ix_(perm, perm)], fam.delta_c[np.ix_(perm, perm)], fam.xi_domain
            )
            for xi in (0.05, 0.5):
                for thetas in np.vstack([np.full(n, np.pi / 2.0), rng.uniform(0.0, np.pi, size=(3, n))]):
                    value = time_averaged_qfi_limit(ProductState(tuple(thetas)), fam, xi).value
                    moved = time_averaged_qfi_limit(ProductState(tuple(thetas[perm])), relabelled, xi).value
                    assert abs(moved - value) <= 1e-13 * value

    def test_complex_hermitian_perturbation_rejected(self):
        # Im dC adds a coherent term the decay-only propagation leaves out.
        base = build_n_qubit(3, DOMAIN)
        delta = base.delta_c + 0.05j * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
        with pytest.raises(FamilyValidationError, match="imaginary part"):
            with_perturbation(base, delta, DOMAIN)

    def test_pair_states_match_pair_closed_form(self):
        for fam, xi in ((two(), 0.07), (build_n_qubit(3, DOMAIN), 0.03), (build_n_qubit(4, DOMAIN), 0.2)):
            n = fam.n_qubits
            for ia in range(2**n):
                for ib in range(ia + 1, 2**n):
                    pair = CoherencePair.from_indices(ia, ib, n)
                    expected = coherence_pair_qfi_timeavg(fam, xi, pair).value
                    got = time_averaged_qfi_limit(pair_density(pair), fam, xi).value
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_z_eigenstates_give_zero(self):
        fam = build_n_qubit(4, DOMAIN)
        probe = ProductState((0.0, np.pi, np.pi, 0.0))
        assert time_averaged_qfi_limit(probe, fam, 0.03).value == 0.0
        assert time_averaged_qfi_limit(probe.density(), fam, 0.03).value == 0.0

    def test_zero_perturbation_gives_zero(self):
        fam = with_perturbation(two(), np.zeros((2, 2)), (0.1, 0.9))
        assert time_averaged_qfi_limit(plus_product(2), fam, 0.5).value == 0.0

    def test_dark_coherence_reported_divergent(self):
        # C(xi) = xi * I on [0, 1]: nothing decays at xi = 0, yet dC = I
        fam = DephasingFamily(2, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
        with pytest.raises(DivergentQfiError):
            time_averaged_qfi_limit(ProductState((1.0, 2.0)), fam, 0.0)
        with pytest.raises(DivergentQfiError):
            time_averaged_qfi_limit(pair_density(CoherencePair((1, 1), (1, -1))), fam, 0.0)

    def test_direct_ratio_approaches_closed_form_at_small_xi(self):
        # Richardson stops short here; the direct F(t)/t keeps closing in on
        # the exact limit as t falls.
        fam, xi = two(), 1e-3
        probe = ProductState((1.0, 2.0))
        exact = time_averaged_qfi_limit(probe, fam, xi).value
        gaps = [abs(qfi_exact_value(probe.density(), fam, xi, t) / t - exact) for t in (1e-4, 1e-5, 1e-6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3 * exact

    def test_input_validation(self):
        fam = two()
        with pytest.raises(ValueError):
            time_averaged_qfi_limit(plus_product(3), fam, 0.1)
        with pytest.raises(ValueError):
            time_averaged_qfi_limit(np.ones((4, 4)), fam, 0.1)
        with pytest.raises(ValueError):
            time_averaged_qfi_limit(np.ones(4) / 2.0, fam, 0.1)
        with pytest.raises(ValueError):
            time_averaged_qfi_limit(np.ones((8, 8)) / 8.0, fam, 0.1)
        with pytest.raises(ValueError):
            time_averaged_qfi_limit(plus_product(2), fam, 2.0)


def random_mixture(n, rank, rng):
    """Seeded rank-``rank`` mixture of Haar-random pure states with random weights."""
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    return sum(w * random_pure_density(n, rng) for w in weights)


class TestDensityLimit:
    """The exact t -> 0+ limit of a density matrix: support, leakage columns and Gram compression."""

    def test_mixtures_match_richardson(self):
        rng = np.random.default_rng(24)
        for n in (2, 3, 4):
            fam = family_n(n)
            for rank in (1, 2, 3):
                for xi in (0.05, 0.2):
                    rho = random_mixture(n, rank, rng)
                    exact = time_averaged_qfi_limit(rho, fam, xi)
                    oracle, rtol = richardson_oracle(rho, fam, xi)
                    assert exact.value == pytest.approx(oracle, rel=rtol)
                    assert exact.regime == "time" and exact.time == 0.0

    def test_full_rank_gives_exactly_zero(self):
        rng = np.random.default_rng(25)
        rho = random_mixture(3, 8, rng)
        assert np.linalg.eigvalsh(rho)[0] > 1e-3
        assert time_averaged_qfi_limit(rho, build_n_qubit(3, DOMAIN), 0.05).value == 0.0
        assert time_averaged_qfi_limit(np.eye(4) / 4.0, two(), 0.05).value == 0.0

    def test_product_state_and_density_agree_near_z_eigenstates(self):
        # Qubits at theta = 0, pi or within 1e-8 of them leak with squared norm
        # below KERNEL_RTOL, which both routes drop.
        rng = np.random.default_rng(26)
        fam = build_n_qubit(4, DOMAIN)
        for thetas in ((0.0, 1.0, np.pi, 2.0), (1e-8, 0.4, 2.5, np.pi - 1e-8)):
            probe, rho = ProductState(thetas), azimuthal_density(thetas, rng.uniform(0.0, 2.0 * np.pi, size=4))
            for xi in (1e-3, 0.05):
                product = time_averaged_qfi_limit(probe, fam, xi).value
                dense = time_averaged_qfi_limit(rho, fam, xi).value
                assert dense == pytest.approx(product, rel=1e-10, abs=1e-12)

    def test_ill_conditioned_weight_matrix(self):
        # The O(t) weight eigenvalues are 1.5e-14 against 0.138.  Richardson
        # settles on 0.03458 here without raising; the 60-digit limit is 0.0383347.
        fam, xi = build_n_qubit(3, DOMAIN), 2e-6
        probe = ProductState((1e-4, np.pi - 1e-4, 0.7))
        for state in (probe, probe.density()):
            assert time_averaged_qfi_limit(state, fam, xi).value == pytest.approx(0.0383347, rel=1e-3)


class TestSldKernel:
    """One relative kernel policy for every SLD sum, per shot and in the t -> 0+ limit."""

    # Two-qubit family, xi = 1e-3: the O(t) eigenvalues of this product probe
    # are 3.5e-5 t and 0.07 t.  At t = 1e-8 the smaller sits below an absolute
    # 1e-12 cutoff but above 1e-13 of the largest; at t = 1e-9 below both.
    XI = 1e-3
    PROBE = ProductState((0.3, 2.9))

    def test_small_t_keeps_the_order_t_eigenvalues(self):
        exact = time_averaged_qfi_limit(self.PROBE, two(), self.XI).value
        assert exact == pytest.approx(34.5945, rel=1e-5)
        got = qfi_exact_value(self.PROBE.density(), two(), self.XI, 1e-8) / 1e-8
        assert got == pytest.approx(exact, rel=1e-3)

    def test_unresolved_t_raises_instead_of_dropping_weight(self):
        with pytest.raises(DivergentQfiError, match="too small"):
            qfi_exact_value(self.PROBE.density(), two(), self.XI, 1e-9)

    @pytest.mark.parametrize("n, t_unresolved", [(2, 1e-9), (3, 1e-12)])
    def test_stack_matches_single_calls_bitwise(self, n, t_unresolved, random_real_family):
        # A stack goes through one eigh call, but every item keeps the bits
        # and the kernel policy of its own call.  Item 0 is the probe above,
        # one qubit added at N = 3: at t = 1e-8 it hits the kernel floor, at
        # t_unresolved it raises.
        fam, rng = random_real_family(n, 8) if n == 3 else two(), np.random.default_rng(40 + n)
        dim = 2**n
        g = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        mixed = [x @ x.conj().T / np.trace(x @ x.conj().T).real for x in g]
        probes = [ProductState((0.3, 2.9, 1.1)[:n])] + [ProductState(rng.uniform(0, np.pi, n)) for _ in range(4)]
        rhos = np.array([p.density() for p in probes] + mixed)
        ts = np.concatenate([[1e-8], np.exp(rng.uniform(-2.0, 4.0, size=len(rhos) - 1))])
        states, derivs = evolve(rhos, fam, self.XI, ts), drho_dxi(rhos, fam, self.XI, ts)
        lam = np.linalg.eigvalsh(states[0])
        assert lam[0] <= KERNEL_RTOL * lam[-1]
        singles = [qfi_exact_value(rho, fam, self.XI, t) for rho, t in zip(rhos, ts)]
        for k, (rho, t) in enumerate(zip(rhos, ts)):
            assert np.array_equal(states[k], evolve(rho, fam, self.XI, t))
            assert np.array_equal(derivs[k], drho_dxi(rho, fam, self.XI, t))
            assert type(singles[k]) is float and _sld_rate(states[k], derivs[k]) == singles[k]
        assert _sld_rate(states, derivs).tolist() == singles
        shaped = qfi_exact_value(rhos.reshape(2, 5, dim, dim), fam, self.XI, ts.reshape(2, 5))
        assert shaped.shape == (2, 5) and shaped.ravel().tolist() == singles
        with pytest.raises(DivergentQfiError, match="too small"):
            qfi_exact_value(rhos, fam, self.XI, np.concatenate([[t_unresolved], ts[1:]]))

    @pytest.mark.parametrize("n, t_unresolved", [(2, 1e-9), (3, 1e-12), (4, 1e-12)])
    def test_composed_route_is_the_oracle(self, n, t_unresolved, random_real_family):
        # qfi_exact_value shares one decay factor between the state and its
        # derivative; the composed _sld_rate(evolve, drho_dxi) must give the
        # same bits, on real product stacks and complex mixed ones.  Item 0
        # of the product stack hits the kernel floor at t = 1e-8.
        fam, rng = (two() if n == 2 else random_real_family(n, 8 + n)), np.random.default_rng(60 + n)
        dim = 2**n
        thetas = [(0.3, 2.9, 1.1, 0.7)[:n]] + [rng.uniform(0, np.pi, n) for _ in range(6)]
        g = rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim, dim))
        for rhos in (np.array([ProductState(th).density() for th in thetas]),
                     np.array([x @ x.conj().T / np.trace(x @ x.conj().T).real for x in g])):
            ts = np.exp(rng.uniform(-2.0, 4.0, size=len(rhos)))
            if rhos.dtype.kind == "f":
                ts[0] = 1e-8
                lam = np.linalg.eigvalsh(evolve(rhos[0], fam, self.XI, ts[0]))
                assert lam[0] <= KERNEL_RTOL * lam[-1]
            composed = _sld_rate(evolve(rhos, fam, self.XI, ts), drho_dxi(rhos, fam, self.XI, ts))
            assert qfi_exact_value(rhos, fam, self.XI, ts).tolist() == composed.tolist()
            for rho, t, value in zip(rhos, ts, composed.tolist()):
                assert qfi_exact_value(rho, fam, self.XI, t) == value
            # One scalar t for the whole stack.
            composed = _sld_rate(evolve(rhos, fam, self.XI, ts[1]), drho_dxi(rhos, fam, self.XI, ts[1]))
            assert qfi_exact_value(rhos, fam, self.XI, ts[1]).tolist() == composed.tolist()
        probe = ProductState(thetas[0]).density()
        with pytest.raises(DivergentQfiError, match="too small"):
            qfi_exact_value(probe, fam, self.XI, t_unresolved)
        with pytest.raises(DivergentQfiError, match="too small"):
            _sld_rate(evolve(probe, fam, self.XI, t_unresolved), drho_dxi(probe, fam, self.XI, t_unresolved))


class TestProductValueGrad:
    """The shot search's kernel: F and its gradient in (theta, log t) from one stacked eigh."""

    CASES = [(None, 3, 0.01), (None, 4, 0.2), (3, 4, 0.3), (8, 3, 0.05)]

    @staticmethod
    def inputs(fam_seed, n, xi, random_real_family):
        fam = build_n_qubit(n, DOMAIN) if fam_seed is None else random_real_family(n, fam_seed)
        rng = np.random.default_rng(n + 7 * (fam_seed or 0))
        # Angles outside [0, pi] too: the kernel takes any real angle.  Times are
        # 0.2 to 5 over the slowest decay rate, where the search looks.
        slowest = 1e-3 / default_time_bracket(fam, xi)[0]
        return fam, rng.uniform(-1.0, 4.0, size=(5, n)), np.exp(rng.uniform(-1.6, 1.6, size=5)) / slowest

    @pytest.mark.parametrize("fam_seed, n, xi", CASES)
    def test_values_match_the_exact_qfi(self, fam_seed, n, xi, random_real_family):
        fam, thetas, ts = self.inputs(fam_seed, n, xi, random_real_family)
        values, _ = product_qfi_value_grad(thetas, fam, xi, ts)
        for theta, t, value in zip(thetas, ts, values):
            exact = qfi_exact_value(ProductState(_fold_theta(theta)).density(), fam, xi, t)
            assert value == exact

    @pytest.mark.parametrize("fam_seed, n, xi", CASES)
    def test_gradient_matches_central_differences(self, fam_seed, n, xi, random_real_family):
        # The central-difference error is O(h^2): from h = 1e-3 to 1e-4 it falls about 100-fold.
        fam, thetas, ts = self.inputs(fam_seed, n, xi, random_real_family)
        z = np.column_stack([thetas, np.log(ts)])
        _, grads = product_qfi_value_grad(thetas, fam, xi, ts)

        def value(w):
            return product_qfi_value_grad(w[:, :n], fam, xi, np.exp(w[:, n]))[0]

        errors = []
        for h in (1e-3, 1e-4):
            step = h * np.eye(n + 1)
            central = np.column_stack([(value(z + e) - value(z - e)) / (2.0 * h) for e in step])
            errors.append(np.abs(central - grads).max() / np.abs(grads).max())
        assert errors[0] < 1e-4
        assert 50.0 < errors[0] / errors[1] < 200.0

    @pytest.mark.parametrize("fam_seed, n, xi", CASES)
    def test_stack_matches_single_rows_bitwise(self, fam_seed, n, xi, random_real_family):
        fam, thetas, ts = self.inputs(fam_seed, n, xi, random_real_family)
        values, grads = product_qfi_value_grad(thetas, fam, xi, ts)
        for k in range(len(ts)):
            value, grad = product_qfi_value_grad(thetas[k : k + 1], fam, xi, ts[k : k + 1])
            assert value.tobytes() == values[k : k + 1].tobytes()
            assert grad.tobytes() == grads[k : k + 1].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_values_are_the_exact_qfi_bitwise(self, n, random_real_family):
        # The kernel forms each state and derivative as qfi_exact_value does and
        # shares its SLD sum, so every value, stacked or alone, is the exact QFI
        # of ProductState(_fold_theta(theta)) bit for bit, and a row scores -inf
        # exactly where qfi_exact_value raises DivergentQfiError.  Times reach
        # down to 1e-14 of the slowest decay time, where some rows are past the
        # kernel policy, so each stack mixes both kinds.
        rng = np.random.default_rng(70 + n)
        diverged = resolved = 0
        for fam, xi in ((build_n_qubit(n, DOMAIN), 1e-3), (random_real_family(n, 20 + n), 0.3)):
            slowest = 1e-3 / default_time_bracket(fam, xi)[0]
            thetas = rng.uniform(-1.0, 4.0, size=(30, n))
            ts = np.exp(rng.uniform(np.log(1e-14), np.log(5.0), size=30)) / slowest
            values, _ = product_qfi_value_grad(thetas, fam, xi, ts)
            for k, (theta, t) in enumerate(zip(thetas, ts)):
                alone, _ = product_qfi_value_grad(thetas[k : k + 1], fam, xi, ts[k : k + 1])
                assert alone.tobytes() == values[k : k + 1].tobytes()
                try:
                    exact = qfi_exact_value(ProductState(_fold_theta(theta)).density(), fam, xi, t)
                except DivergentQfiError:
                    exact = -np.inf
                assert values[k] == exact
                diverged, resolved = diverged + (exact == -np.inf), resolved + (exact > -np.inf)
        assert diverged > 0 and resolved > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_qubit_relabelling_permutes_the_gradient(self, n, random_real_family):
        # Relabel the qubits by a permutation P: the family becomes (P C0 P^T,
        # P dC P^T) and the angles P theta.  The QFI stays and its theta-gradient
        # is permuted by P; only the summation order changes.  Measured maxima
        # over these cases: values 1.6e-14 relative, gradients 2.0e-14 of max|g|.
        rng = np.random.default_rng(80 + n)
        for fam_seed in range(6):
            fam = random_real_family(n, fam_seed)
            perm = rng.permutation(n)
            relabelled = DephasingFamily(
                n, fam.c0[np.ix_(perm, perm)], fam.delta_c[np.ix_(perm, perm)], fam.xi_domain
            )
            for xi in (0.05, 0.5):
                slowest = 1e-3 / default_time_bracket(fam, xi)[0]
                thetas = rng.uniform(0.0, np.pi, size=(4, n))
                ts = np.exp(rng.uniform(-1.6, 1.6, size=4)) / slowest
                values, grads = product_qfi_value_grad(thetas, fam, xi, ts)
                moved, moved_grads = product_qfi_value_grad(thetas[:, perm], relabelled, xi, ts)
                assert np.all(np.abs(moved - values) <= 1e-13 * np.abs(values))
                scale = np.abs(grads).max(axis=1, keepdims=True)
                assert np.all(np.abs(moved_grads[:, :n] - grads[:, perm]) <= 1e-13 * scale)
                assert np.all(np.abs(moved_grads[:, n] - grads[:, n]) <= 1e-13 * scale[:, 0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_global_flip_negates_the_theta_gradient(self, n, random_real_family):
        # theta -> pi - theta on every qubit is X on every qubit, which sends a
        # coherence d to -d and keeps its rate, a quadratic form in d.  So the
        # QFI and its log-t gradient stay and the theta-gradient changes sign.
        # Roundoff grows with the condition kappa of the evolved state (values
        # differ by up to 1e-11, so no fixed bound holds); measured maxima over
        # these cases: values 3.0 eps kappa relative, gradients 2.7 eps kappa
        # of max|g|.
        rng = np.random.default_rng(90 + n)
        bound = 16.0 * np.finfo(np.float64).eps
        for fam in [build_n_qubit(n, DOMAIN), *(random_real_family(n, fam_seed) for fam_seed in range(6))]:
            for xi in (0.05, 0.5):
                slowest = 1e-3 / default_time_bracket(fam, xi)[0]
                thetas = rng.uniform(0.0, np.pi, size=(4, n))
                ts = np.exp(rng.uniform(-1.6, 1.6, size=4)) / slowest
                values, grads = product_qfi_value_grad(thetas, fam, xi, ts)
                flipped, flipped_grads = product_qfi_value_grad(np.pi - thetas, fam, xi, ts)
                for k in range(len(ts)):
                    lam = np.linalg.eigvalsh(evolve(ProductState(thetas[k]).density(), fam, xi, ts[k]))
                    lam = lam[lam > KERNEL_RTOL * lam[-1]]
                    tol = bound * lam[-1] / lam[0]
                    scale = np.abs(grads[k]).max()
                    assert abs(flipped[k] - values[k]) <= tol * abs(values[k])
                    assert np.all(np.abs(flipped_grads[k, :n] + grads[k, :n]) <= tol * scale)
                    assert abs(flipped_grads[k, n] - grads[k, n]) <= tol * scale

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_plus_state_theta_gradient_is_zero(self, n, random_real_family):
        # |+>^N is the fixed point of the global flip above, so its theta-gradient
        # is 0, and the kernel returns exactly 0.0 (roundoff left 9e-16 to 1e-14
        # of the value at N = 2..5): the search's |+>^N start climbs in log t alone.
        for fam in [build_n_qubit(n, DOMAIN), *(random_real_family(n, fam_seed) for fam_seed in range(6))]:
            for xi in (0.05, 0.5):
                ts = np.geomspace(0.2, 5.0, 5) * default_time_bracket(fam, xi)[0] / 1e-3
                _, grads = product_qfi_value_grad(np.full((5, n), np.pi / 2.0), fam, xi, ts)
                assert np.all(grads[:, :n] == 0.0)

    def test_row_past_the_kernel_policy_scores_minus_inf(self, random_real_family):
        # Row 0 is the N = 3 probe of TestSldKernel at t = 1e-12, where qfi_exact_value raises.
        fam, xi = random_real_family(3, 8), 1e-3
        thetas = np.array([[0.3, 2.9, 1.1], [0.4, 1.2, 2.0], [np.pi / 2.0] * 3])
        ts = np.array([1e-12, 1.0, 3.0])
        with pytest.raises(DivergentQfiError, match="too small"):
            qfi_exact_value(ProductState(thetas[0]).density(), fam, xi, ts[0])
        values, grads = product_qfi_value_grad(thetas, fam, xi, ts)
        assert values[0] == -np.inf and not grads[0].any()
        assert np.all(np.isfinite(values[1:])) and grads[1:].any(axis=1).all()
        for k in (1, 2):
            value, grad = product_qfi_value_grad(thetas[k : k + 1], fam, xi, ts[k : k + 1])
            assert (value[0], grad[0].tolist()) == (values[k], grads[k].tolist())


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

        fam = DephasingFamily(2, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
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

    @pytest.mark.parametrize("t", [1e100, 1e154, 1e300])
    def test_shot_formula_at_huge_t_is_zero(self, t):
        # t * per_time * x2 overflows from about t = 1e154, where exp(-x2) is 0.
        assert coherence_pair_qfi_shot(build_n_qubit(3, DOMAIN), 0.1, ghz_pair(3), t).value == 0.0

    def test_shot_formula_where_g_t_underflows(self):
        # 2 G t underflows to 0 (G about 1e-16 at xi = 1e-300, t = 1e-310): the
        # value is the t -> 0+ form t G'^2 / (2 G), not 0 / 0.
        fam, pair = build_n_qubit(3, (1e-300, 1.0)), ghz_pair(3)
        per_time = coherence_pair_qfi_timeavg(fam, 1e-300, pair).value
        assert coherence_pair_qfi_shot(fam, 1e-300, pair, 1e-310).value == 1e-310 * per_time > 0.0

    @pytest.mark.parametrize("tau", [1e-300, 1e-200, 1e-154, 1e-20])
    def test_shot_formula_where_the_decay_rounds_to_one(self, tau):
        # exp(-2 G tau) rounds to 1 while 2 G tau does not underflow: the value
        # is the t -> 0+ form tau G'^2 / (2 G) (fig1a at gamma 1e-200), where
        # forming tau * per_time * 2 G tau first underflows to 0.
        fam, pair = build_n_qubit(3, DOMAIN), ghz_pair(3)
        g, gp = decay_rate(fam, 0.5, pair), decay_rate_derivative(fam, pair)
        expected = tau * gp**2 / (2.0 * g)
        value = coherence_pair_qfi_shot(fam, 0.5, pair, tau).value
        assert value > 0.0
        assert abs(value - expected) <= 2.0 * math.ulp(expected)

    def test_shot_optimum_constants(self, x_star, shot_peak_constant):
        assert shot_optimum_x() == pytest.approx(x_star, abs=1e-12)
        assert shot_optimum_value() == pytest.approx(shot_peak_constant, abs=1e-12)
        assert x_star == pytest.approx(0.796812, abs=1e-6)

    def test_shot_optimum_x_is_correctly_rounded_root(self):
        # f(x) = 1 - e^(-2x) - x is positive on (0, x*) and negative past it,
        # so the double nearest x* has the sign change inside its rounding
        # interval [x - ulp/2, x + ulp/2].
        x = shot_optimum_x()
        assert x.hex() == "0x1.97f7c26efbf2bp-1"
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            half_ulp = decimal.Decimal(math.ulp(x)) / 2

            def f(v):
                return 1 - (-2 * v).exp() - v

            assert f(decimal.Decimal(x) - half_ulp) > 0 > f(decimal.Decimal(x) + half_ulp)

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
