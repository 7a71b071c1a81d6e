"""Metamorphic relations: exact symmetries of the model, checked on random families at every N.

The brute-force oracles stop early (the superoperator at N = 3); a relation
the physics guarantees costs two evaluations at any N.
"""

import numpy as np
import pytest

from corrnoise.evolution import CoherencePair, ProductState, plus_product, random_pure_density
from corrnoise.model import DephasingFamily
from corrnoise.optimize import optimal_coherence_pair, optimal_product_state
from corrnoise.qfi import qfi_exact_value, time_averaged_qfi_limit
from conftest import with_perturbation

# Scale s -> relative bound on the scaled results.  A power of two scales
# every float exactly, so those are bit for bit; at s = 3, xi / s and s dC
# each round once (largest error measured over N = 2..8, seeds 0-3, the shot
# search at N <= 4: 2.6e-15 for values, 5.9e-15 for the shot search's time).
SCALES = {2.0: 0.0, 0.5: 0.0, 3.0: 1e-14}
SEEDS = range(4)
XIS = (0.05, 0.5)


def rescaled(family, s):
    """The family with direction s dC on (lo / s, hi / s): at xi / s it has C(xi), and s times its xi-derivative."""
    lo, hi = family.xi_domain
    return with_perturbation(family, s * family.delta_c, (lo / s, hi / s))


def assert_close(value, expected, rtol):
    if rtol == 0.0:
        assert value == expected
    else:
        assert value == pytest.approx(expected, rel=rtol)


class TestPerturbationScale:
    """Scaling dC by s and xi by 1 / s keeps the state at every t and scales d_xi rho by s.

    So every QFI is s^2 times the original, at the same time and with the
    same probe or pair.
    """

    @pytest.mark.parametrize("s", list(SCALES))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_per_shot_and_limit_scale_by_s_squared(self, n, s, random_real_family):
        for seed in SEEDS:
            family = random_real_family(n, seed)
            scaled = rescaled(family, s)
            rng = np.random.default_rng(seed)
            rho = random_pure_density(n, rng)
            probes = (rho, plus_product(n), ProductState(tuple(rng.uniform(0.0, np.pi, n))))
            for xi in XIS:
                base = qfi_exact_value(rho, family, xi, 0.7)
                assert_close(qfi_exact_value(rho, scaled, xi / s, 0.7), s * s * base, SCALES[s])
                for probe in probes:
                    base = time_averaged_qfi_limit(probe, family, xi).value
                    assert_close(time_averaged_qfi_limit(probe, scaled, xi / s).value, s * s * base, SCALES[s])

    @pytest.mark.parametrize("regime", ["time", "shot"])
    @pytest.mark.parametrize("s", list(SCALES))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_pair_optimum_scales_by_s_squared(self, n, s, regime, random_real_family):
        for seed in SEEDS:
            family = random_real_family(n, seed)
            for xi in XIS:
                base = optimal_coherence_pair(family, xi, regime)
                result = optimal_coherence_pair(rescaled(family, s), xi / s, regime)
                assert result.probe == base.probe
                assert_close(result.value, s * s * base.value, SCALES[s])
                assert_close(result.time, base.time, SCALES[s])

    @pytest.mark.parametrize("s", list(SCALES))
    @pytest.mark.parametrize("n", range(2, 5))
    def test_shot_product_search_scales_by_s_squared(self, n, s, random_real_family):
        for seed in SEEDS[:2]:
            family = random_real_family(n, seed)
            for xi in XIS:
                base = optimal_product_state(family, xi, "shot", seed=seed).best
                result = optimal_product_state(rescaled(family, s), xi / s, "shot", seed=seed).best
                assert_close(result.value, s * s * base.value, SCALES[s])
                assert_close(result.time, base.time, SCALES[s])
                for theta, base_theta in zip(result.probe.thetas, base.probe.thetas):
                    assert_close(theta, base_theta, SCALES[s])


def decoupled_draws(n, random_real_family):
    """(block-1 family, decoupled family, rng) for six seeds at N = n.

    Block 1, the first 1..n-1 qubits, is a seeded random family; the decoupled
    family has C = C1 (+) C2 and dC = dC1 (+) 0, with C2 random positive definite.
    """
    for seed in range(6):
        rng = np.random.default_rng(1000 * n + seed)
        block1 = random_real_family(1 + seed % (n - 1), seed)
        n1, n2 = block1.n_qubits, n - block1.n_qubits
        a = rng.normal(size=(n2, n2))
        c0, dc = np.zeros((n, n)), np.zeros((n, n))
        c0[:n1, :n1], c0[n1:, n1:] = block1.c0.real, a @ a.T / n2 + 0.2 * np.eye(n2)
        dc[:n1, :n1] = block1.delta_c.real
        yield block1, DephasingFamily(n, c0, dc, block1.xi_domain), rng


def at_pole(probe, n2):
    """A ProductState or density with n2 more qubits at the pole theta = 0, in |0...0>."""
    if isinstance(probe, ProductState):
        return ProductState(probe.thetas + (0.0,) * n2)
    pole = np.zeros((2**n2, 2**n2))
    pole[0, 0] = 1.0
    return np.kron(probe, pole)


def assert_rel(value, expected, rtol):
    assert abs(value - expected) <= rtol * abs(expected), (value, expected)


class TestDecoupledBlock:
    """A block that dC does not reach, with its qubits at the pole theta = 0, adds nothing to any QFI.

    Block 2's qubits stay in |0...0>, which dephasing leaves as it is, so the
    state at every t is block 1's state times that pole, and d_xi rho is block
    1's derivative times it.  Every QFI is then the block-1 family's, and the
    best coherence pair is block 1's with block 2's spins equal (any other
    spins there add d2^T C2 d2 / 4 > 0 to its rate and nothing to G').  Six
    draws at each N = 3..8, 36 in all.  Largest relative deviation measured
    under the default, Haswell and Zen OpenBLAS kernels and numpy without
    AVX-512: 0 for pair optima, 7.1e-15 for the t -> 0+ limit and 3.7e-13
    per shot.  Pair rates go through BLAS, so the pair bound is not 0.
    """

    @pytest.mark.parametrize("n", range(3, 9))
    def test_pair_optima_equal_block_1(self, n, random_real_family):
        for block1, family, _ in decoupled_draws(n, random_real_family):
            n2 = n - block1.n_qubits
            for xi in XIS:
                for regime in ("time", "shot"):
                    base = optimal_coherence_pair(block1, xi, regime)
                    result = optimal_coherence_pair(family, xi, regime)
                    assert result.probe == CoherencePair(base.probe.alpha + (1,) * n2, base.probe.beta + (1,) * n2)
                    assert_rel(result.value, base.value, 1e-15)
                    assert_rel(result.time, base.time, 1e-15)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_limit_and_per_shot_equal_block_1(self, n, random_real_family):
        for block1, family, rng in decoupled_draws(n, random_real_family):
            n1, n2 = block1.n_qubits, n - block1.n_qubits
            rho, product = random_pure_density(n1, rng), ProductState(tuple(rng.uniform(0.0, np.pi, n1)))
            for xi in XIS:
                for probe in (rho, product, plus_product(n1)):
                    base = time_averaged_qfi_limit(probe, block1, xi).value
                    assert base > 0.0
                    assert_rel(time_averaged_qfi_limit(at_pole(probe, n2), family, xi).value, base, 1e-13)
                for probe in (rho, product.density()):
                    base = qfi_exact_value(probe, block1, xi, 0.7)
                    assert base > 0.0
                    assert_rel(qfi_exact_value(at_pole(probe, n2), family, xi, 0.7), base, 1e-10)
