"""Metamorphic relations: exact symmetries of the model, checked on random families at every N.

The brute-force oracles stop early (the superoperator at N = 3); a relation
the physics guarantees costs two evaluations at any N.
"""

import numpy as np
import pytest

from corrnoise.evolution import ProductState, plus_product, random_pure_density
from corrnoise.model import with_perturbation
from corrnoise.optimize import optimal_coherence_pair, optimal_product_state
from corrnoise.qfi import qfi_exact_value, time_averaged_qfi_limit

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
