import math

import numpy as np
import pytest

from corrnoise.evolution import CoherencePair, ProductState, ghz_pair
from corrnoise.model import DephasingFamily, build_n_qubit, build_single_qubit, build_two_qubit, with_perturbation
from corrnoise.optimize import (
    advantage_ratio,
    default_time_bracket,
    dynamical_range_threshold,
    maximize_over_time,
    nelder_mead_max,
    optimal_coherence_pair,
    optimal_product_state,
)
from corrnoise.qfi import (
    DivergentQfiError,
    coherence_pair_qfi_shot,
    coherence_pair_qfi_timeavg,
    qfi_exact_value,
    time_averaged_qfi_limit_pure,
)

DOMAIN = (1e-6, 1.0)


class TestMaximizeOverTime:
    def test_pair_shot_peak_location(self, x_star):
        # bisection oracle: optimum of t^2 e^{-2Gt}/(1-e^{-2Gt}) sits at x*/G
        g, gp = 0.06, 6.0

        def eval_fn(t):
            return t * t * gp * gp * math.exp(-2 * g * t) / (1 - math.exp(-2 * g * t))

        t_star, value = maximize_over_time(eval_fn, (1e-2, 1e3))
        assert t_star == pytest.approx(x_star / g, rel=1e-5)
        assert t_star == pytest.approx(13.280, abs=2e-3)
        assert value == pytest.approx(eval_fn(x_star / g), rel=1e-9)

    def test_monotone_decreasing_picks_left_edge(self):
        t_star, value = maximize_over_time(lambda t: 1.0 / t, (0.5, 50.0))
        assert t_star == 0.5
        assert value == pytest.approx(2.0)

    def test_constant_zero(self):
        t_star, value = maximize_over_time(lambda t: 0.0, (0.1, 10.0))
        assert value == 0.0

    def test_degenerate_bracket_rejected(self):
        with pytest.raises(ValueError):
            maximize_over_time(lambda t: t, (1.0, 1.0))
        with pytest.raises(ValueError):
            maximize_over_time(lambda t: t, (0.0, 1.0))


class TestNelderMead:
    def test_quadratic_bowl(self):
        x, val, converged, _ = nelder_mead_max(lambda z: -np.sum((z - 1.3) ** 2), np.zeros(3))
        assert converged
        # value-spread termination at 1e-10 bounds the position to ~1e-5
        assert x == pytest.approx(np.full(3, 1.3), abs=1e-4)
        assert val == pytest.approx(0.0, abs=1e-9)


def exhaustive_pair_optimum(family, xi, regime, shot_peak):
    """Loop oracle: score all 4^N/2 canonical pairs, the first maximum wins."""
    n = family.n_qubits
    coeff, delta = family.coefficient_matrix(xi), family.delta_c
    best = (-1.0, None, None)
    for ia in range(2**n):
        for ib in range(ia + 1, 2**n):
            pair = CoherencePair.from_indices(ia, ib, n)
            d = [a - b for a, b in zip(pair.alpha, pair.beta)]
            g = family.gamma / 4.0 * sum(coeff[j, l] * d[j] * d[l] for j in range(n) for l in range(n)).real
            gp = family.gamma / 4.0 * sum(delta[j, l] * d[j] * d[l] for j in range(n) for l in range(n)).real
            if gp == 0.0:
                value = 0.0
            elif regime == "time":
                value = gp * gp / (2.0 * g)
            else:
                value = (gp / g) ** 2 * shot_peak
            if value > best[0]:
                best = (value, pair, g)
    return best


class TestOptimalCoherencePair:
    @pytest.mark.parametrize("regime", ["time", "shot"])
    def test_matches_exhaustive_pair_loop(self, regime, shot_peak_constant, x_star, random_complex_family):
        fams = [build_single_qubit(DOMAIN), build_two_qubit(DOMAIN)]
        fams += [build_n_qubit(n, DOMAIN) for n in range(2, 7)]
        fams += [random_complex_family(n, 40 + n) for n in range(2, 7)]
        for fam in fams:
            for xi in (0.01, 0.3):
                value, pair, g = exhaustive_pair_optimum(fam, xi, regime, shot_peak_constant)
                best = optimal_coherence_pair(fam, xi, regime)
                assert best.probe == pair
                assert best.value == pytest.approx(value, rel=1e-12)
                expected_time = 0.0 if regime == "time" or value == 0.0 else x_star / g
                assert best.time == pytest.approx(expected_time, rel=1e-9)

    def test_zero_perturbation_picks_first_pair(self):
        fam = with_perturbation(build_n_qubit(3, DOMAIN), np.zeros((3, 3)), (0.1, 0.9))
        for regime in ("time", "shot"):
            best = optimal_coherence_pair(fam, 0.5, regime)
            assert best.probe == CoherencePair.from_indices(0, 1, 3)
            assert best.value == 0.0 and best.time == 0.0

    def test_dark_class_reported_divergent(self):
        fam = DephasingFamily(2, 1.0, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
        for regime in ("time", "shot"):
            with pytest.raises(DivergentQfiError):
                optimal_coherence_pair(fam, 0.0, regime)

    def test_two_qubit_time_regime(self):
        fam = build_two_qubit(DOMAIN)
        xi = 0.1
        best = optimal_coherence_pair(fam, xi, "time")
        assert best.probe == CoherencePair((1, -1), (-1, 1))
        assert best.value == pytest.approx(1.0 / xi, rel=1e-12)
        assert best.regime == "time_averaged"

    def test_n4_time_regime(self):
        fam = build_n_qubit(4, DOMAIN)
        best = optimal_coherence_pair(fam, 0.1, "time")
        assert best.probe == ghz_pair(4)
        assert best.value == pytest.approx(2.0 / 0.1, rel=1e-12)

    def test_n6_shot_regime(self, shot_peak_constant, x_star):
        fam = build_n_qubit(6, DOMAIN)
        xi = 0.01
        best = optimal_coherence_pair(fam, xi, "shot")
        assert best.probe == ghz_pair(6)
        assert best.value == pytest.approx(shot_peak_constant / xi**2, rel=1e-12)
        assert best.value == pytest.approx(1619.0, abs=1.0)
        assert best.time == pytest.approx(x_star / (6 * xi), rel=1e-9)

    def test_matches_closed_forms_per_pair(self):
        fam = build_two_qubit(DOMAIN)
        xi = 0.2
        best = optimal_coherence_pair(fam, xi, "time")
        for ia in range(4):
            for ib in range(ia + 1, 4):
                pair = CoherencePair.from_indices(ia, ib, 2)
                assert coherence_pair_qfi_timeavg(fam, xi, pair).value <= best.value + 1e-12

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            optimal_coherence_pair(build_two_qubit(DOMAIN), 0.1, "weird")


class TestOptimalProductState:
    def test_two_qubit_time_regime(self):
        fam = build_two_qubit(DOMAIN)
        xi = 0.1
        report = optimal_product_state(fam, xi, "time")
        assert report.best.value == pytest.approx(1.0 / (xi * (2.0 - xi)), rel=1e-3)
        assert report.best.value == pytest.approx(5.2632, abs=5e-3)
        assert report.starts == 8 + 4

    def test_n4_time_regime(self):
        fam = build_n_qubit(4, DOMAIN)
        report = optimal_product_state(fam, 0.1, "time", threads=2)
        assert report.best.value == pytest.approx(5.0, rel=1e-3)

    def test_n3_shot_regime_matches_weight_argument(self, shot_peak_constant):
        fam = build_n_qubit(3, DOMAIN)
        xi = 0.01
        report = optimal_product_state(fam, xi, "shot", threads=2)
        expected = 2.0 ** (1 - 3) * shot_peak_constant / xi**2
        assert report.best.value == pytest.approx(expected, rel=2e-3)
        thetas = np.array(report.best.probe.thetas)
        assert thetas == pytest.approx(np.full(3, np.pi / 2), abs=1e-3)

    def test_determinism_fixed_seed(self):
        fam = build_two_qubit(DOMAIN)
        a = optimal_product_state(fam, 0.05, "time", seed=3)
        b = optimal_product_state(fam, 0.05, "time", seed=3)
        assert a == b

    def test_thread_count_invariance(self):
        fam = build_n_qubit(3, DOMAIN)
        serial = optimal_product_state(fam, 0.05, "shot", seed=1, threads=None)
        threaded = optimal_product_state(fam, 0.05, "shot", seed=1, threads=2)
        assert serial == threaded

    def test_zero_perturbation_reports_zero(self):
        fam = with_perturbation(build_two_qubit(DOMAIN), np.zeros((2, 2)), (0.1, 0.9))
        report = optimal_product_state(fam, 0.5, "time")
        assert report.best.value == 0.0

    @pytest.mark.parametrize("regime", ["time", "shot"])
    def test_reported_value_is_the_probe_value_bitwise(self, regime):
        # The search keeps each candidate's value, so the report needs no re-evaluation.
        fam, xi = build_n_qubit(3, DOMAIN), 0.03
        best = optimal_product_state(fam, xi, regime, seed=2).best
        probe = ProductState.polar(best.probe.thetas)
        if regime == "time":
            assert best.time == 0.0
            assert best.value == time_averaged_qfi_limit_pure(probe, fam, xi).value
        else:
            assert best.value == qfi_exact_value(probe.density(), fam, xi, best.time)


class TestAdvantageRatio:
    def test_two_qubit_time_limit(self):
        result = advantage_ratio(2, 1e-3, "time")
        assert result.ratio == pytest.approx(2.0 - 1e-3, rel=2e-4)
        assert result.entangled_best.probe == CoherencePair((1, -1), (-1, 1))
        assert type(result.separable_best.probe).__name__ == "ProductState"

    def test_n4_time_is_factor_n(self):
        result = advantage_ratio(4, 1e-3, "time", threads=2)
        assert result.ratio == pytest.approx(4.0, rel=0.01)

    def test_shot_small_n(self):
        for n, expected in ((2, 2.0), (3, 4.0)):
            result = advantage_ratio(n, 0.01, "shot", threads=2)
            assert result.ratio == pytest.approx(expected, rel=0.05)

    def test_two_qubit_shot_at_small_xi(self):
        result = advantage_ratio(2, 1e-3, "shot")
        assert result.ratio == pytest.approx(2.0, rel=0.01)

    def test_entangled_beats_separable_time_regime(self):
        for n in (2, 3):
            for xi in (1e-3, 1e-2, 1e-1):
                result = advantage_ratio(n, xi, "time", threads=2)
                assert result.entangled_best.value >= result.separable_best.value - 1e-6
                assert result.ratio >= 1.0 - 1e-6

    def test_product_never_beats_pair_all_builtin_families(self):
        from corrnoise.model import build_single_qubit

        families = [build_single_qubit(DOMAIN), build_two_qubit(DOMAIN), build_n_qubit(3, DOMAIN)]
        for fam in families:
            for xi in (1e-3, 1e-2, 1e-1):
                pair_best = optimal_coherence_pair(fam, xi, "time").value
                product_best = optimal_product_state(fam, xi, "time", threads=2).best.value
                assert product_best <= pair_best * (1.0 + 1e-6)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            advantage_ratio(1, 0.1, "time")
        with pytest.raises(ValueError):
            advantage_ratio(11, 0.1, "time")


class TestDynamicalRange:
    def test_values(self):
        assert dynamical_range_threshold(6) == pytest.approx(0.1875)
        assert dynamical_range_threshold(2) == pytest.approx(1.0)

    def test_monotone_decreasing_from_three(self):
        vals = [dynamical_range_threshold(n) for n in range(3, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            dynamical_range_threshold(1)


class TestTimeBracket:
    def test_scales_with_slowest_rate(self):
        fam = build_n_qubit(6, DOMAIN)
        lo, hi = default_time_bracket(fam, 0.01)
        slow = 6 * 0.01
        assert lo == pytest.approx(1e-3 / slow, rel=1e-9)
        assert hi == pytest.approx(1e2 / slow, rel=1e-9)
