import math

import numpy as np
import pytest

from corrnoise.estimation import (
    EstimateReport,
    ExperimentRecord,
    NoInformationError,
    count_uniforms_below,
    estimate_xi,
    promise_check,
    replication_study,
    shot_uncertainty,
    simulate_parity_counts,
    splitmix64,
    uniform_stream,
)
from corrnoise.evolution import CoherencePair, decay_rate, ghz_pair
from corrnoise.model import DephasingFamily, build_n_qubit, build_two_qubit, with_perturbation
from corrnoise.qfi import coherence_pair_qfi_shot

DOMAIN = (1e-6, 1.0)


def reference_splitmix64(seed, count):
    """Independent pure-int implementation of the documented generator."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestPrng:
    def test_matches_reference_implementation(self):
        for seed in (0, 1, 42, 2**63 + 17):
            got = splitmix64(seed, 8).tolist()
            assert got == reference_splitmix64(seed, 8)

    def test_pinned_vectors_seed_zero(self):
        # canonical SplitMix64 stream from state 0
        assert splitmix64(0, 3).tolist() == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_offset_continues_stream(self):
        whole = splitmix64(9, 10).tolist()
        assert splitmix64(9, 4, offset=6).tolist() == whole[6:]

    def test_uniforms_in_unit_interval(self):
        u = uniform_stream(5, 1000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.05


def seed_for_first_output(out):
    """Seed whose first SplitMix64 output is ``out``: the finalizer inverted step by step."""
    mask = (1 << 64) - 1

    def unshift(y, s):
        z = y
        for _ in range(64 // s + 1):
            z = y ^ (z >> s)
        return z

    z = unshift(out, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & mask
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask
    return (unshift(z, 30) - 0x9E3779B97F4A7C15) & mask


class TestCountUniformsBelow:
    """Integer counting against the float stream it replaces."""

    @staticmethod
    def reference(seed, count, p):
        return int(np.count_nonzero(uniform_stream(seed, count) < p))

    @pytest.mark.parametrize("p", [0.5, 1.0, math.nextafter(1.0, 0.0), 0.0, 0.75, 1e-300])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64 - 2, 2**64 - 2**10])
    def test_matches_float_stream(self, seed, p):
        # 40_000 draws span several chunks of the in-place mix.
        assert count_uniforms_below(seed, 40_000, p) == self.reference(seed, 40_000, p)

    def test_random_points(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            seed = int(rng.integers(0, 2**62)) * 4 + int(rng.integers(0, 4))
            count = int(rng.integers(0, 70_000))
            p = float(rng.uniform(0.0, 1.0))
            assert count_uniforms_below(seed, count, p) == self.reference(seed, count, p)

    def test_uniform_stream_reaches_one(self):
        # The largest output rounds up to 2^64, so the stream lives on [0, 1].
        assert uniform_stream(seed_for_first_output(2**64 - 1), 1).tolist() == [1.0]

    def test_outputs_that_round_to_one_are_not_below_one(self):
        # Outputs >= 2^64 - 2^10 round to 2^64, i.e. to the uniform 1.0, which
        # a dark coherence's p_plus = 1.0 must not count.
        for out, counted in ((2**64 - 1, 0), (2**64 - 2**10, 0), (2**64 - 2**10 - 1, 1)):
            seed = seed_for_first_output(out)
            assert splitmix64(seed, 1).tolist() == [out]
            assert count_uniforms_below(seed, 1, 1.0) == self.reference(seed, 1, 1.0) == counted

    def test_edges(self):
        assert count_uniforms_below(3, 0, 0.5) == 0
        assert count_uniforms_below(3, 100, 1.5) == 100
        assert count_uniforms_below(3, 100, -0.5) == 0
        with pytest.raises(ValueError):
            count_uniforms_below(3, -1, 0.5)


class TestShotUncertainty:
    def test_n6_example(self, shot_peak_constant):
        fam = build_n_qubit(6, DOMAIN)
        got = shot_uncertainty(fam, 0.01, ghz_pair(6), 10**4)
        # closed form from the bisection oracle
        expected = 0.01 / math.sqrt(10**4 * shot_peak_constant)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.485e-4, abs=2e-7)

    def test_quadrupling_shots_halves_uncertainty(self):
        fam = build_n_qubit(4, DOMAIN)
        pair = ghz_pair(4)
        a = shot_uncertainty(fam, 0.05, pair, 1000)
        b = shot_uncertainty(fam, 0.05, pair, 4000)
        assert a / b == pytest.approx(2.0, rel=1e-12)

    def test_no_information_error(self):
        fam = with_perturbation(build_two_qubit(DOMAIN), np.zeros((2, 2)), (0.1, 0.9))
        with pytest.raises(NoInformationError):
            shot_uncertainty(fam, 0.5, ghz_pair(2), 100)

    def test_proportional_to_xi(self):
        fam = build_n_qubit(5, DOMAIN)
        pair = ghz_pair(5)
        ratios = [shot_uncertainty(fam, xi, pair, 500) / xi for xi in (1e-3, 1e-2, 5e-2)]
        assert max(ratios) - min(ratios) <= 1e-9 * ratios[0]


class TestPromiseCheck:
    def test_holds_inside_range(self):
        fam = build_n_qubit(6, DOMAIN)
        report = promise_check(fam, 0.01)
        assert report.xi_threshold == pytest.approx(0.1875)
        assert report.holds

    def test_broken_outside_range(self):
        fam = build_n_qubit(6, DOMAIN)
        report = promise_check(fam, 0.5)
        assert not report.holds

    def test_coherence_prediction_is_inverse_e(self):
        # G = N xi gamma and t = 1/(N xi gamma) imply exp(-1)
        fam = build_n_qubit(6, DOMAIN)
        report = promise_check(fam, 0.01)
        assert report.predicted_coherence == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert report.predicted_coherence == pytest.approx(0.3679, abs=1e-4)

    def test_invalid_estimate_rejected(self):
        with pytest.raises(ValueError):
            promise_check(build_n_qubit(4, DOMAIN), 0.0)

    def test_optional_shot_uncertainty(self):
        fam = build_n_qubit(6, DOMAIN)
        report = promise_check(fam, 0.01, shots=10**4)
        assert report.shot_uncertainty == pytest.approx(2.485e-4, abs=2e-7)


class TestSimulateParityCounts:
    def test_tiny_time_gives_all_plus(self):
        fam = build_n_qubit(4, DOMAIN)
        record = simulate_parity_counts(fam, 0.01, ghz_pair(4), 1e-9, 500, 3)
        assert record.plus_count == 500

    def test_long_time_gives_coin_flips(self):
        fam = build_n_qubit(4, DOMAIN)
        m = 4000
        for seed in range(5):
            record = simulate_parity_counts(fam, 0.5, ghz_pair(4), 1e4, m, seed)
            assert abs(record.plus_count / m - 0.5) <= 3.0 / math.sqrt(4 * m)

    def test_n6_plus_probability(self, x_star):
        fam = build_n_qubit(6, DOMAIN)
        xi = 0.01
        t = x_star / (6 * xi)
        p_plus = 0.5 * (1.0 + math.exp(-decay_rate(fam, xi, ghz_pair(6)) * t))
        assert p_plus == pytest.approx(0.5 * (1 + math.exp(-x_star)), rel=1e-12)
        assert p_plus == pytest.approx(0.7254, abs=1e-4)
        m = 200_000
        record = simulate_parity_counts(fam, xi, ghz_pair(6), t, m, 11)
        assert record.plus_count / m == pytest.approx(p_plus, abs=4.0 * math.sqrt(p_plus * (1 - p_plus) / m))

    def test_counts_match_float_stream(self):
        fam = build_n_qubit(4, DOMAIN)
        # The last point is dark (p_plus exactly 1.0): C = I on [0, 1] at xi = 0.
        dark = DephasingFamily(2, 1.0, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
        for family, xi, t, seed in ((fam, 0.02, 5.0, 77), (fam, 0.3, 0.7, 2**64 - 3), (dark, 0.0, 1.0, 5)):
            pair = ghz_pair(family.n_qubits)
            record = simulate_parity_counts(family, xi, pair, t, 30_000, seed)
            p_plus = 0.5 * (1.0 + math.exp(-decay_rate(family, xi, pair) * t))
            assert record.plus_count == int(np.count_nonzero(uniform_stream(seed, 30_000) < p_plus))

    def test_same_seed_identical_record(self):
        fam = build_n_qubit(4, DOMAIN)
        a = simulate_parity_counts(fam, 0.02, ghz_pair(4), 5.0, 1000, 77)
        b = simulate_parity_counts(fam, 0.02, ghz_pair(4), 5.0, 1000, 77)
        assert a == b

    def test_record_validation(self):
        with pytest.raises(ValueError):
            ExperimentRecord(ghz_pair(2), 0.1, 1.0, 10, 11, 0)


class TestEstimateXi:
    def test_noiseless_inversion_is_exact(self):
        # choose xi so that p_plus is exactly k/M; inversion must return it
        fam = build_n_qubit(4, DOMAIN)
        pair = ghz_pair(4)
        t = 10.0
        m, k = 1000, 750
        # solve G(xi) t = -ln(2 k/M - 1) with G linear in xi
        g_target = -math.log(2 * k / m - 1.0) / t
        gp = 4.0  # dG/dxi for the GHZ pair on the collective family
        g0 = 0.0
        xi_true = (g_target - g0) / gp
        record = ExperimentRecord(pair, xi_true, t, m, k, 0)
        report = estimate_xi(record, fam)
        assert report.xi_hat == pytest.approx(xi_true, abs=1e-12)
        assert not report.clamped

    def test_decayed_signal_returns_failure_marker(self):
        fam = build_n_qubit(4, DOMAIN)
        record = ExperimentRecord(ghz_pair(4), 0.01, 1.0, 1000, 500, 0)
        report = estimate_xi(record, fam)
        assert report.xi_hat is None
        assert report.std_error_crb == math.inf

    def test_report_never_reads_xi_true(self):
        fam = build_n_qubit(4, DOMAIN)
        reports = [estimate_xi(ExperimentRecord(ghz_pair(4), xi, 5.0, 1000, 700, 3), fam) for xi in (0.01, 0.3)]
        assert reports[0] == reports[1]

    def test_crb_is_plug_in_at_estimate(self):
        fam = build_n_qubit(4, DOMAIN)
        pair, t, shots = ghz_pair(4), 5.0, 1000
        report = estimate_xi(ExperimentRecord(pair, 0.01, t, shots, 700, 3), fam)
        plug_in = coherence_pair_qfi_shot(fam, report.xi_hat, pair, t).value
        assert report.std_error_crb == pytest.approx(1.0 / math.sqrt(shots * plug_in), rel=1e-14)

    def test_crb_vanishes_at_a_dark_estimate(self):
        # C(xi) = xi * I on [0, 1]: all-plus counts put xi_hat on the dark
        # point xi = 0, where the information diverges.
        fam = DephasingFamily(2, 1.0, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
        report = estimate_xi(ExperimentRecord(ghz_pair(2), 0.5, 1.0, 100, 100, 0), fam)
        assert report.xi_hat == 0.0
        assert report.std_error_crb == 0.0

    def test_clamping_flag(self):
        fam = build_n_qubit(4, (1e-4, 0.02))
        # all-plus counts => rate_hat 0 => xi_hat 0 => clamp to domain floor
        record = ExperimentRecord(ghz_pair(4), 0.01, 1.0, 100, 100, 0)
        report = estimate_xi(record, fam)
        assert report.clamped
        assert report.xi_hat == pytest.approx(1e-4)

    def test_no_information_pair_rejected(self):
        fam = with_perturbation(build_two_qubit(DOMAIN), np.zeros((2, 2)), (0.1, 0.9))
        record = ExperimentRecord(ghz_pair(2), 0.5, 1.0, 100, 90, 0)
        with pytest.raises(NoInformationError):
            estimate_xi(record, fam)


class TestReplicationStudy:
    def test_empirical_std_tracks_crb(self):
        fam = build_n_qubit(6, DOMAIN)
        pair = ghz_pair(6)
        xi = 0.01
        t = 13.280202167
        study = replication_study(fam, xi, pair, t, shots=2500, n_seeds=100, base_seed=5)
        crb = shot_uncertainty(fam, xi, pair, 2500)
        assert study.empirical_std == pytest.approx(crb, rel=0.25)
        assert study.n_failed == 0
        # crb_std is the true-xi reference at the study's own time.
        true_crb = 1.0 / math.sqrt(2500 * coherence_pair_qfi_shot(fam, xi, pair, t).value)
        assert study.crb_std == pytest.approx(true_crb, rel=1e-14)
        assert study.report.std_error_crb == study.crb_std

    def test_counts_clamped_replicates(self):
        # xi_true near the top of a narrow domain: many estimates clamp to it.
        fam = build_n_qubit(4, (1e-4, 0.02))
        pair = ghz_pair(4)
        study = replication_study(fam, 0.019, pair, 3.0, shots=200, n_seeds=40, base_seed=3)
        clamped = [
            estimate_xi(simulate_parity_counts(fam, 0.019, pair, 3.0, 200, 3 ^ r), fam).clamped for r in range(40)
        ]
        assert 0 < study.n_clamped == sum(clamped) < 40
        assert study.n_failed == 0

    def test_seed_xor_convention(self):
        fam = build_n_qubit(4, DOMAIN)
        pair = ghz_pair(4)
        study = replication_study(fam, 0.05, pair, 3.0, shots=100, n_seeds=4, base_seed=12)
        manual = [
            estimate_xi(simulate_parity_counts(fam, 0.05, pair, 3.0, 100, 12 ^ r), fam).xi_hat
            for r in range(4)
        ]
        assert study.estimates.tolist() == [x for x in manual if x is not None]

    def test_deterministic(self):
        fam = build_n_qubit(4, DOMAIN)
        pair = ghz_pair(4)
        a = replication_study(fam, 0.05, pair, 3.0, shots=200, n_seeds=10, base_seed=2)
        b = replication_study(fam, 0.05, pair, 3.0, shots=200, n_seeds=10, base_seed=2)
        assert a.estimates.tolist() == b.estimates.tolist()
