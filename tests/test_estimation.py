import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from corrnoise.estimation import (
    EstimateReport,
    ExperimentRecord,
    NoInformationError,
    count_uniforms_below,
    estimate_xi,
    replication_study,
    shot_uncertainty,
    simulate_parity_counts,
)
from corrnoise.estimation import _CHUNK, _GOLDEN, _MASK, _float_threshold, _inversion, _last_round, _rounds
from corrnoise import cli
from corrnoise.cli import main
from corrnoise.evolution import _pair_line, decay_rate, ghz_pair
from corrnoise.model import DephasingFamily, build_n_qubit, build_two_qubit
from corrnoise.qfi import coherence_pair_qfi_shot_peak
from conftest import decay_rate_derivative, with_perturbation

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


def splitmix64(seed, count, offset=0):
    """Outputs offset+1 .. offset+count of the SplitMix64 stream for ``seed``, through the package's mixing rounds."""
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(seed & _MASK)
    return _last_round(_rounds(z, np.empty_like(z)))


def uniform_stream(seed, count):
    """The float stream the counts stand for: splitmix64 outputs scaled by 2^-64.

    The interval is closed: a float64 holds 53 significant bits, so every
    output >= 2^64 - 2^10 rounds to 2^64 and scales to exactly 1.0.
    """
    return splitmix64(seed, count) * 2.0**-64


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
    @pytest.mark.parametrize("count", [40_000, 100_000, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK])
    def test_matches_float_stream(self, seed, p, count):
        # 40_000 draws fill part of one chunk, 100_000 (the estimate workload's
        # shots) span a chunk boundary; the others sit at one.
        assert count_uniforms_below(seed, count, p) == self.reference(seed, count, p)

    def test_back_to_back_calls_share_no_state(self):
        # The chunk buffers outlive a call: a short call after a long one, and
        # a long one after it, count only their own draws.
        calls = [(5, 3 * _CHUNK + 7, 0.3), (11, 17, 0.9), (5, 3 * _CHUNK + 7, 0.3), (2**64 - 1, _CHUNK + 1, 0.6)]
        got = [count_uniforms_below(*call) for call in calls]
        assert got == [self.reference(*call) for call in calls]
        assert got[0] == got[2]

    def test_threads_count_with_their_own_buffers(self):
        # More threads than cores and a short switch interval, so that calls
        # interleave: a buffer shared across threads would lose draws.
        calls = [(seed, 10 * _CHUNK + 1000 * seed, 0.4) for seed in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda call: count_uniforms_below(*call), calls, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [self.reference(*call) for call in calls]

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

    @pytest.mark.parametrize("p", [0.5, 0.7254, 1e-300, 1.0, 1.0 - 2.0**-40])
    def test_outputs_in_the_band_take_the_last_round(self, p):
        # Outputs whose top 31 bits are the threshold's come from state words
        # in the band [Lo, Lo + 2^33) that only the last round decides: low
        # bits below, at and above the threshold's, one draw at a time and
        # planted one chunk in.  At p = 1.0 and 1 - 2^-40 the band ends at
        # the top word, 2^64 - 1.
        threshold = _float_threshold(p)
        top = threshold & -(2**33)
        lows = {0, threshold - top - 1, threshold - top, threshold - top + 1, 2**33 - 1}
        for out in sorted(top + low for low in lows if 0 <= low < 2**33 and top + low < 2**64):
            seed = seed_for_first_output(out)
            assert splitmix64(seed, 1).tolist() == [out]
            assert count_uniforms_below(seed, 1, p) == self.reference(seed, 1, p) == int(out < threshold)
            # The same output as draw _CHUNK + 3 of a 2 _CHUNK + 5 draw stream.
            shifted = (seed - (_CHUNK + 2) * 0x9E3779B97F4A7C15) % 2**64
            assert splitmix64(shifted, 1, offset=_CHUNK + 2).tolist() == [out]
            assert count_uniforms_below(shifted, 2 * _CHUNK + 5, p) == self.reference(shifted, 2 * _CHUNK + 5, p)

    def test_edges(self):
        assert count_uniforms_below(3, 0, 0.5) == 0
        assert count_uniforms_below(3, 100, 1.5) == 100
        assert count_uniforms_below(3, 100, -0.5) == 0
        with pytest.raises(ValueError):
            count_uniforms_below(3, -1, 0.5)

    @staticmethod
    def fraction_threshold(p):
        """The threshold by exact rational arithmetic on the midpoint of p 2^64 and its float predecessor."""
        target = p * 2.0**64
        t = math.floor((Fraction(math.nextafter(target, -math.inf)) + Fraction(target)) / 2)
        return t if float(t) >= target else t + 1

    def test_threshold_matches_the_rational_midpoint(self):
        edges = [0.0, 5e-324, 1e-320, 2.0**-1022 - 2.0**-1074, 2.0**-1022, 1e-300, 2.0**-64, 0.5, 1.0 - 2.0**-53, 1.0]
        neighbours = [math.nextafter(p, d) for p in edges for d in (-math.inf, math.inf) if p > 0.0 or d > 0.0]
        randoms = np.random.default_rng(31).uniform(0.0, 1.0, 3000).tolist()
        logs = (10.0 ** np.random.default_rng(32).uniform(-320.0, 0.0, 1000)).tolist()
        for p in edges + neighbours + randoms + logs:
            assert _float_threshold(p) == self.fraction_threshold(p), p


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
        dark = DephasingFamily(2, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
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

    def test_report_never_reads_xi_true(self):
        fam = build_n_qubit(4, DOMAIN)
        reports = [estimate_xi(ExperimentRecord(ghz_pair(4), xi, 5.0, 1000, 700, 3), fam) for xi in (0.01, 0.3)]
        assert reports[0] == reports[1]

    def test_all_plus_counts_estimate_the_dark_point(self):
        # C(xi) = xi * I on [0, 1]: all-plus counts put xi_hat on the dark
        # point xi = 0, inside the domain.
        fam = DephasingFamily(2, np.zeros((2, 2)), np.eye(2), (0.0, 1.0))
        report = estimate_xi(ExperimentRecord(ghz_pair(2), 0.5, 1.0, 100, 100, 0), fam)
        assert report.xi_hat == 0.0
        assert not report.clamped

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

    def test_study_reads_the_pair_line_once(self):
        # Every replicate reuses its pair's G(0), G' and d.
        fam = build_n_qubit(4, (1e-4, 0.02))
        pair, t, shots = ghz_pair(4), 3.0, 200
        _pair_line.cache_clear()
        study = replication_study(fam, 0.019, pair, t, shots=shots, n_seeds=60, base_seed=3)
        assert _pair_line.cache_info().misses == 1
        assert 0 < study.n_clamped < 60

    def test_one_inversion_per_distinct_count(self):
        # The inversion is memoized on (family, pair, t, shots, plus_count):
        # replicates that repeat a count share its report.
        fam = build_n_qubit(4, DOMAIN)
        pair = ghz_pair(4)
        _inversion.cache_clear()
        study = replication_study(fam, 0.05, pair, 3.0, shots=100, n_seeds=50, base_seed=12)
        counts = [simulate_parity_counts(fam, 0.05, pair, 3.0, 100, 12 ^ r).plus_count for r in range(50)]
        info = _inversion.cache_info()
        assert info.misses == len(set(counts)) < 50
        assert info.hits == 50 - len(set(counts))
        by_count = dict(zip(counts, study.reports))
        assert all(report is by_count[k] for k, report in zip(counts, study.reports))

    def test_estimate_forms_only_the_study_crb(self, monkeypatch, capsys):
        # The scenario prints no replicate's scale: the one Cramer-Rao std it
        # forms is the study's own, shot_uncertainty at the true xi.
        calls = []

        def counting(family, xi, pair, shots):
            calls.append((xi, pair, shots))
            return shot_uncertainty(family, xi, pair, shots)

        monkeypatch.setattr(cli, "shot_uncertainty", counting)
        _inversion.cache_clear()
        assert main(["estimate"]) == 0
        capsys.readouterr()
        assert calls == [(0.01, ghz_pair(6), 10_000)]

    def test_report_compares_and_prints_its_two_values(self):
        a = EstimateReport(0.01)
        assert a == EstimateReport(0.01, False)
        assert a != EstimateReport(0.01, True) and a != EstimateReport(0.02)
        assert hash(a) == hash(EstimateReport(0.01, False))
        assert repr(a) == "EstimateReport(xi_hat=0.01, clamped=False)"
        assert repr(EstimateReport(None)) == "EstimateReport(xi_hat=None, clamped=False)"

    def test_seed_xor_convention(self):
        fam = build_n_qubit(4, DOMAIN)
        pair = ghz_pair(4)
        study = replication_study(fam, 0.05, pair, 3.0, shots=100, n_seeds=4, base_seed=12)
        manual = [
            estimate_xi(simulate_parity_counts(fam, 0.05, pair, 3.0, 100, 12 ^ r), fam).xi_hat
            for r in range(4)
        ]
        assert study.estimates.tolist() == [x for x in manual if x is not None]
        assert [r.xi_hat for r in study.reports] == manual

    def test_deterministic(self):
        fam = build_n_qubit(4, DOMAIN)
        pair = ghz_pair(4)
        a = replication_study(fam, 0.05, pair, 3.0, shots=200, n_seeds=10, base_seed=2)
        b = replication_study(fam, 0.05, pair, 3.0, shots=200, n_seeds=10, base_seed=2)
        assert a.estimates.tolist() == b.estimates.tolist()


def exact_law(family, xi, pair, t, shots):
    """Exact mean and std of the clamped xi_hat over the invertible counts k > M/2.

    k ~ Binomial(M, p_plus) with the pmf from ``math.lgamma``; the counts
    k <= M/2 carry no estimate and drop out.  xi_hat is the closed-form
    inversion of the rate line, clamped to the family's domain.
    """
    rate, slope = decay_rate(family, xi, pair), decay_rate_derivative(family, pair)
    g0 = rate - xi * slope
    p = 0.5 * (1.0 + math.exp(-rate * t))
    lo, hi = family.xi_domain
    log_norm = math.lgamma(shots + 1)
    weights, values = [], []
    for k in range(shots // 2 + 1, shots + 1):
        log_pmf = log_norm - math.lgamma(k + 1) - math.lgamma(shots - k + 1)
        log_pmf += k * math.log(p) + (shots - k) * math.log1p(-p)
        weights.append(math.exp(log_pmf))
        values.append(min(max((-math.log(2.0 * k / shots - 1.0) / t - g0) / slope, lo), hi))
    w, x = np.array(weights), np.array(values)
    mean = float(np.sum(w * x) / np.sum(w))
    return mean, float(np.sqrt(np.sum(w * (x - mean) ** 2) / np.sum(w)))


class TestExactSamplingLaw:
    """Replication studies against the exact law of xi_hat (N = 6, xi = 0.01, M = 1e4, shot-optimal t).

    The sample mean of R estimates lies within 4 std / sqrt(R) of the exact
    mean, and their sample std within 4 std / sqrt(2 (R - 1)) of the exact
    std: z <= 4 on both.
    """

    N, XI, SHOTS, SEEDS = 6, 0.01, 10**4, 200

    def law(self):
        fam, pair = build_n_qubit(self.N, DOMAIN), ghz_pair(self.N)
        t = coherence_pair_qfi_shot_peak(fam, self.XI, pair).time
        return fam, pair, t, exact_law(fam, self.XI, pair, t, self.SHOTS)

    def assert_within_law(self, mean, std, n_estimates, law_mean, law_std):
        assert abs(mean - law_mean) <= 4.0 * law_std / math.sqrt(n_estimates)
        assert abs(std - law_std) <= 4.0 * law_std / math.sqrt(2 * (n_estimates - 1))

    def test_exact_std_is_the_cramer_rao_scale(self):
        fam, pair, _, (mean, std) = self.law()
        crb = shot_uncertainty(fam, self.XI, pair, self.SHOTS)
        assert std == pytest.approx(crb, rel=0.01)
        assert abs(mean - self.XI) <= 0.05 * crb

    # Base seed 0 is the estimate scenario's default, the next test.
    @pytest.mark.parametrize("base_seed", [107, 1 << 20, (1 << 40) + 3, 2**64 - 256])
    def test_study_follows_the_exact_law(self, base_seed):
        fam, pair, t, (mean, std) = self.law()
        study = replication_study(fam, self.XI, pair, t, self.SHOTS, self.SEEDS, base_seed)
        estimates = study.estimates
        assert study.empirical_std == float(np.std(estimates, ddof=1))
        self.assert_within_law(float(np.mean(estimates)), study.empirical_std, len(estimates), mean, std)

    def test_estimate_scenario_defaults_follow_the_exact_law(self, capsys):
        # The CLI's defaults are this study: n 6, xi 0.01, 1e4 shots, 200 seeds, base seed 0.
        assert main(["estimate"]) == 0
        header = dict(line[2:].split(": ", 1) for line in capsys.readouterr().out.splitlines() if line.startswith("# "))
        _, _, t, (mean, std) = self.law()
        assert float(header["t"]) == t
        n_estimates = self.SEEDS - int(header["failed"])
        self.assert_within_law(
            self.XI + float(header["mean_bias"]), float(header["empirical_std"]), n_estimates, mean, std
        )
