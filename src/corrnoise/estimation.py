"""Parity-measurement simulation, maximum-likelihood estimation and
Cramer-Rao accounting for coherence-pair sensing.

Measurement model
-----------------
The probe (|alpha> + |beta>)/sqrt(2) is measured in the conjugate basis
(|alpha> +/- |beta>)/sqrt(2) after evolving for time t.  With decay rate
G = rate(alpha, beta) the "+" outcome has probability

    p_plus = (1 + exp(-G t)) / 2,

so counts are Binomial(M, p_plus).  For real coherences this two-outcome
measurement saturates the pair QFI at every t, which keeps the
maximum-likelihood inversion closed form: G is linear in xi, hence

    xi_hat = (-ln(2 p_hat - 1)/t - G(0)) / G'        (p_hat > 1/2).

Reproducible random numbers
---------------------------
Counts are drawn with a counter-based 64-bit generator (SplitMix64): draw i
of stream ``seed`` is

    z   = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z  ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
    z  ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
    out = z ^ (z >> 31)

and uniform deviates are out / 2^64.  The stream for seed 0 starts
0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F; these vectors
are pinned in the test suite so independent implementations can reproduce
identical experiments.  The i-th draw is a pure function of (seed, i), so
shots can be generated in any order or in parallel.  Replication studies
use stream seeds ``base_seed XOR replicate_index``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import CoherencePair, _pair_diff, _rate_form, decay_rate, ghz_pair
from .model import DephasingFamily
from .optimize import dynamical_range_threshold
from .qfi import DivergentQfiError, coherence_pair_qfi_shot, coherence_pair_qfi_shot_peak

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1

__all__ = [
    "NoInformationError",
    "ExperimentRecord",
    "EstimateReport",
    "PromiseReport",
    "ReplicationStudy",
    "splitmix64",
    "uniform_stream",
    "shot_uncertainty",
    "promise_check",
    "simulate_parity_counts",
    "estimate_xi",
    "replication_study",
]


class NoInformationError(ValueError):
    """The channel carries no dependence on xi at the requested probe."""


def splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Outputs offset+1 .. offset+count of the SplitMix64 stream for ``seed``."""
    if count < 0 or offset < 0:
        raise ValueError("count and offset must be >= 0")
    z = np.uint64(seed & _MASK) + (np.arange(offset + 1, offset + count + 1, dtype=np.uint64)) * _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    return z ^ (z >> np.uint64(31))


def uniform_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Deterministic uniforms in [0, 1): splitmix64 outputs scaled by 2^-64."""
    return splitmix64(seed, count, offset) * 2.0**-64


@dataclass(frozen=True)
class ExperimentRecord:
    """One simulated parity-measurement run."""

    pair: CoherencePair
    xi_true: float
    t: float
    shots: int
    plus_count: int
    seed: int

    def __post_init__(self):
        if self.shots <= 0:
            raise ValueError(f"shots must be > 0, got {self.shots}")
        if not 0 <= self.plus_count <= self.shots:
            raise ValueError(f"plus_count {self.plus_count} outside [0, {self.shots}]")


@dataclass(frozen=True)
class EstimateReport:
    """Maximum-likelihood estimate with its Cramer-Rao scale.

    xi_hat is None when the observed plus fraction is <= 1/2 (the coherence
    signal is not invertible).  empirical_std is populated by replication
    studies only.
    """

    xi_hat: float | None
    std_error_crb: float
    empirical_std: float | None = None
    clamped: bool = False


@dataclass(frozen=True)
class PromiseReport:
    """Dynamical-range promise check for GHZ-pair sensing."""

    xi_hat: float
    xi_threshold: float
    holds: bool
    coherence_time: float
    predicted_coherence: float
    shot_uncertainty: float | None = None


@dataclass(frozen=True)
class ReplicationStudy:
    """Aggregate of many independent single-run estimates."""

    estimates: np.ndarray
    n_failed: int
    empirical_std: float
    mean_bias: float
    crb_std: float
    report: EstimateReport


def shot_uncertainty(family: DephasingFamily, xi: float, pair: CoherencePair, shots: int) -> float:
    """Cramer-Rao uncertainty [M * max_t F_Q]^{-1/2} for one coherence pair."""
    if shots <= 0:
        raise ValueError(f"shots must be > 0, got {shots}")
    peak = coherence_pair_qfi_shot_peak(family, xi, pair)
    if peak.value == 0.0:
        raise NoInformationError(f"pair {pair.label} carries no information about xi (G' = 0)")
    return 1.0 / math.sqrt(shots * peak.value)


def promise_check(
    family: DephasingFamily,
    xi_hat: float,
    gamma: float | None = None,
    n: int | None = None,
    shots: int | None = None,
) -> PromiseReport:
    """Check whether an estimate sits inside the dynamical range N / 2^(N-1).

    Also reports the predicted GHZ coherence exp(-G(xi_hat) t) at the probe
    time t = 1/(n xi_hat gamma), the quantity an experiment would measure to
    certify the promise.  With ``shots`` given, the matching Cramer-Rao
    uncertainty is included.
    """
    if xi_hat <= 0.0:
        raise ValueError(f"xi_hat must be > 0, got {xi_hat}")
    gamma = family.gamma if gamma is None else float(gamma)
    n = family.n_qubits if n is None else int(n)
    pair = ghz_pair(family.n_qubits)
    rate = decay_rate(family, xi_hat, pair)
    t_probe = 1.0 / (n * xi_hat * gamma)
    coherence = math.exp(-rate * t_probe)
    threshold = dynamical_range_threshold(n)
    delta = shot_uncertainty(family, xi_hat, pair, shots) if shots is not None else None
    return PromiseReport(float(xi_hat), threshold, xi_hat < threshold, t_probe, coherence, delta)


def _plus_probability(family: DephasingFamily, xi: float, pair: CoherencePair, t: float) -> float:
    rate = decay_rate(family, xi, pair)
    return 0.5 * (1.0 + math.exp(-rate * t))


def simulate_parity_counts(
    family: DephasingFamily,
    xi_true: float,
    pair: CoherencePair,
    t: float,
    shots: int,
    seed: int,
) -> ExperimentRecord:
    """Draw Binomial(shots, p_plus) counts from the documented SplitMix64 stream."""
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    if shots <= 0:
        raise ValueError(f"shots must be > 0, got {shots}")
    p_plus = _plus_probability(family, xi_true, pair, t)
    draws = uniform_stream(seed, shots)
    plus = int(np.count_nonzero(draws < p_plus))
    return ExperimentRecord(pair, float(xi_true), t, int(shots), plus, int(seed))


def _crb_std(family: DephasingFamily, xi: float, pair: CoherencePair, t: float, shots: int) -> float:
    """Cramer-Rao std [M F_Q(t)]^{-1/2} of M shots of one pair probed for time t; 0 on a dark coherence."""
    try:
        qfi = coherence_pair_qfi_shot(family, xi, pair, t).value
    except DivergentQfiError:
        return 0.0
    return 1.0 / math.sqrt(shots * qfi) if qfi > 0.0 else math.inf


def estimate_xi(record: ExperimentRecord, family: DephasingFamily) -> EstimateReport:
    """Closed-form maximum-likelihood inversion of the parity counts, with the plug-in CRB at xi_hat."""
    pair = record.pair
    # G(0): the rate extrapolated to xi = 0, which may sit outside the
    # admissible domain; needed only as the intercept of the linear inversion.
    diff = _pair_diff(family, pair)
    g0 = float(_rate_form(family, family.c0, diff)[0])
    gp = float(_rate_form(family, family.delta_c, diff)[0])
    if gp == 0.0:
        raise NoInformationError(f"pair {pair.label} carries no information about xi (G' = 0)")
    p_hat = record.plus_count / record.shots
    if p_hat <= 0.5:
        return EstimateReport(None, math.inf)
    rate_hat = -math.log(2.0 * p_hat - 1.0) / record.t
    xi_hat = (rate_hat - g0) / gp
    lo, hi = family.xi_domain
    clamped = not lo <= xi_hat <= hi
    xi_hat = float(min(max(xi_hat, lo), hi))
    return EstimateReport(xi_hat, _crb_std(family, xi_hat, pair, record.t, record.shots), clamped=clamped)


def replication_study(
    family: DephasingFamily,
    xi_true: float,
    pair: CoherencePair,
    t: float,
    shots: int,
    n_seeds: int,
    base_seed: int = 0,
) -> ReplicationStudy:
    """Run n_seeds independent experiments (seeds base XOR index); crb_std is at the true xi."""
    if n_seeds < 2:
        raise ValueError(f"need at least 2 replicates, got {n_seeds}")
    estimates = []
    n_failed = 0
    for r in range(n_seeds):
        record = simulate_parity_counts(family, xi_true, pair, t, shots, base_seed ^ r)
        report = estimate_xi(record, family)
        if report.xi_hat is None:
            n_failed += 1
        else:
            estimates.append(report.xi_hat)
    arr = np.array(estimates)
    if arr.size < 2:
        raise NoInformationError("fewer than two replicates produced an invertible signal")
    emp_std = float(np.std(arr, ddof=1))
    bias = float(np.mean(arr) - xi_true)
    std_crb = _crb_std(family, xi_true, pair, t, shots)
    summary = EstimateReport(float(np.mean(arr)), std_crb, empirical_std=emp_std)
    return ReplicationStudy(arr, n_failed, emp_std, bias, std_crb, summary)
