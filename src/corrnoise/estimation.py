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

The Cramer-Rao scale is ``shot_uncertainty``, [M max_t F_Q]^{-1/2} at the
shot-optimal t, which the CLI's ``estimate`` prints next to the study.

Units (``model``): G t, the counts and the estimates of xi do not depend on gamma.

Reproducible random numbers
---------------------------
Counts are drawn with a counter-based 64-bit generator (SplitMix64): draw i
of stream ``seed`` is

    z   = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z  ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
    z  ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
    out = z ^ (z >> 31)

and uniform deviates are out / 2^64, with out rounded to float64 first.  The
stream for seed 0 starts 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
0x06C45D188009454F; these vectors are pinned in the test suite so
independent implementations can reproduce identical experiments, and the
suite holds the stream's two reference implementations, in pure Python and
in numpy.  The i-th draw is a pure function of (seed, i), so shots can be
generated in any order or in parallel.  ``replication_study``, the one
replicate loop (the CLI's ``estimate`` prints it), gives replicate r the
stream base_seed XOR r.

Counts never form the float stream: u_i < p holds exactly when out_i < T,
with T the smallest integer whose float64 rounding is >= p * 2^64.  The last
round, out = z ^ (z >> 31), keeps bits 63..33 of z, so with Lo the threshold
T with its low 33 bits cleared, z < Lo implies out < T and z >= Lo + 2^33
implies out >= T.  ``count_uniforms_below`` therefore runs the first two
rounds only and counts z < Lo; a second count, of z <= Lo + 2^33 - 1 (at most
2^64 - 1), finds the draws in the band between, which land there with
probability 2^-31 and alone take the last round and the comparison with T.
It works in chunks of ``_CHUNK`` = 2^16 draws, through per-thread buffers
(512 KB each) that it keeps from call to call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .evolution import CoherencePair, _pair_line, decay_rate
from .model import DephasingFamily
from .qfi import coherence_pair_qfi_shot_peak

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# The two xor-shift-multiply rounds, then the last round's shift.
_ROUNDS = ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2))
_LAST_SHIFT = np.uint64(31)
_MASK = (1 << 64) - 1
_CHUNK = 1 << 16
# Width of the band of state words whose last round can decide a comparison:
# the last round leaves bits 63..33 as they are.
_BAND = 1 << 33

__all__ = [
    "NoInformationError",
    "ExperimentRecord",
    "EstimateReport",
    "ReplicationStudy",
    "count_uniforms_below",
    "shot_uncertainty",
    "simulate_parity_counts",
    "estimate_xi",
    "replication_study",
]


class NoInformationError(ValueError):
    """The channel carries no dependence on xi at the requested probe."""


def _rounds(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The two xor-shift-multiply rounds of SplitMix64, in place on the state words z; tmp is scratch of z's shape."""
    for shift, mix in _ROUNDS:
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mix
    return z


def _last_round(z: np.ndarray) -> np.ndarray:
    """out = z ^ (z >> 31), in place on the words that ``_rounds`` left."""
    z ^= z >> _LAST_SHIFT
    return z


@lru_cache(maxsize=16)
def _float_threshold(p: float) -> int:
    """Smallest integer T whose float64 rounding is >= p * 2^64.

    Rounding is monotone, so for integer out: fl(out) * 2^-64 < p iff out < T.
    Integers below the midpoint of p * 2^64 and its float predecessor round
    down; the midpoint itself rounds up only when ties-to-even says so.
    """
    target = p * 2.0**64
    a, b = math.nextafter(target, -math.inf).as_integer_ratio()
    c, d = target.as_integer_ratio()
    t = (a * d + c * b) // (2 * b * d)  # floor of the midpoint (a/b + c/d) / 2, in exact integers
    return t if float(t) >= target else t + 1


# count_uniforms_below's buffers, one set per thread, kept between calls: a
# fresh 512 KB buffer per call would be mapped and faulted in anew each time.
_buffers = threading.local()


def _count_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(scaled index, state words, shift scratch, comparison), ``_CHUNK`` entries each.

    Draw start + i has state seed + (start + i) * golden: the scaled index
    (i + 1) * golden is built once, and each chunk adds its own start word.
    """
    if not hasattr(_buffers, "arrays"):
        scaled = np.arange(1, _CHUNK + 1, dtype=np.uint64)
        scaled *= _GOLDEN
        _buffers.arrays = scaled, np.empty(_CHUNK, np.uint64), np.empty(_CHUNK, np.uint64), np.empty(_CHUNK, bool)
    return _buffers.arrays


def count_uniforms_below(seed: int, count: int, p: float) -> int:
    """How many of the first ``count`` uniform deviates of stream ``seed`` lie below ``p``, without the float stream.

    Counts, in chunks of ``_CHUNK`` draws, the state words after two rounds
    that lie below the threshold of ``p`` with its low 33 bits cleared; only
    the draws in the band above it take the last round (see the module
    docstring).  Every chunk writes into the same state, scratch and
    comparison buffers.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    p = float(p)
    if not p > 0.0:
        return 0
    if p > 1.0:
        return count
    threshold = _float_threshold(p)
    lo = threshold & -_BAND
    band_lo, band_top = np.uint64(lo), np.uint64(lo + _BAND - 1)
    scaled, z, tmp, flags = _count_buffers()
    total = 0
    for start in range(0, count, _CHUNK):
        m = min(_CHUNK, count - start)
        zm = z[:m]
        np.add(scaled[:m], np.uint64((seed + start * int(_GOLDEN)) & _MASK), out=zm)
        _rounds(zm, tmp[:m])
        below = int(np.count_nonzero(np.less(zm, band_lo, out=flags[:m])))
        total += below
        if int(np.count_nonzero(np.less_equal(zm, band_top, out=flags[:m]))) != below:
            band = zm[(zm >= band_lo) & (zm <= band_top)]
            total += int(np.count_nonzero(_last_round(band) < np.uint64(threshold)))
    return total


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
    """Maximum-likelihood estimate of one run.

    xi_hat is None when the plus fraction is <= 1/2 (not invertible);
    clamped marks an estimate moved onto the nearer end of the xi domain.
    """

    xi_hat: float | None
    clamped: bool = False


@dataclass(frozen=True)
class ReplicationStudy:
    """Every replicate's report, in replicate order, and the spread and bias of the
    invertible estimates (at least two)."""

    reports: tuple[EstimateReport, ...]
    empirical_std: float
    mean_bias: float

    @property
    def estimates(self) -> np.ndarray:
        """The invertible estimates, in replicate order."""
        return np.array([r.xi_hat for r in self.reports if r.xi_hat is not None])

    @property
    def n_failed(self) -> int:
        return sum(r.xi_hat is None for r in self.reports)

    @property
    def n_clamped(self) -> int:
        return sum(r.clamped for r in self.reports)


def shot_uncertainty(family: DephasingFamily, xi: float, pair: CoherencePair, shots: int) -> float:
    """Cramer-Rao uncertainty [M * max_t F_Q]^{-1/2} for one coherence pair."""
    if shots <= 0:
        raise ValueError(f"shots must be > 0, got {shots}")
    peak = coherence_pair_qfi_shot_peak(family, xi, pair)
    if peak.value == 0.0:
        raise NoInformationError(f"pair {pair.label} carries no information about xi (G' = 0)")
    return 1.0 / math.sqrt(shots * peak.value)


# The replicates of a study share (family, xi_true, pair): the rate behind
# p_plus is looked up, not recomputed, as are the pair's G(0) and G'.
_true_rate = lru_cache(maxsize=8)(decay_rate)


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
    p_plus = 0.5 * (1.0 + math.exp(-_true_rate(family, float(xi_true), pair) * t))
    plus = count_uniforms_below(seed, shots, p_plus)
    return ExperimentRecord(pair, float(xi_true), t, int(shots), plus, int(seed))


def estimate_xi(record: ExperimentRecord, family: DephasingFamily) -> EstimateReport:
    """Closed-form maximum-likelihood inversion of the parity counts."""
    return _inversion(family, record.pair, record.t, record.shots, record.plus_count)


# The inversion reads (pair, t, shots, plus_count) of a record and never its
# xi_true or seed.  A study's replicates share all but the count, and their
# counts repeat (about 280 distinct in 400 replicates of 1e5 shots), so each
# distinct count is inverted once, and those replicates share its report.
@lru_cache(maxsize=1024)
def _inversion(family: DephasingFamily, pair: CoherencePair, t: float, shots: int, plus_count: int) -> EstimateReport:
    # G(0) and G': intercept and slope of the pair's rate, linear in xi.
    _, slope, g0 = _pair_line(family, pair)
    gp = float(slope[0])
    if gp == 0.0:
        raise NoInformationError(f"pair {pair.label} carries no information about xi (G' = 0)")
    p_hat = plus_count / shots
    if p_hat <= 0.5:
        return EstimateReport(None)
    rate_hat = -math.log(2.0 * p_hat - 1.0) / t
    xi_hat = (rate_hat - g0) / gp
    clamped = not family.contains(xi_hat)
    lo, hi = family.xi_domain
    xi_hat = min(max(xi_hat, lo), hi)
    return EstimateReport(xi_hat, clamped)


def replication_study(
    family: DephasingFamily,
    xi_true: float,
    pair: CoherencePair,
    t: float,
    shots: int,
    n_seeds: int,
    base_seed: int = 0,
) -> ReplicationStudy:
    """Run n_seeds experiments (seeds base XOR index); NoInformationError if fewer than two invert."""
    if n_seeds < 2:
        raise ValueError(f"need at least 2 replicates, got {n_seeds}")
    reports = tuple(
        estimate_xi(simulate_parity_counts(family, xi_true, pair, t, shots, base_seed ^ r), family)
        for r in range(n_seeds)
    )
    arr = np.array([r.xi_hat for r in reports if r.xi_hat is not None])
    if arr.size < 2:
        raise NoInformationError("fewer than two replicates produced an invertible signal")
    return ReplicationStudy(reports, float(np.std(arr, ddof=1)), float(np.mean(arr) - xi_true))
