"""Probe and interrogation-time optimization, and entanglement-advantage ratios.

The resource regimes are ``qfi.REGIMES``: ``"time"`` constrains the total
protocol time (figure of merit: the time-averaged QFI, whose supremum sits at
t -> 0+), ``"shot"`` the number of runs (the per-shot QFI maximized over t).

The entangled search space is the set of equal-weight two-level
superpositions (|alpha> + |beta>)/sqrt(2) over coherence pairs, scored once
per difference class d = alpha - beta; the separable search space is
``ProductState``, product probes parametrized by polar angles.

In the time regime the product optimum needs no search.  The t -> 0+ rate of
a product probe is the SLD QFI of the N x N pair (K A K, K B K), with
K = diag(sin theta_j), A = (gamma/2) Re C(xi) and B = (gamma/2) Re dC.  The
map X -> K X K (+) K' X K', with K'^2 = 1 - K^2, is CPTP, and the SLD metric
is monotone under CPTP maps (D. Petz, Linear Algebra Appl. 244, 81 (1996)).
So K = 1, the probe |+>^N, is optimal for every family.  Only the shot
regime searches over product probes.

The searches are written once, as ask/tell generators: ``_nelder_mead`` (its
simplex one array) and ``_time_scan`` yield the points they need and are sent
back their values.  ``nelder_mead_max`` and ``maximize_over_time`` each drive
one of them on a scalar function.  ``_lockstep`` drives many: every round, the
pending points of all of them go to one evaluation.  The shot-regime product
search uses it to score every multistart's points in one stacked
``qfi_exact_value`` call, split so that a stack holds at most
``_BATCH_ELEMENTS`` matrix elements, with one product vector per distinct
angle row; candidates with byte-equal angles share one time scan.  Stacked
values equal single-state values bit for bit, so the order and grouping of
evaluations never changes a result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    CoherencePair,
    ProductState,
    ResourceLimitError,
    _class_rates,
    _class_table,
    _product_vectors,
    plus_product,
)
from .model import DephasingFamily, build_n_qubit, build_two_qubit
from .qfi import (
    REGIMES,
    DivergentQfiError,
    QfiResult,
    _check_regime,
    _pair_optimum,
    qfi_exact_value,
    shot_optimum_x,
    time_averaged_qfi_limit,
)

TIME_BRACKET_SPAN = (1e-3, 1e2)
GRID_POINTS = 64
GOLDEN_REL_TOL = 1e-6

NM_XATOL = 1e-8
NM_FATOL = 1e-10
NM_MAX_ITER = 2000
_NM_STEP = 0.35

# Bound on the matrix elements one stacked QFI evaluation of the product
# search holds: 32 states at N = 5, one at N >= 8.  It bounds memory: from
# N = 5 on, eigh costs the same per state stacked or alone, so larger stacks
# would add peak RSS and no speed.
_BATCH_ELEMENTS = 1 << 15

PRODUCT_MAX_QUBITS = 10
PAIR_ENUM_MAX_QUBITS = 12

__all__ = [
    "REGIMES",
    "OptimizationReport",
    "AdvantageRatio",
    "maximize_over_time",
    "optimal_coherence_pair",
    "optimal_product_state",
    "advantage_ratio",
    "dynamical_range_threshold",
    "default_time_bracket",
    "family_for_ratio",
    "nelder_mead_max",
]


@dataclass(frozen=True)
class OptimizationReport:
    best: QfiResult
    starts: int
    converged_fraction: float


@dataclass(frozen=True)
class AdvantageRatio:
    n_qubits: int
    xi: float
    regime: str
    entangled_best: QfiResult
    separable_best: QfiResult
    ratio: float


def _lockstep(generators, evaluate) -> list:
    """Drive ask/tell generators together and return their results in order.

    Each generator yields a list of points and is sent back a list of their
    values.  Every round passes the pending points of all live generators to
    one ``evaluate`` call, which returns their values in the same order.
    """
    results = [None] * len(generators)
    asks = {k: next(gen) for k, gen in enumerate(generators)}
    while asks:
        values = evaluate([x for points in asks.values() for x in points])
        pending, pos = {}, 0
        for k, points in asks.items():
            try:
                pending[k] = generators[k].send(values[pos : pos + len(points)])
            except StopIteration as stop:
                results[k] = stop.value
            pos += len(points)
        asks = pending
    return results


def _asking(gen, point):
    """Wrap an ask/tell generator so that it asks for point(x) wherever ``gen`` asks for x."""
    values = None
    while True:
        try:
            xs = gen.send(values)
        except StopIteration as stop:
            return stop.value
        values = yield [point(x) for x in xs]


def _time_scan(bracket: tuple[float, float]):
    """Ask/tell form of ``maximize_over_time``: yields lists of times, returns (t_star, value)."""
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < t_lo < t_hi):
        raise ValueError(f"bracket must satisfy 0 < t_lo < t_hi, got ({t_lo}, {t_hi})")
    ts = np.geomspace(t_lo, t_hi, GRID_POINTS)
    vals = [float(v) for v in (yield list(ts))]
    i = int(np.argmax(vals))
    best_t, best_v = float(ts[i]), vals[i]

    a = float(ts[max(i - 1, 0)])
    b = float(ts[min(i + 1, GRID_POINTS - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = (float(v) for v in (yield [c, d]))
    while (b - a) > GOLDEN_REL_TOL * max(abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float((yield [c])[0])
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float((yield [d])[0])
        t_cand, v_cand = (c, fc) if fc >= fd else (d, fd)
        if v_cand > best_v:
            best_t, best_v = float(t_cand), v_cand
    return best_t, best_v


def maximize_over_time(eval_fn, bracket: tuple[float, float]) -> tuple[float, float]:
    """Maximize eval_fn(t) on a positive bracket.

    Scans a 64-point log grid, then refines around the best grid point by
    golden-section search to a relative t tolerance of 1e-6; returns the
    better of grid and refined maxima as (t_star, value).
    """
    return _lockstep([_time_scan(bracket)], lambda ts: [eval_fn(t) for t in ts])[0]


def default_time_bracket(family: DephasingFamily, xi: float) -> tuple[float, float]:
    """[1e-3, 1e2] in units of the slowest nonzero decay rate at xi."""
    rates = _class_rates(family, float(xi))
    positive = rates[rates > 1e-12 * rates.max()]
    if positive.size == 0:
        raise ValueError("family has no nonzero decay rate; no finite time scale")
    slow = float(positive.min())
    if TIME_BRACKET_SPAN[1] / slow == np.inf:
        raise ValueError(f"slowest decay rate {slow:.17g} puts the time bracket past the float range")
    return TIME_BRACKET_SPAN[0] / slow, TIME_BRACKET_SPAN[1] / slow


def _nelder_mead(x0: np.ndarray, step: float):
    """Ask/tell ``nelder_mead_max`` on one (dim + 1, dim) simplex array: yields lists of points, returns its result."""
    alpha, gamma_e, rho_c, sigma_s = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=np.float64)
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    simplex[np.arange(1, dim + 1), np.arange(dim)] += step
    values = np.array((yield list(simplex)), dtype=np.float64)
    n_eval = dim + 1
    converged = False
    for _ in range(NM_MAX_ITER):
        order = values.argsort()[::-1]
        simplex, values = simplex[order], values[order]
        if np.abs(simplex[1:] - simplex[0]).max() <= NM_XATOL or abs(values[0] - values[-1]) <= NM_FATOL:
            converged = True
            break
        centroid = simplex[:-1].sum(axis=0) / dim
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = float((yield [xr])[0])
        n_eval += 1
        if fr > values[0]:
            xe = centroid + gamma_e * (centroid - simplex[-1])
            fe = float((yield [xe])[0])
            n_eval += 1
            simplex[-1], values[-1] = (xe, fe) if fe > fr else (xr, fr)
        elif fr > values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            xc = centroid + rho_c * (simplex[-1] - centroid)
            fc = float((yield [xc])[0])
            n_eval += 1
            if fc > values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + sigma_s * (simplex[1:] - simplex[0])
                values[1:] = (yield list(simplex[1:]))
                n_eval += dim
    best = values.argsort()[-1]
    return simplex[best].copy(), float(values[best]), converged, n_eval


def nelder_mead_max(fn, x0: np.ndarray, step: float = _NM_STEP) -> tuple[np.ndarray, float, bool, int]:
    """Derivative-free simplex maximization of fn.

    Classic reflection/expansion/contraction/shrink moves.  Terminates when
    the simplex diameter falls below 1e-8 or the value spread below 1e-10,
    with a 2000-iteration cap.  Returns (x_best, f_best, converged, n_eval).
    """
    return _lockstep([_nelder_mead(x0, step)], lambda xs: [fn(x) for x in xs])[0]


def optimal_coherence_pair(family: DephasingFamily, xi: float, regime: str) -> QfiResult:
    """Best equal-weight coherence-pair probe, scored once per difference class.

    A class stands for its lexicographically first pair, and ties break on those pairs' basis indices.
    """
    _check_regime(regime)
    n = family.n_qubits
    if n > PAIR_ENUM_MAX_QUBITS:
        raise ResourceLimitError(
            f"pair enumeration is guarded at N <= {PAIR_ENUM_MAX_QUBITS}, got {n}"
        )
    diffs, first, _ = _class_table(n)
    values, times = _pair_optimum(_class_rates(family, float(xi)), _class_rates(family, None), diffs, regime)
    top = np.flatnonzero(values == values.max())
    k = top[np.lexsort((first[top, 1], first[top, 0]))[0]]
    pair = CoherencePair.from_indices(*map(int, first[k]), n)
    return QfiResult(float(values[k]), regime, float(times[k]), pair)


def _fold_theta(theta: np.ndarray) -> np.ndarray:
    """Map arbitrary real angles onto [0, pi] without changing the QFI."""
    folded = np.mod(theta, 2.0 * np.pi)
    return np.where(folded > np.pi, 2.0 * np.pi - folded, folded)


def _theta_key(theta: np.ndarray) -> tuple[float, ...]:
    return tuple(float(x) for x in np.round(theta, 12))


def optimal_product_state(
    family: DephasingFamily,
    xi: float,
    regime: str,
    seed: int = 0,
) -> OptimizationReport:
    """Maximize the regime's figure of merit over product probes.

    Time regime: no search.  A product probe's t -> 0+ rate is the SLD QFI of
    (K A K, K B K) with K = diag(sin theta_j) (``time_averaged_qfi_limit``).
    The map X -> K X K (+) K' X K' with K'^2 = 1 - K^2 is CPTP, and the SLD
    metric is monotone under CPTP maps (D. Petz, Linear Algebra Appl. 244, 81
    (1996)), so K = 1, i.e. |+>^N, is optimal for every family.  The report
    holds its exact limit with starts = 0 and converged_fraction = 1.0;
    ``seed`` is not used.

    Shot regime: runs 8 + 2N Nelder-Mead multistarts, joint over the polar
    angles and log t (the all-pi/2 probe at t = x* / slowest rate, plus
    uniform-random starts), and finishes each candidate with the
    ``maximize_over_time`` scan.  |+>^N, with its own scan, is the last
    candidate of the merge (largest value, then smallest angle key, then
    earliest), so the report is never below it.

    Only part of the time-regime argument carries over to finite t.  The
    instrument with Kraus operators (x)_j diag(cos(theta_j/2), sin(theta_j/2))
    and their per-qubit swaps, with a classical flag, is CPTP, xi-independent
    and commutes with the dynamics (a diagonal congruence commutes with a
    Schur multiplier); populations are conserved, so each branch weighs 2^-N.
    Monotonicity gives F(+, t) >= 2^-N sum_S F(theta^S, t), where theta^S
    sends theta_j to pi - theta_j for j in S.  For diagonal C every flip is a
    symmetry, so |+>^N is the shot optimum; for correlated C it is open, so
    the search runs.

    The multistarts run in lockstep, then all time scans do: each round is
    one stacked QFI evaluation of every pending point, in stacks of at most
    ``_BATCH_ELEMENTS`` matrix elements (32 states at N = 5, one at N >= 8),
    building each distinct angle row's vector once and no ProductState.
    Candidates with byte-equal folded angles (|+>^N and start 0 on the
    collective family) share one scan.  Stacked values equal single-state
    values bit for bit, and the merge is a deterministic reduction, so a
    fixed seed implies a bit-identical report, the same as running the
    starts one after another.
    """
    _check_regime(regime)
    n = family.n_qubits
    if regime == "time":
        return OptimizationReport(time_averaged_qfi_limit(plus_product(n), family, xi), 0, 1.0)
    if n > PRODUCT_MAX_QUBITS:
        raise ResourceLimitError(f"product-state search is guarded at N <= {PRODUCT_MAX_QUBITS}, got {n}")
    rng = np.random.default_rng(seed)
    n_starts = 8 + 2 * n
    starts = [np.full(n, np.pi / 2.0)]
    starts.extend(rng.uniform(0.0, np.pi, size=n) for _ in range(n_starts - 1))
    bracket = default_time_bracket(family, xi)
    log_lo, log_hi = np.log(bracket[0]), np.log(bracket[1])
    start_logts = [np.log(shot_optimum_x() * bracket[0] / TIME_BRACKET_SPAN[0])]
    start_logts.extend(rng.uniform(log_lo, log_hi) for _ in range(n_starts - 1))

    chunk = max(1, _BATCH_ELEMENTS // 4**n)

    def evaluate(points: list) -> list:
        """QFI at (theta, t) points, in stacks of at most ``chunk`` states."""
        thetas = _fold_theta(np.array([theta for theta, _ in points]))
        ts = np.array([t for _, t in points])
        rows: dict = {}  # distinct angle rows: a time scan asks for one row at many t
        inverse = [rows.setdefault(row.tobytes(), len(rows)) for row in thetas]
        vecs = _product_vectors(np.frombuffer(b"".join(rows), dtype=np.float64).reshape(len(rows), n))[inverse]
        values = []
        for lo in range(0, len(points), chunk):
            vec = vecs[lo : lo + chunk]
            values.extend(qfi_exact_value(vec[:, :, None] * vec[:, None, :], family, xi, ts[lo : lo + chunk]))
        return values

    def nm_point(z: np.ndarray) -> tuple:
        return z[:-1], np.exp(min(max(z[-1], log_lo), log_hi))

    searches = [
        _asking(_nelder_mead(np.concatenate([starts[k], [start_logts[k]]]), _NM_STEP), nm_point)
        for k in range(n_starts)
    ]
    found = _lockstep(searches, evaluate)
    # Every candidate, |+>^N last, finishes with a time scan, shared by byte-equal angles.
    thetas = [_fold_theta(x[:n]) for x, _, _, _ in found] + [np.full(n, np.pi / 2.0)]
    distinct = {th.tobytes(): th for th in thetas}
    scanners = [_asking(_time_scan(bracket), lambda t, th=th: (th, t)) for th in distinct.values()]
    scanned = dict(zip(distinct, _lockstep(scanners, evaluate)))
    scans = [scanned[th.tobytes()] for th in thetas]
    candidates = [(val, _theta_key(th), th, t_star) for th, (t_star, val) in zip(thetas, scans)]

    # Deterministic merge: maximize value, break ties on the angle encoding.
    best = max(candidates, key=lambda r: (r[0], tuple(-x for x in r[1])))
    converged_fraction = sum(c for _, _, c, _ in found) / n_starts
    result = QfiResult(best[0], "shot", best[3], ProductState(best[2]))
    return OptimizationReport(result, n_starts, converged_fraction)


def dynamical_range_threshold(n: int) -> float:
    """Largest xi for which the exponential shot-regime advantage applies: N / 2^(N-1)."""
    n = int(n)
    if n < 2:
        raise ValueError(f"threshold is defined for n >= 2, got {n}")
    return n / 2.0 ** (n - 1)


def family_for_ratio(n: int, xi: float, gamma: float = 1.0) -> DephasingFamily:
    """Family used in advantage sweeps: the dedicated 2-qubit correlated
    family for n = 2, the collective N-qubit family otherwise."""
    if not 0.0 < xi < 1.0:
        raise ValueError(f"advantage sweeps require 0 < xi < 1, got {xi}")
    lo = min(1e-6, xi / 2.0)
    if n == 2:
        return build_two_qubit((lo, 1.0), gamma=gamma)
    return build_n_qubit(n, (lo, 1.0), gamma=gamma)


def advantage_ratio(
    n: int,
    xi: float,
    regime: str,
    seed: int = 0,
    gamma: float = 1.0,
) -> AdvantageRatio:
    """Ratio of the best coherence-pair probe to the best product probe.

    ``gamma`` sets the time unit: the time-regime optima scale with it and the
    per-shot optima do not, so the ratio is gamma-free up to the shot search's
    roundoff.
    """
    n = int(n)
    if not 2 <= n <= PRODUCT_MAX_QUBITS:
        raise ValueError(f"n must lie in [2, {PRODUCT_MAX_QUBITS}], got {n}")
    family = family_for_ratio(n, xi, gamma=gamma)
    entangled = optimal_coherence_pair(family, xi, regime)
    separable = optimal_product_state(family, xi, regime, seed=seed).best
    if separable.value <= 0.0:
        raise DivergentQfiError("separable optimum is zero; advantage ratio undefined")
    return AdvantageRatio(n, float(xi), regime, entangled, separable, entangled.value / separable.value)
