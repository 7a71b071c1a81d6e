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

The searches run over every start at once, in plain array code.
``_nelder_mead`` keeps one (starts, dim + 1, dim) simplex array, and each
iteration makes at most three ``evaluate`` calls: every reflection, then every
expansion and contraction, then every shrink.  ``_time_scan`` scans the
64-point grid of many functions of t in one call and runs their golden-section
rounds together.  Each start or function makes exactly the moves it makes
alone; ``nelder_mead_max`` and ``maximize_over_time`` are the one-start
calls.  The shot-regime product search scores each call's points in stacked
``qfi_exact_value`` calls of at most ``_BATCH_ELEMENTS`` matrix elements, and
candidates with byte-equal angles share one time scan.  Stacked values equal
single-state values bit for bit, so the grouping of evaluations never changes
a result.
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
    """Best probe of a search; ``unresolved`` counts the points scored -inf because their QFI raised."""

    best: QfiResult
    starts: int
    converged_fraction: float
    unresolved: int


@dataclass(frozen=True)
class AdvantageRatio:
    n_qubits: int
    xi: float
    regime: str
    entangled_best: QfiResult
    separable_best: QfiResult
    ratio: float


def _time_scan(bracket: tuple[float, float], evaluate, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``maximize_over_time`` for ``count`` functions at once: returns arrays (t_star, value).

    ``evaluate(ks, ts)`` returns the values of functions ks at times ts.  One
    call scans every grid, then each golden-section round is one call over
    the functions still refining.
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < t_lo < t_hi):
        raise ValueError(f"bracket must satisfy 0 < t_lo < t_hi, got ({t_lo}, {t_hi})")
    ts = np.geomspace(t_lo, t_hi, GRID_POINTS)
    funcs = np.arange(count)
    vals = evaluate(np.repeat(funcs, GRID_POINTS), np.tile(ts, count)).reshape(count, GRID_POINTS)
    i = vals.argmax(axis=1)
    best_t, best_v = ts[i], vals[funcs, i]

    a = ts[np.maximum(i - 1, 0)]
    b = ts[np.minimum(i + 1, GRID_POINTS - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = evaluate(np.concatenate([funcs, funcs]), np.concatenate([c, d])).reshape(2, count)
    while (live := np.flatnonzero((b - a) > GOLDEN_REL_TOL * np.maximum(np.abs(a), np.abs(b)))).size:
        left = fc[live] >= fd[live]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - invphi * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + invphi * (b[hi] - a[hi])
        fresh = evaluate(np.concatenate([lo, hi]), np.concatenate([c[lo], d[hi]]))
        fc[lo], fd[hi] = fresh[: lo.size], fresh[lo.size :]
        pick_c = fc[live] >= fd[live]
        t_cand = np.where(pick_c, c[live], d[live])
        v_cand = np.where(pick_c, fc[live], fd[live])
        up = v_cand > best_v[live]
        best_t[live[up]], best_v[live[up]] = t_cand[up], v_cand[up]
    return best_t, best_v


def maximize_over_time(eval_fn, bracket: tuple[float, float]) -> tuple[float, float]:
    """Maximize eval_fn(t) on a positive bracket.

    Scans a 64-point log grid, then refines around the best grid point by
    golden-section search to a relative t tolerance of 1e-6; returns the
    better of grid and refined maxima as (t_star, value).
    """
    t_star, value = _time_scan(bracket, lambda _, ts: np.array([eval_fn(t) for t in ts], dtype=np.float64), 1)
    return float(t_star[0]), float(value[0])


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


def _nelder_mead(x0s: np.ndarray, step: float, evaluate) -> tuple[np.ndarray, ...]:
    """``nelder_mead_max`` from every row of x0s at once: returns arrays (x_best, f_best, converged, n_eval).

    ``evaluate`` maps a (k, dim) array of points to their k values.  The
    simplices are one (starts, dim + 1, dim) array; each iteration of the
    starts still running makes at most three calls: every reflection, then
    every expansion and contraction, then every shrink.
    """
    alpha, gamma_e, rho_c, sigma_s = 1.0, 2.0, 0.5, 0.5
    x0s = np.asarray(x0s, dtype=np.float64)
    m, dim = x0s.shape
    simplex = np.repeat(x0s[:, None, :], dim + 1, axis=1)
    simplex[:, np.arange(1, dim + 1), np.arange(dim)] += step
    values = evaluate(simplex.reshape(-1, dim)).reshape(m, dim + 1)
    n_eval = np.full(m, dim + 1)
    converged = np.zeros(m, dtype=bool)
    live = np.arange(m)
    for _ in range(NM_MAX_ITER):
        order = values[live].argsort(axis=1)[:, ::-1]
        s = np.take_along_axis(simplex[live], order[:, :, None], axis=1)
        v = np.take_along_axis(values[live], order, axis=1)
        simplex[live], values[live] = s, v
        done = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= NM_XATOL) | (np.abs(v[:, 0] - v[:, -1]) <= NM_FATOL)
        converged[live[done]] = True
        live, s, v = live[~done], s[~done], v[~done]
        if not live.size:
            break
        centroid = s[:, :-1].sum(axis=1) / dim
        worst = s[:, -1]
        xr = centroid + alpha * (centroid - worst)
        fr = evaluate(xr)
        grow = fr > v[:, 0]
        second = grow | ~(fr > v[:, -2])  # expand, or contract
        x2 = np.where(grow[:, None], centroid + gamma_e * (centroid - worst), centroid + rho_c * (worst - centroid))
        f2 = np.full_like(fr, np.nan)
        if second.any():
            f2[second] = evaluate(x2[second])
        take_2 = second & (f2 > np.where(grow, fr, v[:, -1]))
        shrink = second & ~grow & ~take_2
        s[~shrink, -1] = np.where(take_2[:, None], x2, xr)[~shrink]
        v[~shrink, -1] = np.where(take_2, f2, fr)[~shrink]
        if shrink.any():
            best = s[shrink, :1]
            s[shrink, 1:] = best + sigma_s * (s[shrink, 1:] - best)
            v[shrink, 1:] = evaluate(s[shrink, 1:].reshape(-1, dim)).reshape(-1, dim)
        simplex[live], values[live] = s, v
        n_eval[live] += 1 + second + dim * shrink
    best = values.argsort(axis=1)[:, -1]
    return simplex[np.arange(m), best], values[np.arange(m), best], converged, n_eval


def nelder_mead_max(fn, x0: np.ndarray, step: float = _NM_STEP) -> tuple[np.ndarray, float, bool, int]:
    """Derivative-free simplex maximization of fn.

    Classic reflection/expansion/contraction/shrink moves.  Terminates when
    the simplex diameter falls below 1e-8 or the value spread below 1e-10,
    with a 2000-iteration cap.  Returns (x_best, f_best, converged, n_eval).
    """
    x0s = np.asarray(x0, dtype=np.float64)[None]
    x, f, converged, n_eval = _nelder_mead(x0s, step, lambda xs: np.array([fn(z) for z in xs], dtype=np.float64))
    return x[0], float(f[0]), bool(converged[0]), int(n_eval[0])


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
    holds its exact limit with starts = 0, converged_fraction = 1.0 and
    unresolved = 0; ``seed`` is not used.

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

    The multistarts run together in ``_nelder_mead``, then every candidate's
    time scan in ``_time_scan``.  Their points are scored in stacked QFI calls
    of at most ``_BATCH_ELEMENTS`` matrix elements (32 states at N = 5, one at
    N >= 8), with no ProductState.  Candidates with byte-equal folded angles
    (|+>^N and start 0 on the collective family) share one scan.  A point
    whose QFI raises ``DivergentQfiError`` (derivative weight in the numerical
    kernel of ``_sld_rate``) scores -inf, so the search moves away from it,
    and is counted in ``unresolved``.  Stacked values equal single-state
    values bit for bit, and the merge is a deterministic reduction, so a fixed
    seed implies a bit-identical report, the same as running the starts one
    after another.
    """
    _check_regime(regime)
    n = family.n_qubits
    if regime == "time":
        return OptimizationReport(time_averaged_qfi_limit(plus_product(n), family, xi), 0, 1.0, 0)
    if n > PRODUCT_MAX_QUBITS:
        raise ResourceLimitError(f"product-state search is guarded at N <= {PRODUCT_MAX_QUBITS}, got {n}")
    rng = np.random.default_rng(seed)
    n_starts = 8 + 2 * n
    starts = np.vstack([np.full(n, np.pi / 2.0), rng.uniform(0.0, np.pi, size=(n_starts - 1, n))])
    bracket = default_time_bracket(family, xi)
    log_lo, log_hi = np.log(bracket[0]), np.log(bracket[1])
    start_t = shot_optimum_x() * bracket[0] / TIME_BRACKET_SPAN[0]
    start_logts = np.append(np.log(start_t), rng.uniform(log_lo, log_hi, size=n_starts - 1))

    chunk = max(1, _BATCH_ELEMENTS // 4**n)
    unresolved = 0

    def scores(vecs: np.ndarray, ks: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """QFI of product vectors vecs[ks] at times ts, in stacks of at most ``chunk`` states; -inf where it raises."""
        nonlocal unresolved
        values = np.empty(len(ts))
        for lo in range(0, len(ts), chunk):
            vec, t = vecs[ks[lo : lo + chunk]], ts[lo : lo + chunk]
            try:  # the states are an argument only, so qfi_exact_value frees them before eigh
                values[lo : lo + chunk] = qfi_exact_value(vec[:, :, None] * vec[:, None, :], family, xi, t)
            except DivergentQfiError:
                # A probe the kernel policy rejects scores -inf, so the search moves away from it.
                for k in range(len(t)):
                    try:
                        values[lo + k] = qfi_exact_value(np.outer(vec[k], vec[k]), family, xi, t[k])
                    except DivergentQfiError:
                        values[lo + k] = -np.inf
                        unresolved += 1
        return values

    def nm_scores(z: np.ndarray) -> np.ndarray:
        ts = np.exp(np.clip(z[:, -1], log_lo, log_hi))
        return scores(_product_vectors(_fold_theta(z[:, :-1])), np.arange(len(z)), ts)

    found, _, converged, _ = _nelder_mead(np.column_stack([starts, start_logts]), _NM_STEP, nm_scores)
    # Every candidate, |+>^N last, finishes with a time scan, shared by byte-equal angles.
    thetas = np.vstack([_fold_theta(found[:, :n]), np.full(n, np.pi / 2.0)])
    rows: dict = {}
    inverse = np.array([rows.setdefault(th.tobytes(), len(rows)) for th in thetas])
    vecs = _product_vectors(thetas[np.unique(inverse, return_index=True)[1]])
    t_stars, values = _time_scan(bracket, lambda ks, ts: scores(vecs, ks, ts), len(rows))
    candidates = [(float(values[k]), _theta_key(th), th, float(t_stars[k])) for th, k in zip(thetas, inverse)]

    # Deterministic merge: maximize value, break ties on the angle encoding.
    best = max(candidates, key=lambda r: (r[0], tuple(-x for x in r[1])))
    result = QfiResult(best[0], "shot", best[3], ProductState(best[2]))
    return OptimizationReport(result, n_starts, int(converged.sum()) / n_starts, unresolved)


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
