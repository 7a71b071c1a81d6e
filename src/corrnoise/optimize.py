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

The searches run over every start at once, in plain array code.  The shot
regime's product search is ``_ascent``, a projected BFGS ascent with Armijo
backtracking on the analytic gradient of ``qfi.product_qfi_value_grad``
(gradient-based QFI optimisation: Koczor et al., New J. Phys. 22, 083038
(2020); Meyer et al., npj Quantum Inf. 7, 89 (2021)); each backtracking round
is one call over the starts still searching.  ``_time_scan`` scans the
64-point grid of many functions of t in one call and runs their
golden-section rounds together, each function making exactly the moves it
makes alone; ``maximize_over_time`` is its one-function call, and the shot
search scans |+>^N with it.  ``_nelder_mead`` and its one-start call
``nelder_mead_max`` are the derivative-free simplex search, kept for
searches without a gradient.  Points are scored in stacks of at most
``_BATCH_ELEMENTS`` matrix elements; stacked values equal single-state values
bit for bit, so the grouping of evaluations never changes a result.
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
    product_qfi_value_grad,
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

# The shot-regime product search: a projected BFGS ascent with Armijo backtracking.
ASCENT_GTOL = 1e-9
ASCENT_FTOL = 1e-14
ASCENT_HALVINGS = 12
ASCENT_MAX_ITER = 200
ARMIJO_C1 = 1e-4
_ASCENT_STEP = 0.35

# A challenger replaces |+>^N as the shot-regime report only when it beats
# the |+>^N scan by more than this relative margin: far above what an end
# point next to pi/2 gains from roundoff and from the scan stopping about
# 9e-15 below its maximum over t (up to 1.1e-14 seen), far below the gap to
# any other product probe seen (4e-7).
SHOT_MARGIN = 1e-12

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
    """Best probe of a search.

    ``unresolved`` counts the points scored -inf because they are past the
    QFI kernel policy.  ``challenger_gap`` is the relative gap of the best
    search end point to |+>^N in the shot regime (0.0 in the time regime).
    """

    best: QfiResult
    starts: int
    converged_fraction: float
    unresolved: int
    challenger_gap: float


@dataclass(frozen=True)
class AdvantageRatio:
    """An advantage ratio; ``unresolved`` is the product search's count of points scored -inf."""

    n_qubits: int
    xi: float
    regime: str
    entangled_best: QfiResult
    separable_best: QfiResult
    ratio: float
    unresolved: int


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


def _ascent(x0s: np.ndarray, evaluate, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Projected BFGS ascent from every row of x0s at once: returns arrays (x_end, f_end, converged).

    ``evaluate`` maps a (k, dim) array of points to their k values and (k, dim)
    gradients; a value of -inf marks a point to step away from.  Points are
    clipped to the box [lo, hi], and a gradient component pushing out of the
    box at its face counts as 0.  Each iteration makes one ``evaluate`` call per
    Armijo backtracking round (step 1, then halved up to ``ASCENT_HALVINGS``
    times) over the starts still running.  A start converges when its
    projected gradient is at most ``ASCENT_GTOL`` |f| or a step gains at most
    ``ASCENT_FTOL`` |f|; it stops unconverged when its line search along the
    gradient fails or after ``ASCENT_MAX_ITER`` iterations.  The first step of
    a start, and any step after a non-ascent direction or a failed
    quasi-Newton line search, is along the gradient with its largest component
    ``_ASCENT_STEP``.
    """
    x = np.clip(np.asarray(x0s, dtype=np.float64), lo, hi)
    m, dim = x.shape
    f, g = evaluate(x)
    eye = np.eye(dim)
    h = np.zeros((m, dim, dim))
    converged = np.zeros(m, dtype=bool)
    live = np.flatnonzero(np.isfinite(f))
    for _ in range(ASCENT_MAX_ITER):
        xl, fl, gl = x[live], f[live], g[live].copy()
        gl[((xl <= lo) & (gl < 0.0)) | ((xl >= hi) & (gl > 0.0))] = 0.0
        done = np.abs(gl).max(axis=1) <= ASCENT_GTOL * np.abs(fl)
        converged[live[done]] = True
        live, xl, fl, gl = live[~done], xl[~done], fl[~done], gl[~done]
        if not live.size:
            break
        p = (h[live] @ gl[:, :, None])[:, :, 0]
        restart = ~((p * gl).sum(axis=1) > 0.0)
        p[restart] = gl[restart] * (_ASCENT_STEP / np.abs(gl[restart]).max(axis=1))[:, None]
        h[live[restart]] = 0.0
        # Armijo backtracking, one evaluate call per round over the starts still searching.
        x_new, f_new, g_new = xl.copy(), np.full(live.size, -np.inf), np.zeros_like(gl)
        step, pending = 1.0, np.arange(live.size)
        for _ in range(ASCENT_HALVINGS + 1):
            trial = np.clip(xl[pending] + step * p[pending], lo, hi)
            ft, gt = evaluate(trial)
            ok = ft >= fl[pending] + ARMIJO_C1 * ((trial - xl[pending]) * gl[pending]).sum(axis=1)
            took = pending[ok]
            x_new[took], f_new[took], g_new[took] = trial[ok], ft[ok], gt[ok]
            pending, step = pending[~ok], step / 2.0
            if not pending.size:
                break
        moved = np.isfinite(f_new)
        flat = moved & (f_new - fl <= ASCENT_FTOL * np.abs(f_new))
        converged[live[flat]] = True
        # BFGS update of the inverse Hessian of -f, where the curvature condition holds.
        s, y = x_new - xl, g[live] - g_new
        sy = (s * y).sum(axis=1)
        upd = np.flatnonzero(moved & (sy > 0.0))
        fresh = upd[~h[live[upd]].any(axis=(1, 2))]
        h[live[fresh]] = eye * (sy[fresh] / (y[fresh] * y[fresh]).sum(axis=1))[:, None, None]
        su, yu, rho = s[upd, :, None], y[upd, None, :], 1.0 / sy[upd, None, None]
        left = eye - rho * su * yu
        h[live[upd]] = left @ h[live[upd]] @ np.swapaxes(left, 1, 2) + rho * su * np.swapaxes(su, 1, 2)
        x[live[moved]], f[live[moved]], g[live[moved]] = x_new[moved], f_new[moved], g_new[moved]
        # A failed quasi-Newton step retries along the gradient; a failed gradient step ends the start.
        retry = ~moved & ~restart
        h[live[retry]] = 0.0
        live = live[(moved & ~flat) | retry]
    return x, f, converged


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
    holds its exact limit with starts = 0, converged_fraction = 1.0,
    unresolved = 0 and challenger_gap = 0.0; ``seed`` is not used.

    Shot regime: |+>^N gets its own ``maximize_over_time`` scan, and 8 + 2N
    starts (the all-pi/2 probe at t = x* / slowest rate, plus uniform-random
    starts) climb jointly in the polar angles and log t, log t kept in
    ``default_time_bracket``, by the projected BFGS ascent ``_ascent`` on the
    analytic gradient of ``product_qfi_value_grad``.  A start's candidate is
    its end point.  The best challenger is re-scored with ``qfi_exact_value``
    and is the report only if it beats |+>^N by more than ``SHOT_MARGIN``
    relative; ``challenger_gap`` is its relative gap to |+>^N either way.  So
    the report is never below |+>^N, and a report that |+>^N wins is its scan's
    row, whatever the seed.

    Only part of the time-regime argument carries over to finite t.  The
    instrument with Kraus operators (x)_j diag(cos(theta_j/2), sin(theta_j/2))
    and their per-qubit swaps, with a classical flag, is CPTP, xi-independent
    and commutes with the dynamics (a diagonal congruence commutes with a
    Schur multiplier); populations are conserved, so each branch weighs 2^-N.
    Monotonicity gives F(+, t) >= 2^-N sum_S F(theta^S, t), where theta^S
    sends theta_j to pi - theta_j for j in S.  For diagonal C every flip is a
    symmetry, so |+>^N is the shot optimum; for correlated C it is open, so
    the search runs.

    Every start climbs at once, and the points of each call are scored in
    stacks of at most ``_BATCH_ELEMENTS`` matrix elements (32 states at N = 5,
    one at N >= 8), with no ProductState.  A point past the kernel policy of
    ``_sld_rate`` (``qfi_exact_value`` raises DivergentQfiError there) scores
    -inf, so the search moves away from it, and is counted in ``unresolved``.
    Stacked values equal single-state values bit for bit and the merge is a
    deterministic reduction, so a fixed seed implies a bit-identical report.
    """
    _check_regime(regime)
    n = family.n_qubits
    if regime == "time":
        return OptimizationReport(time_averaged_qfi_limit(plus_product(n), family, xi), 0, 1.0, 0, 0.0)
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

    def gradient_scores(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and gradients at points (theta, log t), in stacks of at most ``chunk`` states."""
        nonlocal unresolved
        parts = [product_qfi_value_grad(z[lo : lo + chunk, :n], family, xi, np.exp(z[lo : lo + chunk, n]))
                 for lo in range(0, len(z), chunk)]
        values = np.concatenate([v for v, _ in parts])
        unresolved += int(np.isneginf(values).sum())
        return values, np.concatenate([g for _, g in parts])

    plus = np.full((1, n), np.pi / 2.0)
    plus_vec = _product_vectors(plus)
    plus_t, plus_value = _time_scan(bracket, lambda ks, ts: scores(plus_vec, ks, ts), 1)
    box_lo, box_hi = np.append(np.full(n, -np.inf), log_lo), np.append(np.full(n, np.inf), log_hi)
    found, values, converged = _ascent(np.column_stack([starts, start_logts]), gradient_scores, box_lo, box_hi)
    k = int(np.argmax(values))
    theta, t = _fold_theta(found[k, :n]), float(np.exp(found[k, n]))
    value = scores(_product_vectors(theta[None]), np.zeros(1, dtype=int), np.array([t]))[0]
    gap = (value - plus_value[0]) / plus_value[0] if plus_value[0] > 0.0 else (np.inf if value > 0.0 else 0.0)
    if not gap > SHOT_MARGIN:
        theta, t, value = plus[0], float(plus_t[0]), plus_value[0]
    result = QfiResult(float(value), "shot", t, ProductState(theta))
    return OptimizationReport(result, n_starts, int(converged.sum()) / n_starts, unresolved, float(gap))


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
    report = optimal_product_state(family, xi, regime, seed=seed)
    separable = report.best
    if separable.value <= 0.0:
        raise DivergentQfiError("separable optimum is zero; advantage ratio undefined")
    ratio = entangled.value / separable.value
    return AdvantageRatio(n, float(xi), regime, entangled, separable, ratio, report.unresolved)
