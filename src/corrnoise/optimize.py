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
K = diag(sin theta_j), A = Re C(xi) / 2 and B = Re dC / 2.  The
map X -> K X K (+) K' X K', with K'^2 = 1 - K^2, is CPTP, and the SLD metric
is monotone under CPTP maps (D. Petz, Linear Algebra Appl. 244, 81 (1996)).
So K = 1, the probe |+>^N, is optimal for every family.  Only the shot
regime searches over product probes.

Units (``model``): every search runs at gamma = 1, and a ratio holds at any gamma.

The shot regime's product search is ``_ascent``, a projected BFGS ascent with
Armijo backtracking on the analytic gradient of ``qfi.product_qfi_value_grad``
(Koczor et al., New J. Phys. 22, 083038 (2020); Meyer et al., npj Quantum Inf.
7, 89 (2021)); ``_backtrack`` interpolates the values and slopes at both ends
of a failed trial (Nocedal & Wright, Numerical Optimization, 2nd ed., sec.
3.5).  Every start climbs at once, start 0 from the best point of the |+>^N
log-t grid, in log t alone.  The kernel's values are ``qfi_exact_value``'s bit
for bit, so the search reports its winner's own end value.
``maximize_over_time`` and ``nelder_mead_max`` are scalar routines that no
scenario runs; ``maximize_over_time`` is not exported.  Points are scored in
stacks of at most ``_BATCH_ELEMENTS`` matrix elements; stacked values equal
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
    plus_product,
)
from .model import DephasingFamily, build_n_qubit, build_two_qubit
from .qfi import (
    KERNEL_RTOL,
    REGIMES,
    DivergentQfiError,
    QfiResult,
    _check_regime,
    _fold_theta,
    _pair_optimum,
    _pair_time,
    product_qfi_value_grad,
    time_averaged_qfi_limit,
)

TIME_BRACKET_SPAN = (1e-3, 1e2)
GRID_POINTS = 64
GOLDEN_REL_TOL = 1e-6

NM_XATOL = 1e-8
NM_FATOL = 1e-10
NM_MAX_ITER = 2000
_NM_STEP = 0.35

# The shot-regime product search: a projected BFGS ascent with interpolating Armijo backtracking.
ASCENT_GTOL = 1e-9
ASCENT_FTOL = 1e-14
ASCENT_BACKTRACKS = 12
ASCENT_MAX_ITER = 200
ARMIJO_C1 = 1e-4
_ASCENT_STEP = 0.35

# A challenger replaces |+>^N as the shot-regime report only when its end
# value beats the |+>^N end value by more than this relative margin: far
# above what an end point next to pi/2 gains from roundoff (|challenger_gap|
# at most 6.3e-15 on the collective family at N = 2..5), far below the gap to
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
    "optimal_coherence_pair",
    "optimal_product_state",
    "advantage_ratio",
    "default_time_bracket",
    "family_for_ratio",
    "nelder_mead_max",
]


@dataclass(frozen=True)
class OptimizationReport:
    """Best probe of a search.

    ``converged_fraction`` is the share of starts that met a stopping test
    of ``_ascent``: a small projected gradient, a flat step, or a trial that
    could gain at most ``ASCENT_FTOL`` |f| to first order.  Right next to an
    optimum, where roundoff decides the Armijo test, the last of these stops
    a start, so a start counts as unconverged only when it runs out of
    iterations or its line search along the gradient fails far from an
    optimum.  ``unresolved`` counts the search points scored -inf
    because they are past the QFI kernel policy.  ``challenger_gap`` is the
    relative gap of the best random start's end value to the end value of
    start 0, |+>^N's time ascent, in the shot regime (0.0 in the time regime).
    Both are ``product_qfi_value_grad`` values, which ``best.value`` is too:
    the exact QFI of ``best.probe`` at ``best.time`` bit for bit.
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


def maximize_over_time(eval_fn, bracket: tuple[float, float]) -> tuple[float, float]:
    """Maximize eval_fn(t) on a positive bracket.

    Scans a 64-point log grid, then refines around the best grid point by
    golden-section search to a relative t tolerance of 1e-6; returns the
    better of grid and refined maxima as (t_star, value).
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < t_lo < t_hi):
        raise ValueError(f"bracket must satisfy 0 < t_lo < t_hi, got ({t_lo}, {t_hi})")
    ts = np.geomspace(t_lo, t_hi, GRID_POINTS)
    vals = np.array([eval_fn(t) for t in ts], dtype=np.float64)
    i = int(vals.argmax())
    best_t, best_v = ts[i], vals[i]

    a, b = ts[max(i - 1, 0)], ts[min(i + 1, GRID_POINTS - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = eval_fn(c), eval_fn(d)
    while (b - a) > GOLDEN_REL_TOL * max(abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = eval_fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = eval_fn(d)
        t_cand, v_cand = (c, fc) if fc >= fd else (d, fd)
        if v_cand > best_v:
            best_t, best_v = t_cand, v_cand
    return float(best_t), float(best_v)


def default_time_bracket(family: DephasingFamily, xi: float) -> tuple[float, float]:
    """[1e-3, 1e2] in units of the slowest nonzero decay rate at xi."""
    rates = _class_rates(family, float(xi))
    positive = rates[rates > 1e-12 * rates.max()]
    if positive.size == 0:
        raise ValueError("family has no nonzero decay rate; no finite time scale")
    slow = float(positive.min())
    return TIME_BRACKET_SPAN[0] / slow, TIME_BRACKET_SPAN[1] / slow


def nelder_mead_max(fn, x0: np.ndarray, step: float = _NM_STEP) -> tuple[np.ndarray, float, bool, int]:
    """Derivative-free simplex maximization of fn from one start.

    Classic reflection/expansion/contraction/shrink moves.  Terminates when
    the simplex diameter falls below 1e-8 or the value spread below 1e-10,
    with a 2000-iteration cap.  Returns (x_best, f_best, converged, n_eval).
    """
    alpha, gamma_e, rho_c, sigma_s = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=np.float64)
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    simplex[np.arange(1, dim + 1), np.arange(dim)] += step
    values = np.array([fn(x) for x in simplex], dtype=np.float64)
    n_eval, converged = dim + 1, False
    for _ in range(NM_MAX_ITER):
        order = values.argsort()[::-1]
        simplex, values = simplex[order], values[order]
        if np.abs(simplex[1:] - simplex[0]).max() <= NM_XATOL or abs(values[0] - values[-1]) <= NM_FATOL:
            converged = True
            break
        centroid = simplex[:-1].sum(axis=0) / dim
        worst = simplex[-1]
        xr = centroid + alpha * (centroid - worst)
        fr = fn(xr)
        n_eval += 1
        if fr > values[0]:
            xe = centroid + gamma_e * (centroid - worst)
            fe = fn(xe)
            n_eval += 1
            simplex[-1], values[-1] = (xe, fe) if fe > fr else (xr, fr)
        elif fr > values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            xc = centroid + rho_c * (worst - centroid)
            fc = fn(xc)
            n_eval += 1
            if fc > values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + sigma_s * (simplex[1:] - simplex[0])
                values[1:] = [fn(x) for x in simplex[1:]]
                n_eval += dim
    best = values.argsort()[-1]
    return simplex[best], float(values[best]), converged, n_eval


def _backtrack(a, f0, d0, fa, da, reach) -> np.ndarray:
    """Next trial steps along p after Armijo trials at steps a failed; each argument has one entry per trial.

    With phi(s) = f(x + s p), phi(0) = f0, phi'(0) = d0, phi(a) = fa and
    phi'(a) = da, the step is the maximizer of the cubic through these four
    values (Nocedal & Wright, Numerical Optimization, 2nd ed., eq. 3.59), kept
    in [0.1 a, 0.5 a].  A trial clipped to the box, whose path meets a face at
    step ``reach`` (inf for a trial inside the box), steps to that face or to
    a / 2, whichever is shorter.  A trial scored -inf, a cubic with no
    maximizer and a path that starts on a face halve the step.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = -d0 - da - 3.0 * (f0 - fa) / a
        d2 = np.sqrt(d1 * d1 - d0 * da)
        s = a - a * (d2 - d1 - da) / (d0 - da + 2.0 * d2)
    s = np.where(np.isfinite(s), np.clip(s, 0.1 * a, 0.5 * a), 0.5 * a)
    face = np.where(reach > 0.0, np.minimum(0.5 * a, reach), 0.5 * a)
    return np.where(np.isinf(reach), s, face)


def _ascent(x0s, f0s, g0s, evaluate, lo, hi) -> tuple[np.ndarray, ...]:
    """Projected BFGS ascent from every row of x0s at once: returns arrays (x_end, f_end, converged).

    The starts x0s lie in the box [lo, hi]; f0s and g0s are their values and
    gradients.  ``evaluate`` maps a (k, dim) array of points to their k values
    and (k, dim) gradients; a value of -inf marks a point to step away from.
    Trial points are clipped to the box, and a gradient component pushing out
    of the box at its face counts as 0.  Each iteration makes one ``evaluate``
    call per Armijo backtracking round over the starts still running: step 1,
    then up to ``ASCENT_BACKTRACKS`` shorter steps from ``_backtrack``, which
    interpolates the values and slopes at 0 and at the failed trial.  A start
    converges when its projected gradient is at most ``ASCENT_GTOL`` |f|, a
    step gains at most ``ASCENT_FTOL`` |f|, or its next trial would gain at
    most ``ASCENT_FTOL`` |f| to first order (that trial is not scored); it
    stops unconverged when its line search along the gradient fails or after
    ``ASCENT_MAX_ITER`` iterations.  The first step of a start, and any step
    after a non-ascent direction or a failed quasi-Newton line search, is
    along the gradient with its largest component ``_ASCENT_STEP``.
    """
    x, f, g = (np.array(v, dtype=np.float64) for v in (x0s, f0s, g0s))
    m, dim = x.shape
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
        slope = (p * gl).sum(axis=1)
        x_new, f_new, g_new = xl.copy(), np.full(live.size, -np.inf), np.zeros_like(gl)
        step, pending, stalled = np.ones(live.size), np.arange(live.size), np.zeros(live.size, dtype=bool)
        for _ in range(ASCENT_BACKTRACKS + 1):
            unclipped = xl[pending] + step[pending, None] * p[pending]
            trial = np.clip(unclipped, lo, hi)
            gain = ((trial - xl[pending]) * gl[pending]).sum(axis=1)
            # A trial that would gain at most ASCENT_FTOL |f| to first order is not scored: no step along p gains more.
            stall = gain <= ASCENT_FTOL * np.abs(fl[pending])
            stalled[pending[stall]] = True
            pending, unclipped, trial, gain = pending[~stall], unclipped[~stall], trial[~stall], gain[~stall]
            if not pending.size:
                break
            ft, gt = evaluate(trial)
            ok = ft >= fl[pending] + ARMIJO_C1 * gain
            took = pending[ok]
            x_new[took], f_new[took], g_new[took] = trial[ok], ft[ok], gt[ok]
            pp = p[pending]
            reach = np.divide(trial - xl[pending], pp, out=np.full_like(pp, np.inf), where=trial != unclipped)
            reach = reach.min(axis=1)
            step[pending] = _backtrack(step[pending], fl[pending], slope[pending], ft, (gt * pp).sum(axis=1), reach)
            pending = pending[~ok]
        moved = np.isfinite(f_new)
        flat = moved & (f_new - fl <= ASCENT_FTOL * np.abs(f_new))
        converged[live[flat | stalled]] = True
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
        retry = ~moved & ~restart & ~stalled
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
    rates, slopes = _class_rates(family, float(xi)), _class_rates(family, None)
    values = _pair_optimum(rates, slopes, diffs, regime)
    top = np.flatnonzero(values == values.max())
    k = top[np.lexsort((first[top, 1], first[top, 0]))[0]]
    pair = CoherencePair.from_indices(*map(int, first[k]), n)
    return QfiResult(float(values[k]), regime, _pair_time(rates[k], slopes[k], regime), pair)


def optimal_product_state(
    family: DephasingFamily,
    xi: float,
    regime: str,
    seed: int = 0,
) -> OptimizationReport:
    """Maximize the regime's figure of merit over product probes.

    Time regime: no search.  |+>^N is optimal for every family (module
    docstring), and the report holds its exact ``time_averaged_qfi_limit``
    with starts = 0, converged_fraction = 1.0, unresolved = 0 and
    challenger_gap = 0.0; ``seed`` is not used.

    Shot regime: every point is scored by ``product_qfi_value_grad`` and
    climbed by one projected BFGS ascent ``_ascent``, log t kept in
    ``default_time_bracket``.  |+>^N is scored on a 64-point log-t grid, in
    one call with the first points of 7 + 2N uniform-random starts.  8 + 2N
    starts climb jointly in the polar angles and log t: start 0 is the best
    grid point, with that call's value and gradient, and climbs in log t
    alone, as |+>^N's theta-gradient is exactly 0.  A start's candidate is its
    end point.  The best random start is the report only if its end value
    beats start 0's by more than ``SHOT_MARGIN`` relative; ``challenger_gap``
    is its relative gap to start 0 either way.  The reported value is the
    winner's end value, which is ``qfi_exact_value`` of the reported probe at
    its time bit for bit, so nothing is scored twice.  So the report is never
    below |+>^N by more than roundoff, and a report that |+>^N wins is start
    0's end row, whatever the seed.

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
    one at N >= 8); only the reported row builds a ProductState, and no
    density.  A point past the kernel policy (``qfi_exact_value`` raises
    DivergentQfiError there) scores -inf, so the search moves away from it,
    and is counted in ``unresolved``.  A |+>^N grid point past it raises
    DivergentQfiError instead, counting the grid points past it, as no report
    can then be trusted (below xi of about 1e-12).  Stacked values equal
    single-state values bit for bit and the merge is a deterministic
    reduction, so a fixed seed implies a bit-identical report.
    """
    _check_regime(regime)
    n = family.n_qubits
    if regime == "time":
        return OptimizationReport(time_averaged_qfi_limit(plus_product(n), family, xi), 0, 1.0, 0, 0.0)
    if n > PRODUCT_MAX_QUBITS:
        raise ResourceLimitError(f"product-state search is guarded at N <= {PRODUCT_MAX_QUBITS}, got {n}")
    rng = np.random.default_rng(seed)
    n_starts = 8 + 2 * n
    bracket = default_time_bracket(family, xi)
    log_lo, log_hi = np.log(bracket[0]), np.log(bracket[1])
    # |+>^N on the log-t grid, then the random starts, scored in one call.
    grid = np.column_stack([np.full((GRID_POINTS, n), np.pi / 2.0), np.linspace(log_lo, log_hi, GRID_POINTS)])
    starts = rng.uniform(0.0, np.pi, size=(n_starts - 1, n))
    z0 = np.vstack([grid, np.column_stack([starts, rng.uniform(log_lo, log_hi, size=n_starts - 1)])])

    chunk = max(1, _BATCH_ELEMENTS // 4**n)
    unresolved = 0

    def gradient_scores(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and gradients at points (theta, log t), in stacks of at most ``chunk`` states."""
        nonlocal unresolved
        parts = [product_qfi_value_grad(z[lo : lo + chunk, :n], family, xi, np.exp(z[lo : lo + chunk, n]))
                 for lo in range(0, len(z), chunk)]
        values = np.concatenate([v for v, _ in parts])
        unresolved += int(np.isneginf(values).sum())
        return values, np.concatenate([g for _, g in parts])

    f0, g0 = gradient_scores(z0)
    if diverged := int(np.isneginf(f0[:GRID_POINTS]).sum()):
        raise DivergentQfiError(
            f"the |+>^{n} time scan at xi = {float(xi)} scored {diverged} point(s) -inf, past the QFI kernel policy"
            f" (derivative weight between eigenvalues <= {KERNEL_RTOL:g} of the largest): no product optimum resolved"
        )
    # Start 0 is the best grid point; its theta-gradient is 0, so it climbs in log t alone.
    rows = np.append(int(f0[:GRID_POINTS].argmax()), np.arange(GRID_POINTS, len(z0)))
    box_lo, box_hi = np.append(np.full(n, -np.inf), log_lo), np.append(np.full(n, np.inf), log_hi)
    found, values, converged = _ascent(z0[rows], f0[rows], g0[rows], gradient_scores, box_lo, box_hi)
    k = 1 + int(np.argmax(values[1:]))
    gap = (values[k] - values[0]) / values[0] if values[0] > 0.0 else (np.inf if values[k] > 0.0 else 0.0)
    k = k if gap > SHOT_MARGIN else 0
    result = QfiResult(float(values[k]), "shot", float(np.exp(found[k, n])), ProductState(_fold_theta(found[k, :n])))
    return OptimizationReport(result, n_starts, int(converged.sum()) / n_starts, unresolved, float(gap))


def family_for_ratio(n: int, xi: float) -> DephasingFamily:
    """Family used in advantage sweeps: the dedicated 2-qubit correlated
    family for n = 2, the collective N-qubit family otherwise."""
    if not 0.0 < xi < 1.0:
        raise ValueError(f"advantage sweeps require 0 < xi < 1, got {xi}")
    lo = min(1e-6, xi / 2.0)
    if n == 2:
        return build_two_qubit((lo, 1.0))
    return build_n_qubit(n, (lo, 1.0))


def advantage_ratio(n: int, xi: float, regime: str, seed: int = 0) -> AdvantageRatio:
    """Ratio of the best coherence-pair probe to the best product probe.

    Both optima carry the same power of gamma (module docstring), so the ratio holds for every gamma.
    """
    n = int(n)
    if not 2 <= n <= PRODUCT_MAX_QUBITS:
        raise ValueError(f"n must lie in [2, {PRODUCT_MAX_QUBITS}], got {n}")
    family = family_for_ratio(n, xi)
    entangled = optimal_coherence_pair(family, xi, regime)
    report = optimal_product_state(family, xi, regime, seed=seed)
    separable = report.best
    ratio = entangled.value / separable.value
    return AdvantageRatio(n, float(xi), regime, entangled, separable, ratio, report.unresolved)
