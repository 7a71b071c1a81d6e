"""Probe and interrogation-time optimization, and entanglement-advantage ratios.

Two resource regimes are supported:

* ``"time"``  - total protocol time is constrained; the figure of merit is
  the time-averaged QFI, whose supremum over t sits at t -> 0+.  Product
  probes are scored by its exact closed form for pure probes
  (``time_averaged_qfi_limit_pure``), one N x N eigendecomposition each.
* ``"shot"``  - the number of experimental runs is constrained; the figure
  of merit is the per-shot QFI maximized over the interrogation time.

The entangled search space is the set of equal-weight two-level
superpositions (|alpha> + |beta>)/sqrt(2) over coherence pairs, scored once
per difference class d = alpha - beta; the separable search space is product
probes parametrized by polar angles (azimuths are fixed to zero, which is no
loss because per-qubit Z rotations commute with the dynamics).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .evolution import (
    CoherencePair,
    ProductState,
    ResourceLimitError,
    _class_table,
    _decay_rates,
)
from .model import DephasingFamily, build_n_qubit, build_two_qubit
from .qfi import (
    PER_SHOT,
    TIME_AVERAGED,
    DivergentQfiError,
    QfiResult,
    _pair_optimum,
    qfi_exact_value,
    shot_optimum_x,
    time_averaged_qfi_limit_pure,
)

REGIMES = ("time", "shot")

TIME_BRACKET_SPAN = (1e-3, 1e2)
GRID_POINTS = 64
GOLDEN_REL_TOL = 1e-6

NM_XATOL = 1e-8
NM_FATOL = 1e-10
NM_MAX_ITER = 2000

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
    grid_fallback_used: bool


@dataclass(frozen=True)
class AdvantageRatio:
    n_qubits: int
    xi: float
    regime: str
    entangled_best: QfiResult
    separable_best: QfiResult
    ratio: float


def _check_regime(regime: str) -> None:
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")


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
    vals = [float(eval_fn(t)) for t in ts]
    i = int(np.argmax(vals))
    best_t, best_v = float(ts[i]), vals[i]

    a = float(ts[max(i - 1, 0)])
    b = float(ts[min(i + 1, GRID_POINTS - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = float(eval_fn(c)), float(eval_fn(d))
    while (b - a) > GOLDEN_REL_TOL * max(abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(eval_fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(eval_fn(d))
        t_cand, v_cand = (c, fc) if fc >= fd else (d, fd)
        if v_cand > best_v:
            best_t, best_v = float(t_cand), v_cand
    return best_t, best_v


def default_time_bracket(family: DephasingFamily, xi: float) -> tuple[float, float]:
    """[1e-3, 1e2] in units of the slowest nonzero decay rate at xi."""
    rates = _decay_rates(family, xi, _class_table(family.n_qubits)[0])
    positive = rates[rates > 1e-12 * max(rates.max(), 1.0)]
    if positive.size == 0:
        raise ValueError("family has no nonzero decay rate; no finite time scale")
    slow = float(positive.min())
    return TIME_BRACKET_SPAN[0] / slow, TIME_BRACKET_SPAN[1] / slow


def nelder_mead_max(fn, x0: np.ndarray, step: float = 0.35) -> tuple[np.ndarray, float, bool, int]:
    """Derivative-free simplex maximization of fn.

    Classic reflection/expansion/contraction/shrink moves.  Terminates when
    the simplex diameter falls below 1e-8 or the value spread below 1e-10,
    with a 2000-iteration cap.  Returns (x_best, f_best, converged, n_eval).
    """
    alpha, gamma_e, rho_c, sigma_s = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=np.float64)
    dim = x0.size
    simplex = [x0.copy()]
    for j in range(dim):
        x = x0.copy()
        x[j] += step
        simplex.append(x)
    values = [float(fn(x)) for x in simplex]
    n_eval = dim + 1
    converged = False
    for _ in range(NM_MAX_ITER):
        order = np.argsort(values)[::-1]
        simplex = [simplex[k] for k in order]
        values = [values[k] for k in order]
        diameter = max(float(np.max(np.abs(s - simplex[0]))) for s in simplex[1:])
        if diameter <= NM_XATOL or abs(values[0] - values[-1]) <= NM_FATOL:
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = float(fn(xr))
        n_eval += 1
        if fr > values[0]:
            xe = centroid + gamma_e * (centroid - simplex[-1])
            fe = float(fn(xe))
            n_eval += 1
            simplex[-1], values[-1] = (xe, fe) if fe > fr else (xr, fr)
        elif fr > values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            xc = centroid + rho_c * (simplex[-1] - centroid)
            fc = float(fn(xc))
            n_eval += 1
            if fc > values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                for k in range(1, dim + 1):
                    simplex[k] = simplex[0] + sigma_s * (simplex[k] - simplex[0])
                    values[k] = float(fn(simplex[k]))
                n_eval += dim
    order = np.argsort(values)[::-1]
    return simplex[order[0]].copy(), values[order[0]], converged, n_eval


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
    kind = TIME_AVERAGED if regime == "time" else PER_SHOT
    values, times = _pair_optimum(family, xi, diffs, kind)
    top = np.flatnonzero(values == values.max())
    k = top[np.lexsort((first[top, 1], first[top, 0]))[0]]
    pair = CoherencePair.from_indices(*map(int, first[k]), n)
    return QfiResult(float(values[k]), kind, float(times[k]), pair)


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
    threads: int | None = None,
) -> OptimizationReport:
    """Maximize the regime's figure of merit over product probes.

    Runs 8 + 2N Nelder-Mead multistarts over the polar angles (the all-pi/2
    probe plus uniform-random starts) with a 9-point-per-axis coordinate
    sweep as a grid fallback.  In the time regime each candidate is scored by
    the exact t -> 0+ limit ``time_averaged_qfi_limit_pure``.  In the shot
    regime the search is joint over (theta, log t) and each candidate is
    finished with ``maximize_over_time``.
    Fixed seed implies a bit-identical report; multistarts are independent
    and merged by a deterministic reduction, so any thread count agrees.
    """
    _check_regime(regime)
    n = family.n_qubits
    if n > PRODUCT_MAX_QUBITS:
        raise ResourceLimitError(f"product-state search is guarded at N <= {PRODUCT_MAX_QUBITS}, got {n}")
    rng = np.random.default_rng(seed)
    n_starts = 8 + 2 * n
    starts = [np.full(n, np.pi / 2.0)]
    starts.extend(rng.uniform(0.0, np.pi, size=n) for _ in range(n_starts - 1))
    bracket = default_time_bracket(family, xi)
    log_lo, log_hi = np.log(bracket[0]), np.log(bracket[1])
    t_heuristic = min(max(shot_optimum_x() * bracket[0] / TIME_BRACKET_SPAN[0], bracket[0]), bracket[1])
    start_logts = [np.log(t_heuristic)]
    start_logts.extend(rng.uniform(log_lo, log_hi) for _ in range(n_starts - 1))

    def probe_at(theta: np.ndarray) -> ProductState:
        return ProductState.polar(_fold_theta(theta))

    # The regime picks the Nelder-Mead objective and starts, the sweep
    # objective, and finish(theta) -> (t, value) for a folded theta.
    kind = TIME_AVERAGED if regime == "time" else PER_SHOT
    if regime == "time":

        def sweep_objective(theta: np.ndarray) -> float:
            return time_averaged_qfi_limit_pure(probe_at(theta), family, xi).value

        nm_objective, nm_starts = sweep_objective, starts

        def finish(theta: np.ndarray) -> tuple[float, float]:
            return 0.0, sweep_objective(theta)

    else:

        def shot_value_at(theta: np.ndarray, t: float) -> float:
            return qfi_exact_value(probe_at(theta).density(), family, xi, t)

        def sweep_objective(theta: np.ndarray) -> float:
            return shot_value_at(theta, t_heuristic)

        def nm_objective(z: np.ndarray) -> float:
            return shot_value_at(z[:-1], float(np.exp(np.clip(z[-1], log_lo, log_hi))))

        nm_starts = [np.concatenate([s, [lt]]) for s, lt in zip(starts, start_logts)]

        def finish(theta: np.ndarray) -> tuple[float, float]:
            return maximize_over_time(lambda t: shot_value_at(theta, t), bracket)

    def run_start(k: int) -> tuple[float, tuple[float, ...], np.ndarray, float, bool]:
        x, _, converged, _ = nelder_mead_max(nm_objective, nm_starts[k])
        theta = _fold_theta(x[:n])
        t_star, val = finish(theta)
        return val, _theta_key(theta), theta, t_star, converged

    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_start, range(n_starts)))
    else:
        results = [run_start(k) for k in range(n_starts)]

    # 9-point-per-axis coordinate sweep, one pass from the all-pi/2 probe.
    grid = np.linspace(0.0, np.pi, 9)
    theta_g = np.full(n, np.pi / 2.0)
    val_g = float(sweep_objective(theta_g))
    for axis in range(n):
        for cand in grid:
            trial = theta_g.copy()
            trial[axis] = cand
            v = float(sweep_objective(trial))
            if v > val_g:
                val_g, theta_g = v, trial
    t_star_g, val_star_g = finish(theta_g)
    grid_result = (val_star_g, _theta_key(theta_g), theta_g, t_star_g, True)

    # Deterministic merge: maximize value, break ties on the angle encoding.
    best = max(results + [grid_result], key=lambda r: (r[0], tuple(-x for x in r[1])))
    grid_fallback_used = best is grid_result and all(r[0] < grid_result[0] for r in results)
    converged_fraction = sum(1 for r in results if r[4]) / n_starts
    result = QfiResult(best[0], kind, best[3], ProductState.polar(best[2]))
    return OptimizationReport(result, n_starts, converged_fraction, grid_fallback_used)


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
    threads: int | None = None,
) -> AdvantageRatio:
    """Ratio of the best coherence-pair probe to the best product probe."""
    _check_regime(regime)
    n = int(n)
    if not 2 <= n <= PRODUCT_MAX_QUBITS:
        raise ValueError(f"n must lie in [2, {PRODUCT_MAX_QUBITS}], got {n}")
    family = family_for_ratio(n, xi)
    entangled = optimal_coherence_pair(family, xi, regime)
    separable = optimal_product_state(family, xi, regime, seed=seed, threads=threads).best
    if separable.value <= 0.0:
        raise DivergentQfiError("separable optimum is zero; advantage ratio undefined")
    return AdvantageRatio(n, float(xi), regime, entangled, separable, entangled.value / separable.value)
