"""Release acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s or on
failure) and asserts at the stated tolerance.  Criteria marked with runtime
budgets are sized for a small machine; determinism checks run the scenarios
at reduced grids, which exercises the same code paths.
"""

import json
import math
import os

import numpy as np
import pytest

import corrnoise as cn
from corrnoise.cli import EXIT_OK, main
from corrnoise.evolution import (
    CoherencePair,
    ProductState,
    coherence_spectrum,
    evolve,
    ghz_pair,
    pair_density,
    plus_product,
    random_pure_density,
    rate_matrix,
    superoperator_spectrum,
)
from corrnoise.model import build_n_qubit, build_single_qubit, build_two_qubit
from corrnoise.optimize import (
    advantage_ratio,
    maximize_over_time,
    nelder_mead_max,
    optimal_coherence_pair,
)
from corrnoise.qfi import (
    bures_distance_sq,
    coherence_pair_qfi_shot,
    qfi_exact_value,
    qfi_fidelity_check,
    time_averaged_qfi_limit,
)

THREADS = min(2, os.cpu_count() or 1)
DOMAIN = (1e-7, 1.0)


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_01_closed_form_regression():
    """Five analytic optima at xi in {1e-3, 1e-2, 1e-1}, N in {2, 4, 6}."""
    worst = 0.0
    for xi in (1e-3, 1e-2, 1e-1):
        fam1 = build_single_qubit(DOMAIN)
        got = time_averaged_qfi_limit(plus_product(1).density(), fam1, xi).value
        worst = max(worst, abs(got / (0.5 / xi) - 1.0))

        fam2 = build_two_qubit(DOMAIN)
        bell = pair_density(CoherencePair.from_indices(1, 2, 2))
        got = time_averaged_qfi_limit(bell, fam2, xi).value
        worst = max(worst, abs(got / (1.0 / xi) - 1.0))
        got = time_averaged_qfi_limit(plus_product(2).density(), fam2, xi).value
        worst = max(worst, abs(got / (1.0 / (xi * (2.0 - xi))) - 1.0))

        for n in (2, 4, 6):
            famn = build_n_qubit(n, DOMAIN)
            got = time_averaged_qfi_limit(pair_density(ghz_pair(n)), famn, xi).value
            worst = max(worst, abs(got / (n / (2.0 * xi)) - 1.0))
            got = time_averaged_qfi_limit(plus_product(n).density(), famn, xi).value
            worst = max(worst, abs(got / (0.5 / xi) - 1.0))
    report("criterion-1 closed forms", worst <= 1e-4, f"max rel err {worst:.2e}")


def test_02_two_qubit_time_limit():
    """Two-qubit time-regime ratio at xi = 1e-3 equals 2 within 0.2%."""
    result = advantage_ratio(2, 1e-3, "time")
    dev = abs(result.ratio / 2.0 - 1.0)
    report("criterion-2 two-qubit limit", dev <= 2e-3, f"ratio {result.ratio:.6f} dev {dev:.2e}")


def test_03_fig1b_shot_regime():
    """Shot-regime ratios within 5% of 2^(n-1) for n = 2..6 at xi = 0.01."""
    worst = 0.0
    ratios = {}
    for n in range(2, 7):
        result = advantage_ratio(n, 0.01, "shot")
        ratios[n] = result.ratio
        worst = max(worst, abs(result.ratio / 2.0 ** (n - 1) - 1.0))
    report("criterion-3 shot ratios", worst <= 0.05, f"ratios {ratios} max dev {worst:.2e}")


def test_04_fig1b_time_regime():
    """Time-regime ratios within 2% of n for n = 2..6 at xi = 1e-3."""
    worst = 0.0
    ratios = {}
    for n in range(2, 7):
        result = advantage_ratio(n, 1e-3, "time")
        ratios[n] = result.ratio
        worst = max(worst, abs(result.ratio / n - 1.0))
    report("criterion-4 time ratios", worst <= 0.02, f"ratios {ratios} max dev {worst:.2e}")


def test_05_fig1a_shape(x_star):
    """GHZ per-shot peak at t = 13.28 +/- 0.1 with height 1619.5 +/- 2; the
    product curve stays below 1/16 of the GHZ curve for t >= 20."""
    fam = build_n_qubit(6, DOMAIN)
    xi = 0.01
    pair = ghz_pair(6)
    t_star, peak = maximize_over_time(
        lambda t: coherence_pair_qfi_shot(fam, xi, pair, t).value, (1e-2, 1e3)
    )
    ok_t = abs(t_star - 13.28) <= 0.1
    ok_peak = abs(peak - 1619.5) <= 2.0

    rho_prod = plus_product(6).density()
    ts = np.geomspace(1e-2, 1e3, 200)
    ok_ratio = True
    for t in ts[ts >= 20.0]:
        ghz_val = coherence_pair_qfi_shot(fam, xi, pair, float(t)).value
        prod_val = qfi_exact_value(rho_prod, fam, xi, float(t))
        ok_ratio = ok_ratio and prod_val <= ghz_val / 16.0 + 1e-30
    report(
        "criterion-5 fig1a shape",
        ok_t and ok_peak and ok_ratio,
        f"t*={t_star:.4f} peak={peak:.2f} tail-ratio-ok={ok_ratio}",
    )


def test_06_oracle_equivalence():
    """Superoperator spectrum matches pair rates with stated multiplicities for
    N <= 3 and all three families; fidelity route matches SLD route to 1e-3."""
    families = [build_single_qubit(DOMAIN), build_two_qubit(DOMAIN), build_n_qubit(3, DOMAIN)]
    worst_spec = 0.0
    for fam in families:
        for xi in (0.01, 0.2):
            expected = [0.0] * 2**fam.n_qubits
            for _, rate in coherence_spectrum(fam, xi):
                expected.extend([-rate, -rate])
            got = superoperator_spectrum(fam, xi)
            worst_spec = max(worst_spec, float(np.max(np.abs(got.imag))))
            worst_spec = max(
                worst_spec, float(np.max(np.abs(np.sort(got.real) - np.sort(expected))))
            )

    rng = np.random.default_rng(101)
    worst_q = 0.0
    accepted = 0
    while accepted < 50:
        fam = families[accepted % 3]
        rho = random_pure_density(fam.n_qubits, rng)
        xi = float(rng.uniform(0.02, 0.2))
        rates = rate_matrix(fam, xi)
        slow = float(rates[rates > 0].min())
        t = float(rng.uniform(0.3, 2.0)) / slow
        exact = qfi_exact_value(rho, fam, xi, t)
        if exact * (1e-4 * xi) ** 2 / 8.0 < 4e-12:
            continue
        accepted += 1
        worst_q = max(worst_q, abs(qfi_fidelity_check(rho, fam, xi, t) / exact - 1.0))
    report(
        "criterion-6 oracle equivalence",
        worst_spec <= 1e-10 and worst_q <= 1e-3,
        f"spectrum dev {worst_spec:.2e}, qfi dev {worst_q:.2e}",
    )


def _pure_state_from_params(z, dim):
    vec = z[:dim] + 1j * z[dim : 2 * dim]
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    return vec / norm


def _best_pure_state_qfi(family, xi, regime, n_starts=6, seed=202):
    """Nelder-Mead over the full pure-state parametrization (oracle for the
    pair-probe restriction)."""
    dim = 2**family.n_qubits
    rng = np.random.default_rng(seed)
    from corrnoise.optimize import default_time_bracket

    bracket = default_time_bracket(family, xi)
    log_lo, log_hi = math.log(bracket[0]), math.log(bracket[1])

    def time_value(z):
        rho = np.outer(_pure_state_from_params(z, dim), _pure_state_from_params(z, dim).conj())
        return time_averaged_qfi_limit(rho, family, xi).value

    def shot_value(z):
        rho = np.outer(
            _pure_state_from_params(z[:-1], dim), _pure_state_from_params(z[:-1], dim).conj()
        )
        t = math.exp(min(max(z[-1], log_lo), log_hi))
        return qfi_exact_value(rho, family, xi, t)

    best = 0.0
    pair_best = optimal_coherence_pair(family, xi, regime)
    ia, ib = pair_best.probe.indices
    favored = np.zeros(2 * dim)
    favored[ia] = favored[ib] = 1.0
    starts = [favored] + [rng.normal(size=2 * dim) for _ in range(n_starts - 1)]
    for z0 in starts:
        if regime == "time":
            _, val, _, _ = nelder_mead_max(time_value, z0, step=0.2)
        else:
            z0 = np.concatenate([z0, [math.log(min(max(pair_best.time, bracket[0]), bracket[1]))]])
            z, _, _, _ = nelder_mead_max(shot_value, z0, step=0.2)
            vec = _pure_state_from_params(z[:-1], dim)
            rho = np.outer(vec, vec.conj())
            _, val = maximize_over_time(lambda t: qfi_exact_value(rho, family, xi, t), bracket)
        best = max(best, val)
    return best, pair_best.value


def test_07_pure_state_optimality():
    """Direct pure-state search never beats the best coherence pair by >0.1%."""
    worst = -np.inf
    for family in (build_two_qubit(DOMAIN), build_n_qubit(3, DOMAIN)):
        for regime in ("time", "shot"):
            found, pair_val = _best_pure_state_qfi(family, 0.05, regime)
            worst = max(worst, found / pair_val - 1.0)
    report("criterion-7 pure-state optimality", worst <= 1e-3, f"max excess {worst:.2e}")


def test_08_metric_and_supremum_properties():
    """Bures convexity over 100 random instances (M in {2,4,8}) and the
    t->0+ supremum property of the time-averaged QFI."""
    rng = np.random.default_rng(303)
    families = [build_two_qubit(DOMAIN), build_n_qubit(3, DOMAIN)]
    worst_conv = -np.inf
    for k in range(100):
        fam = families[k % 2]
        xi, dxi = 0.05, 5e-4
        tau = float(rng.uniform(0.05, 1.0))
        rho = random_pure_density(fam.n_qubits, rng)
        base = bures_distance_sq(evolve(rho, fam, xi, tau), evolve(rho, fam, xi + dxi, tau))
        for m in (2, 4, 8):
            lhs = bures_distance_sq(
                evolve(rho, fam, xi, m * tau), evolve(rho, fam, xi + dxi, m * tau)
            )
            worst_conv = max(worst_conv, lhs - m * base)

    worst_sup = -np.inf
    for fam in families:
        xi = 0.05
        rho = random_pure_density(fam.n_qubits, rng)
        limit = time_averaged_qfi_limit(rho, fam, xi).value
        max_rate = float(rate_matrix(fam, xi).max())
        for t in np.geomspace(1e-3 / max_rate, 1e2 / max_rate, 30):
            avg = qfi_exact_value(rho, fam, xi, float(t)) / float(t)
            worst_sup = max(worst_sup, avg - limit * (1.0 + 1e-6))
    report(
        "criterion-8 metric properties",
        worst_conv <= 1e-10 and worst_sup <= 0.0,
        f"convexity excess {worst_conv:.2e}, supremum excess {worst_sup:.2e}",
    )


def test_09_estimation_pipeline():
    """Monte Carlo estimator matches the Cramer-Rao scale and its laws."""
    fam = build_n_qubit(6, DOMAIN)
    pair = ghz_pair(6)
    xi, shots = 0.01, 10**4
    t_opt = cn.coherence_pair_qfi_shot_peak(fam, xi, pair).time
    crb = cn.shot_uncertainty(fam, xi, pair, shots)
    study = cn.replication_study(fam, xi, pair, t_opt, shots=shots, n_seeds=200, base_seed=0)
    ok_std = abs(study.empirical_std / crb - 1.0) <= 0.15

    study4 = cn.replication_study(fam, xi, pair, t_opt, shots=4 * shots, n_seeds=200, base_seed=0)
    ratio = study.empirical_std / study4.empirical_std
    ok_law = 1.7 <= ratio <= 2.3

    props = [cn.shot_uncertainty(fam, x, pair, shots) / x for x in (1e-3, 1e-2, 5e-2)]
    ok_prop = (max(props) - min(props)) <= 1e-9 * props[0]

    ok_bias = abs(study.mean_bias) <= 0.2 * crb
    report(
        "criterion-9 estimation",
        ok_std and ok_law and ok_prop and ok_bias,
        f"std ratio {study.empirical_std / crb:.3f}, sqrtM {ratio:.3f}, bias {study.mean_bias:.2e}",
    )


SCENARIO_ARGS = {
    "fig1a": ["fig1a", "--t-points", "16", "--n", "4"],
    "fig1b": ["fig1b", "--n", "3"],
    "closed-forms": ["closed-forms", "--xi", "0.05", "--n", "4"],
    "advantage": ["advantage", "--n", "3", "--xi", "0.01", "--regime", "shot"],
    "estimate": ["estimate", "--n", "4", "--xi", "0.02", "--shots", "300", "--seeds", "10"],
    "spectrum": ["spectrum", "--family", "two", "--xi", "0.2"],
    "verify": ["verify"],
}


def test_10_determinism(tmp_path):
    """Every scenario emits byte-identical CSV across two runs and across
    thread counts {1, max}."""
    all_ok = True
    for name, args in SCENARIO_ARGS.items():
        outputs = []
        for k, threads in enumerate(("1", "1", str(THREADS))):
            path = tmp_path / f"{name}-{k}.csv"
            code = main(args + ["--threads", threads, "--out", str(path)])
            assert code == EXIT_OK, f"{name} exited {code}"
            outputs.append(path.read_bytes())
        same = outputs[0] == outputs[1] == outputs[2]
        all_ok = all_ok and same
        if not same:
            print(f"[acceptance] determinism mismatch in scenario {name}")
    report("criterion-10 determinism", all_ok, f"{len(SCENARIO_ARGS)} scenarios checked")
