"""Release-gate property battery, shared by the CLI ``verify`` scenario.

Each check returns a PropertyResult with a short numeric detail string so
the report is diagnosable without re-running.  All randomness is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    CoherencePair,
    coherence_spectrum,
    decay_rate,
    evolve,
    ghz_density,
    pair_density,
    plus_product,
    random_pure_density,
    random_pure_state,
    rate_matrix,
    superoperator_spectrum,
)
from .model import DephasingFamily, build_n_qubit, build_single_qubit, build_two_qubit
from .qfi import (
    bures_distance_sq,
    qfi_exact_value,
    qfi_fidelity_check,
    time_averaged_qfi_limit,
    time_averaged_qfi_limit_pure,
)

__all__ = ["PropertyResult", "run_verify", "default_families", "closed_form_table"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def default_families() -> dict[str, DephasingFamily]:
    domain = (1e-6, 1.0)
    return {
        "single": build_single_qubit(domain),
        "two": build_two_qubit(domain),
        "nqb3": build_n_qubit(3, domain),
        "nqb4": build_n_qubit(4, domain),
    }


def _result(name: str, passed: bool, detail: str) -> PropertyResult:
    return PropertyResult(name, bool(passed), detail)


def _xi_for(family: DephasingFamily, preferred: float) -> float:
    """preferred when admissible, else the domain midpoint (handles fixed channels)."""
    if family.contains(preferred):
        return preferred
    lo, hi = family.xi_domain
    return 0.5 * (lo + hi)


def check_family_psd_grid(families, n_grid: int = 16) -> PropertyResult:
    worst = np.inf
    for fam in families.values():
        lo, hi = fam.xi_domain
        for xi in np.linspace(lo, hi, n_grid):
            worst = min(worst, fam.min_eigenvalue(float(xi)))
    return _result("family_psd_grid", worst >= -1e-10, f"min eigenvalue over grid {worst:.3e}")


def check_hermiticity(families) -> PropertyResult:
    worst = 0.0
    for fam in families.values():
        for m in (fam.c0, fam.delta_c):
            worst = max(worst, float(np.max(np.abs(m - m.conj().T))))
    return _result("coefficient_hermiticity", worst <= 1e-12, f"max |A - A^dag| = {worst:.3e}")


def check_rates_nonnegative(families, xis=(1e-3, 1e-2, 1e-1, 0.5)) -> PropertyResult:
    worst = np.inf
    for fam in families.values():
        for xi in xis:
            if fam.contains(xi):
                worst = min(worst, float(rate_matrix(fam, xi).min()))
        worst = min(worst, float(rate_matrix(fam, _xi_for(fam, 1e-2)).min()))
    return _result("rates_nonnegative", worst >= 0.0, f"min rate {worst:.3e}")


def check_diag_preservation(families, seed: int) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for fam in families.values():
        for _ in range(5):
            rho = random_pure_density(fam.n_qubits, rng)
            out = evolve(rho, fam, _xi_for(fam, 1e-2), float(rng.uniform(0.1, 5.0)))
            worst = max(worst, float(np.max(np.abs(np.diagonal(out) - np.diagonal(rho)))))
    return _result("diagonal_preservation", worst <= 1e-14, f"max diagonal drift {worst:.3e}")


def check_semigroup(families, seed: int) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for fam in families.values():
        for _ in range(5):
            rho = random_pure_density(fam.n_qubits, rng)
            xi = _xi_for(fam, 1e-2)
            t1, t2 = rng.uniform(0.05, 2.0, size=2)
            once = evolve(rho, fam, xi, float(t1 + t2))
            twice = evolve(evolve(rho, fam, xi, float(t1)), fam, xi, float(t2))
            worst = max(worst, float(np.max(np.abs(once - twice))))
    return _result("semigroup", worst <= 1e-12, f"max entrywise deviation {worst:.3e}")


def check_complete_positivity(families, seed: int, n_states: int = 100) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for fam in families.values():
        for _ in range(n_states):
            rho = random_pure_density(fam.n_qubits, rng)
            out = evolve(rho, fam, _xi_for(fam, 1e-2), float(rng.uniform(0.0, 10.0)))
            worst = min(worst, float(np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0]))
    return _result("complete_positivity", worst >= -1e-8, f"min eigenvalue after evolution {worst:.3e}")


def check_superoperator_oracle(families, xi: float = 0.01, atol: float = 1e-10) -> PropertyResult:
    worst = 0.0
    for fam in families.values():
        if fam.n_qubits > 3:
            continue
        xi_f = _xi_for(fam, xi)
        rates = coherence_spectrum(fam, xi_f).rate
        expected = np.sort(np.concatenate([np.zeros(2**fam.n_qubits), -rates, -rates]))
        observed = superoperator_spectrum(fam, xi_f)
        if np.max(np.abs(observed.imag)) > atol:
            return _result("superoperator_oracle", False, "complex eigenvalues found")
        worst = max(worst, float(np.max(np.abs(np.sort(observed.real) - expected))))
    return _result("superoperator_oracle", worst <= atol, f"max spectrum deviation {worst:.3e}")


def check_bures_convexity(families, seed: int, n_states: int = 100) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    fams = list(families.values())
    fams = [f for f in fams if f.is_interior(_xi_for(f, 0.05))]
    for k in range(n_states):
        fam = fams[k % len(fams)]
        xi, dxi = 0.05, 5e-4
        tau = float(rng.uniform(0.05, 1.0)) / fam.gamma
        rho = random_pure_density(fam.n_qubits, rng)
        base = bures_distance_sq(evolve(rho, fam, xi, tau), evolve(rho, fam, xi + dxi, tau))
        for m in (2, 4, 8):
            lhs = bures_distance_sq(evolve(rho, fam, xi, m * tau), evolve(rho, fam, xi + dxi, m * tau))
            worst = max(worst, lhs - m * base)
    return _result("bures_convexity", worst <= 1e-10, f"max (d^2(M) - M d^2) = {worst:.3e}")


def check_qfi_crosscheck(families, seed: int, n_points: int = 50, rtol: float = 1e-3) -> PropertyResult:
    # The fidelity route resolves 1 - sqrt(F) ~ F_Q dxi^2 / 8 down to the
    # ~1e-15 floating-point floor of the eigendecomposition; sample t near
    # the slowest-pair optimum and keep only points where that difference is
    # well above the floor, which is the domain the 1e-3 agreement covers.
    rng = np.random.default_rng(seed)
    fams = [f for f in families.values() if f.is_interior(0.1)]
    worst = 0.0
    accepted = 0
    draws = 0
    while accepted < n_points and draws < 20 * n_points:
        fam = fams[draws % len(fams)]
        draws += 1
        rho = random_pure_density(fam.n_qubits, rng)
        xi = float(rng.uniform(0.02, 0.2))
        rates = rate_matrix(fam, xi)
        slow = float(rates[rates > 0.0].min())
        t = float(rng.uniform(0.3, 2.0)) / slow
        exact = qfi_exact_value(rho, fam, xi, t)
        if exact * (1e-4 * xi) ** 2 / 8.0 < 4e-12:
            continue
        accepted += 1
        approx = qfi_fidelity_check(rho, fam, xi, t)
        worst = max(worst, abs(approx / exact - 1.0))
    ok = worst <= rtol and accepted == n_points
    return _result("qfi_fidelity_crosscheck", ok, f"max relative deviation {worst:.3e} over {accepted} points")


def closed_form_table(xi: float, n: int = 4, gamma: float = 1.0) -> list[tuple[str, float, float, float]]:
    """(case, computed, expected, rel_err) for the three analytic time-averaged optima at (xi, gamma).

    Richardson ``time_averaged_qfi_limit`` against the closed forms: single-qubit |+> at
    gamma/(2 xi), two-qubit Bell at gamma/xi and N-qubit GHZ at N gamma/(2 xi).
    """
    domain = (min(1e-6, xi / 2.0), 1.0)
    bell = pair_density(CoherencePair.from_indices(1, 2, 2))
    cases = [
        ("single_plus", plus_product(1).density(), build_single_qubit(domain, gamma=gamma), gamma / (2.0 * xi)),
        ("two_bell", bell, build_two_qubit(domain, gamma=gamma), gamma / xi),
        (f"nqb{n}_ghz", ghz_density(n), build_n_qubit(n, domain, gamma=gamma), n * gamma / (2.0 * xi)),
    ]
    rows = []
    for name, rho, fam, expected in cases:
        computed = time_averaged_qfi_limit(rho, fam, xi).value
        rows.append((name, computed, expected, abs(computed / expected - 1.0)))
    return rows


def check_closed_forms(rtol: float = 1e-4) -> PropertyResult:
    worst = max(row[3] for xi in (1e-3, 1e-2, 1e-1) for row in closed_form_table(xi))
    return _result("closed_forms", worst <= rtol, f"max relative error {worst:.3e}")


def check_closed_form_limit(families, seed: int, rtol: float = 1e-6) -> PropertyResult:
    # The exact t -> 0+ limit for pure probes against its Richardson oracle.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for fam in families.values():
        if not fam.is_interior(0.05):
            continue
        for xi in (0.05, 0.2):
            psi = random_pure_state(fam.n_qubits, rng)
            exact = time_averaged_qfi_limit_pure(psi, fam, xi).value
            oracle = time_averaged_qfi_limit(np.outer(psi, psi.conj()), fam, xi).value
            worst = max(worst, abs(exact / oracle - 1.0))
    return _result("closed_form_limit", worst <= rtol, f"max relative deviation from Richardson {worst:.3e}")


def check_monotone_supremum(families, seed: int) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for fam in families.values():
        if not fam.is_interior(0.05):
            continue
        xi = 0.05
        rho = random_pure_density(fam.n_qubits, rng)
        limit = time_averaged_qfi_limit(rho, fam, xi).value
        max_rate = float(rate_matrix(fam, xi).max())
        for t in np.geomspace(1e-3 / max_rate, 1e2 / max_rate, 25):
            avg = qfi_exact_value(rho, fam, xi, float(t)) / float(t)
            worst = max(worst, avg - limit * (1.0 + 1e-6))
    return _result("monotone_supremum", worst <= 0.0, f"max excess over t->0 limit {worst:.3e}")


def check_z_covariance(families, seed: int, rtol: float = 1e-9) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for fam in families.values():
        if not fam.is_interior(0.05):
            continue
        rho = random_pure_density(fam.n_qubits, rng)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=fam.n_qubits)
        diag = np.array([1.0])
        for p in phases:
            diag = np.kron(diag, np.array([1.0, np.exp(1j * p)]))
        rotated = (diag[:, None] * rho) * diag.conj()[None, :]
        base = qfi_exact_value(rho, fam, 0.05, 1.0)
        rot = qfi_exact_value(rotated, fam, 0.05, 1.0)
        if base > 1e-12:
            worst = max(worst, abs(rot / base - 1.0))
    return _result("z_covariance", worst <= rtol, f"max relative change {worst:.3e}")


def check_qfi_convexity(families, seed: int, n_mixtures: int = 20) -> PropertyResult:
    rng = np.random.default_rng(seed)
    fams = [f for f in families.values() if f.is_interior(0.05)]
    worst = -np.inf
    for k in range(n_mixtures):
        fam = fams[k % len(fams)]
        rho1 = random_pure_density(fam.n_qubits, rng)
        rho2 = random_pure_density(fam.n_qubits, rng)
        p = float(rng.uniform(0.1, 0.9))
        mix = p * rho1 + (1.0 - p) * rho2
        lhs = qfi_exact_value(mix, fam, 0.05, 1.0)
        rhs = p * qfi_exact_value(rho1, fam, 0.05, 1.0) + (1.0 - p) * qfi_exact_value(rho2, fam, 0.05, 1.0)
        worst = max(worst, lhs - rhs)
    return _result("qfi_convexity", worst <= 1e-8, f"max convexity violation {worst:.3e}")


def check_rate_nonneg_and_pair_consistency(families, xi: float = 0.01) -> PropertyResult:
    worst = 0.0
    for fam in families.values():
        xi_f = _xi_for(fam, xi)
        spectrum = coherence_spectrum(fam, xi_f)
        head = (spectrum.alpha_index[:64].tolist(), spectrum.beta_index[:64].tolist(), spectrum.rate[:64].tolist())
        for ia, ib, rate in zip(*head):
            pair = CoherencePair.from_indices(ia, ib, fam.n_qubits)
            worst = max(worst, abs(decay_rate(fam, xi_f, pair) - rate))
    return _result("pair_rate_consistency", worst <= 1e-12, f"max |single - bulk| = {worst:.3e}")


def run_verify(seed: int = 0, extra_family: DephasingFamily | None = None) -> list[PropertyResult]:
    families = default_families()
    if extra_family is not None:
        families["file"] = extra_family
    small = {k: f for k, f in families.items() if f.n_qubits <= 3}
    checks = [
        check_family_psd_grid(families),
        check_hermiticity(families),
        check_rates_nonnegative(families),
        check_diag_preservation(families, seed ^ 0x01),
        check_semigroup(families, seed ^ 0x02),
        check_complete_positivity(families, seed ^ 0x03),
        check_superoperator_oracle(small),
        check_bures_convexity(small, seed ^ 0x04),
        check_qfi_crosscheck(small, seed ^ 0x05),
        check_closed_forms(),
        check_closed_form_limit(small, seed ^ 0x09),
        check_monotone_supremum(small, seed ^ 0x06),
        check_z_covariance(families, seed ^ 0x07),
        check_qfi_convexity(small, seed ^ 0x08),
        check_rate_nonneg_and_pair_consistency(families),
    ]
    return checks
