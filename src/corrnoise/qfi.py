"""Quantum Fisher information for the correlation parameter xi.

Two independent routes are provided and cross-checked:

* ``qfi_exact`` evaluates the symmetric-logarithmic-derivative spectral form

      F_Q = 2 * sum_{jk} |<j| d_rho |k>|^2 / (lambda_j + lambda_k)

  on the exactly propagated state, using the exact parameter derivative of
  the state (no finite differences in xi).

* ``qfi_fidelity_check`` estimates the same quantity from the Uhlmann
  fidelity between states propagated at xi and xi + dxi,

      8 * (1 - sqrt(F)) / dxi^2,

  which is the small-dxi expansion of the squared Bures distance.

``time_averaged_qfi`` divides the per-shot value by the interrogation time;
its supremum over t sits at t -> 0+ for purely dissipative dynamics.

* ``time_averaged_qfi_limit_pure`` gives that limit exactly for a pure probe
  psi.  To first order in t the evolved state leaks out of psi along
  V_j = (1 - |psi><psi|) Z_j |psi>, with weight matrix t V A V^dag and
  xi-derivative t V B V^dag, where A = (gamma/2) Re C(xi) and
  B = (gamma/2) Re dC.  Writing V = Q K^dag with orthonormal columns Q, the
  limit is the SLD QFI of the N x N pair (K^dag A K, K^dag B K).  For a
  product probe V^dag V = diag(sin^2 theta_j), so K = diag(|sin theta_j|)
  and no 2^N object is built.

* ``time_averaged_qfi_limit`` reaches the same limit by Richardson
  extrapolation of F_Q(t)/t on the propagated state.  It handles mixed
  states and is the oracle for the closed form.

For an equal superposition of one coherence pair with decay rate G and rate
derivative G', everything is closed form:

    per shot        F_Q(t)  = t^2 G'^2 exp(-2 G t) / (1 - exp(-2 G t))
    time averaged   lim_{t->0} F_Q(t)/t = G'^2 / (2 G)

and the per-shot optimum sits at x = G*t solving 1 - exp(-2x) = x.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .evolution import (
    CoherencePair,
    ProductState,
    _spin_table,
    decay_rate,
    decay_rate_derivative,
    drho_dxi,
    evolve,
    rate_matrix,
)
from .model import DephasingFamily

SLD_KERNEL_CUTOFF = 1e-12
# Closed-form t -> 0+ limit: eigenvalues of the O(t) weight matrix at or
# below PURE_KERNEL_RTOL * its largest form its kernel, and so do leakage
# directions whose squared norm (at most 1 for a unit probe) is below it.
# The derivative may carry at most a PURE_DARK_RTOL share of its squared
# weight inside that kernel; more is a dark coherence and the limit diverges.
PURE_KERNEL_RTOL = 1e-13
PURE_DARK_RTOL = 1e-12

PER_SHOT = "per_shot"
TIME_AVERAGED = "time_averaged"

__all__ = [
    "DivergentQfiError",
    "ExtrapolationError",
    "EigenDecomposition",
    "QfiResult",
    "hermitian_eig",
    "fidelity",
    "bures_distance_sq",
    "qfi_exact",
    "qfi_exact_value",
    "qfi_fidelity_check",
    "time_averaged_qfi",
    "time_averaged_qfi_limit",
    "time_averaged_qfi_limit_pure",
    "coherence_pair_qfi_timeavg",
    "coherence_pair_qfi_shot",
    "coherence_pair_qfi_shot_peak",
    "shot_optimum_x",
    "shot_optimum_value",
    "state_hash",
]


class DivergentQfiError(ArithmeticError):
    """Sensing at a dark coherence: zero decay rate with nonzero sensitivity."""


class ExtrapolationError(RuntimeError):
    """Richardson extrapolation failed to converge; carries the extrapolant sequence."""

    def __init__(self, message: str, extrapolants: list[float]):
        super().__init__(f"{message}; extrapolants={extrapolants}")
        self.extrapolants = extrapolants


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(matrix: np.ndarray, herm_atol: float = 1e-10) -> EigenDecomposition:
    """Dense Hermitian eigendecomposition with an input Hermiticity gate."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dev = float(np.max(np.abs(matrix - matrix.conj().T)))
    if dev > herm_atol:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e} > {herm_atol:g}")
    w, v = np.linalg.eigh(matrix)
    return EigenDecomposition(w, v)


def _psd_sqrt(rho: np.ndarray, eig_floor: float = -1e-8) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    if w[0] < eig_floor:
        raise ValueError(f"matrix has eigenvalue {w[0]:.3e} below PSD floor {eig_floor:g}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, in [0, 1]."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    sq = _psd_sqrt(rho)
    inner = sq @ sigma @ sq
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    root = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    return min(root * root, 1.0)


def bures_distance_sq(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Squared Bures distance d^2 = 2 (1 - sqrt(F))."""
    return 2.0 * (1.0 - math.sqrt(fidelity(rho, sigma)))


def state_hash(rho: np.ndarray) -> str:
    """Short content hash used as a probe descriptor for dense states."""
    rho = np.ascontiguousarray(rho)
    return "state:" + hashlib.sha1(rho.tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class QfiResult:
    """A QFI value with its resource regime, interrogation time and probe."""

    value: float
    regime: str
    time: float
    probe: "ProductState | CoherencePair | str"

    def __post_init__(self):
        if self.regime not in (PER_SHOT, TIME_AVERAGED):
            raise ValueError(f"unknown regime {self.regime!r}")
        if not self.value >= 0.0:
            raise ValueError(f"QFI value must be >= 0, got {self.value}")
        if not self.time >= 0.0:
            raise ValueError(f"time must be >= 0, got {self.time}")


def _check_qfi_inputs(family: DephasingFamily, xi: float, t: float) -> None:
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    if not family.is_interior(xi):
        raise ValueError(f"xi={xi} must lie strictly inside the family domain {family.xi_domain}")


def qfi_exact_value(rho0: np.ndarray, family: DephasingFamily, xi: float, t: float) -> float:
    """Per-shot QFI via the SLD spectral formula on the propagated state."""
    _check_qfi_inputs(family, xi, t)
    rho_t = evolve(rho0, family, xi, t)
    deriv = drho_dxi(rho0, family, xi, t)
    w, v = np.linalg.eigh(rho_t)
    a = v.conj().T @ deriv @ v
    denom = w[:, None] + w[None, :]
    num = np.abs(a) ** 2
    mask = denom > SLD_KERNEL_CUTOFF
    return 2.0 * float(np.sum(num[mask] / denom[mask]))


def qfi_exact(rho0: np.ndarray, family: DephasingFamily, xi: float, t: float) -> QfiResult:
    return QfiResult(qfi_exact_value(rho0, family, xi, t), PER_SHOT, float(t), state_hash(rho0))


def qfi_fidelity_check(
    rho0: np.ndarray, family: DephasingFamily, xi: float, t: float, dxi: float | None = None
) -> float:
    """Finite-difference fidelity estimate of the per-shot QFI.

    Uses 8 (1 - sqrt(F(rho(xi), rho(xi + dxi)))) / dxi^2 with a default step
    of 1e-4 * xi; this is an independent check on ``qfi_exact``.
    """
    _check_qfi_inputs(family, xi, t)
    if dxi is None:
        dxi = 1e-4 * xi
    if dxi <= 0.0:
        raise ValueError(f"dxi must be > 0, got {dxi}")
    if not family.contains(xi + dxi):
        raise ValueError(f"xi + dxi = {xi + dxi} leaves the family domain {family.xi_domain}")
    f = fidelity(evolve(rho0, family, xi, t), evolve(rho0, family, xi + dxi, t))
    return 8.0 * (1.0 - math.sqrt(f)) / (dxi * dxi)


def time_averaged_qfi(rho0: np.ndarray, family: DephasingFamily, xi: float, t: float) -> QfiResult:
    """Per-shot QFI divided by the interrogation time."""
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    return QfiResult(qfi_exact_value(rho0, family, xi, t) / t, TIME_AVERAGED, float(t), state_hash(rho0))


def time_averaged_qfi_limit(
    rho0: np.ndarray,
    family: DephasingFamily,
    xi: float,
    rel_tol: float = 1e-6,
    levels: int = 7,
) -> QfiResult:
    """t -> 0+ supremum of the time-averaged QFI by Richardson extrapolation.

    Evaluates F_Q(t_k)/t_k on t_k = t0 * 2^-k with t0 = 0.01 / max rate and
    extrapolates assuming an error series in integer powers of t.  Converged
    once successive diagonal extrapolants agree to ``rel_tol`` relative;
    raises ExtrapolationError (with the sequence) otherwise.  For pure probes
    ``time_averaged_qfi_limit_pure`` is exact; this route covers mixed
    states and is its oracle.
    """
    if not family.is_interior(xi):
        raise ValueError(f"xi={xi} must lie strictly inside the family domain {family.xi_domain}")
    descriptor = state_hash(rho0)
    max_rate = float(rate_matrix(family, xi).max())
    if max_rate <= 0.0:
        return QfiResult(0.0, TIME_AVERAGED, 0.0, descriptor)
    t0 = 0.01 / max_rate
    rows: list[list[float]] = []
    diagonal: list[float] = []
    for k in range(levels):
        t_k = t0 * 2.0 ** (-k)
        row = [qfi_exact_value(rho0, family, xi, t_k) / t_k]
        for m in range(1, k + 1):
            row.append(row[m - 1] + (row[m - 1] - rows[k - 1][m - 1]) / (2.0**m - 1.0))
        rows.append(row)
        diagonal.append(row[-1])
        if k >= 1 and abs(diagonal[-1] - diagonal[-2]) <= rel_tol * max(abs(diagonal[-1]), 1e-300):
            value = max(diagonal[-1], 0.0)
            return QfiResult(value, TIME_AVERAGED, 0.0, descriptor)
    raise ExtrapolationError(
        f"time-averaged QFI extrapolation did not converge to {rel_tol:g} in {levels} levels", diagonal
    )


def _sld_rate(m: np.ndarray, m_prime: np.ndarray) -> float:
    """SLD QFI 2 sum_jk |a_jk|^2 / (lambda_j + lambda_k) of the O(t) pair (m, m_prime).

    lambda_j are the eigenvalues of m and a is m_prime in its eigenbasis.
    Terms inside the kernel of m diverge, so weight there raises
    DivergentQfiError instead of being dropped.
    """
    lam, u = np.linalg.eigh(m)
    weight = np.abs(u.conj().T @ m_prime @ u) ** 2
    lam = np.where(lam > PURE_KERNEL_RTOL * lam[-1], lam, 0.0)
    denom = lam[:, None] + lam[None, :]
    dark = denom == 0.0
    if weight[dark].sum() > PURE_DARK_RTOL * weight.sum():
        raise DivergentQfiError(
            f"probe senses a dark coherence: {weight[dark].sum() / weight.sum():.3e} of the derivative weight"
            " sits on coherences that do not decay"
        )
    return 2.0 * float((weight[~dark] / denom[~dark]).sum())


def time_averaged_qfi_limit_pure(
    probe: "ProductState | np.ndarray", family: DephasingFamily, xi: float
) -> QfiResult:
    """Exact t -> 0+ limit of F_Q(t)/t for a pure probe (see module docstring).

    ``probe`` is a ProductState, whose N x N route builds no 2^N object, or
    a unit state vector of length 2^N, which goes through one N x N
    eigendecomposition of the Gram matrix V^dag V.  Leakage directions of
    squared norm at most PURE_KERNEL_RTOL are dropped.  Raises
    DivergentQfiError when the probe senses a coherence that does not decay
    at xi.
    """
    if not family.contains(xi):
        raise ValueError(f"xi={xi} outside family domain {family.xi_domain}")
    n = family.n_qubits
    half = 0.5 * family.gamma
    a = half * np.real(family.coefficient_matrix(xi))
    b = half * np.real(family.delta_c)
    if isinstance(probe, ProductState):
        if probe.n_qubits != n:
            raise ValueError(f"probe is for {probe.n_qubits} qubits, family has {n}")
        s = np.sin(np.array(probe.thetas))
        s = np.where(s * s > PURE_KERNEL_RTOL, s, 0.0)
        scale = np.outer(s, s)
        return QfiResult(_sld_rate(a * scale, b * scale), TIME_AVERAGED, 0.0, probe)
    psi = np.asarray(probe)
    if psi.shape != (2**n,):
        raise ValueError(f"state vector has shape {psi.shape}, expected ({2**n},)")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state vector must have unit norm, got {norm}")
    spins = _spin_table(n)
    v = (spins - (np.abs(psi) ** 2) @ spins) * psi[:, None]
    g, w = np.linalg.eigh(v.conj().T @ v)
    k = w * np.sqrt(np.where(g > PURE_KERNEL_RTOL, g, 0.0))
    value = _sld_rate(k.conj().T @ a @ k, k.conj().T @ b @ k)
    return QfiResult(value, TIME_AVERAGED, 0.0, state_hash(psi))


def _pair_rates(family: DephasingFamily, xi: float, pair: CoherencePair) -> tuple[float, float]:
    return decay_rate(family, xi, pair), decay_rate_derivative(family, xi, pair)


def coherence_pair_qfi_timeavg(family: DephasingFamily, xi: float, pair: CoherencePair) -> QfiResult:
    """Closed-form optimal time-averaged QFI G'^2 / (2 G) for one coherence pair."""
    g, gp = _pair_rates(family, xi, pair)
    if gp == 0.0:
        return QfiResult(0.0, TIME_AVERAGED, 0.0, pair)
    if g == 0.0:
        raise DivergentQfiError(f"pair {pair.label} has zero decay rate but nonzero sensitivity {gp:g}")
    return QfiResult(gp * gp / (2.0 * g), TIME_AVERAGED, 0.0, pair)


def coherence_pair_qfi_shot(family: DephasingFamily, xi: float, pair: CoherencePair, t: float) -> QfiResult:
    """Per-shot QFI t^2 G'^2 e^{-2Gt} / (1 - e^{-2Gt}) of one coherence pair."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    g, gp = _pair_rates(family, xi, pair)
    if gp == 0.0:
        return QfiResult(0.0, PER_SHOT, t, pair)
    if g == 0.0:
        raise DivergentQfiError(f"pair {pair.label} has zero decay rate but nonzero sensitivity {gp:g}")
    x = g * t
    value = t * t * gp * gp * math.exp(-2.0 * x) / (-math.expm1(-2.0 * x))
    return QfiResult(value, PER_SHOT, t, pair)


@lru_cache(maxsize=1)
def shot_optimum_x() -> float:
    """Root of 1 - exp(-2x) = x; the per-shot optimum in units of the decay rate."""
    from scipy.optimize import brentq

    return float(brentq(lambda x: -math.expm1(-2.0 * x) - x, 0.5, 1.0, xtol=1e-15, rtol=8.9e-16))


@lru_cache(maxsize=1)
def shot_optimum_value() -> float:
    """x* exp(-2 x*): the per-shot peak of the pair QFI in units of (G'/G)^2."""
    x = shot_optimum_x()
    return x * math.exp(-2.0 * x)


def coherence_pair_qfi_shot_peak(family: DephasingFamily, xi: float, pair: CoherencePair) -> QfiResult:
    """Per-shot pair QFI maximized over t: value (G'/G)^2 x* e^{-2x*} at t = x*/G."""
    g, gp = _pair_rates(family, xi, pair)
    if gp == 0.0:
        return QfiResult(0.0, PER_SHOT, 0.0, pair)
    if g == 0.0:
        raise DivergentQfiError(f"pair {pair.label} has zero decay rate but nonzero sensitivity {gp:g}")
    ratio = gp / g
    return QfiResult(ratio * ratio * shot_optimum_value(), PER_SHOT, shot_optimum_x() / g, pair)
