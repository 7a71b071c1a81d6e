"""Quantum Fisher information for the correlation parameter xi.

Two independent routes are provided and cross-checked:

* ``qfi_exact`` evaluates the symmetric-logarithmic-derivative spectral form

      F_Q = 2 * sum_{jk} |<j| d_rho |k>|^2 / (lambda_j + lambda_k)

  on the exactly propagated state, using the exact parameter derivative of
  the state (no finite differences in xi).

  Every SLD sum in this module, per shot and in the t -> 0+ limit, is the one
  kernel ``_sld_rate``.  Eigenvalues at or below KERNEL_RTOL of the largest
  form the numerical kernel.  Derivative weight that falls between two kernel
  eigenvalues is a diverging term, not a droppable one: above DARK_RTOL of the
  total it raises DivergentQfiError.  That weight means a dark coherence, or a
  t so small that the O(t) eigenvalues sink below the relative floor.  Rank
  changes make the QFI discontinuous (Safranek, PRA 95, 052320 (2017)), so the
  kernel is never cut silently.

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
  extrapolation of F_Q(t)/t on the propagated state, through the same
  kernel.  It handles mixed states and is the oracle for the closed form.

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
    _decay_rates,
    _pair_diff,
    _rate_form,
    _spin_table,
    decay_rate,
    drho_dxi,
    evolve,
    rate_matrix,
)
from .model import DephasingFamily

# The kernel policy of ``_sld_rate`` (module docstring).  KERNEL_RTOL also
# floors the squared norm of pure-probe leakage directions.
KERNEL_RTOL = 1e-13
DARK_RTOL = 1e-12

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
    """Sensing at a dark coherence (zero decay rate, nonzero sensitivity), or at a t too small to resolve."""


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
    """Per-shot QFI: the SLD sum ``_sld_rate`` of the propagated state and its exact xi-derivative."""
    _check_qfi_inputs(family, xi, t)
    return _sld_rate(evolve(rho0, family, xi, t), drho_dxi(rho0, family, xi, t))


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
    """SLD QFI 2 sum_jk |a_jk|^2 / (lambda_j + lambda_k) of a PSD matrix m and its xi-derivative m_prime.

    m is a propagated state (per-shot F_Q) or the O(t) weight matrix of a pure
    probe (the t -> 0+ rate); lambda_j are its eigenvalues and a is m_prime in
    its eigenbasis.  Eigenvalues at or below KERNEL_RTOL * lambda_max count as
    zero.  A term with one such index keeps the other's eigenvalue; a term with
    both diverges, so derivative weight there above DARK_RTOL of the total
    raises DivergentQfiError instead of being dropped.
    """
    lam, u = np.linalg.eigh(m)
    weight = np.abs(u.conj().T @ m_prime @ u) ** 2
    floor = KERNEL_RTOL * lam[-1]
    if lam[0] > floor:
        return 2.0 * float((weight / (lam[:, None] + lam[None, :])).sum())
    lam = np.where(lam > floor, lam, 0.0)
    denom = lam[:, None] + lam[None, :]
    dark = denom == 0.0
    if weight[dark].sum() > DARK_RTOL * weight.sum():
        raise DivergentQfiError(
            f"{weight[dark].sum() / weight.sum():.3e} of the derivative weight sits in the numerical kernel"
            f" (eigenvalues <= {KERNEL_RTOL:g} of the largest): the probe senses a dark coherence,"
            " or t is too small to resolve its decay"
        )
    return 2.0 * float((weight[~dark] / denom[~dark]).sum())


def time_averaged_qfi_limit_pure(
    probe: "ProductState | np.ndarray", family: DephasingFamily, xi: float
) -> QfiResult:
    """Exact t -> 0+ limit of F_Q(t)/t for a pure probe (see module docstring).

    ``probe`` is a ProductState, whose N x N route builds no 2^N object, or
    a unit state vector of length 2^N, which goes through one N x N
    eigendecomposition of the Gram matrix V^dag V.  Leakage directions of
    squared norm at most KERNEL_RTOL are dropped.  Raises
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
        s = np.where(s * s > KERNEL_RTOL, s, 0.0)
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
    k = w * np.sqrt(np.where(g > KERNEL_RTOL, g, 0.0))
    value = _sld_rate(k.conj().T @ a @ k, k.conj().T @ b @ k)
    return QfiResult(value, TIME_AVERAGED, 0.0, state_hash(psi))


def _pair_optimum(family: DephasingFamily, xi: float, diffs: np.ndarray, regime: str) -> tuple:
    """(values, times) of the coherence classes ``diffs`` optimised over t; a dark class raises.

    TIME_AVERAGED: G'^2 / (2G) at t -> 0+; PER_SHOT: (G'/G)^2 x* e^{-2x*} at t = x*/G; G' = 0 scores 0.
    """
    g, gp = _decay_rates(family, xi, diffs), _rate_form(family, family.delta_c, diffs)
    dark = (g == 0.0) & (gp != 0.0)
    if np.any(dark):
        k = int(np.argmax(dark))
        raise DivergentQfiError(f"dark coherence class d = {diffs[k].astype(int)}: rate 0, sensitivity {gp[k]:g}")
    blind = gp == 0.0
    g = np.where(blind, 1.0, g)
    if regime == TIME_AVERAGED:
        return np.where(blind, 0.0, gp * gp / (2.0 * g)), np.zeros_like(g)
    ratio = np.where(blind, 0.0, gp / g)
    return ratio * ratio * shot_optimum_value(), np.where(blind, 0.0, shot_optimum_x() / g)


def coherence_pair_qfi_timeavg(family: DephasingFamily, xi: float, pair: CoherencePair) -> QfiResult:
    """Closed-form optimal time-averaged QFI G'^2 / (2 G) for one coherence pair."""
    value, time = _pair_optimum(family, xi, _pair_diff(family, pair), TIME_AVERAGED)
    return QfiResult(float(value[0]), TIME_AVERAGED, float(time[0]), pair)


def coherence_pair_qfi_shot(family: DephasingFamily, xi: float, pair: CoherencePair, t: float) -> QfiResult:
    """Per-shot pair QFI t^2 G'^2 e^{-2Gt} / (1 - e^{-2Gt}) = t (G'^2 / 2G) 2x e^{-2x} / (1 - e^{-2x}), x = Gt."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    per_time = coherence_pair_qfi_timeavg(family, xi, pair).value
    if per_time == 0.0:
        return QfiResult(0.0, PER_SHOT, t, pair)
    x2 = 2.0 * decay_rate(family, xi, pair) * t
    return QfiResult(t * per_time * x2 * math.exp(-x2) / -math.expm1(-x2), PER_SHOT, t, pair)


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
    value, time = _pair_optimum(family, xi, _pair_diff(family, pair), PER_SHOT)
    return QfiResult(float(value[0]), PER_SHOT, float(time[0]), pair)
