"""Quantum Fisher information for the correlation parameter xi.

A QfiResult's regime is one of REGIMES: "shot" for the per-shot F_Q(t), "time"
for the time average F_Q(t)/t, whose supremum over t sits at t -> 0+ for
purely dissipative dynamics.

* ``qfi_exact_value`` evaluates the symmetric-logarithmic-derivative spectral form

      F_Q = 2 * sum_{jk} |<j| d_rho |k>|^2 / (lambda_j + lambda_k)

  on the exactly propagated state, using the exact parameter derivative of
  the state (no finite differences in xi).

  Every SLD sum in this module, per shot, in the t -> 0+ limit and in the
  shot search's ``product_qfi_value_grad``, is one routine, ``_sld``, and
  keeps one kernel policy, ``_kernel_policy``.  Eigenvalues at or below
  KERNEL_RTOL of the largest form the numerical kernel.  Derivative weight
  that falls between two kernel eigenvalues is a diverging term, not a
  droppable one: above DARK_RTOL of the total it raises DivergentQfiError
  (``product_qfi_value_grad`` scores that probe -inf).  That weight means a
  dark coherence, or a t so small that the O(t) eigenvalues sink below the
  relative floor.  Rank changes make the QFI discontinuous (Safranek, PRA 95,
  052320 (2017)), so the kernel is never cut silently.

* ``qfi_fidelity_check`` estimates the same quantity from the Uhlmann
  fidelity between states propagated at xi - dxi and xi + dxi,

      2 * (1 - sqrt(F)) / dxi^2,

  the central difference of the squared Bures distance, whose leading error
  is O(dxi^2) rather than the O(dxi) of a one-sided step.

* ``time_averaged_qfi_limit`` is the one exact route to that limit.  Write
  rho0 = sum_k p_k |psi_k><psi_k| over its support, the eigenvalues above
  KERNEL_RTOL of the largest.  To first order in t the state leaks out of
  the support along the columns V_(k,j) = sqrt(p_k) (1 - P_supp) Z_j psi_k,
  with weight matrix t V (I_r (x) A) V^dag and xi-derivative
  t V (I_r (x) B) V^dag, where A = Re C(xi) / 2 and B = Re dC / 2.
  Support-block and support-kernel terms are O(t^2), so they vanish in the
  limit; rank changes make the QFI discontinuous (Safranek, PRA 95, 052320
  (2017)), which is why the kernel is handled explicitly.  Writing V = Q K^dag
  with orthonormal columns Q, the limit is the SLD QFI of the rN x rN pair
  (K^dag (I_r (x) A) K, K^dag (I_r (x) B) K).  A full-rank rho0 has nothing
  to leak into and scores 0.  For a product probe V^dag V = diag(sin^2
  theta_j), so K = diag(|sin theta_j|) and no 2^N object is built.

* ``richardson_limit`` reaches the same limit numerically, by Richardson
  extrapolation of F_Q(t)/t on the propagated state through the same kernel.
  It is only the oracle for the exact route, in the tests and in ``verify``.

For an equal superposition of one coherence pair with decay rate G and rate
derivative G', everything is closed form:

    per shot        F_Q(t)  = t^2 G'^2 exp(-2 G t) / (1 - exp(-2 G t))
    time averaged   lim_{t->0} F_Q(t)/t = G'^2 / (2 G)

and the per-shot optimum sits at x = G*t solving 1 - exp(-2x) = x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import (
    DENSITY_EIG_FLOOR,
    CoherencePair,
    ProductState,
    _decay,
    _decay_rates,
    _decayed,
    _derivative,
    _pair_line,
    _product_vectors,
    _spin_table,
    evolve,
    rate_matrix,
    validate_density_matrix,
)
from .model import DephasingFamily

# The kernel policy of ``_sld`` (module docstring).  KERNEL_RTOL also
# separates the support of rho0 from its kernel and floors the squared norm
# of leakage directions in the t -> 0+ limit.
KERNEL_RTOL = 1e-13
DARK_RTOL = 1e-12

REGIMES = ("time", "shot")

__all__ = [
    "REGIMES",
    "DivergentQfiError",
    "ExtrapolationError",
    "QfiResult",
    "fidelity",
    "bures_distance_sq",
    "qfi_exact_value",
    "product_qfi_value_grad",
    "qfi_fidelity_check",
    "time_averaged_qfi_limit",
    "richardson_limit",
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


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    if w[0] < DENSITY_EIG_FLOOR:
        raise ValueError(f"matrix has eigenvalue {w[0]:.3e} below PSD floor {DENSITY_EIG_FLOOR:g}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2 of two density matrices, in [0, 1]."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    if np.array_equal(rho, sigma):
        # F(rho, rho) = (Tr rho)^2 = 1 exactly; the route below can land some ulps off it.
        return 1.0
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
    import hashlib  # here, not at module level: importing corrnoise does not load it

    rho = np.ascontiguousarray(rho)
    return "state:" + hashlib.sha1(rho.tobytes()).hexdigest()[:16]


def _check_regime(regime: str) -> None:
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")


@dataclass(frozen=True)
class QfiResult:
    """A QFI value with its regime in REGIMES, interrogation time (0 for a t -> 0+ limit) and probe."""

    value: float
    regime: str
    time: float
    probe: "ProductState | CoherencePair | str"

    def __post_init__(self):
        _check_regime(self.regime)
        if not (0.0 <= self.value < math.inf and 0.0 <= self.time < math.inf):
            raise ValueError(f"QFI value and time must be finite and >= 0, got {self.value} at t = {self.time}")


def _check_qfi_inputs(family: DephasingFamily, xi: float, t) -> None:
    if not np.all(np.asarray(t) > 0.0):
        raise ValueError(f"t must be > 0, got {t}")
    if not family.is_interior(xi):
        raise ValueError(f"xi={xi} must lie strictly inside the family domain {family.xi_domain}")


def qfi_exact_value(rho0: np.ndarray, family: DephasingFamily, xi: float, t) -> "float | np.ndarray":
    """Per-shot QFI: the SLD sum ``_sld_rate`` of the propagated state and its exact xi-derivative.

    One state and a scalar t give a float.  A stack of states (..., 2^N, 2^N),
    with t a scalar or an array broadcasting against its leading shape, gives
    an array of that shape, each item bit for bit its single-state value.
    The state and its derivative are ``evolve``'s and ``drho_dxi``'s, from
    one rate lookup and one decay factor exp(-rate t) (``evolution._decay``).
    """
    _check_qfi_inputs(family, xi, t)
    rho0, t, decay = _decay(rho0, family, xi, t)
    deriv = _derivative(rho0, family, t, decay)[0]
    # Fresh pages cost more than this arithmetic: the state reuses the decay buffer, inputs go before eigh.
    state = np.multiply(rho0, decay, out=decay if decay.shape == rho0.shape and decay.dtype == rho0.dtype else None)
    del rho0, decay
    return _sld_rate(state, deriv)


def _fold_theta(theta: np.ndarray) -> np.ndarray:
    """Map real angles onto [0, pi]; the QFI stays, as theta_j -> -theta_j, 2 pi - theta_j are Z_j and -Z_j."""
    folded = np.mod(theta, 2.0 * np.pi)
    return np.minimum(folded, 2.0 * np.pi - folded)


def product_qfi_value_grad(
    thetas: np.ndarray, family: DephasingFamily, xi: float, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-shot QFI of product probes and its gradient in (theta_1, ..., theta_N, log t).

    thetas is a (k, N) array of polar angles, any real values, and t holds k
    times.  Returns the k values and the (k, N + 1) gradients.  The angles
    fold onto [0, pi] (``_fold_theta``).  The states rho = rho0 o E
    (E = exp(-R t), o the Schur product) and their derivatives d_xi rho =
    rho0 o M, M = -t R' o E, are formed as in ``qfi_exact_value``, and
    ``_sld`` gives F = Tr(L d_xi rho) and the SLD L.  So each value, and each
    -inf, is that of ``qfi_exact_value`` on the folded ``ProductState``'s
    density bit for bit: a diverging row, where it raises DivergentQfiError,
    scores -inf with a zero gradient.  The differential

        dF = 2 Tr(L d(d_xi rho)) - Tr(L^2 d rho),

    with G = 2 L o M - L^2 o E, gives dF/d theta_j = 2 psi_j'^T G psi, where
    psi_j' = psi(theta + pi e_j) / 2, and dF/d log t = 2 F - t psi^T (R o G) psi;
    dF/d theta is 0.0 at |+>^N.  Each row of a stack equals its single-row call bit for bit.
    """
    _check_qfi_inputs(family, xi, t)
    # The fold's slope is -1 where it reflects.
    slope = np.where(np.mod(thetas, 2.0 * np.pi) > np.pi, -2.0, 2.0)
    thetas = _fold_theta(np.asarray(thetas, dtype=np.float64))
    k, n = thetas.shape
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (k,))
    psi = _product_vectors(thetas)
    rho0, t, decay = _decay(psi[:, :, None] * psi[:, None, :], family, xi, t)
    deriv, factor = _derivative(rho0, family, t, decay)
    factor = _decayed(factor, decay)
    values, sld, u, share = _sld(np.multiply(rho0, decay, out=rho0), deriv)
    del rho0, deriv
    sld = u @ sld @ np.swapaxes(u, -1, -2)
    del u
    g = 2.0 * sld * factor - (sld @ sld) * decay
    del sld, factor, decay
    g_psi = (g @ psi[:, :, None])[:, :, 0]
    grads = np.empty((k, n + 1))
    dpsi = _product_vectors(thetas[:, None, :] + np.pi * np.eye(n)) / 2.0
    grads[:, :n] = slope * (dpsi @ g_psi[:, :, None])[:, :, 0]
    # The flip theta -> pi - theta of every qubit is a symmetry (rates are quadratic in d): at |+>^N, dF/d theta = 0.
    grads[np.all(thetas == np.pi / 2.0, axis=1), :n] = 0.0
    r_g_psi = ((rate_matrix(family, xi) * g) @ psi[:, :, None])[:, :, 0]
    grads[:, n] = 2.0 * values - t[:, 0, 0] * (psi * r_g_psi).sum(axis=1)
    bad = share > 0.0
    values[bad], grads[bad] = -np.inf, 0.0
    return values, grads


def qfi_fidelity_check(
    rho0: np.ndarray, family: DephasingFamily, xi: float, t: float, dxi: float | None = None
) -> float:
    """Central finite-difference fidelity estimate of the per-shot QFI.

    Uses 2 (1 - sqrt(F(rho(xi - dxi), rho(xi + dxi)))) / dxi^2 with a default
    step of 1e-3 * xi; both ends must lie in the family domain.  This is an
    independent check on ``qfi_exact_value``.
    """
    _check_qfi_inputs(family, xi, t)
    if dxi is None:
        dxi = 1e-3 * xi
    if dxi <= 0.0:
        raise ValueError(f"dxi must be > 0, got {dxi}")
    if not (family.contains(xi - dxi) and family.contains(xi + dxi)):
        raise ValueError(f"xi -/+ dxi = {xi - dxi}, {xi + dxi} leaves the family domain {family.xi_domain}")
    f = fidelity(evolve(rho0, family, xi - dxi, t), evolve(rho0, family, xi + dxi, t))
    return 2.0 * (1.0 - math.sqrt(f)) / (dxi * dxi)


def richardson_limit(rho0: np.ndarray, family: DephasingFamily, xi: float, levels: int = 7) -> QfiResult:
    """Richardson extrapolation of F_Q(t)/t to t -> 0+: the oracle for ``time_averaged_qfi_limit``.

    Evaluates F_Q(t_k)/t_k on t_k = t0 * 2^-k with t0 = 0.01 / max rate and
    extrapolates assuming an error series in integer powers of t.  Converged
    once successive diagonal extrapolants agree to 1e-6 relative; raises
    ExtrapolationError (with the sequence) otherwise.

    It can also settle on a wrong plateau without raising, when the O(t)
    weight matrix has eigenvalues near KERNEL_RTOL of its largest: the
    3-qubit collective family at xi = 2e-6 with the product probe
    theta = (1e-4, pi - 1e-4, 0.7) has weight eigenvalues 1.5e-14 against
    0.138, and Richardson returns 0.03458 against the exact 0.03833.
    """
    if not family.is_interior(xi):
        raise ValueError(f"xi={xi} must lie strictly inside the family domain {family.xi_domain}")
    descriptor = state_hash(rho0)
    max_rate = float(rate_matrix(family, xi).max())
    if max_rate <= 0.0:
        return QfiResult(0.0, "time", 0.0, descriptor)
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
        if k >= 1 and abs(diagonal[-1] - diagonal[-2]) <= 1e-6 * max(abs(diagonal[-1]), 1e-300):
            value = max(diagonal[-1], 0.0)
            return QfiResult(value, "time", 0.0, descriptor)
    raise ExtrapolationError(
        f"time-averaged QFI extrapolation did not converge to 1e-6 in {levels} levels", diagonal
    )


def _sld(m: np.ndarray, m_prime: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SLD of a stack (k, d, d) of PSD matrices m and their xi-derivatives m_prime, from one ``eigh`` call.

    With lambda_j an item's eigenvalues, u its eigenvectors and a = u^dag
    m_prime u, returns per item the SLD QFI 2 sum_jk |a_jk|^2 / (lambda_j +
    lambda_k), the SLD 2 a / (lambda_j + lambda_k) in the eigenbasis, u, and
    the dark share of ``_kernel_policy`` (nonzero where the item diverges),
    which runs only on items with an eigenvalue at the floor.  Each item keeps
    the bits of its single-item call.
    """
    lam, u = np.linalg.eigh(m)
    a = (np.swapaxes(u.conj(), -1, -2) @ m_prime) @ u
    # a * a is |a|^2 bit for bit for real a.
    weight = a * a if a.dtype.kind == "f" else np.abs(a) ** 2
    denom = lam[:, :, None] + lam[:, None, :]
    kernel = np.flatnonzero(~(lam[:, 0] > KERNEL_RTOL * lam[:, -1]))
    share, kernel_values = np.zeros(len(lam)), []
    for j in kernel:
        denom[j], share[j] = _kernel_policy(lam[j], weight[j])
        live = denom[j] < np.inf
        kernel_values.append(2.0 * (weight[j][live] / denom[j][live]).sum())
    values = 2.0 * np.divide(weight, denom, out=weight).reshape(len(lam), lam.shape[1] ** 2).sum(axis=1)
    # A kernel item sums its live terms alone: zeros among them would change its rounding.
    values[kernel] = kernel_values
    sld = np.multiply(a, 2.0, out=a)
    return values, np.divide(sld, denom, out=sld), u, share


def _sld_rate(m: np.ndarray, m_prime: np.ndarray) -> "float | np.ndarray":
    """SLD QFI of a PSD matrix m and its xi-derivative m_prime (``_sld``), raising DivergentQfiError where it diverges.

    m is a propagated state (per-shot F_Q) or the compressed O(t) weight
    matrix of a probe (the t -> 0+ rate).  One d x d pair gives a float.
    Stacks (..., d, d) give an array of the leading shape, each item bit for
    bit its single-pair value.
    """
    shape, d = m.shape[:-2], m.shape[-1]
    rates, _, _, share = _sld(m.reshape(-1, d, d), m_prime.reshape(-1, d, d))
    if share.any():
        raise DivergentQfiError(
            f"{share[share > 0.0][0]:.3e} of the derivative weight sits in the numerical kernel"
            f" (eigenvalues <= {KERNEL_RTOL:g} of the largest): the probe senses a dark coherence,"
            " or t is too small to resolve its decay"
        )
    return float(rates[0]) if not shape else rates.reshape(shape)


def _kernel_policy(lam: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, float]:
    """The kernel policy (module docstring) on one item's eigenvalues lam (d,) and derivative weights |a|^2 (d, d).

    Returns the denominators lambda_j + lambda_k with kernel eigenvalues as 0
    and inf for the dark terms (both eigenvalues in the kernel), where the SLD
    is then 0; and the dark share of the weight if the item diverges, its dark
    weight above DARK_RTOL of its total, else 0.
    """
    lam = np.where(lam > KERNEL_RTOL * lam[-1], lam, 0.0)
    denom = lam[:, None] + lam[None, :]
    dark = denom == 0.0
    diverges = np.where(dark, weight, 0.0).sum() > DARK_RTOL * weight.sum()
    return np.where(dark, np.inf, denom), weight[dark].sum() / weight.sum() if diverges else 0.0


def time_averaged_qfi_limit(probe: "ProductState | np.ndarray", family: DephasingFamily, xi: float) -> QfiResult:
    """Exact t -> 0+ supremum of F_Q(t)/t (see module docstring).

    ``probe`` is a ProductState, whose N x N route builds no 2^N object, or
    a 2^N x 2^N density matrix, which goes through one rN x rN
    eigendecomposition of the Gram matrix V^dag V for a support of rank r.
    Leakage directions of squared norm at most KERNEL_RTOL are dropped.
    Raises DivergentQfiError when the probe senses a coherence that does not
    decay at xi.
    """
    if not family.contains(xi):
        raise ValueError(f"xi={xi} outside family domain {family.xi_domain}")
    n = family.n_qubits
    a = 0.5 * np.real(family.coefficient_matrix(xi))
    b = 0.5 * np.real(family.delta_c)
    if isinstance(probe, ProductState):
        if probe.n_qubits != n:
            raise ValueError(f"probe is for {probe.n_qubits} qubits, family has {n}")
        s = np.sin(np.array(probe.thetas))
        s = np.where(s * s > KERNEL_RTOL, s, 0.0)
        scale = np.outer(s, s)
        weight, weight_prime, descriptor = a * scale, b * scale, probe
    else:
        rho0 = np.asarray(probe)
        validate_density_matrix(rho0)
        if rho0.shape != (2**n, 2**n):
            raise ValueError(f"density matrix has shape {rho0.shape}, expected ({2**n}, {2**n})")
        p, psi = np.linalg.eigh(rho0)
        support = p > KERNEL_RTOL * p[-1]
        p, psi = p[support], psi[:, support]
        r = p.size
        # Column k * N + j is Z_j psi_k, projected off the support and weighted by sqrt(p_k).
        z_psi = (psi[:, :, None] * _spin_table(n)[:, None, :]).reshape(2**n, r * n)
        v = (z_psi - psi @ (psi.conj().T @ z_psi)) * np.repeat(np.sqrt(p), n)
        g, w = np.linalg.eigh(v.conj().T @ v)
        k = w * np.sqrt(np.where(g > KERNEL_RTOL, g, 0.0))
        eye = np.eye(r)
        weight, weight_prime = k.conj().T @ np.kron(eye, a) @ k, k.conj().T @ np.kron(eye, b) @ k
        descriptor = state_hash(rho0)
    return QfiResult(_sld_rate(weight, weight_prime), "time", 0.0, descriptor)


def _pair_optimum(g: np.ndarray, gp: np.ndarray, diffs: np.ndarray, regime: str) -> np.ndarray:
    """Values of the coherence classes ``diffs`` with rates g and derivatives gp, optimised over t (``_pair_time``).

    "time": G'^2 / (2G) at t -> 0+; "shot": (G'/G)^2 x* e^{-2x*} at t = x*/G; G' = 0 scores 0; a dark class raises.
    """
    dark = (g == 0.0) & (gp != 0.0)
    if np.any(dark):
        k = int(np.argmax(dark))
        raise DivergentQfiError(f"dark coherence class d = {diffs[k].astype(int)}: rate 0, sensitivity {gp[k]:g}")
    # In place, in the operation order of the formulas above, so that a call
    # makes one class-sized float array (2 MB at N = 12), and one temporary
    # G'^2 in the time regime.  A blind class divides 0 by 1.
    values = np.where(gp == 0.0, 1.0, g)
    if regime == "time":
        values *= 2.0
        np.divide(np.multiply(gp, gp), values, out=values)
    else:
        np.divide(gp, values, out=values)
        values *= values
        values *= shot_optimum_value()
    return values


def _pair_time(g: float, gp: float, regime: str) -> float:
    """The optimal t of one class with rate g and derivative gp: 0 (t -> 0+) in "time", x*/G in "shot", 0 if blind."""
    return shot_optimum_x() / float(g) if regime == "shot" and gp != 0.0 else 0.0


def _pair_qfi(family: DephasingFamily, xi: float, pair: CoherencePair, regime: str) -> tuple[QfiResult, float]:
    """One pair's optimum over t in ``regime``, and its rate G at xi: one rate form, G' from ``_pair_line``."""
    d, slope, _ = _pair_line(family, pair)
    rate = _decay_rates(family, xi, d)
    value = _pair_optimum(rate, slope, d, regime)
    return QfiResult(float(value[0]), regime, _pair_time(rate[0], slope[0], regime), pair), float(rate[0])


def coherence_pair_qfi_shot(family: DephasingFamily, xi: float, pair: CoherencePair, t: float) -> QfiResult:
    """Per-shot pair QFI t^2 G'^2 e^{-2Gt} / (1 - e^{-2Gt}) = t (G'^2 / 2G) 2x e^{-2x} / (1 - e^{-2x}), x = Gt."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    timeavg, rate = _pair_qfi(family, xi, pair, "time")
    per_time = timeavg.value
    x2 = 2.0 * rate * t
    decay = math.exp(-x2)
    if per_time == 0.0 or decay == 0.0:  # blind, or decayed where t * per_time * x2 may overflow to inf
        return QfiResult(0.0, "shot", t, pair)
    if decay == 1.0:  # the t -> 0+ form t * per_time is exact to rounding here; t * per_time * x2 may underflow
        return QfiResult(t * per_time, "shot", t, pair)
    return QfiResult(t * per_time * x2 * decay / -math.expm1(-x2), "shot", t, pair)


def shot_optimum_x() -> float:
    """Root x* of 1 - exp(-2x) = x: the per-shot optimum G t of the pair QFI.

    x* = 1 + W0(-2 e^-2) / 2 (principal Lambert-W branch) is a fixed number, so
    it is pinned as its correctly rounded double, 0x1.97f7c26efbf2bp-1, rather
    than searched for at run time; the tests check the rounding.
    """
    return 0.79681213002002


def shot_optimum_value() -> float:
    """x* exp(-2 x*): the per-shot peak of the pair QFI in units of (G'/G)^2."""
    x = shot_optimum_x()
    return x * math.exp(-2.0 * x)


def coherence_pair_qfi_shot_peak(family: DephasingFamily, xi: float, pair: CoherencePair) -> QfiResult:
    """Per-shot pair QFI maximized over t: value (G'/G)^2 x* e^{-2x*} at t = x*/G."""
    return _pair_qfi(family, xi, pair, "shot")[0]
