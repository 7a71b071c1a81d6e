"""Exact propagation under correlated pure-dephasing dynamics.

The generator is diagonal in the computational product basis: labelling the
basis states by spin patterns ``alpha`` in {+1, -1}^N (|0> -> +1, |1> -> -1),
the operator |alpha><beta| is an eigenvector with decay rate

    rate(alpha, beta) = (gamma/4) * (alpha - beta)^dag C(xi) (alpha - beta),

so time evolution is an elementwise multiplication of the density matrix by
exp(-rate * t).  Populations (diagonal entries) are conserved exactly.

Per-pair rates use one row-wise form of it over a cached per-N table of
difference classes d = alpha - beta, so the pairs of a class share one rate.

A brute-force oracle (``superoperator_spectrum``) builds the full matrix of
the generator acting on column-stacked operators and diagonalizes it; it is
deliberately independent of the elementwise fast path and limited to N <= 3.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .model import DephasingFamily

SPECTRUM_MAX_QUBITS = 12
SUPEROP_MAX_QUBITS = 3

__all__ = [
    "ResourceLimitError",
    "SpinPattern",
    "CoherencePair",
    "CoherenceSpectrum",
    "ProductState",
    "pattern_from_index",
    "index_from_pattern",
    "decay_rate",
    "decay_rate_derivative",
    "rate_matrix",
    "rate_derivative_matrix",
    "evolve",
    "drho_dxi",
    "coherence_spectrum",
    "superoperator_matrix",
    "superoperator_spectrum",
    "pair_state",
    "pair_density",
    "ghz_pair",
    "ghz_density",
    "plus_product",
    "random_pure_state",
    "random_pure_density",
    "validate_density_matrix",
]

SpinPattern = tuple[int, ...]


class ResourceLimitError(ValueError):
    """Requested operation exceeds the configured qubit-count guard."""


def pattern_from_index(index: int, n_qubits: int) -> SpinPattern:
    """Spin pattern of computational basis state ``index`` (qubit 0 = MSB)."""
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    return tuple(1 - 2 * ((index >> (n_qubits - 1 - j)) & 1) for j in range(n_qubits))


def index_from_pattern(pattern: SpinPattern) -> int:
    idx = 0
    for s in pattern:
        idx = (idx << 1) | (1 if s == -1 else 0)
    return idx


def _validate_pattern(pattern, name: str) -> SpinPattern:
    pat = tuple(int(s) for s in pattern)
    if not pat or any(s not in (-1, 1) for s in pat):
        raise ValueError(f"{name} must be a nonempty tuple of +/-1 entries, got {pattern!r}")
    return pat


@dataclass(frozen=True)
class CoherencePair:
    """Ordered pair of distinct spin patterns labelling one coherence.

    Canonical order is lexicographic on the bitstrings (equivalently, basis
    index of alpha strictly below that of beta).
    """

    alpha: SpinPattern
    beta: SpinPattern

    def __post_init__(self):
        alpha = _validate_pattern(self.alpha, "alpha")
        beta = _validate_pattern(self.beta, "beta")
        if len(alpha) != len(beta):
            raise ValueError(f"pattern lengths differ: {len(alpha)} vs {len(beta)}")
        if alpha == beta:
            raise ValueError("coherence pair requires alpha != beta")
        if index_from_pattern(alpha) > index_from_pattern(beta):
            raise ValueError("coherence pair not in canonical order (alpha must precede beta)")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def n_qubits(self) -> int:
        return len(self.alpha)

    @property
    def indices(self) -> tuple[int, int]:
        return index_from_pattern(self.alpha), index_from_pattern(self.beta)

    @property
    def label(self) -> str:
        bits = lambda pat: "".join("0" if s == 1 else "1" for s in pat)
        return f"{bits(self.alpha)}|{bits(self.beta)}"

    @classmethod
    def canonical(cls, alpha, beta) -> "CoherencePair":
        alpha = _validate_pattern(alpha, "alpha")
        beta = _validate_pattern(beta, "beta")
        if index_from_pattern(alpha) > index_from_pattern(beta):
            alpha, beta = beta, alpha
        return cls(alpha, beta)

    @classmethod
    def from_indices(cls, ia: int, ib: int, n_qubits: int) -> "CoherencePair":
        return cls(pattern_from_index(ia, n_qubits), pattern_from_index(ib, n_qubits))


def ghz_pair(n_qubits: int) -> CoherencePair:
    """The (|0...0>, |1...1>) pair."""
    return CoherencePair((1,) * n_qubits, (-1,) * n_qubits)


@lru_cache(maxsize=32)
def _spin_table(n_qubits: int) -> np.ndarray:
    """2^N x N table of spin patterns; row i is pattern_from_index(i)."""
    idx = np.arange(2**n_qubits)
    bits = (idx[:, None] >> np.arange(n_qubits - 1, -1, -1)[None, :]) & 1
    table = (1.0 - 2.0 * bits).astype(np.float64)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _class_table(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diffs, first, ternary) for the (3^N - 1)/2 classes of d = alpha - beta.

    Canonical order makes the first nonzero entry of d +2, so row k - 1 of
    ``diffs`` can be twice the balanced-ternary digits of k.  With ternary[i]
    the bits of i read in base 3, pair (ia, ib) is then in class
    ternary[ib] - ternary[ia] - 1.  ``first`` holds each class's smallest
    pair (ia, ib), whose shared bits are 0.
    """
    place = np.arange(n_qubits - 1, -1, -1)
    # k + (3^N - 1)/2 = k + 11...1 (base 3) has k's balanced digits plus 1.
    diffs = 2.0 * (np.arange((3**n_qubits + 1) // 2, 3**n_qubits)[:, None] // 3**place % 3 - 1)
    first = np.stack([(diffs < 0.0) @ 2**place, (diffs > 0.0) @ 2**place], axis=1)
    ternary = ((np.arange(2**n_qubits)[:, None] >> place) & 1) @ 3**place
    for arr in (diffs, first, ternary):
        arr.setflags(write=False)
    return diffs, first, ternary


def _rate_form(family: DephasingFamily, matrix: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """(gamma/4) d^T Re(matrix) d for every row d of ``diffs``: one real GEMM and a row-wise dot."""
    return (family.gamma / 4.0) * np.einsum("ij,ij->i", diffs @ np.real(matrix), diffs)


def _decay_rates(family: DephasingFamily, xi: float, diffs: np.ndarray) -> np.ndarray:
    """Rate form at C(xi), clipped at 0 like ``rate_matrix``."""
    if not family.contains(xi):
        raise ValueError(f"xi={xi} outside family domain {family.xi_domain}")
    return np.maximum(_rate_form(family, family.coefficient_matrix(xi), diffs), 0.0)


def _pair_diff(family: DephasingFamily, pair: CoherencePair) -> np.ndarray:
    if pair.n_qubits != family.n_qubits:
        raise ValueError(f"pair is for {pair.n_qubits} qubits, family has {family.n_qubits}")
    return np.array([pair.alpha], dtype=np.float64) - np.array([pair.beta], dtype=np.float64)


def decay_rate(family: DephasingFamily, xi: float, pair: CoherencePair) -> float:
    """Coherence decay rate (gamma/4)(alpha-beta)^dag C(xi) (alpha-beta)."""
    return float(_decay_rates(family, xi, _pair_diff(family, pair))[0])


def decay_rate_derivative(family: DephasingFamily, xi: float, pair: CoherencePair) -> float:
    """d(rate)/d(xi) = (gamma/4)(alpha-beta)^dag dC (alpha-beta); xi-independent."""
    return float(_rate_form(family, family.delta_c, _pair_diff(family, pair))[0])


# Rate matrices are the hot loop of propagation and the QFI; memoize per
# (family content, xi).  xi = None selects the xi-derivative.
@lru_cache(maxsize=512)
def _dense_rates(family: DephasingFamily, xi: float | None) -> np.ndarray:
    coeff = family.delta_c if xi is None else family.coefficient_matrix(xi)
    S = _spin_table(family.n_qubits)
    q = S @ coeff @ S.T
    d = np.real(np.diagonal(q))
    rates = (family.gamma / 4.0) * (d[:, None] + d[None, :] - 2.0 * np.real(q))
    if xi is not None:
        # PSD quadratic form; negatives are roundoff within the family's
        # validated eigenvalue floor.
        np.maximum(rates, 0.0, out=rates)
    rates.setflags(write=False)
    return rates


def rate_matrix(family: DephasingFamily, xi: float) -> np.ndarray:
    """2^N x 2^N matrix of decay rates for every (row, column) basis pair.

    Diagonal entries are exactly zero and all entries are >= 0.
    """
    if not family.contains(xi):
        raise ValueError(f"xi={xi} outside family domain {family.xi_domain}")
    return _dense_rates(family, float(xi))


def rate_derivative_matrix(family: DephasingFamily) -> np.ndarray:
    """2^N x 2^N matrix of d(rate)/d(xi); independent of xi, sign-indefinite."""
    return _dense_rates(family, None)


def evolve(rho0: np.ndarray, family: DephasingFamily, xi: float, t: float) -> np.ndarray:
    """Propagate rho0 for time t: entry (a, b) picks up exp(-rate_ab * t).

    Diagonal entries (and hence the trace) are preserved exactly.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    rates = rate_matrix(family, xi)
    rho0 = np.asarray(rho0)
    if rho0.shape != rates.shape:
        raise ValueError(f"state has shape {rho0.shape}, expected {rates.shape}")
    return rho0 * np.exp(-rates * t)


def drho_dxi(rho0: np.ndarray, family: DephasingFamily, xi: float, t: float) -> np.ndarray:
    """Exact xi-derivative of evolve(rho0, family, xi, t); traceless Hermitian."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    rates = rate_matrix(family, xi)
    rho0 = np.asarray(rho0)
    if rho0.shape != rates.shape:
        raise ValueError(f"state has shape {rho0.shape}, expected {rates.shape}")
    return (-t) * rate_derivative_matrix(family) * rho0 * np.exp(-rates * t)


@dataclass(frozen=True, eq=False)
class CoherenceSpectrum(Sequence):
    """Canonical coherence pairs of an N-qubit family, ascending by rate.

    Three read-only arrays of equal length: the basis indices of each pair's
    alpha and beta (alpha_index < beta_index) and its decay rate.  Indexing
    builds the ``(CoherencePair, rate)`` entry on demand, so the spectrum
    also reads as a sequence of pairs.
    """

    n_qubits: int
    alpha_index: np.ndarray
    beta_index: np.ndarray
    rate: np.ndarray

    def __len__(self) -> int:
        return len(self.rate)

    def __getitem__(self, k: int) -> tuple[CoherencePair, float]:
        pair = CoherencePair.from_indices(int(self.alpha_index[k]), int(self.beta_index[k]), self.n_qubits)
        return pair, float(self.rate[k])


def coherence_spectrum(family: DephasingFamily, xi: float) -> CoherenceSpectrum:
    """All canonical coherence pairs with decay rates, ascending by rate.

    Pairs of one difference class tie exactly, and ties break in lexicographic
    pair order.  The result holds index and rate arrays; pair objects are
    built only when an entry is read.  Guarded at N <= 12: the enumeration
    holds 2^N(2^N - 1)/2 pairs.
    """
    n = family.n_qubits
    if n > SPECTRUM_MAX_QUBITS:
        raise ResourceLimitError(
            f"coherence_spectrum enumerates ~4^N/2 pairs; n_qubits={n} exceeds the guard {SPECTRUM_MAX_QUBITS}"
        )
    diffs, _, ternary = _class_table(n)
    ia, ib = np.triu_indices(2**n, k=1)
    vals = _decay_rates(family, xi, diffs)[ternary[ib] - ternary[ia] - 1]
    # triu_indices lists pairs in lexicographic order, which a stable sort keeps for ties.
    order = np.argsort(vals, kind="stable")
    arrays = ia[order], ib[order], vals[order]
    for arr in arrays:
        arr.setflags(write=False)
    return CoherenceSpectrum(n, *arrays)


def _z_operator(site: int, n_qubits: int) -> np.ndarray:
    op = np.array([[1.0]])
    for j in range(n_qubits):
        op = np.kron(op, np.diag([1.0, -1.0]) if j == site else np.eye(2))
    return op


def superoperator_matrix(family: DephasingFamily, xi: float) -> np.ndarray:
    """Dense 4^N x 4^N generator acting on column-stacked operators.

    Built term by term from the defining sum over (j, l); serves as the
    brute-force oracle for the elementwise fast path.  N <= 3 only.
    """
    n = family.n_qubits
    if n > SUPEROP_MAX_QUBITS:
        raise ResourceLimitError(f"superoperator construction is guarded at N <= {SUPEROP_MAX_QUBITS}, got {n}")
    if not family.contains(xi):
        raise ValueError(f"xi={xi} outside family domain {family.xi_domain}")
    coeff = family.coefficient_matrix(xi)
    dim = 2**n
    eye = np.eye(dim)
    sup = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    zs = [_z_operator(j, n) for j in range(n)]
    for j in range(n):
        for l in range(n):
            zz = zs[j] @ zs[l]
            term = np.kron(zs[j], zs[l]) - 0.5 * (np.kron(eye, zz) + np.kron(zz, eye))
            sup += (family.gamma / 2.0) * coeff[j, l] * term
    return sup


def superoperator_spectrum(family: DephasingFamily, xi: float) -> np.ndarray:
    """Eigenvalues of the vectorized generator, sorted by (real, imag)."""
    vals = np.linalg.eigvals(superoperator_matrix(family, xi))
    return vals[np.lexsort((vals.imag, vals.real))]


# --- probe states -----------------------------------------------------------


@dataclass(frozen=True)
class ProductState:
    """Pure product probe: qubit j in cos(theta_j/2)|0> + e^{i phi_j} sin(theta_j/2)|1>."""

    thetas: tuple[float, ...]
    phis: tuple[float, ...]

    def __post_init__(self):
        thetas = tuple(float(t) for t in self.thetas)
        phis = tuple(float(p) for p in self.phis)
        if len(thetas) != len(phis) or not thetas:
            raise ValueError("thetas and phis must be nonempty and of equal length")
        if any(not 0.0 <= t <= np.pi for t in thetas):
            raise ValueError(f"polar angles must lie in [0, pi], got {thetas}")
        if any(not 0.0 <= p < 2.0 * np.pi for p in phis):
            raise ValueError(f"azimuthal angles must lie in [0, 2*pi), got {phis}")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "phis", phis)

    @classmethod
    def polar(cls, thetas) -> "ProductState":
        thetas = tuple(float(t) for t in thetas)
        return cls(thetas, (0.0,) * len(thetas))

    @property
    def n_qubits(self) -> int:
        return len(self.thetas)

    def statevector(self) -> np.ndarray:
        half = np.array(self.thetas) / 2.0
        amp1 = np.sin(half)
        if any(p != 0.0 for p in self.phis):
            amp1 = amp1 * np.exp(1j * np.array(self.phis))
        factors = np.where(_spin_table(self.n_qubits) > 0.0, np.cos(half), amp1)
        # Elementwise products over qubits, left to right as in a kron chain;
        # np.prod's complex reduction rounds differently.
        return reduce(np.multiply, factors.T)

    def density(self) -> np.ndarray:
        vec = self.statevector()
        return np.outer(vec, vec.conj())


def plus_product(n_qubits: int) -> ProductState:
    """|+>^{tensor N}: every polar angle pi/2, azimuths 0."""
    return ProductState.polar((np.pi / 2.0,) * n_qubits)


def pair_state(pair: CoherencePair) -> np.ndarray:
    """Equal superposition (|alpha> + |beta>)/sqrt(2) as a state vector."""
    dim = 2**pair.n_qubits
    vec = np.zeros(dim)
    ia, ib = pair.indices
    vec[ia] = vec[ib] = 1.0 / np.sqrt(2.0)
    return vec


def pair_density(pair: CoherencePair) -> np.ndarray:
    vec = pair_state(pair)
    return np.outer(vec, vec)


def ghz_density(n_qubits: int) -> np.ndarray:
    return pair_density(ghz_pair(n_qubits))


def random_pure_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit state vector, for property checks."""
    dim = 2**n_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_pure_density(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Density matrix of ``random_pure_state``."""
    vec = random_pure_state(n_qubits, rng)
    return np.outer(vec, vec.conj())


def validate_density_matrix(
    rho: np.ndarray,
    herm_atol: float = 1e-10,
    trace_atol: float = 1e-10,
    eig_floor: float = -1e-8,
) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace and PSD within tolerance."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > herm_atol:
        raise ValueError(f"not Hermitian: max deviation {herm:.3e} > {herm_atol:g}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"trace {tr} deviates from 1 by more than {trace_atol:g}")
    lam = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if lam < eig_floor:
        raise ValueError(f"negative eigenvalue {lam:.3e} below floor {eig_floor:g}")
