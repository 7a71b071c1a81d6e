"""Exact propagation under correlated pure-dephasing dynamics.

The generator is diagonal in the computational product basis: labelling the
basis states by spin patterns ``alpha`` in {+1, -1}^N (|0> -> +1, |1> -> -1),
the operator |alpha><beta| is an eigenvector with decay rate

    rate(alpha, beta) = (1/4) * (alpha - beta)^dag C(xi) (alpha - beta)

in units of gamma (see ``model``), so time evolution is an elementwise
multiplication of the density matrix by exp(-rate * t), t in units of 1/gamma.
Populations (diagonal entries) are conserved exactly.

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

DENSITY_HERM_ATOL = 1e-10
DENSITY_TRACE_ATOL = 1e-10
DENSITY_EIG_FLOOR = -1e-8

__all__ = [
    "ResourceLimitError",
    "SpinPattern",
    "CoherencePair",
    "CoherenceSpectrum",
    "ProductState",
    "pattern_from_index",
    "index_from_pattern",
    "decay_rate",
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
    pair (ia, ib), whose shared bits are 0: ia has the -2 entries of d as
    bits, ib the +2 entries.  ``diffs`` is int8 (3.2 MB at N = 12), ``first``
    and ``ternary`` are int64.

    Built in place, a level at a time, in lexicographic order.  With all(j)
    every d of j entries, all(j) = [-2 | all(j - 1)] ++ [0 | all(j - 1)] ++
    [+2 | all(j - 1)], the classes form blocks j = 0 .. N - 1 of 3^j rows, from
    row (3^j - 1)/2: block j is [0 ... 0 | +2 | all(j)], its +2 at place 2^j.
    So block j is block j - 1, whose +2 is at place 2^(j - 1), three times,
    that entry set to each digit, with a +2 at place 2^j; and
    ternary(m + 1) = ternary(m) ++ (ternary(m) + 3^m).
    """
    n = n_qubits
    diffs = np.zeros(((3**n - 1) // 2, n), np.int8)
    first = np.zeros((len(diffs), 2), np.int64)
    ternary = np.zeros(2**n, np.int64)
    diffs[0, n - 1], first[0, 1] = 2, 1
    for j in range(1, n):
        q = 3 ** (j - 1)
        lo, bit = (3 * q - 1) // 2, 1 << (j - 1)
        prev = slice(lo - q, lo)
        # (ia, ib) offsets from block j - 1: its +2 becomes the digit, and
        # place 2^j gains the +2.
        for k, (digit, offset) in enumerate(((-2, (bit, bit)), (0, (0, bit)), (2, (0, 2 * bit)))):
            rows = slice(lo + k * q, lo + (k + 1) * q)
            diffs[rows] = diffs[prev]
            diffs[rows, n - j] = digit
            np.add(first[prev], offset, out=first[rows])
        diffs[lo : lo + 3 * q, n - 1 - j] = 2
    for m in range(n):
        np.add(ternary[: 1 << m], 3**m, out=ternary[1 << m : 2 << m])
    for arr in (diffs, first, ternary):
        arr.setflags(write=False)
    return diffs, first, ternary


# Rows per matmul block of ``_rate_form``: the (rows, N) product temporary
# stays a few hundred KB instead of 25.5 MB for the 265,720 classes at N = 12.
_RATE_BLOCK = 4096


def _rate_form(matrix: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """(1/4) d^T Re(matrix) d for every row d of ``diffs``: a real matmul and a row-wise dot per block of rows."""
    # Families store complex128, so np.real is a strided view.  A one-row
    # product on it does not go through BLAS: the 364 one-row rates at N = 6
    # have the same bits under OpenBLAS's AVX-512 and Haswell kernels, and on
    # a contiguous float64 copy they differ.  A block of class-table rows does
    # go through BLAS: under Haswell the N = 9 GHZ class at xi = 0.047 reads
    # 0.42300000000000004, against 0.4230000000000002 one-row.  So a one-row
    # ``decay_rate`` and the class table agree bit for bit only on a kernel
    # that computes each row of a product on its own, as the AVX-512 kernel
    # does and the spectrum test against the pair-by-pair oracle pins.
    # float64 storage is no cleanup: it changes the ``estimate`` bytes (its
    # ``# t:`` and ``# crb_std:`` lines and every replicate row); with a
    # two-step einsum it keeps them on the AVX-512 kernel but fails both fold
    # tests, and pair_sweep's task_s.p50 rose from 0.023 to 0.032 s, past its
    # bound (wall_s 0.59 -> 0.66-0.75 s).  Rates that do not depend on the
    # host need an exactly rounded rate form.  Each block of differences (int8 in the class table) is cast
    # to float64: equal values, equal bits.
    real = np.real(matrix)
    rates = np.empty(len(diffs))
    for lo in range(0, len(diffs), _RATE_BLOCK):
        block = diffs[lo : lo + _RATE_BLOCK].astype(np.float64)
        np.einsum("ij,ij->i", block @ real, block, out=rates[lo : lo + _RATE_BLOCK])
    rates *= 0.25
    return rates


def _decay_rates(family: DephasingFamily, xi: float, diffs: np.ndarray) -> np.ndarray:
    """Rate form at C(xi), clipped at 0 like ``rate_matrix``."""
    if not family.contains(xi):
        raise ValueError(f"xi={xi} outside family domain {family.xi_domain}")
    rates = _rate_form(family.coefficient_matrix(xi), diffs)
    return np.maximum(rates, 0.0, out=rates)


# The clipped class rates at C(xi), or their xi-derivative for xi = None,
# memoized per (family content, xi).  Every reader of a full class table (the
# dense matrices, the pair optimum, the time bracket, the spectrum) takes them
# from here.  Four entries, 2 MB each at N = 12, hold the rates and
# derivatives of two families: the pair optimum's two regimes share each
# pass, and a family's derivative outlives a spectrum at the next xi.
@lru_cache(maxsize=4)
def _class_rates(family: DephasingFamily, xi: float | None) -> np.ndarray:
    diffs = _class_table(family.n_qubits)[0]
    rates = _rate_form(family.delta_c, diffs) if xi is None else _decay_rates(family, xi, diffs)
    rates.setflags(write=False)
    return rates


def _pair_diff(family: DephasingFamily, pair: CoherencePair) -> np.ndarray:
    if pair.n_qubits != family.n_qubits:
        raise ValueError(f"pair is for {pair.n_qubits} qubits, family has {family.n_qubits}")
    return np.array([pair.alpha], dtype=np.float64) - np.array([pair.beta], dtype=np.float64)


# What one pair has at every xi, memoized per (family content, pair): the
# replicates of an estimation study and its plug-in Cramer-Rao scale share it.
@lru_cache(maxsize=8)
def _pair_line(family: DephasingFamily, pair: CoherencePair) -> tuple[np.ndarray, np.ndarray, float]:
    """(d, G', G(0)) of one pair: its one-row difference, its rate derivative (length 1) and its rate at xi = 0.

    The rate is the line G(0) + xi G'; G(0), its intercept, may lie outside the admissible domain.
    """
    d = _pair_diff(family, pair)
    slope = _rate_form(family.delta_c, d)
    for arr in (d, slope):
        arr.setflags(write=False)
    return d, slope, float(_rate_form(family.c0, d)[0])


def decay_rate(family: DephasingFamily, xi: float, pair: CoherencePair) -> float:
    """Coherence decay rate (1/4)(alpha-beta)^dag C(xi) (alpha-beta)."""
    return float(_decay_rates(family, xi, _pair_diff(family, pair))[0])


# Rate matrices are the hot loop of propagation and the QFI; memoize per
# (family content, xi).  xi = None selects the xi-derivative.  Entry (a, b)
# is the rate of class |ternary[a] - ternary[b]| - 1, and 0 on the diagonal.
# Two entries, 8 MB each at N = 10, hold what one search reuses: its rates and their derivative.
@lru_cache(maxsize=2)
def _dense_rates(family: DephasingFamily, xi: float | None) -> np.ndarray:
    ternary = _class_table(family.n_qubits)[2]
    dense = np.concatenate([[0.0], _class_rates(family, xi)])[np.abs(ternary[:, None] - ternary[None, :])]
    dense.setflags(write=False)
    return dense


def rate_matrix(family: DephasingFamily, xi: float) -> np.ndarray:
    """2^N x 2^N matrix of decay rates for every (row, column) basis pair.

    Diagonal entries are exactly zero and all entries are >= 0; ``_decay_rates`` checks xi on a memo miss.
    """
    return _dense_rates(family, float(xi))


def rate_derivative_matrix(family: DephasingFamily) -> np.ndarray:
    """2^N x 2^N matrix of d(rate)/d(xi); independent of xi, sign-indefinite."""
    return _dense_rates(family, None)


def _decay(rho0, family: DephasingFamily, xi: float, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho0, t shaped against the stack rho0, exp(-rate * t)), from one rate lookup; rejects t < 0 and bad shapes."""
    rates = rate_matrix(family, xi)
    rho0, t = np.asarray(rho0), np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise ValueError(f"t must be >= 0, got {t}")
    if rho0.shape[-2:] != rates.shape:
        raise ValueError(f"state has shape {rho0.shape}, expected {rates.shape}")
    t = t[..., None, None]
    # Past the float range (``fig1a`` at times near the float limit) rate * t is -inf, and exp(-inf) = 0.
    with np.errstate(over="ignore"):
        decay = -rates * t
    return rho0, t, np.exp(decay, out=decay)


def _derivative(rho0: np.ndarray, family: DephasingFamily, t: np.ndarray, decay: np.ndarray) -> tuple[np.ndarray, ...]:
    """The xi-derivative (-t) rate' rho0 E of ``evolve``, E = exp(-rate t) from ``_decay``, and its factor (-t) rate'."""
    # t rate' passes the float range at times near the float limit (``fig1a``); ``_decayed`` zeroes those terms.
    with np.errstate(over="ignore", invalid="ignore"):
        factor = (-t) * rate_derivative_matrix(family)
        deriv = factor * rho0
    return _decayed(deriv, decay), factor


def _decayed(product: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """product * E in place; where t rate' passed the float range, E is 0 and so is the term, not inf * 0 = nan."""
    with np.errstate(invalid="ignore"):
        np.multiply(product, decay, out=product)
    np.copyto(product, 0.0, where=np.isnan(product))
    return product


def evolve(rho0: np.ndarray, family: DephasingFamily, xi: float, t) -> np.ndarray:
    """Propagate rho0 for time t: entry (a, b) picks up exp(-rate_ab * t).

    rho0 is one 2^N x 2^N state or a stack (..., 2^N, 2^N); t is a scalar or
    an array that broadcasts against the stack's leading shape, one time per
    state.  Each state of a stack propagates bit for bit as it would alone.
    Diagonal entries (and hence the trace) are preserved exactly.  The decay
    factor is ``_decay``'s, which ``drho_dxi`` and ``qfi_exact_value`` share.
    """
    rho0, _, decay = _decay(rho0, family, xi, t)
    return rho0 * decay


def drho_dxi(rho0: np.ndarray, family: DephasingFamily, xi: float, t) -> np.ndarray:
    """Exact xi-derivative (-t) rate' rho0 exp(-rate t) of ``evolve``, same shapes and decay; Hermitian, traceless."""
    rho0, t, decay = _decay(rho0, family, xi, t)
    return _derivative(rho0, family, t, decay)[0]


@dataclass(frozen=True, eq=False)
class CoherenceSpectrum(Sequence):
    """Canonical coherence pairs of an N-qubit family, ascending by rate.

    Three read-only arrays of equal length: the basis indices of each pair's
    alpha and beta (alpha_index < beta_index) and its decay rate (float64).
    The index arrays have the smallest unsigned integer dtype that holds
    2^N - 1: uint8 up to N = 8, uint16 above.  Indexing builds the
    ``(CoherencePair, rate)`` entry on demand, so the spectrum also reads as
    a sequence of pairs.
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


# Pairs per block of ``_class_gather``: its int32 class rows stay 4 MB.
_GATHER_BLOCK = 1 << 20


def _class_gather(table: np.ndarray, ternary: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """table[ternary[ib] - ternary[ia] - 1] for each pair (ia, ib): its class's entry, a block of pairs at a time."""
    out = np.empty(len(ia), table.dtype)
    for lo in range(0, len(ia), _GATHER_BLOCK):
        block = slice(lo, lo + _GATHER_BLOCK)
        classes = ternary[ib[block]]
        classes -= ternary[ia[block]]
        classes -= 1
        # Every class row is in range, so "clip" gathers as "raise" would, without buffering the output.
        np.take(table, classes, out=out[block], mode="clip")
    return out


def coherence_spectrum(family: DephasingFamily, xi: float) -> CoherenceSpectrum:
    """All canonical coherence pairs with decay rates, ascending by rate.

    Pairs of one difference class tie exactly, and ties (within a class or
    across classes of equal rate) break in lexicographic pair order: the
    order a stable sort of the rates gives.  Each pair is sorted as one
    unsigned word rank << 2N | ia << N | ib, with rank its class rate's rank
    among the distinct rates; the words are distinct, so one in-place sort
    of any kind gives that order, and ia and ib are read back from the
    sorted words.  The result holds index and rate arrays (see
    ``CoherenceSpectrum`` for their dtypes); pair objects are built only
    when an entry is read.  Guarded at N <= 12: the enumeration holds
    2^N(2^N - 1)/2 pairs, in words of 8 bytes at N = 12.
    """
    n = family.n_qubits
    if n > SPECTRUM_MAX_QUBITS:
        raise ResourceLimitError(
            f"coherence_spectrum enumerates ~4^N/2 pairs; n_qubits={n} exceeds the guard {SPECTRUM_MAX_QUBITS}"
        )
    ternary = _class_table(n)[2].astype(np.int32)
    class_rates = _class_rates(family, float(xi))
    # Equal rates (0.0 and -0.0 too) share a rank, as they tie in a float sort.
    _, rank = np.unique(class_rates, return_inverse=True)
    word = np.min_scalar_type(int(rank.max()) << 2 * n | (1 << 2 * n) - 1)
    index = np.min_scalar_type(2**n - 1)
    # The strict upper triangle of a 2^N x 2^N grid, read row by row: every
    # pair (ia, ib), ia < ib.
    grid = np.broadcast_to(np.arange(2**n, dtype=index), (2**n, 2**n))
    upper = ~np.tri(2**n, dtype=bool)
    ia, ib = grid.T[upper], grid[upper]
    # Freeing each large temporary early keeps the N = 12 peak near 180 MB.
    del upper
    words = _class_gather(rank.astype(word), ternary, ia, ib)
    for bits in (ia, ib):
        words <<= word.type(n)
        words |= bits
    del ia, ib
    words.sort()
    mask = word.type(2**n - 1)
    ib = np.bitwise_and(words, mask, out=np.empty(len(words), index), casting="unsafe")
    words >>= word.type(n)
    ia = np.bitwise_and(words, mask, out=np.empty(len(words), index), casting="unsafe")
    del words
    arrays = ia, ib, _class_gather(class_rates, ternary, ia, ib)
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
            sup += 0.5 * coeff[j, l] * term
    return sup


def superoperator_spectrum(family: DephasingFamily, xi: float) -> np.ndarray:
    """Eigenvalues of the vectorized generator, sorted by (real, imag)."""
    vals = np.linalg.eigvals(superoperator_matrix(family, xi))
    return vals[np.lexsort((vals.imag, vals.real))]


# --- probe states -----------------------------------------------------------


@dataclass(frozen=True)
class ProductState:
    """Pure product probe: qubit j in cos(theta_j/2)|0> + sin(theta_j/2)|1>.

    No azimuths: phi_j would enter as U = (x)_j diag(1, e^{i phi_j}), a xi-independent diagonal unitary.  A
    diagonal congruence commutes with the Schur-multiplier propagator, so rho_phi(t) = U rho(t) U^dag, and
    likewise d_xi rho.  The QFI is unitarily invariant, so F(t) and lim F(t)/t do not depend on phi.
    """

    thetas: tuple[float, ...]

    def __post_init__(self):
        thetas = tuple(float(t) for t in self.thetas)
        if not thetas:
            raise ValueError("thetas must be nonempty")
        if any(not 0.0 <= t <= np.pi for t in thetas):
            raise ValueError(f"polar angles must lie in [0, pi], got {thetas}")
        object.__setattr__(self, "thetas", thetas)

    @property
    def n_qubits(self) -> int:
        return len(self.thetas)

    def statevector(self) -> np.ndarray:
        return _product_vectors(np.array(self.thetas))

    def density(self) -> np.ndarray:
        vec = self.statevector()
        return np.outer(vec, vec)


def _product_vectors(thetas: np.ndarray) -> np.ndarray:
    """Real state vectors of product probes, one per row of polar angles: (..., N) -> (..., 2^N)."""
    half = np.asarray(thetas, dtype=np.float64) / 2.0
    factors = np.where(_spin_table(half.shape[-1]) > 0.0, np.cos(half)[..., None, :], np.sin(half)[..., None, :])
    # Elementwise products over qubits, left to right as in a kron chain;
    # np.prod's reduction rounds differently.
    return reduce(np.multiply, np.moveaxis(factors, -1, 0))


def plus_product(n_qubits: int) -> ProductState:
    """|+>^{tensor N}: every polar angle pi/2."""
    return ProductState((np.pi / 2.0,) * n_qubits)


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


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace and PSD within tolerance."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > DENSITY_HERM_ATOL:
        raise ValueError(f"not Hermitian: max deviation {herm:.3e} > {DENSITY_HERM_ATOL:g}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
        raise ValueError(f"trace {tr} deviates from 1 by more than {DENSITY_TRACE_ATOL:g}")
    lam = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if lam < DENSITY_EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {lam:.3e} below floor {DENSITY_EIG_FLOOR:g}")
