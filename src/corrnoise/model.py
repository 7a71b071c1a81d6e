"""Dephasing coefficient-matrix families C(xi) = C0 + xi*dC.

A family bundles the qubit count N, a pair of N x N real symmetric matrices
(C0, dC) and the admissible interval for the correlation parameter xi.
C(xi) must stay positive semidefinite on that interval; construction checks
the two endpoints, which suffices: lambda_min(C0 + xi*dC) is a minimum of
functions affine in xi, hence concave, so it is no smaller inside the
interval than at its ends.

A Hermitian C with an imaginary part is rejected: Im C adds i/2
alpha^T Im(C) beta to the generator's eigenvalue -rate on |alpha><beta|,
and corrnoise propagates the decay only.  Storage stays complex128: one-row
rates on its strided real view do not go through BLAS, so their bits do not
depend on the BLAS kernel, and float64 storage changes the ``estimate``
bytes (``evolution._rate_form`` has the measurements).

Built-in families:

* ``build_single_qubit``   C(xi) = [xi]
* ``build_two_qubit``      C_jl(xi) = 1 - xi*(1 - delta_jl)
* ``build_n_qubit``        C_jl(xi) = delta_jl - (1 - xi)/N

Zero-frequency noise spectral densities S_jl are ingested through
``from_spectral_density`` / ``load_spectral_csv`` using C = (2/gamma_ref)*S.

Units: gamma, the overall dephasing rate, is the time unit, and no family
carries it.  Rates (1/4) d^T C d are in units of gamma and times in units of
1/gamma, so each printed figure is gamma^k times its gamma = 1 value: k = 1
for rates and time-regime QFIs, 0 for per-shot QFIs and ratios, -1 for times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERMITICITY_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10
SPECTRAL_ATOL = 1e-10

__all__ = [
    "FamilyValidationError",
    "DephasingFamily",
    "SpectralData",
    "build_single_qubit",
    "build_two_qubit",
    "build_n_qubit",
    "from_spectral_density",
    "load_spectral_csv",
]


class FamilyValidationError(ValueError):
    """A dephasing family (or spectral data set) violates its contract."""


def _as_interval(xi_domain) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in xi_domain)
    except (TypeError, ValueError) as exc:
        raise FamilyValidationError(f"xi_domain must be a (lo, hi) pair, got {xi_domain!r}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise FamilyValidationError(f"xi_domain must satisfy lo <= hi with finite bounds, got ({lo}, {hi})")
    return lo, hi


def _as_hermitian(matrix, n: int, name: str, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.shape != (n, n):
        raise FamilyValidationError(f"{name} must have shape ({n}, {n}), got {arr.shape}")
    dev = float(np.max(np.abs(arr - arr.conj().T))) if n else 0.0
    if dev > atol:
        raise FamilyValidationError(f"{name} is not Hermitian: max |A - A^dag| = {dev:.3e} > {atol:g}")
    imag = float(np.max(np.abs(arr.imag))) if n else 0.0
    if imag > atol:
        term = "it adds (i/2) alpha^T Im(C) beta to the generator, a coherent term corrnoise does not model"
        raise FamilyValidationError(f"{name} has an imaginary part (max |Im| = {imag:.3e} > {atol:g}): {term}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DephasingFamily:
    """Linear family C(xi) = c0 + xi*delta_c of dephasing coefficient matrices.

    Families compare and hash by content through ``fingerprint``, so equal
    families share the memoized class rates and rate matrices.
    A rate (1/4) d^T C d, |d_j| <= 2, or its xi-derivative is at most N^2 max|C| in size, max|C| over
    C(lo), C(hi) and dC; a family where twice that (2G, in the time-regime pair optimum) overflows is rejected.
    Only file input (C = 2S / gamma_ref) reaches that bound.
    """

    n_qubits: int
    c0: np.ndarray = field(compare=False)
    delta_c: np.ndarray = field(compare=False)
    xi_domain: tuple[float, float]
    fingerprint: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = int(self.n_qubits)
        if n < 1:
            raise FamilyValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "c0", _as_hermitian(self.c0, n, "c0"))
        object.__setattr__(self, "delta_c", _as_hermitian(self.delta_c, n, "delta_c"))
        lo, hi = _as_interval(self.xi_domain)
        object.__setattr__(self, "xi_domain", (lo, hi))
        object.__setattr__(self, "fingerprint", (n, self.c0.tobytes(), self.delta_c.tobytes(), (lo, hi)))
        for xi in (lo, hi):
            lam = self.min_eigenvalue(xi)
            if lam < PSD_EIG_FLOOR:
                raise FamilyValidationError(
                    f"C(xi) not positive semidefinite at xi={xi:.6g}: min eigenvalue {lam:.3e} < {PSD_EIG_FLOOR:g}"
                )
        ends = (self.coefficient_matrix(lo), self.coefficient_matrix(hi), self.delta_c)
        if not np.isfinite(2.0 * n * n * max(float(np.abs(m).max()) for m in ends)):
            raise FamilyValidationError("C is too large: 2 N^2 max|C| overflows the float range")

    def coefficient_matrix(self, xi: float) -> np.ndarray:
        """C(xi) = c0 + xi*delta_c as a fresh complex array."""
        return self.c0 + float(xi) * self.delta_c

    def min_eigenvalue(self, xi: float) -> float:
        return float(np.linalg.eigvalsh(self.coefficient_matrix(xi))[0])

    def contains(self, xi: float) -> bool:
        lo, hi = self.xi_domain
        return lo <= xi <= hi

    def is_interior(self, xi: float) -> bool:
        lo, hi = self.xi_domain
        return lo < xi < hi


@dataclass(frozen=True)
class SpectralData:
    """Zero-frequency noise spectral densities S_jl plus a reference rate scale."""

    n_qubits: int
    s_zero: np.ndarray
    gamma_ref: float

    def __post_init__(self):
        n = int(self.n_qubits)
        if n < 1:
            raise FamilyValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        gamma = float(self.gamma_ref)
        if not (gamma > 0.0 and np.isfinite(gamma)):
            raise FamilyValidationError(f"gamma_ref must be a positive finite rate, got {self.gamma_ref}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gamma_ref", gamma)
        s = _as_hermitian(self.s_zero, n, "s_zero", atol=SPECTRAL_ATOL)
        lam = float(np.linalg.eigvalsh(s)[0])
        if lam < -SPECTRAL_ATOL:
            raise FamilyValidationError(
                f"s_zero is not positive semidefinite: min eigenvalue {lam:.3e} < {-SPECTRAL_ATOL:g}"
            )
        object.__setattr__(self, "s_zero", s)


def build_single_qubit(xi_domain) -> DephasingFamily:
    """Single-qubit rate-estimation family C(xi) = [xi].

    The domain must be strictly positive: at xi = 0 the channel carries no
    decay and the estimation problem is ill-posed (information diverges).
    """
    lo, hi = _as_interval(xi_domain)
    if lo <= 0.0:
        raise FamilyValidationError(f"single-qubit family requires 0 < xi_lo, got xi_lo={lo}")
    return DephasingFamily(1, np.zeros((1, 1)), np.ones((1, 1)), (lo, hi))


def build_two_qubit(xi_domain) -> DephasingFamily:
    """Two-qubit nearly maximally correlated family C_jl(xi) = 1 - xi*(1 - delta_jl)."""
    lo, hi = _as_interval(xi_domain)
    if not (0.0 < lo and hi <= 1.0):
        raise FamilyValidationError(f"two-qubit family requires xi_domain within (0, 1], got ({lo}, {hi})")
    ones = np.ones((2, 2))
    return DephasingFamily(2, ones, -(ones - np.eye(2)), (lo, hi))


def build_n_qubit(n: int, xi_domain) -> DephasingFamily:
    """N-qubit collective family C_jl(xi) = delta_jl - (1 - xi)/N.

    All N >= 2 are accepted, even and odd alike.  For xi in (0, 1] the matrix
    has one eigenvalue xi (uniform vector) and N-1 eigenvalues 1.
    """
    n = int(n)
    if n < 2:
        raise FamilyValidationError(f"n-qubit family requires n >= 2, got {n}")
    lo, hi = _as_interval(xi_domain)
    if not (0.0 < lo and hi <= 1.0):
        raise FamilyValidationError(f"n-qubit family requires xi_domain within (0, 1], got ({lo}, {hi})")
    ones = np.ones((n, n))
    return DephasingFamily(n, np.eye(n) - ones / n, ones / n, (lo, hi))


def from_spectral_density(data: SpectralData) -> DephasingFamily:
    """Fixed channel with C = (2/gamma_ref) * s_zero and no xi dependence.

    The returned family has delta_c = 0 and the degenerate domain [0, 0].
    """
    n = data.n_qubits
    # A small gamma_ref (``spectrum --family file:... --gamma 1e-308``) puts C past the float range.
    with np.errstate(over="ignore", invalid="ignore"):
        c0 = (2.0 / data.gamma_ref) * data.s_zero
    if not np.all(np.isfinite(c0)):
        raise FamilyValidationError(f"gamma_ref={data.gamma_ref!r} puts C = (2/gamma_ref) s_zero past the float range")
    return DephasingFamily(n, c0, np.zeros((n, n)), (0.0, 0.0))


def load_spectral_csv(path, gamma_ref: float) -> SpectralData:
    """Read zero-frequency spectral densities from a ``j,l,re,im`` CSV file.

    Indices are 0-based; only upper-triangle entries (j <= l) are allowed and
    the lower triangle is filled by symmetry; im must be 0.  Unlisted entries
    default to zero.  Rows with j > l and duplicate (j, l) keys are rejected.
    The qubit count is the largest index + 1.
    """
    import csv  # here, not at module level: importing corrnoise does not load it

    path = Path(path)
    entries: dict[tuple[int, int], complex] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["j", "l", "re", "im"]:
            raise FamilyValidationError(f"{path}: expected header 'j,l,re,im', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                j, l = int(row[0]), int(row[1])
                re, im = float(row[2]), float(row[3])
            except (IndexError, ValueError) as exc:
                raise FamilyValidationError(f"{path}:{lineno}: malformed row {row!r}") from exc
            if j < 0 or l < 0:
                raise FamilyValidationError(f"{path}:{lineno}: negative index in {(j, l)}")
            if j > l:
                raise FamilyValidationError(f"{path}:{lineno}: lower-triangle row (j={j} > l={l}) rejected")
            if (j, l) in entries:
                raise FamilyValidationError(f"{path}:{lineno}: duplicate key (j={j}, l={l})")
            entries[(j, l)] = complex(re, im)
    n = max((max(j, l) + 1 for j, l in entries), default=0)
    if n < 1:
        raise FamilyValidationError(f"{path}: no entries and no n_qubits given")
    s = np.zeros((n, n), dtype=np.complex128)
    for (j, l), val in entries.items():
        s[j, l] = val
        if l != j:
            s[l, j] = np.conj(val)
    return SpectralData(n, s, gamma_ref)
