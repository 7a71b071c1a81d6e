import math

import numpy as np
import pytest

from corrnoise.evolution import _pair_line
from corrnoise.model import DephasingFamily, SpectralData, from_spectral_density
from corrnoise.qfi import _pair_qfi


def with_perturbation(family, delta_c, xi_domain):
    """The family with its perturbation direction and xi domain replaced."""
    return DephasingFamily(family.n_qubits, family.c0, delta_c, xi_domain)


def decay_rate_derivative(family, pair):
    """d(rate)/d(xi) = (1/4)(alpha-beta)^dag dC (alpha-beta) of one pair; xi-independent."""
    return float(_pair_line(family, pair)[1][0])


def coherence_pair_qfi_timeavg(family, xi, pair):
    """The pair's closed-form t -> 0+ QFI G'^2 / (2 G), as the pair optimum of the "time" regime."""
    return _pair_qfi(family, xi, pair, "time")[0]


def bisect_shot_optimum(tol: float = 1e-12) -> float:
    """Independent bisection oracle for the root of 1 - exp(-2x) = x."""
    lo, hi = 0.5, 1.0
    f = lambda x: 1.0 - math.exp(-2.0 * x) - x
    assert f(lo) > 0 > f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="session")
def x_star():
    return bisect_shot_optimum()


@pytest.fixture(scope="session")
def shot_peak_constant(x_star):
    """x* exp(-2 x*): per-shot peak in units of (G'/G)^2."""
    return x_star * math.exp(-2.0 * x_star)


def _random_real_family(n, seed):
    """Real symmetric PSD C0 with a sign-indefinite real symmetric dC, PSD on [0, 1]."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    base = from_spectral_density(SpectralData(n, a @ a.T / n + 0.2 * np.eye(n), 1.0))
    h = rng.normal(size=(n, n))
    h = h + h.T
    lam_min = float(np.linalg.eigvalsh(base.c0)[0])
    return with_perturbation(base, 0.5 * lam_min * h / np.linalg.norm(h, 2), (0.0, 1.0))


@pytest.fixture(scope="session")
def random_real_family():
    """Factory (n, seed) -> seeded random real symmetric family."""
    return _random_real_family
