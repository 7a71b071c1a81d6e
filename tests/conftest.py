import math

import numpy as np
import pytest

from corrnoise.model import SpectralData, from_spectral_density, with_perturbation


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
