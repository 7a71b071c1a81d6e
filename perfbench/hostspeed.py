"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs at two speeds: for stretches of seconds
to minutes everything runs up to about 1.6 times slower, and a dense
``eigh``, a pure-Python loop and small ``numpy`` array building slow down
together.  The kernel mixes those three, in roughly the proportions of
corrnoise's hot paths, and does the same fixed work on every call.

A sweep times the kernel before its first task and after every task.  The
benchmark multiplies its mean task times by ``scale(kernel times)``, so the
timing metrics read as seconds on a host where the kernel takes
``NOMINAL_S``.  A change in the program moves the task times and not the
kernel; host drift moves both and largely cancels.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Mean kernel time on the 2-core x86_64 host the benchmark was defined on.
NOMINAL_S = 0.07

_DIM = 32
_EIGH_CALLS = 200
_KRON_BUILDS = 300
_KRON_FACTORS = 5
_PY_STEPS = 80_000

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((_DIM, _DIM)) + 1j * _rng.standard_normal((_DIM, _DIM))
_MATRIX = _MATRIX + _MATRIX.conj().T
_FACTOR = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
# Bound at import, before a traced sweep wraps numpy.linalg.eigh, so the
# kernel's calls stay out of the per-layer counters.
_eigh = np.linalg.eigh


def scale(kernel_s: list[float]) -> float:
    """Factor that turns times measured alongside ``kernel_s`` into
    seconds at the nominal host speed."""
    return NOMINAL_S * len(kernel_s) / sum(kernel_s)


def kernel() -> float:
    """Seconds for one pass of the fixed reference work."""
    t0 = perf_counter()
    for _ in range(_EIGH_CALLS):
        _eigh(_MATRIX)
    for _ in range(_KRON_BUILDS):
        m = _FACTOR
        for _ in range(_KRON_FACTORS - 1):
            m = np.kron(m, _FACTOR)
    acc, table = 0.0, {}
    for i in range(_PY_STEPS):
        acc += i * 0.5
        table[i & 1023] = acc
    return perf_counter() - t0
