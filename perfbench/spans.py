"""Span tracing for the benchmark's traced runs.

The benchmark does not instrument corrnoise itself.  ``install`` wraps, from
outside, the public functions named in ``LAYERS`` and rebinds every
module-level name in the ``corrnoise`` package that is bound to one of them
(``optimize``, ``qfi`` and ``cli`` import by name, so patching only the
defining module would miss their calls).

Each wrapped call is a span.  Its parent is the innermost open span on the
same thread; a task handed to a thread pool in ``optimize`` or ``cli`` is
parented to the span that submitted it.  Self time is the span's duration
minus the union of its children's intervals, so overlapping children in
pool threads are not subtracted twice.  Work counters (calls, evaluations,
matrix sizes, draws, ...) are exact and repeat bit for bit for a fixed
workload seed; only ``*.self_s`` depends on the machine.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Wrapped functions: metric prefix -> (module, attribute path).
LAYERS = {
    "model.DephasingFamily": ("corrnoise.model", "DephasingFamily.__init__"),
    "evolution.rate_matrix": ("corrnoise.evolution", "rate_matrix"),
    "evolution.evolve": ("corrnoise.evolution", "evolve"),
    "evolution.drho_dxi": ("corrnoise.evolution", "drho_dxi"),
    "evolution.coherence_spectrum": ("corrnoise.evolution", "coherence_spectrum"),
    "evolution.ProductState.density": ("corrnoise.evolution", "ProductState.density"),
    "qfi.time_averaged_qfi_limit": ("corrnoise.qfi", "time_averaged_qfi_limit"),
    "qfi.qfi_exact_value": ("corrnoise.qfi", "qfi_exact_value"),
    "qfi.state_hash": ("corrnoise.qfi", "state_hash"),
    "optimize.optimal_coherence_pair": ("corrnoise.optimize", "optimal_coherence_pair"),
    "optimize.nelder_mead_max": ("corrnoise.optimize", "nelder_mead_max"),
    "optimize.maximize_over_time": ("corrnoise.optimize", "maximize_over_time"),
    "optimize.optimal_product_state": ("corrnoise.optimize", "optimal_product_state"),
    "estimation.simulate_parity_counts": ("corrnoise.estimation", "simulate_parity_counts"),
    "estimation.estimate_xi": ("corrnoise.estimation", "estimate_xi"),
    "cli.main": ("corrnoise.cli", "main"),
}

# One span name for numpy.linalg.eigh and numpy.linalg.eigvalsh, whose hot
# callers are in ``qfi``.
EIGH = "qfi.eigh"
EIGH_FUNCTIONS = ("eigh", "eigvalsh")

# Modules that start worker threads through a module-level ThreadPoolExecutor.
POOL_MODULES = ("corrnoise.optimize", "corrnoise.cli")


class _Span:
    __slots__ = ("name", "parent", "t0", "children", "n")

    def __init__(self, name: str, parent: "_Span | None"):
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.n = 0


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _eigh_flops(name: str, matrix) -> int:
    """Flop count computed from the matrix size, not measured.

    Symmetric QR costs about 9 n^3 with eigenvectors and 4/3 n^3 for values
    only (Golub and Van Loan); complex arithmetic costs 4 real flops per
    operation.
    """
    n = int(matrix.shape[-1])
    batch = 1
    for d in matrix.shape[:-2]:
        batch *= int(d)
    flops = 9 * n**3 if name == "eigh" else (4 * n**3) // 3
    return batch * flops * (4 if matrix.dtype.kind == "c" else 1)


class Tracer:
    """Collects span self times and exact work counters for one process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.rate_keys: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def maximum(self, key: str, value: int) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name: str, fn, before=None, after=None, on_error=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(span, args, kwargs)`` may replace the arguments;
        ``after(span, args, kwargs, result)`` and ``on_error(span, exc)``
        record counters once the span has closed.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = _Span(name, stack[-1] if stack else None)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(span, stack)
                if on_error is not None:
                    on_error(span, exc)
                raise
            tracer._close(span, stack)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def _close(self, span: _Span, stack: list) -> None:
        t1 = perf_counter()
        stack.pop()
        own = (t1 - span.t0) - _covered(span.children, span.t0, t1)
        if span.parent is not None:
            span.parent.children.append((span.t0, t1))
        with self._lock:
            self.calls[span.name] += 1
            self.self_s[span.name] += own

    def adopt(self, parent: "_Span | None", fn, *args, **kwargs):
        """Run ``fn`` in this thread as if called inside ``parent``."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def report(self) -> dict[str, float]:
        """Flat ``<layer>.<counter>`` dict over every layer in ``LAYERS``."""
        out: dict[str, float] = {}
        for name in (*LAYERS, EIGH):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        nm_calls = self.calls["optimize.nelder_mead_max"]
        out.update(
            {
                "qfi.time_averaged_qfi_limit.evals": c["limit_evals"],
                "qfi.time_averaged_qfi_limit.failed": c["limit_failed"],
                "qfi.eigh.dim_max": self.maxima["eigh_dim"],
                "qfi.eigh.flops_computed": c["eigh_flops"],
                "evolution.rate_matrix.distinct_keys": len(self.rate_keys),
                "evolution.coherence_spectrum.pairs": c["spectrum_pairs"],
                "optimize.nelder_mead_max.evals": c["nm_evals"],
                "optimize.nelder_mead_max.converged_frac": c["nm_converged"] / nm_calls if nm_calls else 0.0,
                "optimize.maximize_over_time.evals": c["mot_evals"],
                "estimation.simulate_parity_counts.draws": c["draws"],
                "estimation.estimate_xi.no_estimate": c["no_estimate"],
                "estimation.estimate_xi.clamped": c["clamped"],
                "cli.main.bytes_written": c["bytes_written"],
            }
        )
        return out


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "corrnoise" or mod_name.startswith("corrnoise.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _eigh_after(tracer: Tracer, kind: str):
    def after(span, args, kwargs, result):
        matrix = args[0] if args else kwargs["a"]
        tracer.maximum("eigh_dim", int(matrix.shape[-1]))
        tracer.count("eigh_flops", _eigh_flops(kind, matrix))

    return after


def _hooks(tracer: Tracer) -> dict:
    """Counter hooks per layer: name -> (before, after, on_error)."""
    from corrnoise.qfi import ExtrapolationError

    def limit_failed(span, exc):
        if isinstance(exc, ExtrapolationError):
            tracer.count("limit_failed")

    def qfi_eval(span, args, kwargs, result):
        if span.parent is not None and span.parent.name == "qfi.time_averaged_qfi_limit":
            tracer.count("limit_evals")

    def rate_key(span, args, kwargs, result):
        family, xi = args[0], float(args[1])
        with tracer._lock:
            tracer.rate_keys.add((family.fingerprint, xi))

    def spectrum_pairs(span, args, kwargs, result):
        tracer.count("spectrum_pairs", len(result))

    def nm_result(span, args, kwargs, result):
        tracer.count("nm_evals", int(result[3]))
        tracer.count("nm_converged", int(bool(result[2])))

    def mot_count(span, args, kwargs):
        eval_fn, rest = args[0], args[1:]

        def counted(t):
            span.n += 1
            return eval_fn(t)

        return (counted, *rest), kwargs

    def mot_evals(span, args, kwargs, result):
        tracer.count("mot_evals", span.n)

    def draws(span, args, kwargs, result):
        tracer.count("draws", int(result.shots))

    def estimate_flags(span, args, kwargs, result):
        tracer.count("no_estimate", int(result.xi_hat is None))
        tracer.count("clamped", int(bool(result.clamped)))

    def stdout_mark(span, args, kwargs):
        span.n = sys.stdout.tell()
        return args, kwargs

    def bytes_written(span, args, kwargs, result):
        tracer.count("bytes_written", sys.stdout.tell() - span.n)

    return {
        "qfi.time_averaged_qfi_limit": (None, None, limit_failed),
        "qfi.qfi_exact_value": (None, qfi_eval, None),
        "evolution.rate_matrix": (None, rate_key, None),
        "evolution.coherence_spectrum": (None, spectrum_pairs, None),
        "optimize.nelder_mead_max": (None, nm_result, None),
        "optimize.maximize_over_time": (mot_count, mot_evals, None),
        "estimation.simulate_parity_counts": (None, draws, None),
        "estimation.estimate_xi": (None, estimate_flags, None),
        "cli.main": (stdout_mark, bytes_written, None),
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer function; corrnoise must already be imported.

    ``cli.main`` counts characters written to ``sys.stdout``, which the
    caller must have redirected to an ``io.StringIO``.
    """
    import concurrent.futures

    import corrnoise.cli  # noqa: F401  (loads every layer module)
    import numpy.linalg

    hooks = _hooks(tracer)
    for name, (module_name, path) in LAYERS.items():
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, *hooks.get(name, (None, None, None)))
        setattr(owner, attr, wrapper)
        _rebind(original, wrapper)
    for kind in EIGH_FUNCTIONS:
        fn = getattr(numpy.linalg, kind)
        setattr(numpy.linalg, kind, tracer.wrap(EIGH, fn, after=_eigh_after(tracer, kind)))

    class TracedPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            stack = tracer._stack()
            return super().submit(tracer.adopt, stack[-1] if stack else None, fn, *args, **kwargs)

    for module_name in POOL_MODULES:
        setattr(sys.modules[module_name], "ThreadPoolExecutor", TracedPool)
