"""Benchmark workloads: inputs drawn from the workload seed, tasks and oracles.

A task is one in-process call into corrnoise's public API, either
``corrnoise.cli.main([...])`` or a top-level function.  Every task carries a
check of its result against the paper's closed forms or an independent code
path; a task that raises, exits non-zero or fails its check is a failure.

Inputs depend only on the workload seed and on the sweep's index within a
run: sweep k of a run with seed s always gets the same inputs.  Each ``xi``
is log-uniform, stratified so that a run of a few sweeps covers its range
about evenly whatever the seed (how much work a task does depends on
``xi``).  ``product_time`` and ``product_shot`` draw the same
(n, xi, optimizer seed) lists, so the two regimes are compared on identical
problems.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("product_time", "product_shot", "pair_sweep")
# corrnoise worker threads per workload (``--threads``); 2 is the CLI
# default on 2 cores.  On pair_sweep only ``estimate`` uses them.
THREADS = {"product_time": 1, "product_shot": 2, "pair_sweep": 2}

PRODUCT_NS = (2, 3, 4, 5)
PRODUCT_XI = (1e-3, 3e-2)
PAIR_XI = (1e-3, 5e-2)
PAIR_XI_COUNT = 3
SPECTRUM_N = 9
SPECTRUM_CHECK_ROWS = 64
PAIR_N = 12
# 400 replicates, not 200: the std of 200 replicates scatters by about 5 %
# around crb_std, so the 15 % check would miss about 1 in 300 sound
# estimates, and a benchmark makes hundreds.  With 400 it is a 4-sigma test.
ESTIMATE_ARGS = ("--n", "8", "--shots", "100000", "--seeds", "400", "--threads", str(THREADS["pair_sweep"]))

# Acceptance-suite tolerances.
TIME_RATIO_RTOL = 0.02
SHOT_RATIO_RTOL = 0.05
PAIR_VALUE_RTOL = 1e-9
SPECTRUM_RATE_RTOL = 1e-9
ESTIMATE_STD_RTOL = 0.15

# Distinct streams per input kind, so adding a draw of one kind leaves the
# others unchanged.
_PRODUCT_STREAM = 1
_PAIR_STREAM = 2


@dataclass(frozen=True)
class Task:
    """One call into the package; ``check`` returns a failure message or None."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *keys])


def _stratified_log(rng: np.random.Generator, bounds: tuple[float, float], strata: list[int],
                    n_strata: int) -> list[float]:
    """One log-uniform draw inside each given stratum of ``n_strata`` equal
    slices of [log lo, log hi]."""
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    width = (hi - lo) / n_strata
    return [math.exp(lo + (k + u) * width) for k, u in zip(strata, rng.uniform(0.0, 1.0, len(strata)))]


def product_inputs(seed: int, sweep: int) -> list[tuple[int, float, int]]:
    """(n, xi, optimizer seed) for n = 2..5, shared by both product workloads.

    The xi range is cut into one stratum per n.  Within a sweep the n take
    different strata, and over four consecutive sweeps every n takes every
    stratum once (a Latin square whose first row comes from the seed).
    """
    count = len(PRODUCT_NS)
    first = _rng(seed, _PRODUCT_STREAM).permutation(count)
    rng = _rng(seed, _PRODUCT_STREAM, sweep)
    xis = _stratified_log(rng, PRODUCT_XI, [(int(k) + sweep) % count for k in first], count)
    opt_seeds = [int(s) for s in rng.integers(0, 2**31, count)]
    return list(zip(PRODUCT_NS, xis, opt_seeds))


def pair_inputs(seed: int, sweep: int) -> list[tuple[float, int, int]]:
    """(xi, estimate seed, spectrum-check seed) for the three pair_sweep points.

    The xi range is cut into three strata and every sweep draws once in each,
    in an order that comes from the seed and the sweep.
    """
    rng = _rng(seed, _PAIR_STREAM, sweep)
    strata = [int(k) for k in rng.permutation(PAIR_XI_COUNT)]
    xis = _stratified_log(rng, PAIR_XI, strata, PAIR_XI_COUNT)
    est_seeds = [int(s) for s in rng.integers(0, 2**31, PAIR_XI_COUNT)]
    check_seeds = [int(s) for s in rng.integers(0, 2**31, PAIR_XI_COUNT)]
    return list(zip(xis, est_seeds, check_seeds))


def inputs(workload: str, seed: int, sweep: int) -> list[tuple]:
    """The generated inputs of one sweep of ``workload``."""
    return pair_inputs(seed, sweep) if workload == "pair_sweep" else product_inputs(seed, sweep)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``corrnoise.cli.main(argv)`` with its CSV captured in memory."""
    import corrnoise.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = corrnoise.cli.main(argv)
    return code, buf.getvalue()


def _rel_err(value: float, expected: float) -> float:
    return abs(value / expected - 1.0)


def shot_optimum_x() -> float:
    """Root of 1 - exp(-2x) = x by Newton's method, independent of corrnoise."""
    x = 0.8
    for _ in range(100):
        step = (-math.expm1(-2.0 * x) - x) / (2.0 * math.exp(-2.0 * x) - 1.0)
        x -= step
        if abs(step) < 1e-16:
            break
    return x


# --- product_time / product_shot --------------------------------------------


def _advantage_check(n: int, xi: float, regime: str):
    if regime == "time":
        expected, rtol = (2.0 - xi if n == 2 else float(n)), TIME_RATIO_RTOL
    else:
        expected, rtol = float(2 ** (n - 1)), SHOT_RATIO_RTOL

    def check(result) -> "str | None":
        code, text = result
        if code != 0:
            return f"exit code {code}"
        row = text.splitlines()[2].split(",")
        ratio = float(row[5])
        if int(row[0]) != n or float(row[1]) != xi or row[2] != regime:
            return f"row does not echo the inputs: {row[:3]}"
        if _rel_err(ratio, expected) > rtol:
            return f"ratio {ratio:.6g} vs expected {expected:.6g} (rtol {rtol})"
        return None

    return check


def product_tasks(seed: int, sweep: int, regime: str, threads: int) -> list[Task]:
    tasks = []
    for n, xi, opt_seed in product_inputs(seed, sweep):
        argv = ["advantage", "--n", str(n), "--xi", repr(xi), "--regime", regime,
                "--threads", str(threads), "--seed", str(opt_seed)]
        tasks.append(Task(f"advantage n={n} {regime}", lambda argv=argv: run_cli(argv),
                          _advantage_check(n, xi, regime)))
    return tasks


# --- pair_sweep ---------------------------------------------------------------


def _spins(bits: str) -> tuple[int, ...]:
    return tuple(1 if c == "0" else -1 for c in bits)


def _spectrum_check(cn, xi: float, check_seed: int):
    n = SPECTRUM_N
    family = cn.build_n_qubit(n, (min(1e-6, xi / 2.0), 1.0))

    def check(result) -> "str | None":
        code, text = result
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        if float(lines[1].split(":", 1)[1]) != xi:
            return f"spectrum was computed at {lines[1]!r}, not xi={xi!r}"
        rows = lines[3:]
        expected_rows = 2**n * (2**n - 1) // 2
        if len(rows) != expected_rows:
            return f"{len(rows)} rows, expected {expected_rows}"
        rates = np.array([float(r.rsplit(",", 1)[1]) for r in rows])
        if np.any(np.diff(rates) < 0.0):
            return "rates are not ascending"
        scale = float(rates[-1])
        for k in np.random.default_rng(check_seed).choice(len(rows), SPECTRUM_CHECK_ROWS, replace=False):
            a, b, _ = rows[k].split(",")
            scalar = cn.decay_rate(family, xi, cn.CoherencePair(_spins(a), _spins(b)))
            if abs(scalar - rates[k]) > SPECTRUM_RATE_RTOL * max(abs(scalar), 1e-3 * scale):
                return f"row {k} ({a}|{b}): rate {rates[k]!r} vs scalar decay_rate {scalar!r}"
        return None

    return check


def _pair_check(xi: float, regime: str):
    n = PAIR_N
    label = "0" * n + "|" + "1" * n
    if regime == "time":
        expected = n / (2.0 * xi)  # N gamma / (2 xi), gamma = 1
    else:
        x = shot_optimum_x()
        expected = x * math.exp(-2.0 * x) / (xi * xi)

    def check(result) -> "str | None":
        if result.probe.label != label:
            return f"optimal pair {result.probe.label}, expected {label}"
        if _rel_err(result.value, expected) > PAIR_VALUE_RTOL:
            return f"value {result.value!r} vs closed form {expected!r}"
        return None

    return check


def _estimate_check(result) -> "str | None":
    code, text = result
    if code != 0:
        return f"exit code {code}"
    header = dict(line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# ") and ": " in line)
    if "empirical_std" not in header:
        return "no empirical_std in the output"
    emp, crb = float(header["empirical_std"]), float(header["crb_std"])
    if _rel_err(emp, crb) > ESTIMATE_STD_RTOL:
        return f"empirical_std {emp:.6g} vs crb_std {crb:.6g} (rtol {ESTIMATE_STD_RTOL})"
    return None


def pair_tasks(cn, seed: int, sweep: int) -> list[Task]:
    tasks = []
    for xi, est_seed, check_seed in pair_inputs(seed, sweep):
        spectrum_argv = ["spectrum", "--n", str(SPECTRUM_N), "--xi", repr(xi)]
        tasks.append(Task(f"spectrum n={SPECTRUM_N} xi={xi:.4g}", lambda argv=spectrum_argv: run_cli(argv),
                          _spectrum_check(cn, xi, check_seed)))
        family = cn.optimize.family_for_ratio(PAIR_N, xi)
        for regime in ("time", "shot"):
            tasks.append(Task(
                f"optimal_coherence_pair n={PAIR_N} {regime} xi={xi:.4g}",
                lambda family=family, xi=xi, regime=regime: cn.optimal_coherence_pair(family, xi, regime),
                _pair_check(xi, regime),
            ))
        estimate_argv = ["estimate", *ESTIMATE_ARGS, "--xi", repr(xi), "--seed", str(est_seed)]
        tasks.append(Task(f"estimate n=8 xi={xi:.4g}", lambda argv=estimate_argv: run_cli(argv),
                          _estimate_check))
    return tasks


def prepare(cn, workload: str, seed: int, sweep: int) -> list[Task]:
    """One-time work every process pays before its first task, then the tasks.

    That is the lazy scipy import inside ``shot_optimum_x`` and building the
    families that tasks take as arguments.
    """
    cn.qfi.shot_optimum_x()
    if workload == "product_time":
        return product_tasks(seed, sweep, "time", THREADS[workload])
    if workload == "product_shot":
        return product_tasks(seed, sweep, "shot", THREADS[workload])
    if workload == "pair_sweep":
        return pair_tasks(cn, seed, sweep)
    raise ValueError(f"unknown workload {workload!r}")


def task_count(workload: str) -> int:
    return len(PRODUCT_NS) if workload.startswith("product") else 4 * PAIR_XI_COUNT
