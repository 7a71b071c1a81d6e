"""corrnoise benchmark: closed-loop parameter sweeps of the paper's results.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

W is one of product_time, product_shot, pair_sweep (see perfbench/README.md
for why each exists), or ``all``, which runs every workload untraced and then
traced and prints each one's tables.  Run from the root of a source checkout;
corrnoise is imported from ``src/`` of that checkout.

One client runs the tasks of a sweep back to back in one process (a closed
loop); every sweep gets a fresh process and, with the seed, its own inputs
(see ``workloads``).  An untraced run runs sweeps until ``--seconds`` have
passed (the last one at least half inside) and reports each task's mean over
them, scaled to the host's speed during the run (see ``hostspeed``).  A
traced run makes one untraced and two traced sweeps, all on the inputs of
the first sweep; the traced sweeps' work counters must agree exactly.

The last stdout line is the JSON result; the line before it, starting with
``# record:``, holds the environment, provenance, machine-noise probe and
raw, unscaled samples.  The exit code is non-zero, with no result printed,
when no sweep could run at all (for example when ``src/corrnoise`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs single-threaded so a workload's threads are only the ones it
# asks corrnoise for (at most 2, the number of cores the benchmark targets).
# Set before numpy is first imported (through ``workloads``), so the noise
# probe in this process and every sweep process, which inherits this
# environment, run under the same setting.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import hostspeed  # noqa: E402  (perfbench/ is sys.path[0] when this file runs as a script)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

RUN_DEADLINE_S = 165.0
MIN_CHILD_TIMEOUT_S = 5.0


class SweepFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, sweep: int, mode: str, timeout: float) -> dict:
    """Run perfbench/sweep.py once and return its report plus ``setup_s``."""
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload, "--seed", str(seed),
           "--sweep", str(sweep), "--mode", mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise SweepFailed(f"{mode} process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SweepFailed(f"{mode} process exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def git_commit() -> "str | None":
    """HEAD of the checkout, or None when it is not a git repository."""
    # The ceiling keeps git from reporting a repository that merely encloses
    # the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int, sweeps: int) -> dict:
    files = sorted((SRC / "corrnoise").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += sum(1 for line in data.decode().splitlines() if line.strip())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_nonblank_lines": lines,
        "workload": workload,
        "seed": seed,
        "inputs_per_sweep": [workloads.inputs(workload, seed, k) for k in range(sweeps)],
    }


def environment(workload: str) -> dict:
    from importlib import metadata

    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
        "corrnoise_threads": workloads.THREADS[workload],
    }


def _task_seconds(report: dict) -> list[float]:
    return [t["seconds"] for t in report["tasks"]]


class Run:
    """Sweeps of one workload in one benchmark run, with their tally."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def child(self, sweep: int, mode: str) -> "dict | None":
        """One child process; its tasks are tallied, a crash fails them all."""
        expected = workloads.task_count(self.workload)
        try:
            report = run_child(self.workload, self.seed, sweep, mode, max(self.remaining(), MIN_CHILD_TIMEOUT_S))
        except SweepFailed as exc:
            self.errors.append(str(exc))
            print(f"perfbench: {exc}", file=sys.stderr)
            self.attempted += expected
            self.failed += expected
            return None
        self.attempted += len(report["tasks"])
        self.failed += sum(1 for t in report["tasks"] if not t["ok"])
        self.errors.extend(f"{t['name']}: {t['error']}" for t in report["tasks"] if not t["ok"])
        return report


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, Run]:
    """Untraced run: end-to-end metrics from its sweeps, host-speed scaled."""
    run = Run(workload, seed)
    sweeps = []
    durations = []
    # After the first sweep, start another only while a typical sweep would
    # be at least half done by --seconds, so a run overshoots it by about
    # half a sweep at most.
    while not sweeps or (time.monotonic() - run.started + statistics.median(durations) / 2 < seconds
                         and run.remaining() > max(durations)):
        t0 = time.monotonic()
        report = run.child(len(sweeps), "sweep")
        if report is None:
            break
        sweeps.append(report)
        durations.append(time.monotonic() - t0)
    if not sweeps:
        raise SweepFailed("no sweep completed: " + "; ".join(run.errors))
    setups = [r["setup_s"] for r in sweeps]
    refs = [x for r in sweeps for x in r["ref_s"]]
    # Host drift slows the reference kernel and the tasks alike; the kernel
    # times, taken over the same sweeps, cancel most of it.
    scale = hostspeed.scale(refs)
    per_task = [statistics.mean(column) for column in zip(*(_task_seconds(r) for r in sweeps))]
    metrics = {
        "setup_s": scale * statistics.median(setups),
        "wall_s": scale * sum(per_task),
        "task_s.p50": scale * statistics.median(per_task),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in sweeps),
        "success_rate": (run.attempted - run.failed) / run.attempted,
    }
    samples = {
        "sweeps": len(sweeps),
        "tasks": len(per_task),
        "host_scale": scale,
        "ref_s": refs,
        "setup_s": setups,
        "sweep_wall_s": [sum(_task_seconds(r)) for r in sweeps],
        "task_s": [[t["name"], t["seconds"]] for r in sweeps for t in r["tasks"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in sweeps],
        "error_rate": run.failed / run.attempted,
    }
    return metrics, samples, run


def trace(workload: str, seed: int) -> tuple[dict, dict, Run]:
    """Traced run: per-layer counters, their exact repeat, tracing overhead."""
    run = Run(workload, seed)
    plain = run.child(0, "sweep")
    traced = [r for r in (run.child(0, "traced") for _ in range(2)) if r]
    if plain is None or len(traced) < 2:
        raise SweepFailed("traced run incomplete: " + "; ".join(run.errors))
    first, second = (r["layers"] for r in traced)
    mismatched = sorted(k for k in first if not k.endswith(".self_s") and first[k] != second[k])
    if mismatched:
        run.errors.append(f"work counters differ between two traced sweeps: {mismatched}")
    layers = {k: (statistics.median([first[k], second[k]]) if k.endswith(".self_s") else first[k]) for k in first}
    untraced_wall = sum(_task_seconds(plain))
    traced_wall = statistics.median(sum(_task_seconds(r)) for r in traced)
    layers.update(
        {
            "run.cpu_s": plain["cpu_s"],
            "run.wall_s_untraced": untraced_wall,
            "run.wall_s_traced": traced_wall,
            "run.trace_overhead_s": traced_wall - untraced_wall,
        }
    )
    samples = {"counters_repeat": not mismatched, "traced_wall_s": [sum(_task_seconds(r)) for r in traced]}
    return layers, samples, run


def _declared(section: str) -> list[dict]:
    return json.loads(SPEC.read_text())[section]


def print_end_to_end(workload: str, metrics: dict, samples: dict, run: Run) -> None:
    print(f"== {workload} (untraced): {samples['sweeps']} sweeps of {samples['tasks']} tasks")
    for spec in _declared("end_to_end"):
        print(f"  {spec['name']:<14} {metrics[spec['name']]:>14.6g} {spec['unit']}")
    print(f"  {'error_rate':<14} {samples['error_rate']:>14.6g} ({run.failed}/{run.attempted} tasks failed)")
    print(f"  {'host_scale':<14} {samples['host_scale']:>14.6g} (timings above are raw times x this)")


def print_layers(workload: str, layers: dict) -> None:
    names = sorted({k.rsplit(".", 1)[0] for k in layers if k.endswith(".self_s")})
    total = sum(layers[f"{n}.self_s"] for n in names) or 1.0
    print(f"== {workload} (traced): per-layer self time and work counters")
    print(f"  {'layer':<36} {'calls':>9} {'self_s':>10} {'share':>7}  counters")
    for name in sorted(names, key=lambda n: -layers[f"{n}.self_s"]):
        extra = ", ".join(
            f"{k[len(name) + 1:]}={layers[k]:.6g}"
            for k in layers
            if k.startswith(name + ".") and k.count(".") == name.count(".") + 1 and k[len(name) + 1:] not in ("calls", "self_s")
        )
        share = layers[f"{name}.self_s"] / total
        print(f"  {name:<36} {layers[name + '.calls']:>9} {layers[name + '.self_s']:>10.4f} {share:>7.1%}  {extra}")
    for key in ("run.cpu_s", "run.wall_s_untraced", "run.wall_s_traced", "run.trace_overhead_s"):
        print(f"  {key:<36} {layers[key]:>20.6g} s")


def result_line(run: Run, values: dict, section: str, correct: bool) -> dict:
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in _declared(section)}
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; prints its tables and record, returns the result."""
    probe_start = hostspeed.kernel()
    if traced:
        values, samples, run = trace(workload, seed)
        print_layers(workload, values)
        section = "per_layer"
    else:
        values, samples, run = measure(workload, seed, seconds)
        print_end_to_end(workload, values, samples, run)
        section = "end_to_end"
    correct = run.failed == 0 and not run.errors
    for error in run.errors:
        print(f"  FAILED {error}")
    record = {
        "trace": int(traced),
        "environment": environment(workload),
        "provenance": provenance(workload, seed, 1 if traced else samples["sweeps"]),
        "noise_probe_s": {"start": probe_start, "end": hostspeed.kernel(), "nominal": hostspeed.NOMINAL_S},
        "samples": samples,
        "errors": run.errors,
    }
    print("# record: " + json.dumps(record))
    return result_line(run, values, section, correct)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corrnoise" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: run from a corrnoise checkout; {SRC / 'corrnoise'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else json.loads(SPEC.read_text())["run_seconds"]
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and reaps
    # the sweep process it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if args.workload != "all":
            result = bench(args.workload, args.seed, seconds, bool(args.trace))
        else:
            results = {}
            for workload in workloads.WORKLOADS:
                for traced in (False, True):
                    results[f"{workload}/trace{int(traced)}"] = bench(workload, args.seed, seconds, traced)
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{k}/{m}": v for k, r in results.items() for m, v in r["metrics"].items()},
            }
    except SweepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
