"""One sweep of a workload in a fresh process; run by ``perfbench/run.py``.

    python3 perfbench/sweep.py --workload W --seed S --sweep K --mode MODE

MODE is ``sweep`` (set up, then run every task once) or ``traced`` (the same
with span tracing installed before set-up).  K, the sweep's index within
its run, selects the inputs together with the seed (see ``workloads``).
corrnoise is imported from ``src/`` of the checkout that holds this file.
The last line of stdout is one JSON object:

    ready        CLOCK_MONOTONIC reading when the first task could be issued
    tasks        [{name, seconds, ok, error}] in issue order
    ref_s        reference-kernel times (``hostspeed``), before the first
                 task and after every task
    cpu_s        process CPU time (all threads) spent in the tasks
    peak_rss_mb  peak resident set size of this process
    layers       per-layer counters (traced mode only)

Each sweep gets its own process so that neither corrnoise's rate-matrix
cache nor peak RSS carries over from an earlier sweep.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_corrnoise():
    sys.path.insert(0, str(SRC))
    import corrnoise
    import corrnoise.cli  # noqa: F401

    where = Path(corrnoise.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"corrnoise was imported from {where}, not from {SRC}")
    return corrnoise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweep", type=int, required=True)
    parser.add_argument("--mode", choices=("sweep", "traced"), required=True)
    args = parser.parse_args(argv)

    import hostspeed
    import workloads

    cn = _import_corrnoise()
    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    tasks = workloads.prepare(cn, args.workload, args.seed, args.sweep)
    ready = time.monotonic()

    records = []
    ref_s = [hostspeed.kernel()]
    cpu_s = 0.0
    for task in tasks:
        cpu0 = time.process_time()
        error = None
        t0 = time.perf_counter()
        try:
            result = task.call()
        except Exception:
            seconds = time.perf_counter() - t0
            error = traceback.format_exc(limit=-3)
        else:
            seconds = time.perf_counter() - t0
            try:
                error = task.check(result)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=-3)
        cpu_s += time.process_time() - cpu0
        if error is not None:
            print(f"task {task.name} failed: {error}", file=sys.stderr)
        records.append({"name": task.name, "seconds": seconds, "ok": error is None, "error": error})
        ref_s.append(hostspeed.kernel())

    report = {
        "ready": ready,
        "tasks": records,
        "ref_s": ref_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.report() if tracer is not None else None,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
