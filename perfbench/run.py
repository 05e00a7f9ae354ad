"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload nlcf-sasgd-mp --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs the per-layer ladder and the traced training matrix (see
README.md) and prints the per-layer metrics.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the host.  The exit code is 0 only when every check passed.

The benchmark runs the program from the ``src`` tree of the checkout it sits
in, with the environment it was started with: it sets no thread count,
affinity or other knob of its own.
"""

from __future__ import annotations

import argparse
import atexit
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: seconds a child is given to end by itself before it is terminated
JOIN_GRACE_S = 5.0


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Forked workers, shards and peers are joined (terminated after a grace
    period).  The ``multiprocessing`` resource tracker, which the program's
    shared-memory segments start, is no child ``multiprocessing`` joins: left
    alone it outlives this process by up to a second, so it is stopped and
    reaped here.
    """
    if "multiprocessing" not in sys.modules:
        return  # nothing was started
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(JOIN_GRACE_S)
        if child.is_alive():
            child.terminate()
            child.join()
    # closes the tracker's pipe, which ends it, and waits for it
    resource_tracker._resource_tracker._stop()


# registered before anything imports multiprocessing, so it runs after
# multiprocessing's own exit handlers, which may still unlink segments
atexit.register(stop_children)


def main(argv=None) -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import host
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    ticks = host.cpu_ticks()
    t0 = time.perf_counter()
    if args.trace:
        import ladder

        outcome = ladder.run(args.workload, args.seed, args.seconds)
    else:
        outcome = workloads.WORKLOADS[args.workload].run(args.seed, args.seconds)
    for failure in outcome.failures:
        print(f"perfbench: operation failed: {failure}", file=sys.stderr)
    for error in outcome.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    record = host.host_record(ticks)
    record["wall_s"] = round(time.perf_counter() - t0, 3)
    print(json.dumps({"host": record, "detail": outcome.detail}, default=float))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in outcome.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    correct = not outcome.errors and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items() if name in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
