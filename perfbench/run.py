"""Wall-clock benchmark of the S/C refresh stack; see README.md.

    python3 perfbench/run.py --workload plan-dag --seed 1 --seconds 25 \
        --trace 0

Run from the repository root: the program is imported from ``src/``.
Prints one line per metric, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from collections import Counter
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Run outputs (scratch warehouses, Chrome traces), inside the checkout.
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("plan-dag", "exec-sim", "minidb-daily")

#: (name, unit) of the end-to-end metrics.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("refresh_p50_ms", "ms"),
    ("nodes_per_s", "nodes/s"),
    ("modeled_refresh_s", "s"),
    ("bytes_written_per_mv_byte", "bytes/byte"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src/``; exit with code 2
    when it is not there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def run_passes(workload, state, seconds):
    """Closed loop of whole passes until ``seconds`` have gone by."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(workload.run_pass(state, len(passes), None))
    return passes


def end_to_end(passes, setup_times) -> dict[str, float]:
    walls = [w for r in passes for w in r.walls]
    latencies = [s for r in passes for s in r.latencies]
    exec_seconds = sum(r.exec_seconds for r in passes)
    mv_bytes = sum(r.mv_bytes for r in passes)
    # ru_maxrss is in KiB on Linux
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": median(setup_times),
        "pass_s": median(walls) if walls else 0.0,
        "refresh_p50_ms": 1e3 * median(latencies) if latencies else 0.0,
        "nodes_per_s": (sum(r.nodes for r in passes) / exec_seconds
                        if exec_seconds else 0.0),
        "modeled_refresh_s": median(r.modeled for r in passes),
        "bytes_written_per_mv_byte": (
            sum(r.bytes_written for r in passes) / mv_bytes
            if mv_bytes else 0.0),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def report(workload_name, passes, metrics, units) -> dict:
    attempted, failed, errors = Counter(), Counter(), Counter()
    problems = []
    for result in passes:
        attempted.update(result.attempted)
        failed.update(result.failed)
        errors.update(result.errors)
        problems.extend(result.problems)
    kinds = ", ".join(f"{kind} {attempted[kind]} attempted / "
                      f"{failed[kind]} failed" for kind in sorted(attempted))
    print(f"{workload_name}: {len(passes)} passes; {kinds}")
    for message, count in errors.most_common():
        print(f"  failed x{count}: {message}", file=sys.stderr)
    for message in problems[:20]:
        print(f"  WRONG OUTPUT: {message}", file=sys.stderr)
    for name, unit in units:
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # plans iterate sets of node ids: a fixed hash seed gives one
        # --seed the same plans, hence the same modeled seconds, in
        # every process
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__),
                   *(sys.argv[1:] if argv is None else argv)],
                  dict(os.environ, PYTHONHASHSEED="0"))
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = os.path.join(OUT, f"scratch-{os.getpid()}")
    os.makedirs(scratch)
    try:
        setup_times = []
        for repeat in range(workload.setup_repeats):
            started = time.perf_counter()
            state = workload.setup(args.seed,
                                   os.path.join(scratch, f"s{repeat}"))
            setup_times.append(time.perf_counter() - started)
        if not args.trace:
            passes = run_passes(workload, state, args.seconds)
            result = report(args.workload, passes,
                            end_to_end(passes, setup_times), END_TO_END)
        else:
            result = traced_run(args, workload, state)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_run(args, workload, state) -> dict:
    """Half the run untraced, half with layer spans and the program's
    event bus on; the per-layer metrics come from the traced half."""
    from layers import PER_LAYER, install, layer_metrics
    from repro.obs.events import EventBus
    from repro.obs.export import chrome_trace
    from tracing import Tracer

    untraced = run_passes(workload, state, args.seconds / 2)
    tracer = Tracer()
    bus = EventBus()
    install(tracer)
    kept = None
    traced = []
    try:
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < args.seconds / 2:
            traced.append(workload.run_pass(
                state, len(untraced) + len(traced), bus))
            if kept is None:  # keep one pass of node events, bounded
                kept = list(bus.events)
            bus.clear()
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced,
                            [w for r in untraced for w in r.walls])
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write_chrome_trace(path, chrome_trace(kept or []))
    print(f"chrome trace: {path}")
    return report(args.workload, untraced + traced, metrics, PER_LAYER)


if __name__ == "__main__":
    sys.exit(main())
