"""The traced run's shims and the per-layer metrics computed from them.

:func:`install` patches one public entry point per layer, each where its
caller looks the name up; :func:`layer_metrics` turns the spans, the
counters and the traced passes' tallies into the per-layer metrics of
``BENCHMARK.json``.  Seconds and counts are per pass.
"""

from __future__ import annotations

from statistics import median

from repro.serve.service import percentile

_MB = 1024.0 ** 2

#: (metric name, unit), in the order they are printed.
PER_LAYER = (
    ("core.optimize_s", "s"),
    ("core.optimize_self_s", "s"),
    ("core.alternating_iterations", "count"),
    ("solver.solve_mkp_s", "s"),
    ("solver.solve_mkp_calls", "count"),
    ("solver.bb_nodes", "count"),
    ("solver.uncertified_solves", "count"),
    ("core.ma_dfs_s", "s"),
    ("core.residency_s", "s"),
    ("feedback.from_trace_s", "s"),
    ("engine.simulator_us_per_node", "us"),
    ("exec.parallel_us_per_node", "us"),
    ("exec.parallel_dispatch_rounds", "count"),
    ("exec.minidb_compute_s", "s"),
    ("exec.minidb_read_disk_s", "s"),
    ("exec.minidb_blocking_write_s", "s"),
    ("exec.minidb_stall_s", "s"),
    ("exec.minidb_spill_write_s", "s"),
    ("exec.minidb_promote_read_s", "s"),
    ("store.demote_s", "s"),
    ("store.demote_calls", "count"),
    ("store.promote_s", "s"),
    ("store.promote_calls", "count"),
    ("store.pick_victim_s", "s"),
    ("store.spill_insert_s", "s"),
    ("store.spill_insert_calls", "count"),
    ("store.prefetch_s", "s"),
    ("store.spill_gb", "GB"),
    ("store.promote_gb", "GB"),
    ("store.prefetch_hits", "count"),
    ("store.prefetch_misses", "count"),
    ("store.arbitration_stall_wins", "count"),
    ("store.arbitration_spill_wins", "count"),
    ("db.parse_s", "s"),
    ("db.execute_select_s", "s"),
    ("db.write_table_s", "s"),
    ("db.write_table_mb", "MB"),
    ("db.read_table_s", "s"),
    ("db.read_table_mb", "MB"),
    ("db.encode_mb_per_s", "MB/s"),
    ("db.decode_mb_per_s", "MB/s"),
    ("serve.requests_per_s", "req/s"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.audit_violations", "count"),
    ("obs.tracing_overhead_pct", "%"),
)


def _add(name, value):
    def observe(counts, args, result):
        counts[name] += value(args, result)
    return observe


def install(tracer) -> None:
    """Patch each layer's public entry points (undo with
    ``tracer.uninstall()``)."""
    import repro.core.alternating as alternating
    import repro.core.knapsack_select as knapsack_select
    import repro.core.optimizer as optimizer
    import repro.db.columnar_codec as columnar_codec
    import repro.db.engine as db_engine
    import repro.db.storage_format as storage_format
    import repro.engine.controller as controller
    from repro.exec.parallel import ParallelSimulatorBackend
    from repro.exec.simulator import SerialSimulatorBackend
    from repro.feedback.observe import CostFeedback
    from repro.store.tiered import TieredLedger

    def solved(counts, args, result):
        counts["solver.solve_mkp_calls"] += 1
        counts["solver.bb_nodes"] += result.nodes_explored
        counts["solver.uncertified_solves"] += not result.optimal

    patch = tracer.patch
    patch(controller, "optimize", "core.optimize",
          _add("core.alternating_iterations", lambda a, r: r.iterations))
    patch(knapsack_select, "solve_mkp", "solver.solve_mkp", solved)
    patch(alternating, "ma_dfs_order", "core.ma_dfs")
    for module in (alternating, optimizer):
        patch(module, "peak_memory_usage", "core.residency")
    patch(optimizer, "assign_expected_tiers", "core.residency")
    patch(CostFeedback, "from_trace", "feedback.from_trace")
    patch(SerialSimulatorBackend, "run", "engine.simulator",
          _add("engine.simulator_nodes", lambda a, r: len(r.nodes)))
    patch(ParallelSimulatorBackend, "run", "exec.parallel",
          _add("exec.parallel_nodes", lambda a, r: len(r.nodes)))
    tracer.counter(ParallelSimulatorBackend, "_dispatch_round",
                   "exec.parallel_dispatch_rounds")
    # every public way a victim moves down a tier counts as a demote
    for method in ("demote", "demote_victim", "try_make_room"):
        patch(TieredLedger, method, "store.demote")
    for method in ("spill_insert", "promote", "prefetch", "pick_victim"):
        patch(TieredLedger, method, f"store.{method}")
    patch(db_engine, "parse_select", "db.parse")
    patch(db_engine, "execute_select", "db.execute_select")
    patch(storage_format, "write_table", "db.write_table",
          _add("db.write_table_bytes", lambda a, r: r))
    patch(storage_format, "read_table", "db.read_table",
          _add("db.read_table_bytes", lambda a, r: r.nbytes))
    patch(columnar_codec, "encode_table", "db.encode",
          _add("db.encode_bytes", lambda a, r: a[0].nbytes))
    patch(columnar_codec, "decode_table", "db.decode",
          _add("db.decode_bytes", lambda a, r: r.nbytes))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, passes, untraced_walls) -> dict[str, float]:
    """Per-layer metrics of the traced passes (see :data:`PER_LAYER`)."""
    spans = tracer.totals()
    counts = tracer.counts
    tally = {}
    for result in passes:
        for key, value in result.tally.items():
            tally[key] = tally.get(key, 0.0) + value
    n = len(passes)

    def seconds(name):
        return spans.get(name, {}).get("seconds", 0.0) / n

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / n

    latencies = [s for r in passes for s in r.requests]
    waits = [s for r in passes for s in r.queue_waits]
    served = tally.get("serve.requests", 0.0)
    traced_walls = [w for r in passes for w in r.walls]
    out = {
        "core.optimize_s": seconds("core.optimize"),
        "core.optimize_self_s":
            spans.get("core.optimize", {}).get("self", 0.0) / n,
        "core.alternating_iterations":
            counts["core.alternating_iterations"] / n,
        "solver.solve_mkp_s": seconds("solver.solve_mkp"),
        "solver.solve_mkp_calls": counts["solver.solve_mkp_calls"] / n,
        "solver.bb_nodes": counts["solver.bb_nodes"] / n,
        "solver.uncertified_solves":
            counts["solver.uncertified_solves"] / n,
        "core.ma_dfs_s": seconds("core.ma_dfs"),
        "core.residency_s": seconds("core.residency"),
        "feedback.from_trace_s": seconds("feedback.from_trace"),
        "engine.simulator_us_per_node": 1e6 * _ratio(
            seconds("engine.simulator"),
            counts["engine.simulator_nodes"] / n),
        "exec.parallel_us_per_node": 1e6 * _ratio(
            seconds("exec.parallel"), counts["exec.parallel_nodes"] / n),
        "exec.parallel_dispatch_rounds":
            counts["exec.parallel_dispatch_rounds"] / n,
        "store.demote_s": seconds("store.demote"),
        "store.demote_calls": calls("store.demote"),
        "store.promote_s": seconds("store.promote"),
        "store.promote_calls": calls("store.promote"),
        "store.pick_victim_s": seconds("store.pick_victim"),
        "store.spill_insert_s": seconds("store.spill_insert"),
        "store.spill_insert_calls": calls("store.spill_insert"),
        "store.prefetch_s": seconds("store.prefetch"),
        "db.parse_s": seconds("db.parse"),
        "db.execute_select_s": seconds("db.execute_select"),
        "db.write_table_s": seconds("db.write_table"),
        "db.write_table_mb": counts["db.write_table_bytes"] / _MB / n,
        "db.read_table_s": seconds("db.read_table"),
        "db.read_table_mb": counts["db.read_table_bytes"] / _MB / n,
        "db.encode_mb_per_s": _ratio(counts["db.encode_bytes"] / _MB,
                                     n * seconds("db.encode")),
        "db.decode_mb_per_s": _ratio(counts["db.decode_bytes"] / _MB,
                                     n * seconds("db.decode")),
        "serve.requests_per_s": _ratio(served,
                                       tally.get("serve.seconds", 0.0)),
        "serve.latency_p50_ms": 1e3 * percentile(latencies, 50)
        if served else 0.0,
        "serve.latency_p90_ms": 1e3 * percentile(latencies, 90)
        if served else 0.0,
        "serve.queue_wait_ms_p50": 1e3 * percentile(waits, 50)
        if waits else 0.0,
        "serve.audit_violations": tally.get("serve.audit_violations", 0.0),
        "obs.tracing_overhead_pct": 100.0 * (
            _ratio(median(traced_walls), median(untraced_walls)) - 1.0)
        if traced_walls and untraced_walls else 0.0,
    }
    for field_name, metric in (("compute", "compute"),
                               ("read_disk", "read_disk"),
                               ("write", "blocking_write"),
                               ("stall", "stall"),
                               ("spill_write", "spill_write"),
                               ("promote_read", "promote_read")):
        out[f"exec.minidb_{metric}_s"] = \
            tally.get(f"minidb.{field_name}", 0.0) / n
    for name in ("store.spill_gb", "store.promote_gb",
                 "store.prefetch_hits", "store.prefetch_misses",
                 "store.arbitration_stall_wins",
                 "store.arbitration_spill_wins"):
        out[name] = tally.get(name, 0.0) / n
    return out
