"""The benchmark's three workloads: inputs, set-up and one timed pass.

Each workload is a closed loop: the next operation starts when the last
one returned.  ``setup(seed, scratch)`` builds everything the timed part
needs; ``run_pass(state, index, bus)`` performs one pass over the
workload's fixed set of operations, checks every output against
:mod:`checks`, and returns a :class:`PassResult`.

* ``plan-dag`` — the planner: S/C plans of generated layered DAGs.
* ``exec-sim`` — the executors and the tiered store: set-up-time plans
  refreshed through the serial simulator, the parallel scheduler and
  the multi-tenant refresh service.
* ``minidb-daily`` — real I/O: a MiniDB warehouse refreshed after each
  ingested batch, with real spills.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from checks import (
    CheckFailed,
    check_ram_plan,
    check_schedule,
    check_table,
    peak_flagged,
    positions,
    reference_mvs,
)
from repro.core.speedup import compute_speedup_scores
from repro.db.engine import MiniDB, MvDefinition, SqlWorkload
from repro.db.table import Table
from repro.engine.controller import Controller
from repro.metadata.costmodel import DeviceProfile
from repro.serve.service import TenantSpec
from repro.store.config import RAM_COMPRESSED, SpillConfig, TierSpec
from repro.workloads.calibrate import calibrate_compute_times
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    generate_workload,
)

_GB = 1024.0 ** 3

#: Per-node log-normal size drift between seeds.  The DAG *shapes* are
#: fixed (``generate_workload`` seeds below): planner and executor time
#: differ by 2x between shapes of one size, far beyond any bound a
#: regression gate could use, so a seed re-draws what a warehouse's
#: daily refresh re-draws — the data volumes — and keeps the MV DAG.
#: Spill decisions are chaotic in the sizes: at 5% drift the demotions
#: of an exec-sim pass spread 12% between seeds, at 1% they spread 1.4%.
SIZE_DRIFT = 0.01

#: plan-dag: (nodes, shape seed) of each DAG of a pass.
PLAN_DAGS = ((400, 0), (400, 1), (1600, 0))
#: plan-dag: RAM and SSD budgets as shares of the all-flagged peak.
PLAN_RAM_OF_PEAK = 0.2
PLAN_SSD_OF_PEAK = 0.2

#: exec-sim: the DAGs refreshed over and over.  Nine shapes, because
#: the parallel scheduler's Python work on one DAG is chaotic in the
#: sizes: at 1% drift one shape's refresh makes 174k to 592k calls
#: between seeds, while its modeled seconds move by 2%.  Over nine
#: shapes the sum spreads 7% (coefficient of variation, six seeds),
#: over three 11%.
EXEC_DAGS = tuple((400, shape) for shape in range(10, 19))
#: exec-sim: RAM, compressed-in-RAM rung and SSD budgets as shares of
#: the DAGs' mean all-flagged peak; the disk below them is unbounded.
EXEC_RAM_OF_PEAK = 0.15
EXEC_RUNG_OF_PEAK = 0.05
EXEC_SSD_OF_PEAK = 0.25
#: exec-sim: serial and parallel refreshes of each DAG per pass, so the
#: three dispatchers each take about a third of a pass.
SERIAL_REPEATS = 3
PARALLEL_REPEATS = 1
#: exec-sim: closed-loop service clients (= requests in flight), one per
#: tenant, and the requests each sends per pass (each to its own DAG).
SERVICE_CLIENTS = 2
SERVICE_REQUESTS = 3
#: exec-sim: wall seconds per modeled second in the service.  So small
#: that a node's modeled seconds are always behind the Python serving
#: it: the service never sleeps, requests run one after another in
#: submission order, and a pass does the same work every time.  With a
#: larger scale a node now and then runs faster than its modeled time,
#: sleeps and lets the other request in; which spills follow, and so a
#: pass's wall time, then depend on the host's speed.  Not 0, which
#: hangs the service (see README).
SERVICE_TIME_SCALE = 1e-9
TENANTS = (TenantSpec("alpha", 0.5, priority=1),
           TenantSpec("beta", 0.5, priority=0))

#: minidb-daily: rows per ingested ``events`` batch.
MINIDB_ROWS = 500_000
#: minidb-daily: RAM and compressed-in-RAM rung budgets as shares of
#: the MVs' total logical size.
MINIDB_RAM_OF_MV = 0.5
MINIDB_RUNG_OF_MV = 0.1
#: minidb-daily: the repeated round's batch does not depend on --seed;
#: that round fails every time today (Fault A in README.md).
REPEAT_BATCH_SEED = 7_777

#: minidb-daily: the six MVs (filter chains and aggregations).
MV_SQL = (
    ("mv_recent", "SELECT user, amount FROM events WHERE amount > 1"),
    ("mv_big", "SELECT user, amount FROM mv_recent WHERE amount > 2"),
    ("mv_spend",
     "SELECT user, SUM(amount) AS spend FROM mv_recent GROUP BY user"),
    ("mv_whales", "SELECT user, amount FROM mv_big WHERE amount > 5"),
    ("mv_big_spend",
     "SELECT user, SUM(amount) AS spend FROM mv_big GROUP BY user"),
    ("mv_vip", "SELECT user, amount FROM mv_whales WHERE amount > 8"),
)


@dataclass
class PassResult:
    """What one pass measured.

    ``walls`` holds the pass's wall seconds (one per pass; on
    minidb-daily one per successful round), ``latencies`` the wall
    seconds of each request-like operation (on exec-sim every refresh
    and every service request), ``requests`` those of the service
    requests alone, ``modeled`` the pass's
    summed ``RunTrace.end_to_end_time`` of simulated refreshes, and
    ``tally`` the layer counters read from traces and tier reports.
    """

    walls: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    modeled: float = 0.0
    nodes: int = 0
    exec_seconds: float = 0.0
    bytes_written: float = 0.0
    mv_bytes: float = 0.0
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)
    requests: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)

    def fail(self, kind: str, exc: Exception) -> None:
        self.failed[kind] += 1
        self.errors[f"{kind}: {type(exc).__name__}: {exc}"[:160]] += 1


def tally_store(tally: Counter, report: dict) -> None:
    """Add a ``tier_report()`` to the layer counters."""
    tally["store.spill_gb"] += report["spill_bytes_gb"]
    tally["store.promote_gb"] += report["promote_bytes_gb"]
    tally["store.prefetch_hits"] += report["prefetch"]["count"]
    tally["store.prefetch_misses"] += report["prefetch"]["misses"]
    tally["store.arbitration_stall_wins"] += \
        report["arbitration"]["stall_wins"]
    tally["store.arbitration_spill_wins"] += \
        report["arbitration"]["spill_wins"]


def drifted_dag(n_nodes: int, shape: int, seed: int):
    """A fixed-shape generated DAG with this seed's drifted sizes."""
    graph = generate_workload(GeneratedWorkloadConfig(n_nodes=n_nodes),
                              seed=shape)
    rng = random.Random(seed * 1_000_003 + shape * 7_919 + n_nodes)
    for node_id in graph.nodes():
        node = graph.node(node_id)
        factor = math.exp(rng.gauss(0.0, SIZE_DRIFT))
        node.size *= factor
        if "base_input_gb" in node.meta:
            node.meta["base_input_gb"] *= factor
    profile = DeviceProfile()
    calibrate_compute_times(graph, profile, 0.5)
    compute_speedup_scores(graph, profile)
    return graph


def all_flagged_peak(graph) -> float:
    # generation order is stage order, hence topological
    return peak_flagged(graph, graph.nodes(), graph.nodes())


# ----------------------------------------------------------------------
# plan-dag
# ----------------------------------------------------------------------
@dataclass
class PlanDagState:
    dags: list  # (graph, ram budget, controller)


def plan_dag_setup(seed: int, scratch: str) -> PlanDagState:
    dags = []
    for n_nodes, shape in PLAN_DAGS:
        graph = drifted_dag(n_nodes, shape, seed)
        peak = all_flagged_peak(graph)
        spill = SpillConfig(tiers=(TierSpec("ssd", PLAN_SSD_OF_PEAK * peak),
                                   TierSpec("disk")))
        dags.append((graph, PLAN_RAM_OF_PEAK * peak,
                     Controller(spill=spill)))
    return PlanDagState(dags)


def plan_dag_pass(state: PlanDagState, index: int, bus) -> PassResult:
    result = PassResult()
    started = time.perf_counter()
    for graph, ram, controller in state.dags:
        controller.bus = bus
        result.attempted["plans"] += 3
        made = 0
        begun = time.perf_counter()
        try:
            ram_plan = controller.plan(graph, ram)
            made += 1
            check_ram_plan(graph, ram_plan, ram)
            plan = controller.plan(graph, ram, tier_aware=True)
            made += 1
            positions(graph, plan.order)
            for replanned in (False, True):
                if replanned:
                    plan = controller.replan_from_trace(graph, trace)
                    made += 1
                    positions(graph, plan.order)
                executed = time.perf_counter()
                trace = controller.refresh(graph, ram, plan=plan)
                result.exec_seconds += time.perf_counter() - executed
                result.nodes += graph.n
                check_schedule(graph, trace, ram)
                stored = trace.extras["tiered_store"]
                tally_store(result.tally, stored)
                result.bytes_written += (graph.total_size()
                                         + stored["spill_stored_gb"])
                result.mv_bytes += graph.total_size()
                result.modeled += trace.end_to_end_time
        except CheckFailed as exc:
            result.problems.append(str(exc))
        except Exception as exc:  # counted, and the pass goes on
            for _ in range(3 - made):
                result.fail("plans", exc)
        result.latencies.append(time.perf_counter() - begun)
    result.walls.append(time.perf_counter() - started)
    return result


# ----------------------------------------------------------------------
# exec-sim
# ----------------------------------------------------------------------
@dataclass
class ExecSimState:
    dags: list  # (graph, plan)
    ram: float
    controller: Controller


def exec_sim_setup(seed: int, scratch: str) -> ExecSimState:
    graphs = [drifted_dag(n, shape, seed) for n, shape in EXEC_DAGS]
    peak = sum(all_flagged_peak(g) for g in graphs) / len(graphs)
    spill = SpillConfig(
        tiers=(TierSpec(RAM_COMPRESSED, EXEC_RUNG_OF_PEAK * peak),
               TierSpec("ssd", EXEC_SSD_OF_PEAK * peak),
               TierSpec("disk")),
        codec="zlib", prefetch=True)
    controller = Controller(spill=spill)
    ram = EXEC_RAM_OF_PEAK * peak
    dags = [(g, controller.plan(g, ram, tier_aware=True)) for g in graphs]
    return ExecSimState(dags, ram, controller)


def _refresh(result: PassResult, kind: str, state: ExecSimState,
             graph, plan, **backend) -> None:
    result.attempted[kind] += 1
    started = time.perf_counter()
    try:
        trace = state.controller.refresh(graph, state.ram, plan=plan,
                                         **backend)
    except Exception as exc:  # counted, and the pass goes on
        result.fail(kind, exc)
        return
    elapsed = time.perf_counter() - started
    result.latencies.append(elapsed)
    result.exec_seconds += elapsed
    result.nodes += graph.n
    stored = trace.extras["tiered_store"]
    tally_store(result.tally, stored)
    result.bytes_written += graph.total_size() + stored["spill_stored_gb"]
    result.mv_bytes += graph.total_size()
    result.modeled += trace.end_to_end_time
    try:
        check_schedule(graph, trace, state.ram)
    except CheckFailed as exc:
        result.problems.append(f"{kind}: {exc}")


async def _service_pass(state: ExecSimState, result: PassResult) -> None:
    service = state.controller.create_service(
        state.ram, list(TENANTS), queue_limit=SERVICE_CLIENTS,
        max_concurrent=SERVICE_CLIENTS, time_scale=SERVICE_TIME_SCALE)

    async def client(number: int) -> None:
        tenant = TENANTS[number % len(TENANTS)].name
        for sent in range(SERVICE_REQUESTS):
            graph, plan = state.dags[(number + SERVICE_CLIENTS * sent)
                                     % len(state.dags)]
            result.attempted["requests"] += 1
            handle = await service.submit(graph, plan, tenant=tenant)
            answer = await handle
            if answer.status != "ok":
                result.fail("requests", RuntimeError(
                    f"{answer.status}: {answer.error}"))
                continue
            result.latencies.append(answer.latency_s)
            result.requests.append(answer.latency_s)
            result.queue_waits.append(answer.queue_wait_s)
            result.nodes += graph.n
            try:
                check_schedule(graph, answer.trace, state.ram)
            except CheckFailed as exc:
                result.problems.append(f"request: {exc}")

    async with service:
        await asyncio.gather(*(client(i) for i in range(SERVICE_CLIENTS)))
    violations = sum(len(v) for v in service.audit().values())
    result.tally["serve.audit_violations"] += violations
    if violations:
        result.problems.append(f"service audit: {service.audit()}")
    tally_store(result.tally, service.ledger.tier_report())


def exec_sim_pass(state: ExecSimState, index: int, bus) -> PassResult:
    state.controller.bus = bus
    result = PassResult()
    started = time.perf_counter()
    for _ in range(SERIAL_REPEATS):
        for graph, plan in state.dags:
            _refresh(result, "serial", state, graph, plan)
    for _ in range(PARALLEL_REPEATS):
        for graph, plan in state.dags:
            _refresh(result, "parallel", state, graph, plan,
                     backend="parallel", workers=2)
    served = time.perf_counter()
    asyncio.run(_service_pass(state, result))
    elapsed = time.perf_counter() - served
    result.exec_seconds += elapsed
    result.tally["serve.seconds"] += elapsed
    result.tally["serve.requests"] += len(result.requests)
    result.walls.append(time.perf_counter() - started)
    return result


# ----------------------------------------------------------------------
# minidb-daily
# ----------------------------------------------------------------------
@dataclass
class MiniDbState:
    plan: object
    ram: float
    controller: Controller
    seed: int
    scratch: str
    modeled: float  # the plan simulated on the profiled DAG


def events_batch(seed: int, cycle: int) -> dict:
    """One ingested batch; cycle -1 is the set-up's profiling batch."""
    rng = np.random.default_rng([seed % 2 ** 32, cycle + 1])
    return {"user": rng.integers(0, 50, MINIDB_ROWS),
            "amount": rng.uniform(0, 10, MINIDB_ROWS)}


def _warehouse(directory: str) -> SqlWorkload:
    return SqlWorkload(db=MiniDB(directory), definitions=[
        MvDefinition(name, sql) for name, sql in MV_SQL])


def _join_drains() -> None:
    # a failed refresh leaves its background writers running
    for thread in threading.enumerate():
        if thread.name.startswith("materialize-"):
            thread.join()


def minidb_setup(seed: int, scratch: str) -> MiniDbState:
    directory = os.path.join(scratch, "profile")
    workload = _warehouse(directory)
    workload.db.register_table("events", Table(events_batch(seed, -1)))
    graph = workload.profile()
    shutil.rmtree(directory)
    total = sum(graph.size_of(v) for v in graph.nodes())
    controller = Controller(ram_compressed_gb=MINIDB_RUNG_OF_MV * total,
                            spill=SpillConfig(codec="zlib"))
    ram = MINIDB_RAM_OF_MV * total
    plan = controller.plan_for_minidb(graph, ram, tier_aware=True)
    # the real run's hierarchy priced by the cost model alone: the
    # profile's measured compute seconds would make the figure as noisy
    # as a wall clock, so the model estimates compute from the sizes
    model = Controller(spill=SpillConfig(
        tiers=(TierSpec(RAM_COMPRESSED, MINIDB_RUNG_OF_MV * total),
               TierSpec("spill-disk")), codec="zlib"))
    sized = graph.copy()
    for node_id in sized.nodes():
        sized.node(node_id).compute_time = None
    modeled = model.refresh(sized, ram, plan=plan).end_to_end_time
    return MiniDbState(plan, ram, controller, seed, scratch, modeled)


def _round(state: MiniDbState, workload: SqlWorkload, batch: dict,
           result: PassResult) -> None:
    result.attempted["rounds"] += 1
    started = time.perf_counter()
    try:
        workload.db.register_table("events", Table(batch))
        refreshing = time.perf_counter()
        trace = state.controller.refresh_on_minidb(workload, state.ram,
                                                   plan=state.plan)
        finished = time.perf_counter()
    except Exception as exc:  # Fault A lands here; counted
        result.fail("rounds", exc)
        return
    result.walls.append(finished - started)
    result.latencies.append(finished - refreshing)
    result.exec_seconds += finished - refreshing
    result.nodes += len(MV_SQL)
    stored = trace.extras["tiered_store"]
    tally_store(result.tally, stored)
    for node in trace.nodes:
        for field_name in ("compute", "read_disk", "write", "stall",
                           "spill_write", "promote_read"):
            result.tally[f"minidb.{field_name}"] += getattr(node,
                                                            field_name)
    catalog = workload.db.catalog
    result.bytes_written += (sum(catalog.on_disk_bytes(name)
                                 for name, _ in MV_SQL) / _GB
                             + stored["spill_stored_gb"])
    want = reference_mvs(batch["user"], batch["amount"])
    try:
        tables = {name: workload.db.table(name) for name, _ in MV_SQL}
        result.mv_bytes += sum(t.nbytes for t in tables.values()) / _GB
        for name, table in tables.items():
            check_table(name, table.columns(), want[name])
    except CheckFailed as exc:
        result.problems.append(str(exc))
    except Exception as exc:  # an MV the refresh did not leave readable
        result.problems.append(f"reading the MVs: {exc!r}")


def minidb_pass(state: MiniDbState, index: int, bus) -> PassResult:
    """One cycle: a fresh warehouse ingests and refreshes (works), then
    ingests and refreshes again (Fault A), then is thrown away."""
    state.controller.bus = bus
    result = PassResult()
    directory = os.path.join(state.scratch, f"warehouse-{index}")
    state.controller.spill_dir = os.path.join(directory, "spill")
    workload = _warehouse(directory)
    result.modeled = state.modeled
    try:
        _round(state, workload, events_batch(state.seed, index), result)
        _round(state, workload, events_batch(REPEAT_BATCH_SEED, index),
               result)
    finally:
        _join_drains()
        shutil.rmtree(directory, ignore_errors=True)
    return result


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    setup_repeats: int


#: Set-ups per run (``setup_s`` is their median): more where one is
#: cheap, so the median holds still.
WORKLOADS = {
    "plan-dag": Workload(plan_dag_setup, plan_dag_pass, 21),
    "exec-sim": Workload(exec_sim_setup, exec_sim_pass, 11),
    "minidb-daily": Workload(minidb_setup, minidb_pass, 3),
}
