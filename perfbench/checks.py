"""Output checks computed apart from the program.

Every helper here recomputes what it checks from the inputs the
benchmark generated (edges, sizes, the ingested batch) and raises
:class:`CheckFailed` on a mismatch; none compares against saved output.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-9


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def positions(graph, order) -> dict[str, int]:
    """Positions of a plan order, after checking it is a topological
    permutation of the DAG."""
    nodes = graph.nodes()
    position = {node: index for index, node in enumerate(order)}
    require(len(order) == len(nodes) and set(position) == set(nodes),
            "plan order is not a permutation of the DAG's nodes")
    for node in nodes:
        for parent in graph.parents(node):
            require(position[parent] < position[node],
                    f"plan order runs {node} before its parent {parent}")
    return position


def peak_flagged(graph, order, flagged) -> float:
    """Peak flagged residency: a flagged node is resident from its own
    position to its last consumer's (its own when it has none)."""
    position = positions(graph, order)
    delta = [0.0] * (len(order) + 1)
    for node in flagged:
        start = position[node]
        end = max((position[c] for c in graph.children(node)),
                  default=start)
        delta[start] += graph.size_of(node)
        delta[end + 1] -= graph.size_of(node)
    peak = running = 0.0
    for step in delta[:-1]:
        running += step
        peak = max(peak, running)
    return peak


def check_ram_plan(graph, plan, budget: float) -> None:
    require(peak_flagged(graph, plan.order, plan.flagged)
            <= budget * (1 + EPS) + EPS,
            "RAM-only plan's flagged peak exceeds its budget")


def check_schedule(graph, trace, budget: float) -> None:
    """One record per DAG node, no child starting before a parent ends,
    and the trace's catalog peak within the RAM budget."""
    records = {record.node_id: record for record in trace.nodes}
    require(len(records) == len(trace.nodes) == graph.n
            and set(records) == set(graph.nodes()),
            "trace does not hold exactly one record per DAG node")
    for node, record in records.items():
        for parent in graph.parents(node):
            require(record.start >= records[parent].end - EPS,
                    f"{node} started before its parent {parent} ended")
    require(trace.peak_catalog_usage <= budget * (1 + EPS) + EPS,
            "trace's catalog peak exceeds the RAM budget")


# ----------------------------------------------------------------------
# MiniDB reference results
# ----------------------------------------------------------------------
def _filter(user, amount, threshold):
    keep = amount > threshold
    return {"user": user[keep], "amount": amount[keep]}


def _spend(rows):
    users = np.unique(rows["user"])
    sums = np.bincount(rows["user"], weights=rows["amount"])
    return {"user": users, "spend": sums[users]}


def reference_mvs(user: np.ndarray, amount: np.ndarray) -> dict:
    """The six MVs of ``workloads.MV_SQL`` computed with numpy."""
    recent = _filter(user, amount, 1)
    big = _filter(recent["user"], recent["amount"], 2)
    whales = _filter(big["user"], big["amount"], 5)
    return {
        "mv_recent": recent,
        "mv_big": big,
        "mv_spend": _spend(recent),
        "mv_whales": whales,
        "mv_big_spend": _spend(big),
        "mv_vip": _filter(whales["user"], whales["amount"], 8),
    }


def _sorted_rows(columns: dict) -> dict:
    # exact (integer) columns lead the sort key, so summed floats that
    # differ in the last digits cannot reorder rows
    columns = {n: np.asarray(c) for n, c in columns.items()}
    names = sorted(columns, key=lambda n: (
        np.issubdtype(columns[n].dtype, np.floating), n))
    order = np.lexsort([columns[n] for n in reversed(names)])
    return {n: columns[n][order] for n in names}


def check_table(name: str, got: dict, want: dict) -> None:
    """Rows compared as sorted multisets; floats to a tolerance."""
    require(sorted(got) == sorted(want),
            f"{name}: columns {sorted(got)} != {sorted(want)}")
    got, want = _sorted_rows(got), _sorted_rows(want)
    for column in want:
        a, b = got[column], want[column]
        require(a.shape == b.shape,
                f"{name}.{column}: {a.shape[0]} rows, expected "
                f"{b.shape[0]}")
        if np.issubdtype(b.dtype, np.floating):
            require(bool(np.allclose(a, b, rtol=1e-9, atol=1e-9)),
                    f"{name}.{column}: values differ")
        else:
            require(bool(np.array_equal(a, b)),
                    f"{name}.{column}: values differ")
