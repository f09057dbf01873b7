"""Plan scheduling: simulated cost of an IOM under a latency model.

The paper's architecture (Figure 1) routes local queries to autonomous
LQPs, which naturally run in parallel — the PQP only needs a result when a
downstream row consumes it.  This module walks the plan's dependency DAG
(:class:`~repro.pqp.plandag.PlanDAG`) and computes:

- the **serial** cost (every row one after another — what a naive PQP does),
- the **parallel makespan** (rows start as soon as their inputs are ready;
  local rows at *different* databases overlap, rows at the *same* database
  queue on that LQP),
- the **critical path** of rows that bounds the makespan.

Costs come from a per-row model: local rows pay the LQP's
:class:`~repro.lqp.cost.CostModel` (per-query latency + per-tuple shipping,
using measured tuple counts when an execution trace is supplied); PQP rows
pay a configurable CPU estimate per input tuple.  Without a trace, tuple
counts come from the federation's own catalog when a registry is supplied —
each LQP reports its relations' cardinalities — and are propagated through
the plan operator by operator, instead of a hardcoded guess.

This is the *model*; :class:`~repro.pqp.runtime.ConcurrentExecutor` is the
reality.  :func:`validate_against_trace` compares the two: a trace's
measured per-row timings yield a measured makespan and busy time, the
direct analogues of the simulated makespan and serial cost.

Merge rows are charged one hash-partitioned pass over the sum of their
inputs (:func:`repro.storage.kernels.hash_merge`), and a Merge's *output*
is estimated by containment (the largest input): overlapping sources
coalesce rather than accumulate.

Local resources are simulated width-aware: each database offers
``native_concurrency`` parallel servers (a remote LQP multiplexes that
many requests at once), widened further when a plan carries scan shards
(:mod:`repro.pqp.shard`) — matching how the concurrent runtime actually
dispatches.  Width 1 degenerates to the paper's one-connection-per-source
serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lqp.cost import CostModel
from repro.lqp.registry import LQPRegistry
from repro.pqp.executor import ExecutionTrace
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    MatrixRow,
    Operation,
)
from repro.pqp.plandag import PlanDAG

__all__ = [
    "PlanSchedule",
    "ScheduledRow",
    "ScheduleValidation",
    "schedule_plan",
    "validate_against_trace",
]

#: Last-resort tuple-count guess when neither a trace nor a registry (nor a
#: cardinality-reporting LQP) is available.
_DEFAULT_TUPLES = 10


@dataclass(frozen=True)
class ScheduledRow:
    """One plan row with its simulated timing."""

    row: MatrixRow
    cost: float
    start: float
    finish: float

    @property
    def location(self) -> str:
        return self.row.el or "PQP"


@dataclass(frozen=True)
class PlanSchedule:
    """The simulated schedule of one plan."""

    rows: Tuple[ScheduledRow, ...]
    serial_cost: float
    makespan: float
    critical_path: Tuple[ScheduledRow, ...]

    @property
    def speedup(self) -> float:
        """Serial cost over parallel makespan (≥ 1)."""
        if self.makespan == 0:
            return 1.0
        return self.serial_cost / self.makespan

    def render(self) -> str:
        lines = ["PR      op         at    start   finish  cost"]
        for scheduled in self.rows:
            lines.append(
                f"{str(scheduled.row.result):6s}  "
                f"{scheduled.row.op.value:9s}  "
                f"{scheduled.location:4s}  "
                f"{scheduled.start:6.2f}  {scheduled.finish:7.2f}  {scheduled.cost:5.2f}"
            )
        lines.append(
            f"serial cost {self.serial_cost:.2f}, makespan {self.makespan:.2f}, "
            f"speedup {self.speedup:.2f}x"
        )
        lines.append(
            "critical path: " + " -> ".join(str(s.row.result) for s in self.critical_path)
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class ScheduleValidation:
    """Simulated model versus measured execution of the same plan."""

    simulated_serial: float
    simulated_makespan: float
    simulated_speedup: float
    measured_busy: float
    measured_makespan: float
    measured_speedup: float

    def render(self) -> str:
        return (
            f"simulated: serial {self.simulated_serial:.3f}, "
            f"makespan {self.simulated_makespan:.3f}, "
            f"speedup {self.simulated_speedup:.2f}x\n"
            f"measured:  busy {self.measured_busy:.3f}s, "
            f"makespan {self.measured_makespan:.3f}s, "
            f"overlap {self.measured_speedup:.2f}x"
        )


# ----------------------------------------------------------------------
# Tuple-count estimation
# ----------------------------------------------------------------------


def _estimate_tuples(
    dag: PlanDAG,
    registry: Optional[LQPRegistry],
    trace: Optional[ExecutionTrace],
) -> Dict[int, int]:
    """Per-row tuple counts: measured where a trace covers the row,
    catalog-driven otherwise.

    Unmeasured local rows ask their LQP for the base relation's cardinality
    (Select rows use it as an upper bound); unmeasured PQP rows combine
    their inputs with simple, defensible rules — Union adds (its use here
    is shard reassembly of *disjoint* partitions), Merge keeps the largest
    input (the containment estimate: Merge's whole premise is sources
    holding overlapping portions of one scheme, so same-key rows coalesce
    rather than accumulate), Join/Intersect keep the larger side as a
    bound, Product multiplies, everything else passes its input through.
    """
    produced: Dict[int, int] = {}
    for index in dag.topological_order():
        row = dag.row(index)
        if trace is not None and index in trace.results:
            produced[index] = trace.results[index].cardinality
            continue
        if row.is_local:
            estimate = None
            if registry is not None and row.el in registry:
                estimate = registry.get(row.el).cardinality_estimate(row.lhr.relation)
            tuples = estimate if estimate is not None else _DEFAULT_TUPLES
            if row.op is Operation.RETRIEVE_RANGE and row.shard:
                # One of K key-range shards: assume an even split.
                tuples = max(1, tuples // row.shard[1])
            produced[index] = tuples
            continue
        inputs = [produced[ref.index] for ref in row.referenced_results()]
        if not inputs:
            produced[index] = _DEFAULT_TUPLES
        elif row.op is Operation.UNION:
            produced[index] = sum(inputs)
        elif row.op is Operation.MERGE:
            produced[index] = max(inputs)
        elif row.op is Operation.PRODUCT:
            left, right = inputs[0], inputs[-1]
            produced[index] = max(1, left * right)
        elif row.op in (Operation.JOIN, Operation.INTERSECT):
            produced[index] = max(inputs)
        else:  # Select / Restrict / Project / Coalesce / Difference
            produced[index] = inputs[0]
    return produced


def _row_cost(
    row: MatrixRow,
    produced: Dict[int, int],
    local_costs: Dict[str, CostModel],
    default_cost: CostModel,
    pqp_cost_per_tuple: float,
) -> float:
    if row.is_local:
        model = local_costs.get(row.el, default_cost)
        return model.cost(queries=1, tuples=produced[row.result.index])
    inputs = [produced[ref.index] for ref in row.referenced_results()]
    # Every PQP operator — Merge included, since hash_merge partitions all
    # operands in one pass — touches the sum of its inputs.
    return pqp_cost_per_tuple * max(sum(inputs), 1)


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------


def _location_widths(
    iom: IntermediateOperationMatrix, registry: Optional[LQPRegistry]
) -> Dict[str, int]:
    """Parallel servers per local database: its ``native_concurrency``
    (1 without a registry), widened to any shard family's K — the runtime
    dispatches shards at that width regardless of the native figure."""
    widths: Dict[str, int] = {}
    for row in iom:
        if not row.is_local:
            continue
        width = widths.get(row.el)
        if width is None:
            width = 1
            if registry is not None and row.el in registry:
                width = max(1, registry.get(row.el).native_concurrency)
        if row.shard:
            width = max(width, row.shard[1])
        widths[row.el] = width
    return widths


def schedule_plan(
    iom: IntermediateOperationMatrix,
    trace: Optional[ExecutionTrace] = None,
    local_costs: Optional[Dict[str, CostModel]] = None,
    default_cost: CostModel = CostModel(per_query=1.0, per_tuple=0.01),
    pqp_cost_per_tuple: float = 0.002,
    registry: Optional[LQPRegistry] = None,
) -> PlanSchedule:
    """Simulate a plan's execution schedule.

    Dependencies: a row starts after every row it references finishes.
    Resource constraint: each local database offers
    ``native_concurrency`` parallel servers (widened to a shard family's
    K when the plan carries one); rows at the same database queue for the
    earliest-free server.  Width 1 — the paper's one-connection prototype,
    and every in-process LQP — serializes exactly as before.  PQP rows are
    serialized on the single coordinating PQP.

    Tuple counts come from ``trace`` when supplied (measured), else from
    ``registry`` (catalog cardinalities), else a fixed guess.
    """
    dag = PlanDAG.from_iom(iom)
    produced = _estimate_tuples(dag, registry, trace)
    costs: Dict[int, float] = {
        row.result.index: _row_cost(
            row, produced, local_costs or {}, default_cost, pqp_cost_per_tuple
        )
        for row in iom
    }

    widths = _location_widths(iom, registry)
    #: location → per-server next-free times (PQP: a single server).
    servers: Dict[str, List[float]] = {}
    start: Dict[int, float] = {}
    finish: Dict[int, float] = {}
    critical_pred: Dict[int, Optional[int]] = {}

    for index in dag.topological_order():
        row = dag.row(index)
        ready = 0.0
        critical_pred[index] = None
        for predecessor in dag.predecessors(index):
            if finish[predecessor] >= ready:
                ready = finish[predecessor]
                critical_pred[index] = predecessor
        location = row.el or "PQP"
        free = servers.get(location)
        if free is None:
            free = servers[location] = [0.0] * widths.get(location, 1)
        slot = min(range(len(free)), key=free.__getitem__)
        begin = max(ready, free[slot])
        start[index] = begin
        finish[index] = begin + costs[index]
        free[slot] = finish[index]

    scheduled = tuple(
        ScheduledRow(
            row=row,
            cost=costs[row.result.index],
            start=start[row.result.index],
            finish=finish[row.result.index],
        )
        for row in iom
    )
    serial_cost = sum(costs.values())
    makespan = max(finish.values()) if finish else 0.0

    # Walk the critical path back from the last-finishing row.
    path: List[ScheduledRow] = []
    by_index = {item.row.result.index: item for item in scheduled}
    cursor: Optional[int] = max(finish, key=finish.get) if finish else None
    while cursor is not None:
        path.append(by_index[cursor])
        cursor = critical_pred[cursor]
    path.reverse()

    return PlanSchedule(
        rows=scheduled,
        serial_cost=serial_cost,
        makespan=makespan,
        critical_path=tuple(path),
    )


def validate_against_trace(
    schedule: PlanSchedule, trace: ExecutionTrace
) -> ScheduleValidation:
    """Put the model and a measured run side by side.

    The trace must carry per-row timings (every executor records them).
    ``measured_speedup`` is busy time over wall clock — how much real
    overlap the runtime achieved, the measured analogue of the simulated
    ``speedup``.
    """
    measured_makespan = trace.wall_clock
    measured_busy = trace.busy_time
    return ScheduleValidation(
        simulated_serial=schedule.serial_cost,
        simulated_makespan=schedule.makespan,
        simulated_speedup=schedule.speedup,
        measured_busy=measured_busy,
        measured_makespan=measured_makespan,
        measured_speedup=(
            measured_busy / measured_makespan if measured_makespan > 0 else 1.0
        ),
    )
