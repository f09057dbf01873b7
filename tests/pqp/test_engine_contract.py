"""The execution-engine contract, asserted once for every scheduler.

A plan row is run in exactly one place (the executor's per-plan run
record); the inline, pooled and pipelined schedulers differ only in when
and where they call it.  The executor picks one from the plan's sources:
it pools only when it holds a worker pool and the probe says it overlaps,
and it streams only a spine whose probe ships chunks, with or without a
pool.  With a pool over an in-process probe it runs the same inline code
as without one, so that case is not repeated here.
Everything a caller can observe about *how a row ran* — cancellation,
error wrapping, ``on_result``, spans, timings, worker labels — is
therefore asserted here against all of them, instead of once per engine
in each engine's own file.
"""

import threading
from dataclasses import dataclass, replace
from typing import Callable, Tuple

import pytest

from repro.core import algebra
from repro.core.predicate import Literal, Theta
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.errors import ExecutionError, QueryCancelledError
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.net.client import WireChunk
from repro.obs.trace import Tracer, current_span
from repro.pqp.executor import Executor
from repro.pqp.matrix import (
    PQP_LOCATION,
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.pool import WorkerPool
from repro.storage.tag_pool import TagPool


def retrieve(index, relation="ALUMNUS", database="AD", scheme="PALUMNUS"):
    return MatrixRow(
        result=ResultOperand(index),
        op=Operation.RETRIEVE,
        lhr=LocalOperand(relation),
        el=database,
        scheme=scheme,
    )


def project(index, source, attributes):
    return MatrixRow(
        result=ResultOperand(index),
        op=Operation.PROJECT,
        lhr=ResultOperand(source),
        lha=tuple(attributes),
        el=PQP_LOCATION,
    )


def spine_plan(projected=("ANAME", "MAJOR")):
    """Retrieve → Select → Project: a streamable spine."""
    return IntermediateOperationMatrix(
        [
            retrieve(1),
            MatrixRow(
                result=ResultOperand(2),
                op=Operation.SELECT,
                lhr=ResultOperand(1),
                lha="DEGREE",
                theta=Theta.EQ,
                rha=Literal("MBA"),
                el=PQP_LOCATION,
            ),
            project(3, 2, projected),
        ]
    )


def merge_plan(projected=("ANAME", "MAJOR")):
    """Two retrieves at one database → Merge → Project: not a spine, and
    its second LQP call only happens if the first did not stop the plan."""
    return IntermediateOperationMatrix(
        [
            retrieve(1),
            retrieve(2),
            MatrixRow(
                result=ResultOperand(3),
                op=Operation.MERGE,
                lhr=(ResultOperand(1), ResultOperand(2)),
                el=PQP_LOCATION,
                scheme="PALUMNUS",
            ),
            project(4, 3, projected),
        ]
    )


class ProbeLQP(RelationalLQP):
    """Counts the verbs it serves; optionally runs a hook or fails first."""

    def __init__(self, database, before=None, error=None, overlaps=False):
        super().__init__(database)
        self.overlaps = overlaps
        self.calls = 0
        self.before = before
        self.error = error

    def retrieve(self, relation_name, **kwargs):
        self.calls += 1
        if self.before is not None:
            self.before()
        if self.error is not None:
            raise self.error
        return super().retrieve(relation_name, **kwargs)


class ChunkingProbeLQP(ProbeLQP):
    """A probe that ships a retrieve in two-tuple chunks, as an
    ``LQPServer(chunk_size=2)`` does, so the executor streams its spines."""

    def retrieve_chunks(self, relation_name, *, columns=None, abort=None):
        shipped = self.retrieve(relation_name, **({} if columns is None else {"columns": columns}))
        return [
            WireChunk(
                shipped.attributes,
                seq,
                [list(column[start : start + 2]) for column in shipped.columns],
                min(2, shipped.cardinality - start),
            )
            for seq, start in enumerate(range(0, shipped.cardinality, 2))
        ]


@dataclass(frozen=True)
class Scheduler:
    """One way of scheduling the run record's ``run`` over a plan."""

    name: str
    #: whether the executor holds a worker pool.
    pooled: bool
    #: builds the plan this scheduler is exercised on.
    plan: Callable[..., IntermediateOperationMatrix]
    streams: bool
    #: (R(#), op) an error raised by the plan's final Project is labelled
    #: with: the row itself — except in a stream, which fails as the one
    #: unit its single span describes and is labelled by its head row.
    kernel_failure_label: Tuple[str, str]
    #: whether the probe at AD overlaps; both of the plan's local rows
    #: sit there, so an executor with a pool pools exactly when it does.
    overlaps: bool = False

    @property
    def runs(self) -> str:
        """The scheduler the engine picks, as the ambient span names it."""
        if self.streams:
            return "stream"
        if self.pooled and self.overlaps:
            return "pooled"
        return "inline"

    def worker_ok(self, row, worker):
        if self.streams:
            return worker == "stream"
        if self.runs == "inline":
            return worker == "serial"
        if not row.is_local:
            return worker == "pqp"
        return worker.startswith("lqp-") and worker.endswith(f"-{row.el}")


SCHEDULERS = [
    Scheduler("inline", False, merge_plan, False, ("R(4)", "Project")),
    Scheduler("pooled", True, merge_plan, False, ("R(4)", "Project"), overlaps=True),
    Scheduler("pipelined", False, spine_plan, True, ("R(1)", "Retrieve")),
    Scheduler("pipelined-with-pool", True, spine_plan, True, ("R(1)", "Retrieve")),
]


class Harness:
    """A scheduler bound to a fresh registry with a probe at database AD —
    in-process (shipping chunks when the scheduler streams), or
    (``source_url``) behind an ``LQPServer`` dialed by URL."""

    def __init__(self, scheduler: Scheduler, pool, source_url=None, **probe):
        self.scheduler = scheduler
        self.registry = LQPRegistry()
        databases = paper_databases()
        probe_class = ChunkingProbeLQP if scheduler.streams else ProbeLQP
        self.probe = probe_class(
            databases.pop("AD"), overlaps=scheduler.overlaps, **probe
        )
        self.registry.register(source_url or self.probe)
        for database in databases.values():
            self.registry.register(RelationalLQP(database))
        self.executor = Executor(
            paper_polygen_schema(),
            self.registry,
            resolver=paper_identity_resolver(),
            tag_pool=TagPool(),
            pool=pool if scheduler.pooled else None,
        )
        self.chunks = []

    def execute(self, plan=None, **kwargs):
        if self.scheduler.streams:
            kwargs.setdefault("on_chunk", self.chunks.append)
        if plan is None:
            plan = self.scheduler.plan()
        return self.executor.execute(plan, **kwargs)


@pytest.fixture(scope="module")
def shared_pool():
    with WorkerPool() as pool:
        yield pool


@pytest.fixture(params=SCHEDULERS, ids=lambda scheduler: scheduler.name)
def harness(request, shared_pool):
    def build(**probe):
        return Harness(request.param, shared_pool, **probe)

    return build


def row_spans(root):
    return [span for span in root.trace_spans() if span is not root]


class TestCancellation:
    def test_cancel_set_beforehand_issues_no_lqp_call(self, harness):
        engine = harness()
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(QueryCancelledError):
            engine.execute(cancel=cancel)
        assert engine.probe.calls == 0
        assert engine.chunks == []

    def test_cancel_set_between_rows_stops_the_plan(self, harness):
        cancel = threading.Event()
        engine = harness(before=cancel.set)  # set while the first row runs
        with pytest.raises(QueryCancelledError):
            engine.execute(cancel=cancel)
        assert engine.probe.calls == 1
        assert engine.chunks == []


class TestFailures:
    def test_failing_lqp_names_its_row_and_keeps_the_cause(self, harness):
        boom = RuntimeError("boom")
        engine = harness(error=boom)
        with pytest.raises(ExecutionError) as err:
            engine.execute()
        assert "R(1)" in str(err.value) and "Retrieve" in str(err.value)
        assert err.value.__cause__ is boom

    def test_failing_kernel_names_its_row_and_keeps_the_cause(self, harness):
        engine = harness()
        plan = engine.scheduler.plan(projected=("NOPE",))
        with pytest.raises(ExecutionError) as err:
            engine.execute(plan)
        label, op = engine.scheduler.kernel_failure_label
        assert label in str(err.value) and op in str(err.value)
        assert isinstance(err.value.__cause__, KeyError)

    def test_failure_closes_the_span_with_error_status(self, harness):
        engine = harness(error=RuntimeError("boom"))
        with Tracer().start("execute") as root:
            with pytest.raises(ExecutionError):
                engine.execute()
        failed = [span for span in row_spans(root) if span.name.endswith("R(1)")]
        assert len(failed) == 1
        assert failed[0].status == "error" and failed[0].finish is not None

    def test_empty_plan_rejected(self, harness):
        with pytest.raises(ExecutionError, match="empty"):
            harness().execute(IntermediateOperationMatrix())


class TestRecord:
    def test_on_result_fires_once_with_the_final_relation(self, harness):
        delivered = []
        trace = harness().execute(on_result=delivered.append)
        assert len(delivered) == 1
        assert delivered[0] is trace.relation

    def test_every_row_gets_one_span_under_the_ambient_one(self, harness):
        engine = harness()
        plan = engine.scheduler.plan()
        with Tracer().start("execute") as root:
            trace = engine.execute(plan)
        spans = row_spans(root)
        assert all(span.parent_id == root.span_id for span in spans)
        assert all(span.finish is not None and span.status == "ok" for span in spans)
        if engine.scheduler.streams:
            (span,) = spans  # rows overlap in a stream: one span for the spine
            assert span.name == "stream R(1)"
            assert span.attributes["rows"] == len(plan)
            assert span.attributes["op"] == "Retrieve"
            assert span.attributes["location"] == "AD"
            assert span.attributes["tuples"] == len(trace.relation)
            return
        assert sorted(span.name for span in spans) == [
            f"row {row.result}" for row in plan
        ]
        by_name = {span.name: span for span in spans}
        for row in plan:
            attributes = by_name[f"row {row.result}"].attributes
            assert attributes["op"] == row.op.value
            assert attributes["location"] == (row.el if row.is_local else "PQP")
            assert attributes["tuples"] == len(trace.results[row.result.index])

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_every_row_is_timed_inside_the_wall_clock(self, harness, traced):
        engine = harness()
        plan = engine.scheduler.plan()
        if traced:
            with Tracer().start("execute"):
                trace = engine.execute(plan)
        else:
            trace = engine.execute(plan)
        assert set(trace.timings) == {row.result.index for row in plan}
        assert set(trace.results) == set(trace.timings) == set(trace.lineages)
        assert trace.wall_clock > 0.0
        for timing in trace.timings.values():
            assert 0.0 <= timing.start <= timing.finish <= trace.wall_clock
        for row in plan:
            timing = trace.timings[row.result.index]
            assert timing.location == (row.el if row.is_local else "PQP")
            assert engine.scheduler.worker_ok(row, timing.worker)

    def test_the_ambient_span_names_the_scheduler(self, harness):
        engine = harness()
        with Tracer().start("execute") as root:
            engine.execute()
        assert root.attributes["scheduler"] == engine.scheduler.runs


@pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: s.name)
def test_a_polygen_url_source_on_the_binary_wire_leaves_the_same_record(
    scheduler, shared_pool
):
    # The source moving behind polygen:// (binary v2 chunks decoded straight
    # into the column hand-off) is invisible in the run record.
    reference = Harness(scheduler, shared_pool)
    expected = reference.execute()
    with LQPServer(RelationalLQP(paper_databases()["AD"]), chunk_size=2) as server:
        engine = Harness(scheduler, shared_pool, source_url=server.url)
        try:
            trace = engine.execute()
            stats = engine.registry.get("AD").inner.transport_stats()
        finally:
            engine.registry.close()
    assert stats.chunks > 0 and stats.binary_chunks == stats.chunks
    assert trace.relation.tuples == expected.relation.tuples
    assert trace.results == expected.results
    assert trace.lineages == expected.lineages
    assert [chunk.tuples for chunk in engine.chunks] == [
        chunk.tuples for chunk in reference.chunks
    ]
    for row in scheduler.plan():
        timing = trace.timings[row.result.index]
        assert timing.location == (row.el if row.is_local else "PQP")
        # A remote source overlaps, so an executor with a pool pools the
        # plan, and multiplexes, so its pool workers are numbered
        # ("lqp-0-AD#2"); the label is otherwise the in-process one.
        remote = replace(scheduler, overlaps=True)
        assert remote.worker_ok(row, timing.worker.split("#")[0])


@pytest.mark.parametrize(
    "scheduler", [s for s in SCHEDULERS if not s.streams], ids=lambda s: s.name
)
def test_pqp_kernel_runs_under_its_rows_ambient_span(scheduler, shared_pool, monkeypatch):
    # Regression: the pooled engine opened a PQP row's span without making
    # it ambient, so spans opened inside the kernel parented on `execute`.
    seen = []
    original = algebra.project

    def spy(*args, **kwargs):
        seen.append(current_span().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(algebra, "project", spy)
    with Tracer().start("execute"):
        Harness(scheduler, shared_pool).execute()
    assert seen == ["row R(4)"]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "scheduler", [s for s in SCHEDULERS if s.streams], ids=lambda s: s.name
)
def test_streamed_rows_share_the_interval_instead_of_each_claiming_it(
    scheduler, shared_pool, traced
):
    # Regression: every row of an N-row spine used to be stamped with the
    # whole stream's interval, so busy time was N x the wall clock.
    engine = Harness(scheduler, shared_pool)
    if traced:
        with Tracer().start("execute"):
            trace = engine.execute()
    else:
        trace = engine.execute()
    assert len(trace.timings) == 3
    assert trace.busy_time <= trace.wall_clock + 1e-6
    assert sum(trace.busy_by_location().values()) <= trace.wall_clock + 1e-6
