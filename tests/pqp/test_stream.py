"""Unit tests for pipelined chunk streaming (:mod:`repro.pqp.stream`).

Spine detection, chunk-pipeline equivalence against whole-relation
execution (rows, order, tags, intermediate results, lineage) over a
``polygen://`` source shipping chunks of a given size, and the fallback
for plans that cannot stream or whose source hands over whole relations.
"""

from contextlib import contextmanager

import pytest

from repro.core.predicate import Literal, Theta
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.pqp.executor import Executor
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.pool import WorkerPool
from repro.pqp.stream import streamable_spine
from repro.storage.tag_pool import TagPool


def iom(*rows):
    return IntermediateOperationMatrix(rows)


def retrieve(index, relation, database, scheme):
    return MatrixRow(
        result=ResultOperand(index),
        op=Operation.RETRIEVE,
        lhr=LocalOperand(relation),
        el=database,
        scheme=scheme,
    )


def pqp_select(index, source, attribute, value):
    return MatrixRow(
        result=ResultOperand(index),
        op=Operation.SELECT,
        lhr=ResultOperand(source),
        lha=attribute,
        theta=Theta.EQ,
        rha=Literal(value),
    )


def pqp_project(index, source, attributes):
    return MatrixRow(
        result=ResultOperand(index),
        op=Operation.PROJECT,
        lhr=ResultOperand(source),
        lha=tuple(attributes),
    )


def spine_plan():
    return iom(
        retrieve(1, "ALUMNUS", "AD", "PALUMNUS"),
        pqp_select(2, 1, "DEGREE", "MBA"),
        pqp_project(3, 2, ("ANAME", "MAJOR")),
    )


def join_plan():
    from repro.pqp.matrix import PQP_LOCATION

    return iom(
        retrieve(1, "ALUMNUS", "AD", "PALUMNUS"),
        retrieve(2, "ALUMNUS", "AD", "PALUMNUS"),
        MatrixRow(
            result=ResultOperand(3),
            op=Operation.MERGE,
            lhr=(ResultOperand(1), ResultOperand(2)),
            el=PQP_LOCATION,
            scheme="PALUMNUS",
        ),
    )


def paper_registry(ad_url=None):
    """The paper's databases in memory; AD dialed at ``ad_url`` if given."""
    registry = LQPRegistry()
    for name, database in paper_databases().items():
        registry.register(ad_url if name == "AD" and ad_url else RelationalLQP(database))
    return registry


def make_executor(workers=None, registry=None):
    """An executor dispatching into ``workers`` when given."""
    return Executor(
        paper_polygen_schema(),
        registry or paper_registry(),
        resolver=paper_identity_resolver(),
        tag_pool=TagPool(),
        pool=workers,
    )


@contextmanager
def served_executor(chunk_size, workers=None):
    """An executor whose AD sits behind an ``LQPServer`` shipping
    ``chunk_size``-tuple chunks."""
    ad = RelationalLQP(paper_databases()["AD"])
    with LQPServer(ad, chunk_size=chunk_size) as server:
        registry = paper_registry(server.url)
        try:
            yield make_executor(workers, registry)
        finally:
            registry.close()


@pytest.fixture(scope="module")
def workers():
    with WorkerPool() as pool:
        yield pool


class TestSpineDetection:
    def test_retrieve_select_project_chain_streams(self):
        assert streamable_spine(spine_plan()) is not None

    def test_local_literal_select_head_streams(self):
        plan = iom(
            MatrixRow(
                result=ResultOperand(1),
                op=Operation.SELECT,
                lhr=LocalOperand("ALUMNUS"),
                lha="DEG",
                theta=Theta.EQ,
                rha=Literal("MBA"),
                el="AD",
                scheme="PALUMNUS",
            ),
            pqp_project(2, 1, ("ANAME",)),
        )
        assert streamable_spine(plan) is not None

    def test_join_plan_does_not_stream(self):
        assert streamable_spine(join_plan()) is None

    def test_restrict_against_attribute_streams(self):
        plan = iom(
            retrieve(1, "ALUMNUS", "AD", "PALUMNUS"),
            MatrixRow(
                result=ResultOperand(2),
                op=Operation.RESTRICT,
                lhr=ResultOperand(1),
                lha="ANAME",
                theta=Theta.NE,
                rha="MAJOR",
            ),
        )
        assert streamable_spine(plan) is not None

    def test_single_retrieve_streams(self):
        assert streamable_spine(iom(retrieve(1, "ALUMNUS", "AD", "PALUMNUS"))) is not None


@pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "concurrent"])
@pytest.mark.parametrize("chunk_size", [1, 2, 1000])
class TestStreamedEquivalence:
    def test_trace_matches_whole_relation_execution(self, concurrent, chunk_size, workers):
        plan = spine_plan()
        baseline = make_executor().execute(plan)
        chunks = []
        with served_executor(chunk_size, workers if concurrent else None) as executor:
            trace = executor.execute(plan, on_chunk=chunks.append)
        assert {timing.worker for timing in trace.timings.values()} == {"stream"}
        assert trace.relation.attributes == baseline.relation.attributes
        assert [
            (tuple(c.datum for c in row), tuple((c.origins, c.intermediates) for c in row))
            for row in trace.relation.tuples
        ] == [
            (tuple(c.datum for c in row), tuple((c.origins, c.intermediates) for c in row))
            for row in baseline.relation.tuples
        ]
        # Streamed chunks concatenate to exactly the final relation.
        streamed = [row for chunk in chunks for row in chunk.tuples]
        assert [tuple(c.datum for c in row) for row in streamed] == [
            tuple(c.datum for c in row) for row in trace.relation.tuples
        ]
        # Intermediate results and lineages cover every plan row.
        assert set(trace.results) == {1, 2, 3}
        assert set(trace.lineages) == {1, 2, 3}
        assert trace.results[1].cardinality == baseline.results[1].cardinality
        assert trace.lineage == baseline.lineage

    def test_multiple_chunks_arrive_for_small_chunk_size(
        self, concurrent, chunk_size, workers
    ):
        if chunk_size >= 1000:
            pytest.skip("single-chunk configuration")
        chunks = []
        with served_executor(chunk_size, workers if concurrent else None) as executor:
            executor.execute(spine_plan(), on_chunk=chunks.append)
        assert len(chunks) > 1


class TestFallback:
    def test_join_plan_ignores_on_chunk(self):
        chunks = []
        trace = make_executor().execute(join_plan(), on_chunk=chunks.append)
        assert chunks == []
        assert trace.relation.cardinality > 0

    @pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "concurrent"])
    def test_an_in_process_spine_ignores_on_chunk(self, concurrent, workers):
        # Its source handed over the whole relation: nothing to pipeline.
        chunks = []
        executor = make_executor(workers if concurrent else None)
        trace = executor.execute(spine_plan(), on_chunk=chunks.append)
        assert chunks == []
        assert trace.relation.cardinality == 5
        assert {timing.worker for timing in trace.timings.values()} == {"serial"}

    def test_no_hook_takes_the_ordinary_path(self):
        trace = make_executor().execute(spine_plan())
        assert trace.relation.cardinality == 5

    def test_empty_stream_still_yields_heading(self):
        plan = iom(
            MatrixRow(
                result=ResultOperand(1),
                op=Operation.SELECT,
                lhr=LocalOperand("ALUMNUS"),
                lha="DEG",
                theta=Theta.EQ,
                rha=Literal("NO-SUCH-DEGREE"),
                el="AD",
                scheme="PALUMNUS",
            ),
            pqp_project(2, 1, ("ANAME",)),
        )
        chunks = []
        with served_executor(2) as executor:
            trace = executor.execute(plan, on_chunk=chunks.append)
        assert {timing.worker for timing in trace.timings.values()} == {"stream"}
        assert trace.relation.cardinality == 0
        assert trace.relation.attributes == ("ANAME",)
        assert chunks == []  # empty batches are not delivered

