"""The redesigned streaming API: ``chunks()``, ``stream()``, the stream
options and per-connection wire encodings, and the closed/cancelled
cursor semantics.

Complements ``test_pool_and_cursor.py`` (cursor internals) and
``test_federation.py`` (service lifecycle): these tests drive the new
chunk-wise surface end to end through sessions and handles.
"""

import pytest

from repro.core.relation import PolygenRelation
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.errors import QueryCancelledError, ServiceClosedError
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.service.cursor import Cursor
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

#: A streamable-spine query: one retrieve, a PQP select, a projection.
SPINE_SQL = 'SELECT ANAME, MAJOR FROM PALUMNUS WHERE DEGREE = "MBA"'
#: A Merge-bearing query: falls back to whole-relation delivery.
JOIN_ALGEBRA = "(PALUMNUS [DEGREE = \"MBA\"]) [AID# = AID#] PCAREER"


def _federation(latency=0.0, **kwargs) -> PolygenFederation:
    registry = LQPRegistry()
    for database in paper_databases().values():
        lqp = RelationalLQP(database)
        registry.register(LatencyLQP(lqp, per_query=latency) if latency else lqp)
    return PolygenFederation(
        paper_polygen_schema(),
        registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


class TestChunksIterator:
    def test_chunks_are_columnar_batches_with_tags(self):
        with _federation() as federation:
            with federation.session(stream_chunk_size=2) as session:
                handle = session.submit(SPINE_SQL)
                batches = list(handle.stream().chunks(timeout=30))
                result = handle.result(timeout=30)
        assert len(batches) > 1  # pipelined: several batches, not one
        assert all(isinstance(batch, PolygenRelation) for batch in batches)
        rows = [row for batch in batches for row in batch.tuples]
        assert rows == list(result.relation.tuples)
        cell = rows[0][0]
        assert cell.origins  # tags crossed the streaming path intact

    def test_stream_is_the_cursor(self):
        with _federation() as federation, federation.session() as session:
            handle = session.submit(SPINE_SQL)
            assert handle.stream() is handle.cursor()
            handle.result(timeout=30)

    def test_unstreamable_plan_still_delivers_chunks(self):
        with _federation() as federation:
            with federation.session(fetch_size=3) as session:
                handle = session.submit(JOIN_ALGEBRA)
                batches = list(handle.stream().chunks(timeout=30))
                result = handle.result(timeout=30)
        rows = [row for batch in batches for row in batch.tuples]
        assert rows == list(result.relation.tuples)
        assert all(batch.cardinality <= 3 for batch in batches)

    def test_rows_and_chunks_partition_one_stream(self):
        with _federation() as federation:
            with federation.session(stream_chunk_size=2) as session:
                handle = session.submit(SPINE_SQL)
                result = handle.result(timeout=30)
                cursor = handle.cursor()
                first = cursor.fetchone(timeout=30)
                rest = [row for batch in cursor.chunks(timeout=30) for row in batch.tuples]
        # fetchone consumed its whole batch into the row buffer; chunks()
        # drains the remaining batches — together they cover everything
        # exactly once, in order.
        leftover = len(result.relation.tuples) - 1 - len(rest)
        assert 0 <= leftover < 2  # the partially fetched batch stays row-side
        assert [first] + rest != []
        all_rows = list(result.relation.tuples)
        assert first == all_rows[0]
        assert rest == all_rows[len(all_rows) - len(rest):]

    def test_empty_result_yields_no_chunks(self):
        with _federation() as federation, federation.session() as session:
            handle = session.submit('SELECT ANAME FROM PALUMNUS WHERE DEGREE = "NOPE"')
            assert list(handle.stream().chunks(timeout=30)) == []
            assert handle.result(timeout=30).relation.cardinality == 0


class TestStreamingOptions:
    def test_new_fields_validate(self):
        assert QueryOptions().stream_chunk_size == 1024
        with pytest.raises(ValueError, match="stream_chunk_size"):
            QueryOptions(stream_chunk_size=0)
        with pytest.raises(ValueError, match="stream_chunk_size"):
            QueryOptions(stream_chunk_size=True)

    def test_override_chain_defaults_session_submit(self):
        defaults = QueryOptions(stream_chunk_size=500, fetch_size=7)
        with _federation(defaults=defaults) as federation:
            session = federation.session(stream_chunk_size=200)
            assert session.defaults.stream_chunk_size == 200  # session wins
            assert session.defaults.fetch_size == 7  # inherited
            # submit-level override wins over both; chunk size 2 must show
            # up as several small batches.
            handle = session.submit(SPINE_SQL, stream_chunk_size=2)
            batches = list(handle.stream().chunks(timeout=30))
            assert len(batches) > 1
            assert all(batch.cardinality <= 2 for batch in batches)

    def test_wire_format_is_not_a_query_option(self):
        # The encoding belongs to the connection (RemoteLQP / register).
        with pytest.raises(ValueError, match="wire_format"):
            QueryOptions().replace(wire_format="json")

    def test_connection_wire_formats_agree_with_in_process(self):
        from repro.net import LQPServer

        with _federation() as federation, federation.session() as session:
            expected = session.execute(SPINE_SQL, timeout=30).relation
        servers = [
            LQPServer(RelationalLQP(database), chunk_size=2).start()
            for database in paper_databases().values()
        ]
        try:
            for fmt in ("auto", "json", "binary"):
                registry = LQPRegistry()
                for server in servers:
                    registry.register(server.url, wire_format=fmt)
                with PolygenFederation(
                    paper_polygen_schema(), registry, resolver=paper_identity_resolver()
                ) as federation, federation.session(stream_chunk_size=2) as session:
                    handle = session.submit(SPINE_SQL)
                    batches = list(handle.stream().chunks(timeout=30))
                    assert handle.result(timeout=30).relation == expected, fmt
                    assert len(batches) > 1, fmt
                    binary_chunks = sum(
                        lqp.inner.transport_stats().binary_chunks for lqp in registry
                    )
                assert (binary_chunks > 0) == (fmt != "json"), fmt
        finally:
            for server in servers:
                server.stop()


class TestClosedAndCancelled:
    def test_fetch_after_session_close_raises_service_closed(self):
        with _federation() as federation:
            session = federation.session()
            handle = session.submit(SPINE_SQL)
            handle.result(timeout=30)
            cursor = handle.cursor()
            session.close()
            with pytest.raises(ServiceClosedError, match="session"):
                cursor.fetchmany(timeout=30)
            with pytest.raises(ServiceClosedError, match="session"):
                list(cursor)
            with pytest.raises(ServiceClosedError, match="session"):
                next(cursor.chunks(timeout=30))

    def test_chunks_surface_cancellation_not_hang(self):
        # Unit-level determinism: a producer feeds one batch, then the
        # query is cancelled mid-stream.  chunks() must yield the buffered
        # batch and then raise — never block forever.
        cursor = Cursor(fetch_size=2)
        batch = PolygenRelation.from_data(
            ["A"], [("x",), ("y",)], origins=["AD"]
        )
        cursor._feed_chunk(batch)
        cursor._fail(QueryCancelledError("query cancelled"))
        stream = cursor.chunks(timeout=5)
        assert next(stream).cardinality == 2
        with pytest.raises(QueryCancelledError):
            next(stream)

    def test_cancelled_query_chunks_raise_through_the_service(self):
        with _federation(latency=0.25) as federation:
            session = federation.session()
            handle = session.submit(SPINE_SQL)
            handle.cancel()
            with pytest.raises(QueryCancelledError):
                for _ in handle.stream().chunks(timeout=30):
                    pass

    def test_close_reason_defaults_to_plain_message(self):
        cursor = Cursor()
        cursor.close()
        with pytest.raises(ServiceClosedError, match="cursor is closed"):
            cursor.fetchone()
