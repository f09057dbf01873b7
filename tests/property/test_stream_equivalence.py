"""Streamed-execution equivalence properties.

Pipelined chunk streaming must be invisible in the answer: for any query,
the batches a streaming cursor yields — concatenated — must equal the
whole-relation result *tag for tag*, no matter which engine ran the plan
(serial/concurrent), where the sources live (in-process/loopback
servers), or which wire encoding the connection chose for the chunks
(binary v2 / JSON v1).  Alongside the hypothesis sweep: NaN cells, nil
keys and empty strings crossing every wire intact; and the
version-mismatch fallback — a v1 peer keeps working, at JSON, with zero
binary frames on the wire.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.net.client import RemoteLQP
from repro.pqp.processor import PolygenQueryProcessor
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema
from repro.service.federation import PolygenFederation

from tests.property.test_execution_equivalence import queries

TIMEOUT = 10.0


def _in_process_registry() -> LQPRegistry:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return registry


@pytest.fixture(scope="module")
def harness():
    baseline = PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=_in_process_registry(),
        resolver=paper_identity_resolver(),
        optimize=False,
    )
    servers = [
        LQPServer(RelationalLQP(database), chunk_size=3).start()
        for database in paper_databases().values()
    ]

    def loopback(wire_format: str) -> PolygenFederation:
        registry = LQPRegistry()
        for server in servers:
            registry.register(
                server.url, concurrency=4, timeout=TIMEOUT, wire_format=wire_format
            )
        return PolygenFederation(
            paper_polygen_schema(), registry, resolver=paper_identity_resolver()
        )

    local = PolygenFederation(
        paper_polygen_schema(),
        _in_process_registry(),
        resolver=paper_identity_resolver(),
    )
    loopback_binary, loopback_json = loopback("binary"), loopback("json")
    #: Tiny chunks force multi-chunk streams.
    sessions = {
        "local_serial": local.session(engine="serial", stream_chunk_size=2),
        "local_concurrent": local.session(engine="concurrent", stream_chunk_size=2),
        "loopback_binary": loopback_binary.session(stream_chunk_size=2),
        "loopback_json": loopback_json.session(stream_chunk_size=2),
    }
    yield baseline, sessions
    for federation in (local, loopback_binary, loopback_json):
        federation.close()
    baseline.close()
    for server in servers:
        server.stop()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=queries())
def test_streamed_chunks_are_tag_identical_everywhere(harness, query):
    baseline, sessions = harness
    reference = baseline.run_algebra(query)
    for name, session in sessions.items():
        handle = session.submit(query)
        batches = list(handle.stream().chunks(timeout=30))
        result = handle.result(timeout=30)
        assert result.relation == reference.relation, (
            f"{name} diverged from the unstreamed baseline on {query!r}"
        )
        assert result.lineage == reference.lineage, name
        streamed = [row for batch in batches for row in batch.tuples]
        # PolygenTuple equality covers data AND tags: the streamed batches
        # must concatenate to exactly the final relation.
        assert streamed == list(result.relation.tuples), (
            f"{name} streamed different rows than it returned on {query!r}"
        )


def _canonical(value):
    if isinstance(value, float) and math.isnan(value):
        return "\x00NaN"
    return value


_CELLS = st.one_of(
    st.none(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=8),
    st.booleans(),
)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(st.tuples(_CELLS, _CELLS, _CELLS), max_size=12),
    chunk_size=st.integers(min_value=1, max_value=5),
)
def test_nan_nil_and_empty_cells_survive_every_wire(rows, chunk_size):
    database = LocalDatabase("XD")
    database.create(RelationSchema("T", ["A", "B", "C"]))
    database.insert("T", rows)
    lqp = RelationalLQP(database)
    expected = [
        tuple(_canonical(cell) for cell in row) for row in lqp.retrieve("T").rows
    ]
    server = LQPServer(lqp, chunk_size=chunk_size).start()
    try:
        for wire_format in ("binary", "json"):
            remote = RemoteLQP(server.url, timeout=TIMEOUT, wire_format=wire_format)
            try:
                whole = [
                    tuple(_canonical(cell) for cell in row)
                    for row in remote.retrieve("T").rows
                ]
                chunked = [
                    tuple(_canonical(cell) for cell in row)
                    for chunk in remote.retrieve_chunks("T", chunk_size=chunk_size)
                    for row in chunk.relation().rows
                ]
                assert whole == expected, wire_format
                assert chunked == expected, wire_format
                stats = remote.transport_stats()
                if wire_format == "binary" and expected:
                    assert stats.binary_chunks > 0
                if wire_format == "json":
                    assert stats.binary_chunks == 0
            finally:
                remote.close()
    finally:
        server.stop()


def test_v1_peer_negotiates_json_and_still_answers(monkeypatch):
    """Version-mismatch fallback through the whole service stack: against
    a v1-hello peer the client streams JSON chunks, ships zero binary
    frames, and the answer stays tag-identical to the in-process one."""
    from repro.net import protocol, server as server_module

    reference = PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=_in_process_registry(),
        resolver=paper_identity_resolver(),
        optimize=False,
    )
    query = '(PALUMNUS [DEGREE = "MBA"]) [ANAME, MAJOR]'
    expected = reference.run_algebra(query)
    reference.close()

    def v1_hello(database, relations):
        # A PR-5-era hello: protocol 1, no min_protocol, no formats.
        return {
            "kind": "hello",
            "protocol": 1,
            "database": database,
            "relations": list(relations),
        }

    monkeypatch.setattr(server_module.protocol, "hello_message", v1_hello)
    servers = [
        LQPServer(RelationalLQP(database), chunk_size=3).start()
        for database in paper_databases().values()
    ]
    try:
        registry = LQPRegistry()
        remotes = []
        for server in servers:
            remote = RemoteLQP(server.url, timeout=TIMEOUT)
            remotes.append(remote)
            assert not remote.binary_negotiated
            registry.register(remote)
        with PolygenFederation(
            paper_polygen_schema(), registry, resolver=paper_identity_resolver()
        ) as federation:
            with federation.session(stream_chunk_size=2) as session:
                handle = session.submit(query)
                batches = list(handle.stream().chunks(timeout=30))
                result = handle.result(timeout=30)
        assert result.relation == expected.relation
        assert [r for b in batches for r in b.tuples] == list(result.relation.tuples)
        for remote in remotes:
            assert remote.transport_stats().binary_chunks == 0
            remote.close()
    finally:
        for server in servers:
            server.stop()
