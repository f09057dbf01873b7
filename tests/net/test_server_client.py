"""Integration tests of the network layer: a real LQPServer on loopback,
a RemoteLQP client, concurrency, and fault injection (dead sockets,
dropped connections, timeouts, cancellation).

Every transport in this module carries an explicit short timeout and
every polling loop a deadline, so a regression can fail these tests but
never hang them — CI must survive a dead socket.
"""

import functools
import socket
import struct
import threading
import time

import pytest

from repro.core.predicate import Theta
from repro.datasets.paper import paper_databases
from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    RemoteQueryError,
    RemoteTimeoutError,
    ServiceClosedError,
)
from repro.lqp.cost import AccountingLQP, LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer, RemoteLQP, binary, protocol

#: Transport timeout used throughout: long enough for a loaded CI runner,
#: short enough that a hung socket fails fast.
TIMEOUT = 5.0


def ad_lqp() -> RelationalLQP:
    return RelationalLQP(paper_databases()["AD"])


@pytest.fixture
def server():
    with LQPServer(ad_lqp(), chunk_size=3) as running:
        yield running


def wait_for(predicate, deadline=TIMEOUT):
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.01)
    return False


#: A protocol-2 server's hello: binary advertised, in the v2 layout.
V2_HELLO = {
    "kind": "hello",
    "protocol": 2,
    "min_protocol": 1,
    "formats": ["binary", "json"],
    "trace": True,
    "database": "XX",
    "relations": ["T"],
}


def _v1_hello(scripted, sock):
    """A PR-5-era server: protocol 1, no min_protocol, no formats; reads
    until the client hangs up."""
    hello = {"kind": "hello", "protocol": 1, "database": "XX", "relations": ["T"]}
    sock.sendall(protocol.encode_frame(hello))
    scripted.read_frame(sock)


class _ScriptedServer:
    """A hand-driven TCP peer for fault injection: each accepted
    connection runs the next handler from ``scripts`` — full control over
    hello frames, partial streams, and connection drops."""

    def __init__(self, *scripts):
        self.scripts = list(scripts)
        self.frames_read = []
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen()
        self.listener.settimeout(TIMEOUT)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.listener.getsockname()[:2]
        return protocol.format_url(host, port)

    def _serve(self):
        for script in self.scripts:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            sock.settimeout(TIMEOUT)
            try:
                script(self, sock)
            except OSError:
                pass
            finally:
                sock.close()

    def read_frame(self, sock) -> dict:
        frame = protocol.read_frame(functools.partial(protocol.recv_exactly, sock))
        self.frames_read.append(frame)
        return frame

    def close(self):
        self.listener.close()
        self.thread.join(timeout=TIMEOUT)


class TestLoopbackEquivalence:
    def test_hello_names_the_database_and_relations(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            assert remote.name == "AD"
            assert set(remote.relation_names()) == {"ALUMNUS", "CAREER", "BUSINESS"}

    def test_retrieve_matches_in_process(self, server):
        direct = ad_lqp()
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            for relation_name in direct.relation_names():
                assert remote.retrieve(relation_name) == direct.retrieve(
                    relation_name
                )

    def test_select_matches_in_process(self, server):
        direct = ad_lqp()
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            assert remote.select(
                "ALUMNUS", "DEG", Theta.EQ, "MBA"
            ) == direct.select("ALUMNUS", "DEG", Theta.EQ, "MBA")

    def test_empty_select_preserves_heading(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            empty = remote.select("ALUMNUS", "DEG", Theta.EQ, "Atlantis")
            assert empty.cardinality == 0
            assert empty.attributes == ("AID#", "ANAME", "DEG", "MAJ")

    def test_retired_catalog_ops_fail_typed(self, server):
        # Retired wire ops each get the server's typed error frame, and the
        # connection stays usable.
        retired = [
            ("cardinality", {"relation": "ALUMNUS"}),
            ("catalog", {}),
            ("relation_stats", {"relation": "ALUMNUS"}),
            ("retrieve_range", {"relation": "ALUMNUS", "attribute": "AID#"}),
            (
                "select_range",
                {
                    "relation": "ALUMNUS",
                    "attribute": "DEG",
                    "theta": "=",
                    "value": "MBA",
                    "key_attribute": "AID#",
                },
            ),
        ]
        with RemoteLQP(server.url, timeout=TIMEOUT, retries=0) as remote:
            for op, fields in retired:
                with pytest.raises(RemoteQueryError, match="unknown wire operation"):
                    remote._mux.request(op, **fields)
                assert remote.retrieve("ALUMNUS") == ad_lqp().retrieve("ALUMNUS")
            assert remote.transport_stats().reconnects == 0

    @pytest.mark.parametrize(
        "theta",
        [Theta.LT, Theta.LE, Theta.GT, Theta.GE],
        ids=lambda theta: theta.name,
    )
    def test_ordered_select_matches_in_process(self, theta):
        # Interval scans ride on ``select``: bounds inside, between, at and
        # past the data, over a nil-bearing column shipped in small chunks.
        from repro.relational.database import LocalDatabase
        from repro.relational.schema import RelationSchema

        db = LocalDatabase("XD")
        db.load(
            RelationSchema("NUMS", ["ID", "K"], key=["ID"]),
            [(f"i{n}", n if n % 5 else None) for n in range(30)],
        )
        direct = RelationalLQP(db)
        with LQPServer(direct, chunk_size=4) as running:
            with RemoteLQP(running.url, timeout=TIMEOUT) as remote:
                for bound in (-1, 0, 10, 12.5, 29, 100):
                    assert remote.select("NUMS", "K", theta, bound) == (
                        direct.select("NUMS", "K", theta, bound)
                    )

    def test_columns_narrow_over_the_wire(self, server):
        from repro.lqp.base import project_columns

        direct = ad_lqp()
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            assert remote.capabilities().native_projection
            narrowed = remote.retrieve("ALUMNUS", columns=["ANAME", "DEG"])
            assert narrowed == project_columns(
                direct.retrieve("ALUMNUS"), ["ANAME", "DEG"]
            )
            assert narrowed.attributes == ("ANAME", "DEG")
            selected = remote.select(
                "ALUMNUS", "DEG", Theta.EQ, "MBA", columns=["AID#"]
            )
            assert selected.attributes == ("AID#",)

    def test_columns_projected_server_side_for_a_non_native_engine(self):
        # RelationalLQP has no native projection (its verbs reject
        # ``columns=``): the server projects after the verb, so only the
        # requested columns cross the wire on every verb.
        from repro.lqp.base import project_columns

        engine = ad_lqp()
        assert not engine.capabilities().native_projection
        with LQPServer(engine, chunk_size=3) as running:
            with RemoteLQP(running.url, timeout=TIMEOUT) as remote:
                narrowed = remote.retrieve("ALUMNUS", columns=["DEG"])
                assert narrowed.attributes == ("DEG",)
                assert narrowed == project_columns(
                    engine.retrieve("ALUMNUS"), ["DEG"]
                )
                selected = remote.select(
                    "ALUMNUS", "DEG", Theta.EQ, "MBA", columns=["ANAME"]
                )
                assert selected.attributes == ("ANAME",)
                streamed = list(remote.retrieve_chunks("ALUMNUS", columns=["MAJ"]))
                assert {chunk.attributes for chunk in streamed} == {("MAJ",)}

    def test_remote_error_carries_server_side_type(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            with pytest.raises(RemoteQueryError) as caught:
                remote.retrieve("NO_SUCH_RELATION")
            assert caught.value.error_type == "UnknownRelationError"
            assert caught.value.database == "AD"

    def test_schema_round_trips_when_served(self):
        from repro.datasets.paper import paper_polygen_schema

        schema = paper_polygen_schema()
        with LQPServer(ad_lqp(), schema=schema) as running:
            with RemoteLQP(running.url, timeout=TIMEOUT) as remote:
                fetched = remote.fetch_schema()
        assert sorted(s.name for s in fetched) == sorted(s.name for s in schema)

    def test_schema_refused_when_not_served(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            with pytest.raises(RemoteQueryError, match="schema"):
                remote.fetch_schema()


class TestChunkStreaming:
    def test_chunks_arrive_in_order_and_bounded(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            relation = remote.retrieve("ALUMNUS")
            seen = list(remote.retrieve_chunks("ALUMNUS"))
        # chunk_size=3 over 8 tuples: 3+3+2.
        assert [chunk.count for chunk in seen] == [3, 3, 2]
        assert [chunk.seq for chunk in seen] == [0, 1, 2]
        assert [
            row for chunk in seen for row in chunk.relation().rows
        ] == list(relation.rows)

    def test_chunks_are_handed_over_before_the_end_frame(self):
        consumed = threading.Event()
        held_back = []

        def end_only_after_the_chunk_is_consumed(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            sock.sendall(
                protocol.encode_frame(
                    protocol.chunk_message(request["id"], 0, ["A"], [[1], [2]])
                )
            )
            held_back.append(consumed.wait(TIMEOUT))
            sock.sendall(
                protocol.encode_frame(protocol.end_message(request["id"], 1, 2, ["A"]))
            )
            scripted.read_frame(sock)  # block until the client closes

        scripted = _ScriptedServer(end_only_after_the_chunk_is_consumed)
        try:
            with RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0) as remote:
                chunks = []
                for chunk in remote.retrieve_chunks("T"):
                    chunks.append(chunk)
                    consumed.set()
            assert held_back == [True]
            assert [chunk.relation().rows for chunk in chunks] == [((1,), (2,))]
        finally:
            scripted.close()

    def test_transport_counts_chunks_and_bytes(self, server):
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            remote.retrieve("ALUMNUS")
            stats = remote.transport_stats()
        assert stats.requests == 1
        assert stats.chunks == 3
        assert stats.tuples == 8
        assert stats.bytes_sent > 0 and stats.bytes_received > 0


class TestConcurrency:
    def test_requests_overlap_up_to_the_concurrency_level(self):
        delay = 0.15
        slow = LatencyLQP(ad_lqp(), per_query=delay)
        with LQPServer(slow) as running:
            with RemoteLQP(running.url, concurrency=4, timeout=TIMEOUT) as remote:
                workers = []
                began = time.perf_counter()
                for _ in range(4):
                    worker = threading.Thread(
                        target=remote.retrieve, args=("ALUMNUS",)
                    )
                    worker.start()
                    workers.append(worker)
                for worker in workers:
                    worker.join(timeout=TIMEOUT)
                elapsed = time.perf_counter() - began
                stats = remote.transport_stats()
        # Four concurrent requests over one multiplexed connection: the
        # sleeps overlap server-side, so wall clock is ~1 delay, not 4.
        assert elapsed < 4 * delay
        assert stats.in_flight_hwm >= 2

    def test_concurrency_one_serializes(self):
        delay = 0.1
        slow = LatencyLQP(ad_lqp(), per_query=delay)
        with LQPServer(slow) as running:
            with RemoteLQP(running.url, concurrency=1, timeout=TIMEOUT) as remote:
                workers = [
                    threading.Thread(target=remote.retrieve, args=("ALUMNUS",))
                    for _ in range(3)
                ]
                began = time.perf_counter()
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=TIMEOUT)
                elapsed = time.perf_counter() - began
                stats = remote.transport_stats()
        assert elapsed >= 3 * delay * 0.9
        assert stats.in_flight_hwm == 1

    def test_a_held_stream_frees_its_slot_when_its_end_frame_lands(self, server):
        # A slot counts requests on the wire, not streams a consumer has
        # yet to drain: with one slot, a request still gets through while
        # another thread's stream sits unconsumed.
        with RemoteLQP(server.url, concurrency=1, timeout=TIMEOUT) as remote:
            held = iter(remote.retrieve_chunks("ALUMNUS"))
            first = next(held)
            shipped = []
            worker = threading.Thread(
                target=lambda: shipped.append(remote.retrieve("ALUMNUS"))
            )
            worker.start()
            worker.join(timeout=TIMEOUT)
            assert shipped == [ad_lqp().retrieve("ALUMNUS")]
            assert [first.seq] + [chunk.seq for chunk in held] == [0, 1, 2]

    def test_native_concurrency_survives_wrapper_chain(self, server):
        with RemoteLQP(server.url, concurrency=6, timeout=TIMEOUT) as remote:
            wrapped = AccountingLQP(LatencyLQP(remote, per_query=0.0))
            assert wrapped.native_concurrency == 6
        assert ad_lqp().native_concurrency == 1


class TestRegistryIntegration:
    def test_register_by_url(self, server):
        registry = LQPRegistry()
        wrapped = registry.register(server.url, concurrency=2, timeout=TIMEOUT)
        assert wrapped.name == "AD"
        assert "AD" in registry
        assert wrapped.native_concurrency == 2
        assert registry.get("AD").retrieve("ALUMNUS") == ad_lqp().retrieve("ALUMNUS")
        inner = wrapped.inner
        assert isinstance(inner, RemoteLQP)
        inner.close()

    def test_remote_options_rejected_for_in_process_lqps(self):
        registry = LQPRegistry()
        with pytest.raises(TypeError, match="polygen://"):
            registry.register(ad_lqp(), concurrency=4)

    def test_bad_url_rejected(self):
        registry = LQPRegistry()
        with pytest.raises(ProtocolError):
            registry.register("http://127.0.0.1:1")


class TestFaults:
    def test_connect_to_dead_port_raises_typed_error(self):
        # Bind-then-close guarantees the port is unserved.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionLostError):
            RemoteLQP(
                host="127.0.0.1", port=port, timeout=1.0, retries=0
            )

    def test_version_mismatch_raises_protocol_error(self):
        def bad_hello(scripted, sock):
            # A far-future server whose *floor* is beyond us: no overlap.
            hello = protocol.hello_message("XX", [])
            hello["protocol"] = protocol.PROTOCOL_VERSION + 7
            hello["min_protocol"] = protocol.PROTOCOL_VERSION + 7
            sock.sendall(protocol.encode_frame(hello))
            scripted.read_frame(sock)  # wait for the client to give up

        scripted = _ScriptedServer(bad_hello)
        try:
            with pytest.raises(ProtocolError, match="no common protocol version"):
                RemoteLQP(scripted.url, timeout=1.0, retries=0)
        finally:
            scripted.close()

    def test_binary_client_refuses_a_server_without_binary_frames(self):
        # The encoding is chosen where the connection is made, so a client
        # that asks for binary frames (the default) fails there — not on
        # its first query — and takes its reader thread down with it.
        def json_only_hello(scripted, sock):
            hello = protocol.hello_message("XX", ["T"])
            hello["formats"] = ["json"]
            sock.sendall(protocol.encode_frame(hello))
            scripted.read_frame(sock)  # until the client hangs up

        scripted = _ScriptedServer(json_only_hello, json_only_hello)
        before = _mux_threads()
        try:
            with pytest.raises(ProtocolError, match='wire_format="binary"'):
                RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            assert wait_for(lambda: _mux_threads() == before), (
                "the refused connection stranded the mux's reader thread"
            )
            RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0, wire_format="json").close()
        finally:
            scripted.close()

    def test_binary_only_client_refuses_a_v1_server_at_construction(self):
        # Both ends speak protocol 4 only: a v1 server is refused where the
        # connection is made, not on the first query, and no reader thread
        # is left behind.
        scripted = _ScriptedServer(_v1_hello)
        before = _mux_threads()
        try:
            with pytest.raises(ProtocolError, match="no common protocol version"):
                RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0, wire_format="binary")
            assert wait_for(lambda: _mux_threads() == before), (
                "the refused connection stranded the mux's reader thread"
            )
            assert scripted.frames_read == []
        finally:
            scripted.close()

    def test_binary_only_client_names_both_versions_for_a_v2_server(self):
        def v2_server(scripted, sock):
            sock.sendall(protocol.encode_frame(V2_HELLO))
            scripted.read_frame(sock)  # until the refusing client hangs up

        scripted = _ScriptedServer(v2_server)
        try:
            with pytest.raises(
                ProtocolError,
                match=r"speaks 1\.\.2, this peer speaks 4\.\.4",
            ):
                RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0, wire_format="binary")
        finally:
            scripted.close()

    def test_truncated_binary_chunk_fails_the_call_inside_its_timeout(self):
        # A frame cut inside its attribute table used to raise struct.error
        # in the mux's reader task, which died; the caller then waited out
        # its whole timeout for frames nobody would read.
        def truncated_chunk(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            assert request["format"] == "binary"
            payload = binary.encode_chunk_payload(
                request["id"], 0, ["ALPHA", "BETA"], [[1, 2], [3, 4]], 2
            )
            header = struct.calcsize("<BBBBQIIH")
            sock.sendall(protocol.frame_raw(payload[: header + 4]))
            scripted.read_frame(sock)  # until the client hangs up

        timeout = 3.0
        scripted = _ScriptedServer(truncated_chunk)
        try:
            remote = RemoteLQP(scripted.url, timeout=timeout, retries=0)
            began = time.monotonic()
            with pytest.raises(ProtocolError, match="truncated or corrupt"):
                remote.retrieve("T")
            assert time.monotonic() - began < timeout / 3
            remote.close()
        finally:
            scripted.close()

    def test_v2_layout_binary_frame_is_refused_naming_both_versions(self):
        # A server that sends the v2 binary layout gets a ProtocolError,
        # never column data read under the wrong layout.
        def stubborn_v2_server(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            payload = bytearray(
                binary.encode_chunk_payload(request["id"], 0, ["A"], [[1, 2]], 2)
            )
            payload[1] = 2  # the v2 version byte
            sock.sendall(protocol.frame_raw(bytes(payload)))
            scripted.read_frame(sock)

        scripted = _ScriptedServer(stubborn_v2_server)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            with pytest.raises(ProtocolError, match="version 2; this peer speaks 3"):
                remote.retrieve("T")
            assert remote.transport_stats().binary_chunks == 0
            remote.close()
        finally:
            scripted.close()

    def test_connection_dropped_mid_stream_raises_typed_error(self):
        def drop_mid_stream(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            # One chunk, then hang up: no end frame ever arrives.
            sock.sendall(
                protocol.encode_frame(
                    protocol.chunk_message(request["id"], 0, ["A"], [[1]])
                )
            )

        scripted = _ScriptedServer(drop_mid_stream)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            with pytest.raises(ConnectionLostError, match="dropped"):
                remote.retrieve("T")
            remote.close()
        finally:
            scripted.close()

    def test_dropped_connection_is_retried_on_a_fresh_one(self):
        def drop_after_request(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            scripted.read_frame(sock)  # swallow the request, hang up

        def serve_properly(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            sock.sendall(
                protocol.encode_frame(
                    protocol.chunk_message(request["id"], 0, ["A"], [[1], [2]])
                )
            )
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(request["id"], 1, 2, ["A"])
                )
            )

        scripted = _ScriptedServer(drop_after_request, serve_properly)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=1)
            relation = remote.retrieve("T")
            assert relation.rows == ((1,), (2,))
            stats = remote.transport_stats()
            assert stats.retries == 1
            assert stats.reconnects == 1
            remote.close()
        finally:
            scripted.close()

    def test_stream_retried_after_a_drop_skips_replayed_chunks(self):
        def drop_after_chunk_zero(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            sock.sendall(
                protocol.encode_frame(
                    protocol.chunk_message(request["id"], 0, ["A"], [[0]])
                )
            )

        def serve_two_chunks(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            for seq in (0, 1):
                sock.sendall(
                    protocol.encode_frame(
                        protocol.chunk_message(request["id"], seq, ["A"], [[seq]])
                    )
                )
            sock.sendall(
                protocol.encode_frame(protocol.end_message(request["id"], 2, 2, ["A"]))
            )
            scripted.read_frame(sock)  # block until the client closes

        scripted = _ScriptedServer(drop_after_chunk_zero, serve_two_chunks)
        try:
            with RemoteLQP(scripted.url, timeout=TIMEOUT, retries=1) as remote:
                chunks = list(remote.retrieve_chunks("T"))
                stats = remote.transport_stats()
            assert [chunk.seq for chunk in chunks] == [0, 1]
            assert [chunk.columns for chunk in chunks] == [[[0]], [[1]]]
            assert (stats.retries, stats.reconnects) == (1, 1)
        finally:
            scripted.close()

    def test_silent_server_raises_timeout_and_sends_cancel(self):
        def hello_then_silence(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            scripted.read_frame(sock)  # the request
            scripted.read_frame(sock)  # the cancel the timeout must send

        scripted = _ScriptedServer(hello_then_silence)
        try:
            remote = RemoteLQP(scripted.url, timeout=0.4, retries=0)
            with pytest.raises(RemoteTimeoutError):
                remote.retrieve("T")
            assert wait_for(
                lambda: any(
                    frame.get("op") == "cancel" for frame in scripted.frames_read
                )
            ), "timeout did not propagate a cancel to the server"
            assert remote.transport_stats().timeouts == 1
            remote.close()
        finally:
            scripted.close()

    def test_client_timeout_cancels_server_side_stream(self):
        # A real LQPServer with an injected 1s delay and a 0.2s client
        # timeout: the client gives up and sends cancel; once the LQP call
        # returns, the server sees the cancel *before* streaming and
        # counts the request as cancelled instead of shipping tuples.
        slow = LatencyLQP(ad_lqp(), per_query=1.0)
        with LQPServer(slow) as running:
            remote = RemoteLQP(running.url, timeout=0.2, retries=0)
            with pytest.raises(RemoteTimeoutError):
                remote.retrieve("ALUMNUS")
            assert wait_for(lambda: running.stats.cancelled >= 1), (
                "cancel never reached the serving thread"
            )
            assert running.stats.tuples_sent == 0
            remote.close()

    def test_closed_transport_refuses_new_requests(self, server):
        remote = RemoteLQP(server.url, timeout=TIMEOUT)
        remote.close()
        with pytest.raises(ServiceClosedError):
            remote.retrieve("ALUMNUS")

    def test_server_stop_is_idempotent_and_fast(self):
        running = LQPServer(ad_lqp()).start()
        with RemoteLQP(running.url, timeout=TIMEOUT) as remote:
            remote.retrieve("ALUMNUS")
        began = time.perf_counter()
        running.stop()
        running.stop()
        assert time.perf_counter() - began < TIMEOUT


class TestReviewRegressions:
    """Pinned behaviours for bugs found in review."""

    def test_long_healthy_chunk_stream_outlives_the_watchdog_window(self):
        # Per-frame timeouts only: a stream whose frames keep flowing may
        # run far longer than its timeout.
        pause, chunks = 0.25, 6  # total 1.5s >> timeout 0.4

        def slow_stream(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            for seq in range(chunks):
                time.sleep(pause)
                sock.sendall(
                    protocol.encode_frame(
                        protocol.chunk_message(request["id"], seq, ["A"], [[seq]])
                    )
                )
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(request["id"], chunks, chunks, ["A"])
                )
            )

        scripted = _ScriptedServer(slow_stream)
        try:
            remote = RemoteLQP(scripted.url, timeout=0.4, retries=0)
            relation = remote.retrieve("T")
            assert relation.cardinality == chunks
            assert remote.transport_stats().timeouts == 0
            remote.close()
        finally:
            scripted.close()

    def test_lqp_oserror_becomes_a_remote_error_frame_not_a_timeout(self):
        # A file-backed LQP failing with OSError must reach the client as
        # RemoteQueryError (an error frame), not be mistaken for a dead
        # peer and leave the client stalling to its timeout.
        class BrokenLQP(RelationalLQP):
            def retrieve(self, relation_name):
                raise FileNotFoundError(f"backing file for {relation_name} missing")

        with LQPServer(BrokenLQP(paper_databases()["AD"])) as running:
            with RemoteLQP(running.url, timeout=TIMEOUT, retries=0) as remote:
                began = time.perf_counter()
                with pytest.raises(RemoteQueryError) as caught:
                    remote.retrieve("ALUMNUS")
                assert time.perf_counter() - began < TIMEOUT / 2
            assert caught.value.error_type == "FileNotFoundError"
            assert running.stats.errors == 1

    def test_failed_url_registration_closes_the_dialed_connection(self, server):
        registry = LQPRegistry()
        registry.register(server.url, timeout=TIMEOUT)
        mux_threads = lambda: sum(
            1
            for thread in threading.enumerate()
            if thread.name.startswith("lqp-mux-") and thread.is_alive()
        )
        before = mux_threads()
        with pytest.raises(Exception, match="already registered"):
            registry.register(server.url, timeout=TIMEOUT)
        # The losing RemoteLQP's reader thread must be gone, not
        # leaked until GC.
        assert wait_for(lambda: mux_threads() == before)
        registry.get("AD").inner.close()

    def test_bad_hello_leaves_no_half_open_connection(self):
        from repro.net.transport import ConnectionMux

        def bad_hello(scripted, sock):
            hello = protocol.hello_message("XX", [])
            hello["protocol"] = protocol.PROTOCOL_VERSION + 1
            hello["min_protocol"] = protocol.PROTOCOL_VERSION + 1
            sock.sendall(protocol.encode_frame(hello))
            time.sleep(0.2)

        scripted = _ScriptedServer(bad_hello, bad_hello)
        host, port = protocol.parse_url(scripted.url)
        try:
            mux = ConnectionMux(host, port, timeout=TIMEOUT, retries=0)
            with pytest.raises(ProtocolError):
                mux.hello()
            # The failed handshake must have dropped the connection: the
            # next attempt re-handshakes and fails *fast* with the same
            # typed error, instead of writing into a half-open connection
            # nobody reads and stalling to the timeout.
            began = time.perf_counter()
            with pytest.raises(ProtocolError):
                mux.request("ping")
            assert time.perf_counter() - began < TIMEOUT / 2
            mux.close()
        finally:
            scripted.close()


def _mux_threads() -> int:
    return sum(
        1
        for thread in threading.enumerate()
        if thread.name.startswith("lqp-mux-") and thread.is_alive()
    )


class TestLifecycleLeaks:
    """Connections and reader threads must die with their owners."""

    def test_failed_remote_lqp_construction_leaks_no_loop_thread(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        before = _mux_threads()
        with pytest.raises(ConnectionLostError):
            RemoteLQP(host="127.0.0.1", port=port, timeout=1.0, retries=0)
        assert wait_for(lambda: _mux_threads() == before), (
            "a failed handshake stranded the mux's reader thread"
        )

    def test_abandoned_mux_is_reaped_by_gc(self, server):
        import gc

        from repro.net.transport import ConnectionMux

        host, port = server.address
        before = _mux_threads()
        mux = ConnectionMux(host, port, timeout=TIMEOUT)
        mux.hello()
        assert _mux_threads() == before + 1
        del mux  # no close(): the GC finalizer must reap the reader
        gc.collect()
        assert wait_for(lambda: _mux_threads() == before), (
            "the reader thread kept the abandoned mux alive forever"
        )

    def test_chunk_streams_start_no_thread(self):
        # The reader thread is the connection's only thread: a stream is
        # read on its consumer's thread, drained or abandoned.
        def serve_three_chunks(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            while True:
                request = scripted.read_frame(sock)
                if request.get("op") == "cancel":
                    continue
                for seq in range(3):
                    sock.sendall(
                        protocol.encode_frame(
                            protocol.chunk_message(request["id"], seq, ["A"], [[seq]])
                        )
                    )
                sock.sendall(
                    protocol.encode_frame(
                        protocol.end_message(request["id"], 3, 3, ["A"])
                    )
                )

        scripted = _ScriptedServer(serve_three_chunks)
        try:
            with RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0) as remote:
                host, port = protocol.parse_url(scripted.url)
                assert [
                    thread.name
                    for thread in threading.enumerate()
                    if thread.name.startswith(f"lqp-mux-{host}:{port}")
                ] == [f"lqp-mux-{host}:{port}"]
                # Threads other tests left behind may exit meanwhile: count
                # only threads that were not there before.
                before = set(threading.enumerate())
                started = lambda: set(threading.enumerate()) - before  # noqa: E731
                during = []
                for chunk in remote.retrieve_chunks("T"):
                    during.append(started())
                assert during == [set()] * 3 and not started()
                for chunk in remote.retrieve_chunks("T"):
                    assert not started()
                    break
                assert not started()
                assert [c.seq for c in remote.retrieve_chunks("T")] == [0, 1, 2]
        finally:
            scripted.close()

    def test_close_fails_a_pending_request_with_connection_lost(self):
        # close() does not leave a caller waiting out its timeout: the
        # request it has in flight fails at once, typed, and the reader
        # thread is joined.
        def hello_then_silence(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            scripted.read_frame(sock)  # the request, never answered
            scripted.read_frame(sock)  # until the client hangs up

        scripted = _ScriptedServer(hello_then_silence)
        before = _mux_threads()
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            errors = []

            def call():
                try:
                    remote.retrieve("T")
                except Exception as exc:
                    errors.append(exc)

            worker = threading.Thread(target=call)
            worker.start()
            assert wait_for(lambda: scripted.frames_read)
            began = time.perf_counter()
            remote.close()
            worker.join(timeout=TIMEOUT)
            assert not worker.is_alive()
            assert time.perf_counter() - began < TIMEOUT / 2
            assert [type(error) for error in errors] == [ConnectionLostError]
            assert _mux_threads() == before
        finally:
            scripted.close()

    def test_federation_close_closes_url_dialed_transports(self, server):
        from repro.datasets.paper import paper_polygen_schema
        from repro.service.federation import PolygenFederation

        registry = LQPRegistry()
        wrapped = registry.register(server.url, timeout=TIMEOUT)
        remote = wrapped.inner
        with PolygenFederation(paper_polygen_schema(), registry) as federation:
            assert not remote.transport.closed
        assert remote.transport.closed, (
            "federation.close() left the registry-dialed connection open"
        )

    def test_registry_close_spares_caller_constructed_lqps(self, server):
        registry = LQPRegistry()
        mine = RemoteLQP(server.url, timeout=TIMEOUT)
        registry.register(mine)
        registry.close()
        assert not mine.transport.closed  # mine to close, not the registry's
        mine.close()


class TestGarbageInbound:
    def test_server_drops_garbage_speaking_peers(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=TIMEOUT)
        sock.settimeout(TIMEOUT)
        # Read the hello, then send an impossible length prefix.
        header = sock.recv(4)
        length = struct.unpack(">I", header)[0]
        while length:
            length -= len(sock.recv(length))
        sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 5))
        # The server must hang up rather than allocate.
        sock.settimeout(TIMEOUT)
        assert sock.recv(1) == b""
        sock.close()
        # ... and keep serving well-behaved clients.
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            assert remote.retrieve("ALUMNUS").cardinality == 8


class TestTransportFaultCounters:
    """TransportStats retry/timeout/reconnect accounting under injected
    faults — the counters the federation's metrics collector exports."""

    def test_repeated_timeouts_accumulate_and_are_not_retried(self):
        def hello_then_silence(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            while True:  # swallow requests and cancels, never reply
                scripted.read_frame(sock)

        scripted = _ScriptedServer(hello_then_silence)
        try:
            remote = RemoteLQP(scripted.url, timeout=0.4, retries=2)
            for expected in (1, 2):
                with pytest.raises(RemoteTimeoutError):
                    remote.retrieve("T")
                assert remote.transport_stats().timeouts == expected
            stats = remote.transport_stats()
            # A timeout is not a dropped connection: no retry, no redial.
            assert stats.retries == 0
            assert stats.reconnects == 0
            remote.close()
        finally:
            scripted.close()

    def test_exhausted_retries_count_every_extra_attempt(self):
        def drop_after_request(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            scripted.read_frame(sock)  # swallow the request, hang up

        scripted = _ScriptedServer(
            drop_after_request, drop_after_request, drop_after_request
        )
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=2)
            with pytest.raises(ConnectionLostError):
                remote.retrieve("T")
            stats = remote.transport_stats()
            assert stats.retries == 2  # two extra attempts after the first
            assert stats.reconnects == 2  # each retry dialed a fresh socket
            remote.close()
        finally:
            scripted.close()

    def test_counters_settle_after_recovery(self):
        def drop_after_request(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            scripted.read_frame(sock)

        def serve_properly(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            while True:
                request = scripted.read_frame(sock)
                sock.sendall(
                    protocol.encode_frame(
                        protocol.chunk_message(request["id"], 0, ["A"], [[1]])
                    )
                )
                sock.sendall(
                    protocol.encode_frame(
                        protocol.end_message(request["id"], 1, 1, ["A"])
                    )
                )

        scripted = _ScriptedServer(drop_after_request, serve_properly)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=1)
            assert remote.retrieve("T").rows == ((1,),)
            after_fault = remote.transport_stats()
            assert (after_fault.retries, after_fault.reconnects) == (1, 1)
            # A healthy follow-up request moves requests, not the fault
            # counters.
            assert remote.retrieve("T").rows == ((1,),)
            settled = remote.transport_stats()
            assert (settled.retries, settled.reconnects) == (1, 1)
            assert settled.timeouts == 0
            assert settled.requests == after_fault.requests + 1
            remote.close()
        finally:
            scripted.close()


class TestWireTraceNegotiation:
    """Trace-context propagation: a peer that advertises ``trace``
    receives the context and ships spans back; a v1 peer never sees it."""

    def test_v1_peer_never_receives_trace_context(self):
        # A v1 peer is refused at its hello, so no request — and no trace
        # context — ever reaches it, even under an ambient span.
        from repro.obs.trace import Tracer, use_span

        scripted = _ScriptedServer(_v1_hello)
        try:
            root = Tracer().start("query")
            with use_span(root):
                with pytest.raises(ProtocolError, match="no common protocol version"):
                    RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            assert scripted.frames_read == []
        finally:
            scripted.close()

    def test_trace_context_sent_and_shipped_spans_adopted(self):
        from repro.obs.trace import Tracer, use_span

        shipped = {
            "name": "serve.retrieve",
            "span": "remote-1",
            "parent": None,  # patched to the propagated id by the script
            "start": 1.0,
            "finish": 2.0,
            "status": "ok",
            "attributes": {"database": "XX"},
        }

        def traced_server(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            context = request["trace"]
            payload = dict(shipped, trace=context["id"], parent=context["span"])
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(
                        request["id"], 0, 0, ["A"], spans=[payload]
                    )
                )
            )
            scripted.read_frame(sock)  # block until the client closes

        scripted = _ScriptedServer(traced_server)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            assert remote.trace_negotiated
            root = Tracer().start("query")
            with use_span(root):
                remote.retrieve("T")
            request = next(
                frame for frame in scripted.frames_read
                if frame.get("op") == "retrieve"
            )
            assert request["trace"] == {
                "id": root.trace_id,
                "span": root.span_id,
            }
            adopted = [span for span in root.trace_spans() if span.remote]
            assert [span.name for span in adopted] == ["serve.retrieve"]
            assert adopted[0].parent_id == root.span_id
            assert adopted[0].trace_id == root.trace_id
            remote.close()
        finally:
            scripted.close()

    def test_no_ambient_span_sends_no_trace_context(self):
        def traced_server(scripted, sock):
            sock.sendall(protocol.encode_frame(protocol.hello_message("XX", ["T"])))
            request = scripted.read_frame(sock)
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(request["id"], 0, 0, ["A"])
                )
            )
            scripted.read_frame(sock)

        scripted = _ScriptedServer(traced_server)
        try:
            remote = RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0)
            remote.retrieve("T")
            request = next(
                frame for frame in scripted.frames_read
                if frame.get("op") == "retrieve"
            )
            assert "trace" not in request
            remote.close()
        finally:
            scripted.close()


# -- the columnar hand-off ----------------------------------------------------

MIXED_ROWS = [
    (1, None, "x", True),
    (2, 2.5, None, False),
    (3, 7, "y", None),
    (4, True, "", 0),
    (5, -1, "x", 1.0),
]


def _mixed_lqp(rows=MIXED_ROWS) -> RelationalLQP:
    from repro.relational.database import LocalDatabase
    from repro.relational.schema import RelationSchema

    database = LocalDatabase("XD")
    database.load(RelationSchema("T", ["K", "A", "B", "C"], key=["K"]), rows)
    return RelationalLQP(database)


def _mixed_scheme():
    from repro.catalog.mapping import AttributeMapping
    from repro.catalog.scheme import PolygenScheme

    return PolygenScheme(
        "PT",
        {
            polygen: [AttributeMapping("XD", "T", local)]
            for polygen, local in (("PK", "K"), ("PA", "A"), ("PB", "B"), ("PC", "C"))
        },
        primary_key=["PK"],
    )


def _chunk_frame(wire_format, request_id, seq, attributes, columns, count):
    """One chunk frame as a server of either format would send it."""
    from repro.net import binary

    if wire_format == "binary":
        return protocol.frame_raw(
            binary.encode_chunk_payload(request_id, seq, attributes, columns, count)
        )
    rows = [list(row) for row in zip(*columns)] if columns else [[] for _ in range(count)]
    return protocol.encode_frame(
        protocol.chunk_message(request_id, seq, attributes, rows)
    )


def _one_chunk_server(wire_format, attributes, columns, count):
    """A peer answering every request with one scripted chunk, then end."""

    def script(scripted, sock):
        sock.sendall(protocol.encode_frame(protocol.hello_message("XD", ["T"])))
        while True:
            request = scripted.read_frame(sock)
            sock.sendall(
                _chunk_frame(wire_format, request["id"], 0, attributes, columns, count)
            )
            sock.sendall(
                protocol.encode_frame(
                    protocol.end_message(request["id"], 1, count, attributes)
                )
            )

    return _ScriptedServer(script)


WIRE_FORMATS = ("json", "binary")


class TestColumnarHandOff:
    """What the two wire formats decode into is one thing: the same
    ``Relation``, materializing to the same polygen relation."""

    def _both(self, server, verb):
        shipped = {}
        for wire_format in WIRE_FORMATS:
            with RemoteLQP(server.url, timeout=TIMEOUT, wire_format=wire_format) as remote:
                shipped[wire_format] = verb(remote)
        return shipped["json"], shipped["binary"]

    def _assert_materialize_equal(self, *relations):
        from repro.lqp.tagging import materialize

        first, *rest = [
            materialize(relation, "XD", _mixed_scheme(), consulted=["AD"])
            for relation in relations
        ]
        for other in rest:
            assert other == first
            assert other.tuples == first.tuples

    def test_mixed_columns_decode_and_materialize_equal(self):
        lqp = _mixed_lqp()
        with LQPServer(lqp, chunk_size=2) as server:
            by_json, by_binary = self._both(server, lambda r: r.retrieve("T"))
        local = lqp.retrieve("T")
        assert by_json == by_binary == local
        assert by_json.rows == by_binary.rows == local.rows
        # bool/int/float keep their types through both codecs.
        assert [
            [type(value) for value in column] for column in by_binary.columns
        ] == [[type(value) for value in column] for column in local.columns]
        self._assert_materialize_equal(local, by_json, by_binary)

    def test_nan_survives_both_codecs_in_place(self):
        import math

        rows = [(1, float("nan"), "x", None), (2, 1.0, None, float("nan"))]
        with LQPServer(_mixed_lqp(rows), chunk_size=1) as server:
            by_json, by_binary = self._both(server, lambda r: r.retrieve("T"))

        def canonical(relation):
            return [
                tuple(
                    "NaN" if isinstance(v, float) and math.isnan(v) else v for v in row
                )
                for row in relation.rows
            ]

        assert canonical(by_json) == canonical(by_binary) == [
            (1, "NaN", "x", None),
            (2, 1.0, None, "NaN"),
        ]

    def test_empty_result_takes_its_heading_from_the_end_frame(self):
        lqp = _mixed_lqp()
        with LQPServer(lqp, chunk_size=2) as server:
            by_json, by_binary = self._both(
                server, lambda r: r.select("T", "K", Theta.EQ, 99)
            )

            def drained(remote):
                stream = remote.select_chunks("T", "K", Theta.EQ, 99)
                return list(stream), stream

            streams = self._both(server, drained)
        assert by_json == by_binary == lqp.select("T", "K", Theta.EQ, 99)
        assert by_json.attributes == by_binary.attributes == ("K", "A", "B", "C")
        assert by_json.cardinality == by_binary.cardinality == 0
        for chunks, stream in streams:
            assert chunks == [] and stream.attributes == ("K", "A", "B", "C")
        self._assert_materialize_equal(by_json, by_binary)

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_zero_row_chunk(self, wire_format):
        scripted = _one_chunk_server(wire_format, ["K", "A", "B", "C"], [[], [], [], []], 0)
        try:
            with RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0) as remote:
                relation = remote.retrieve("T")
                (chunk,) = list(remote.retrieve_chunks("T"))
                stats = remote.transport_stats()
            assert relation == chunk.relation() == _mixed_lqp([]).retrieve("T")
            assert chunk.count == 0 and chunk.columns == [[], [], [], []]
            assert (stats.chunks, stats.tuples) == (2, 0)
            self._assert_materialize_equal(relation, chunk.relation())
        finally:
            scripted.close()

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_zero_column_chunk_is_counted_from_the_frame(self, wire_format):
        # A relation has at least one attribute, so a zero-column chunk can
        # never become one — but its tuples were shipped, and the transport
        # counts them off the frame without needing a row to exist.
        from repro.errors import HeadingError

        scripted = _one_chunk_server(wire_format, [], [], 3)
        try:
            with RemoteLQP(scripted.url, timeout=TIMEOUT, retries=0) as remote:
                accounted = AccountingLQP(remote)
                (chunk,) = list(accounted.retrieve_chunks("T"))
                assert (chunk.count, chunk.columns, chunk.attributes) == (3, [], ())
                with pytest.raises(HeadingError):
                    chunk.relation()
                with pytest.raises(HeadingError):
                    remote.retrieve("T")
                stats = remote.transport_stats()
            assert (stats.chunks, stats.tuples) == (2, 6)
            assert stats.binary_chunks == (2 if wire_format == "binary" else 0)
            assert accounted.stats.tuples_shipped == 3
        finally:
            scripted.close()

    def test_zero_column_projection_is_refused_at_the_source(self, server):
        for wire_format in WIRE_FORMATS:
            with RemoteLQP(server.url, timeout=TIMEOUT, wire_format=wire_format) as remote:
                with pytest.raises(RemoteQueryError, match="HeadingError"):
                    remote.retrieve("ALUMNUS", columns=[])
                with pytest.raises(RemoteQueryError, match="HeadingError"):
                    list(remote.retrieve_chunks("ALUMNUS", columns=[]))
                assert remote.transport_stats().tuples == 0

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_streamed_tuples_are_counted_from_the_frames(self, server, wire_format):
        # Regression: the transport built (and threw away) a row view of
        # every streamed chunk to count it; the counts come off the frames
        # now and must not have moved.
        with RemoteLQP(server.url, timeout=TIMEOUT, wire_format=wire_format) as remote:
            accounted = AccountingLQP(remote)
            chunks = list(accounted.retrieve_chunks("ALUMNUS"))
            accounted.retrieve("ALUMNUS")
            stats = remote.transport_stats()
        assert [chunk.count for chunk in chunks] == [3, 3, 2]
        assert (stats.requests, stats.chunks, stats.tuples) == (2, 6, 16)
        assert stats.binary_chunks == (6 if wire_format == "binary" else 0)
        assert accounted.stats.tuples_shipped == 16
        assert accounted.stats.retrieves == 2

    @pytest.mark.parametrize("wire_format", WIRE_FORMATS)
    def test_stream_abandoned_mid_way_leaves_the_connection_usable(
        self, server, wire_format
    ):
        reference = ad_lqp().retrieve("ALUMNUS")
        with RemoteLQP(server.url, timeout=TIMEOUT, wire_format=wire_format) as remote:
            accounted = AccountingLQP(remote)
            for chunk in accounted.retrieve_chunks("ALUMNUS"):
                first = chunk.relation()
                break
            assert first.rows == reference.rows[:3]
            assert accounted.stats.tuples_shipped == 3
            # Frames of the abandoned stream still in flight belong to a
            # request id nobody waits on; the next request is unaffected.
            assert remote.retrieve("ALUMNUS") == reference
            again = [c.relation() for c in remote.retrieve_chunks("ALUMNUS")]
        assert [row for part in again for row in part.rows] == list(reference.rows)
