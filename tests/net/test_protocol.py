"""Unit tests of the wire protocol: framing, messages, payloads, URLs."""

import dataclasses
import io
import functools
import json
import socket
import struct
import threading

import pytest

from repro.errors import ProtocolError
from repro.lqp.base import Capabilities
from repro.net import protocol
from repro.relational.relation import Relation


def read_from_bytes(data: bytes):
    stream = io.BytesIO(data)

    def read_exactly(count: int) -> bytes:
        piece = stream.read(count)
        assert len(piece) == count, "truncated frame"
        return piece

    return protocol.read_frame(read_exactly)


class TestFraming:
    def test_round_trip(self):
        message = {"id": 3, "op": "retrieve", "relation": "ALUMNUS"}
        assert read_from_bytes(protocol.encode_frame(message)) == message

    def test_length_prefix_is_big_endian_payload_size(self):
        frame = protocol.encode_frame({"a": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert json.loads(frame[4:]) == {"a": 1}

    def test_oversized_incoming_frame_refused_before_reading(self):
        bogus = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)

        def read_exactly(count: int) -> bytes:
            if count == 4:
                return bogus
            raise AssertionError("payload must not be read")

        with pytest.raises(ProtocolError, match="refusing"):
            protocol.read_frame(read_exactly)

    def test_garbage_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_payload(b"\xff\xfe not json")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_payload(b"[1, 2, 3]")

    def test_unserializable_message_rejected(self):
        with pytest.raises(ProtocolError, match="not JSON-serializable"):
            protocol.encode_frame({"value": object()})


class TestRecvExactly:
    def test_fills_one_buffer_across_partial_sends(self):
        left, right = socket.socketpair()
        with left, right:
            frame = protocol.encode_frame({"id": 1, "op": "ping"})

            def send_in_pieces():
                for start in range(0, len(frame), 3):
                    right.sendall(frame[start : start + 3])

            sender = threading.Thread(target=send_in_pieces)
            sender.start()
            left.settimeout(5.0)
            message = protocol.read_frame(functools.partial(protocol.recv_exactly, left))
            sender.join(timeout=5.0)
        assert message == {"id": 1, "op": "ping"}

    def test_peer_hanging_up_mid_read_raises_connection_error(self):
        left, right = socket.socketpair()
        with left:
            left.settimeout(5.0)
            right.sendall(b"abc")
            right.close()
            with pytest.raises(ConnectionError, match="hung up"):
                protocol.recv_exactly(left, 4)


class TestHello:
    def test_valid_hello_passes(self):
        hello = protocol.hello_message("AD", ["ALUMNUS", "CAREER"])
        assert protocol.check_hello(hello, "server") is hello

    def test_newer_peer_negotiates_down(self):
        # A future server speaking 1..N+1 still overlaps our range: the
        # connection runs at our version, not a refusal.
        hello = protocol.hello_message("AD", [])
        hello["protocol"] = protocol.PROTOCOL_VERSION + 1
        assert protocol.check_hello(hello, "server") is hello
        assert protocol.negotiate_version(hello) == protocol.PROTOCOL_VERSION

    def test_version_mismatch_refused(self):
        # No overlap: the peer's floor is above everything we speak.
        hello = protocol.hello_message("AD", [])
        hello["protocol"] = protocol.PROTOCOL_VERSION + 7
        hello["min_protocol"] = protocol.PROTOCOL_VERSION + 7
        with pytest.raises(ProtocolError, match="no common protocol version"):
            protocol.check_hello(hello, "server")
        # No overlap either: a v3 peer tops out below our only version.
        hello = protocol.hello_message("AD", [])
        hello["protocol"] = 3
        hello["min_protocol"] = 1
        with pytest.raises(ProtocolError, match="no common protocol version"):
            protocol.check_hello(hello, "server")

    def test_current_hello_supports_binary(self):
        hello = protocol.hello_message("AD", [])
        assert protocol.negotiate_version(hello) == protocol.PROTOCOL_VERSION
        assert protocol.supports_binary(hello)

    def test_non_hello_frame_refused(self):
        with pytest.raises(ProtocolError, match="hello"):
            protocol.check_hello({"kind": "chunk"}, "server")

    def test_missing_database_refused(self):
        hello = protocol.hello_message("AD", [])
        hello["database"] = ""
        with pytest.raises(ProtocolError, match="database"):
            protocol.check_hello(hello, "server")


class TestValues:
    @pytest.mark.parametrize("value", ["x", 3, 2.5, True, None])
    def test_wire_scalars_pass(self, value):
        assert protocol.wire_value(value) == value

    @pytest.mark.parametrize("value", [object(), (1,), [1], {"a": 1}, b"x"])
    def test_non_scalars_refused(self, value):
        with pytest.raises(ProtocolError, match="not wire-representable"):
            protocol.wire_value(value)


def _decoded_chunks(relation, chunk_size=protocol.DEFAULT_CHUNK_TUPLES):
    """``relation`` through the JSON v1 chunk codec: the decoded messages."""
    return [
        protocol.decode_payload(
            protocol.encode_frame(
                protocol.chunk_message(1, seq, relation.attributes, rows)
            )[4:]
        )
        for seq, rows in enumerate(protocol.relation_chunks(relation, chunk_size))
    ]


def _concatenated(messages):
    return [
        [value for message in messages for value in message["columns"][position]]
        for position in range(len(messages[0]["columns"]))
    ]


class TestRelationPayloads:
    def test_chunked_round_trip(self):
        relation = Relation(
            ["A", "B"], [(i, f"row-{i}") for i in range(10)]
        )
        messages = _decoded_chunks(relation, chunk_size=3)
        assert [message["count"] for message in messages] == [3, 3, 3, 1]
        assert all("rows" not in message for message in messages)
        rebuilt = protocol.relation_from_wire(
            list(relation.attributes), _concatenated(messages)
        )
        assert rebuilt == relation

    def test_empty_relation_ships_no_chunks(self):
        relation = Relation(["A"], [])
        assert list(protocol.relation_chunks(relation)) == []
        # ... and reconstructs via the end-frame heading.
        rebuilt = protocol.relation_from_wire(["A"], None)
        assert rebuilt == relation

    def test_no_heading_anywhere_is_an_error(self):
        with pytest.raises(ProtocolError, match="heading"):
            protocol.relation_from_wire(None, None)

    def test_json_chunk_decodes_columnar(self):
        frame = protocol.encode_frame(
            protocol.chunk_message(1, 0, ["A", "B"], [[1, "x"], [2, None]])
        )
        message = protocol.decode_payload(frame[4:])
        assert message["columns"] == [[1, 2], ["x", None]]
        assert message["count"] == 2
        assert not message.get("binary")

    def test_zero_row_json_chunk_keeps_its_degree(self):
        frame = protocol.encode_frame(protocol.chunk_message(1, 0, ["A", "B"], []))
        message = protocol.decode_payload(frame[4:])
        assert message["columns"] == [[], []] and message["count"] == 0

    @pytest.mark.parametrize(
        "rows", [[[1, 2], [3]], [[1, 2, 3]], [1, 2], "garbage"]
    )
    def test_malformed_json_chunk_refused(self, rows):
        frame = protocol.encode_frame(protocol.chunk_message(1, 0, ["A", "B"], rows))
        with pytest.raises(ProtocolError, match="chunk"):
            protocol.decode_payload(frame[4:])

    def test_end_message_carries_heading(self):
        end = protocol.end_message(7, 0, 0, ["A", "B"])
        assert end["attributes"] == ["A", "B"]

    def test_nil_survives_the_wire(self):
        relation = Relation(["A", "B"], [(1, None), (None, "x")])
        rebuilt = protocol.relation_from_wire(
            list(relation.attributes), _concatenated(_decoded_chunks(relation))
        )
        assert rebuilt == relation

    def test_json_nan_rows_stay_distinct(self):
        # NaN never equals NaN, so a relation keeps both rows; the JSON
        # decoder must not fold them into one by sharing a NaN object.
        relation = Relation(["A", "B"], [(float("nan"), 0), (float("nan"), 0)])
        messages = _decoded_chunks(relation, chunk_size=2)
        column = messages[0]["columns"][0]
        assert column[0] is not column[1]
        rebuilt = protocol.relation_from_wire(
            list(relation.attributes), _concatenated(messages)
        )
        assert len(rebuilt.rows) == 2

    def test_bad_chunk_size_refused(self):
        with pytest.raises(ProtocolError, match="chunk_size"):
            list(protocol.relation_chunks(Relation(["A"], [(1,)]), chunk_size=0))


#: The capability flags a peer may send, each checked on its own.
FLAGS = [field.name for field in dataclasses.fields(Capabilities)]


class TestCapabilityPayloads:
    def test_round_trip(self):
        original = Capabilities(
            native_select=False, native_projection=True, signals_writes=False
        )
        payload = protocol.capabilities_payload(original)
        protocol.encode_frame({"value": payload})
        assert protocol.capabilities_from_payload(payload) == original

    def test_missing_flags_default(self):
        assert protocol.capabilities_from_payload({}) == Capabilities()

    def test_old_peer_payload_with_retired_flags_parses(self):
        # A peer built while the scan-sharding pass existed still sends its
        # two flags; unknown keys are dropped, the rest is read as sent.
        payload = {
            "native_select": False,
            "native_range": True,
            "native_projection": False,
            "splittable_scans": True,
            "signals_writes": False,
        }
        assert protocol.capabilities_from_payload(payload) == Capabilities(
            native_select=False, native_projection=False, signals_writes=False
        )

    @pytest.mark.parametrize("field", FLAGS)
    @pytest.mark.parametrize("value", [True, False])
    def test_each_flag_is_read_as_sent(self, field, value):
        # One flag per payload: the decoder may not read a flag from, or
        # default it by, any of its neighbours.
        expected = dataclasses.replace(Capabilities(), **{field: value})
        assert protocol.capabilities_from_payload({field: value}) == expected

    @pytest.mark.parametrize("field", FLAGS)
    @pytest.mark.parametrize(
        "flag", ["false", 0, None, []], ids=["text", "int", "nil", "list"]
    )
    def test_non_boolean_flag_raises_only_protocol_error(self, field, flag):
        # bool("false") is True: coercing would read a source that said it
        # cannot signal writes as one that can, and skip the cache's TTL.
        payload = dict(protocol.capabilities_payload(Capabilities()), **{field: flag})
        with pytest.raises(ProtocolError, match=field):
            protocol.capabilities_from_payload(payload)

    @pytest.mark.parametrize("bad", [[1], "capabilities", None])
    def test_malformed_payload_refused(self, bad):
        with pytest.raises(ProtocolError):
            protocol.capabilities_from_payload(bad)


class TestUrls:
    def test_round_trip(self):
        assert protocol.parse_url("polygen://example.org:9470") == (
            "example.org",
            9470,
        )
        assert protocol.format_url("example.org", 9470) == "polygen://example.org:9470"

    def test_ipv6_round_trip(self):
        url = protocol.format_url("::1", 9470)
        assert url == "polygen://[::1]:9470"
        assert protocol.parse_url(url) == ("::1", 9470)

    @pytest.mark.parametrize(
        "bad",
        [
            "http://example.org:9470",
            "polygen://example.org",
            "polygen://:9470",
            "polygen://example.org:port",
            "polygen://example.org:0",
            "polygen://example.org:70000",
        ],
    )
    def test_bad_urls_refused(self, bad):
        with pytest.raises(ProtocolError):
            protocol.parse_url(bad)
