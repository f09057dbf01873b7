"""Unit tests for the v2 binary columnar chunk codec."""

import math

import pytest

import struct

from repro.errors import ProtocolError
from repro.net import binary


def roundtrip(columns, attributes=None, count=None):
    attributes = attributes or [f"C{i}" for i in range(len(columns))]
    count = count if count is not None else (len(columns[0]) if columns else 0)
    payload = binary.encode_chunk_payload(7, 3, attributes, columns, count)
    return binary.decode_chunk_payload(payload)


class TestColumnRoundTrips:
    def test_typed_vectors_survive(self):
        columns = [
            [1, -2, 30000000000, 0],                # ints (zigzag varint)
            [1.5, -2.25, 0.0, 3.75],                # compact floats
            ["a", "b", "", "a"],                    # strings
            [True, False, True, False],             # bools
            [None, None, None, None],               # all-nil
            ["x", None, 2, 1.5],                    # mixed + validity bitmap
        ]
        message = roundtrip(columns)
        assert message["columns"] == columns
        assert message["count"] == 4
        assert message["id"] == 7 and message["seq"] == 3

    def test_float_nan_and_specials_survive(self):
        values = [math.nan, math.inf, -math.inf, -0.0, 1e308]
        (decoded,) = roundtrip([values])["columns"]
        assert math.isnan(decoded[0])
        assert decoded[1:] == values[1:]
        assert math.copysign(1.0, decoded[3]) == -1.0

    def test_dictionary_encoded_strings(self):
        # Heavy repetition triggers the dictionary encoding; the payload
        # must be smaller than naive per-value strings and decode equal.
        values = ["alpha", "beta"] * 500
        payload = binary.encode_chunk_payload(1, 0, ["S"], [values], len(values))
        naive = sum(len(v) + 1 for v in values)
        assert len(payload) < naive
        assert binary.decode_chunk_payload(payload)["columns"] == [values]

    def test_empty_heading_chunk(self):
        message = roundtrip([], attributes=[], count=3)
        assert message["columns"] == []
        assert message["count"] == 3

    def test_zero_row_chunk(self):
        message = roundtrip([[], []], attributes=["A", "B"], count=0)
        assert message["columns"] == [[], []]
        assert message["count"] == 0


class TestFrameValidation:
    def test_bad_magic_refused(self):
        payload = binary.encode_chunk_payload(1, 0, ["A"], [[1]], 1)
        with pytest.raises(ProtocolError, match="opens with byte"):
            binary.decode_chunk_payload(b"\x00" + payload[1:])

    def test_future_encoding_version_refused(self):
        payload = bytearray(binary.encode_chunk_payload(1, 0, ["A"], [[1]], 1))
        payload[1] = 99
        with pytest.raises(ProtocolError, match="version 99"):
            binary.decode_chunk_payload(bytes(payload))

    def test_trailing_garbage_refused(self):
        payload = binary.encode_chunk_payload(1, 0, ["A"], [[1]], 1)
        with pytest.raises(ProtocolError, match="trailing"):
            binary.decode_chunk_payload(payload + b"\x00")

    def test_truncated_header_refused(self):
        with pytest.raises(ProtocolError, match="shorter than its header"):
            binary.decode_chunk_payload(b"\xb2")

    def test_ragged_columns_refused(self):
        with pytest.raises(ProtocolError):
            binary.encode_chunk_payload(1, 0, ["A", "B"], [[1]], 1)

    def test_header_layout(self):
        # magic, version, kind, flags, request id, seq, rows, columns.
        payload = binary.encode_chunk_payload(7, 3, ["A", "B"], [[1, 2], [3, 4]], 2)
        header = struct.unpack_from("<BBBBQIIH", payload)
        assert header == (0xB2, 2, 1, 0, 7, 3, 2, 2)

    @pytest.mark.parametrize("flags", [0x01, 0x80])
    def test_reserved_flags_refused(self, flags):
        # Bit 0 once announced a tag section; no flag is defined now, so a
        # set bit is refused rather than misread as column data.
        payload = bytearray(binary.encode_chunk_payload(1, 0, ["A"], [[1]], 1))
        payload[3] = flags
        with pytest.raises(ProtocolError, match=f"flags byte {flags:#04x}"):
            binary.decode_chunk_payload(bytes(payload))


class TestRelationChunkPayloads:
    def test_slicing_matches_json_chunking(self):
        from repro.relational.relation import Relation

        relation = Relation(("A", "B"), [(i, str(i)) for i in range(7)])
        chunks = list(binary.relation_chunk_payloads(5, relation, 3))
        assert [count for _, count in chunks] == [3, 3, 1]
        rows = []
        for payload, _ in chunks:
            rows.extend(zip(*binary.decode_chunk_payload(payload)["columns"]))
        assert rows == list(relation.rows)

    def test_empty_relation_ships_no_chunks(self):
        from repro.relational.relation import Relation

        relation = Relation(("A",), [])
        assert list(binary.relation_chunk_payloads(1, relation, 3)) == []
