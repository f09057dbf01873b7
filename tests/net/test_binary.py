"""Unit tests for the v2 binary columnar chunk codec."""

import math

import pytest

from repro.core.heading import Heading
from repro.errors import ProtocolError
from repro.net import binary
from repro.storage.columnar import ColumnarRelation
from repro.storage.tag_pool import TagPool


def roundtrip(columns, attributes=None, count=None, **kwargs):
    attributes = attributes or [f"C{i}" for i in range(len(columns))]
    count = count if count is not None else (len(columns[0]) if columns else 0)
    payload = binary.encode_chunk_payload(7, 3, attributes, columns, count, **kwargs)
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


def tagged_store(pool):
    data = [("ann", 1), ("bob", 2), ("cal", None), ("ann", 4)]
    a = pool.intern(frozenset({"AD"}), frozenset())
    b = pool.intern(frozenset({"AD"}), frozenset({"PD"}))
    nil = pool.intern(frozenset(), frozenset({"PD"}))
    tags = [(a, a), (a, b), (b, nil), (b, a)]
    return ColumnarRelation.from_row_major(Heading(("N", "K")), data, tags, pool)


class TestTaggedStoreStreams:
    def test_store_round_trip_with_tags(self):
        sender, receiver = TagPool(), TagPool()
        store = tagged_store(sender)
        payloads = list(binary.store_chunk_payloads(store, 2))
        assert len(payloads) == 2
        back = binary.store_from_chunk_payloads(payloads, pool=receiver)
        assert list(back.data_rows()) == list(store.data_rows())
        # Tags are pool-translated, so compare the pairs they intern.
        for ours, theirs in zip(back.tag_rows(), store.tag_rows()):
            for mine, original in zip(ours, theirs):
                assert receiver.pair(mine) == sender.pair(original)

    def test_delta_split_across_chunk_boundaries(self):
        # chunk_size=1: each new tag pair must be described exactly in the
        # first chunk that uses it and referenced by bare id afterwards.
        sender = TagPool()
        store = tagged_store(sender)
        messages = [
            binary.decode_chunk_payload(p)
            for p in binary.store_chunk_payloads(store, 1)
        ]
        assert len(messages) == 4
        described = [
            {tag_id for tag_id, _, _ in (m["tag_delta"] or ())} for m in messages
        ]
        seen = set()
        for m, ids in zip(messages, described):
            used = {t for column in m["tag_columns"] for t in column}
            assert used <= seen | ids  # never referenced before described
            assert not (ids & seen)  # never re-described
            seen |= ids

    def test_empty_store_ships_one_heading_chunk(self):
        pool = TagPool()
        store = ColumnarRelation.empty(Heading(("A", "B")), pool)
        payloads = list(binary.store_chunk_payloads(store, 10))
        assert len(payloads) == 1
        back = binary.store_from_chunk_payloads(payloads, pool=TagPool())
        assert back.cardinality == 0
        assert back.heading.attributes == ("A", "B")

    def test_missing_tag_section_refused(self):
        payload = binary.encode_chunk_payload(1, 0, ["A"], [[1]], 1)
        with pytest.raises(ProtocolError, match="tag section"):
            binary.store_from_chunk_payloads([payload], pool=TagPool())


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
