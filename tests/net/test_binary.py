"""Unit tests for the v3 binary columnar chunk codec."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            [1, -2, 30000000000, 0],                # ints (an 8-byte vector)
            [1.5, -2.25, 0.0, 3.75],                # doubles
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
        assert header == (0xB2, 3, 1, 0, 7, 3, 2, 2)

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


# -- the v3 vector layout ------------------------------------------------------

#: Header (22 bytes) plus a one-column name table for attribute "A".
BODY = struct.calcsize("<BBBBQIIH") + 2 + 1


def one_payload(values):
    """The payload of a single column named ``A``."""
    return binary.encode_chunk_payload(1, 0, ["A"], [values], len(values))


def one_column(values):
    """The encoded bytes of a single column named ``A``."""
    return one_payload(values)[BODY:]


class TestVectorLayout:
    def test_dense_column_carries_no_bitmap(self):
        # validity 1 (dense), INT tag 2, width 1, three one-byte ints.
        assert one_column([1, -2, 3]) == bytes([1, 2, 1, 1, 0xFE, 3])

    def test_sparse_column_carries_one_bitmap(self):
        # validity 2, bitmap 0b101, then the two present values only.
        assert one_column([5, None, 6]) == bytes([2, 0b101, 2, 1, 5, 6])

    def test_all_nil_column_is_one_byte(self):
        assert one_column([None] * 300) == bytes([0])

    @pytest.mark.parametrize(
        "values, width",
        [
            ([0, 127, -128], 1),
            ([128], 2),
            ([-(2**15) - 1], 4),
            ([2**31], 8),
            ([-(2**63), 2**63 - 1], 8),
        ],
    )
    def test_int_width_is_the_narrowest_holding_min_and_max(self, values, width):
        encoded = one_column(values)
        assert encoded[1] == 2 and encoded[2] == width
        assert len(encoded) == 3 + width * len(values)
        assert roundtrip([values])["columns"] == [values]

    @pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 10**40, -(10**40)])
    def test_ints_beyond_int64_take_the_bigint_tag(self, big):
        values = [1, big, -3]
        assert one_column(values)[1] == 8
        assert roundtrip([values])["columns"] == [values]

    def test_integral_floats_ship_as_ints_and_come_back_as_floats(self):
        values = [3.0, -7.0, 100.0]
        encoded = one_column(values)
        assert encoded[1] == 4 and encoded[2] == 1  # FLOATC, width 1
        (decoded,) = roundtrip([values])["columns"]
        assert decoded == values and all(type(v) is float for v in decoded)

    def test_negative_zero_is_not_compacted(self):
        (decoded,) = roundtrip([[1.0, -0.0]])["columns"]
        assert math.copysign(1.0, decoded[1]) == -1.0

    def test_strings_are_lengths_then_one_blob(self):
        # A value holds U+001F, so the vector cannot be split on it: STR
        # tag 5, one-byte lengths 3 and 1, then "a\x1fb" + "c".
        values = ["a\x1fb", "c"]
        assert one_column(values) == bytes([1, 5, 1, 3, 1]) + b"a\x1fbc"
        assert roundtrip([values])["columns"] == [values]

    def test_strings_without_the_separator_are_one_split_blob(self):
        # STR tag 5, width byte 0, u32 byte length 4, then "ab" US "c".
        assert one_column(["ab", "c"]) == bytes([1, 5, 0, 4, 0, 0, 0]) + b"ab\x1fc"

    def test_empty_strings_split_back_in_place(self):
        values = ["", "a", "", "b"]
        assert one_column(values)[2] == 0
        assert roundtrip([values])["columns"] == [values]

    def test_a_blob_splitting_into_the_wrong_count_is_refused(self):
        payload = bytearray(one_payload(["ab", "c"]))
        payload[-2] = ord("x")  # "ab" US "c" becomes one value, "abxc"
        with pytest.raises(ProtocolError, match="splits into 1 values, not 2"):
            binary.decode_chunk_payload(bytes(payload))

    def test_a_blob_running_past_the_payload_is_refused(self):
        payload = bytearray(one_payload(["ab", "c"]))
        payload[BODY + 3 : BODY + 7] = struct.pack("<I", 5)
        with pytest.raises(ProtocolError, match="string blob runs past the payload"):
            binary.decode_chunk_payload(bytes(payload))

    def test_non_ascii_and_surrogate_strings_survive(self):
        values = ["é", "", "\x00", "日本", "\ud800", "x" * 300]
        assert roundtrip([values])["columns"] == [values]

    def test_dictionary_indexes_out_of_range_are_refused(self):
        payload = bytearray(
            binary.encode_chunk_payload(1, 0, ["A"], [["p", "q", "p", "p"]], 4)
        )
        # validity, STRDICT tag, u32 entry count 2, then the entries'
        # string vector (width 0, u32 byte length 3, "p" US "q"), then the
        # indexes (width 1).
        assert payload[BODY + 1] == 6
        index = BODY + 2 + 4 + 1 + 4 + 3 + 1
        assert list(payload[index:]) == [0, 1, 0, 0]
        payload[index + 2] = 2
        with pytest.raises(ProtocolError, match="dictionary index 2"):
            binary.decode_chunk_payload(bytes(payload))

    @pytest.mark.parametrize(
        "offset, byte, message",
        [
            (0, 3, "validity byte 3"),
            (1, 42, "column type 42"),
            (2, 3, "width byte 3"),
        ],
    )
    def test_unknown_layout_bytes_are_refused(self, offset, byte, message):
        payload = bytearray(binary.encode_chunk_payload(1, 0, ["A"], [[1, 2]], 2))
        payload[BODY + offset] = byte
        with pytest.raises(ProtocolError, match=message):
            binary.decode_chunk_payload(bytes(payload))

    def test_bitmap_bits_past_the_last_row_are_refused(self):
        payload = bytearray(binary.encode_chunk_payload(1, 0, ["A"], [[1, None, 2]], 3))
        payload[BODY + 1] |= 0x80
        with pytest.raises(ProtocolError, match="past its last row"):
            binary.decode_chunk_payload(bytes(payload))

    def test_a_v2_frame_is_refused_naming_both_versions(self):
        payload = bytearray(binary.encode_chunk_payload(1, 0, ["A"], [[1]], 1))
        payload[1] = 2
        with pytest.raises(ProtocolError, match="version 2; this peer speaks 3"):
            binary.decode_chunk_payload(bytes(payload))

    def test_unrepresentable_values_are_refused_before_transmission(self):
        with pytest.raises(ProtocolError, match="not wire-representable"):
            binary.encode_chunk_payload(1, 0, ["A"], [[1, (2, 3)]], 2)

    def test_scalar_subclasses_take_their_base_vector(self):
        class Tag(str):
            pass

        class Count(int):
            pass

        message = roundtrip([[Tag("a"), "b"], [Count(4), 5]])
        assert message["columns"] == [["a", "b"], [4, 5]]


# -- properties -----------------------------------------------------------------


def same_value(left, right):
    """Equal in value *and* type: ``True`` is not ``1``, ``1.0`` is not
    ``1``, ``-0.0`` is not ``0.0``, and NaN matches NaN."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left):
            return math.isnan(right)
        return left == right and math.copysign(1.0, left) == math.copysign(1.0, right)
    return left == right


INTS = st.one_of(
    st.integers(-128, 127),
    st.integers(-(2**40), 2**40),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 2.0**53, 2.0**53 + 2, -(2.0**60)]
    ),
)
TEXTS = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=127)),
    st.sampled_from(["", "\x00", "é", "\x1f", "a\x1fb"]),
)
SCALARS = st.one_of(INTS, st.booleans(), FLOATS, TEXTS)


@st.composite
def value_columns(draw, count):
    kind = draw(st.sampled_from(["int", "bool", "float", "text", "dict", "mixed"]))
    if kind == "dict":
        # Dictionary-heavy: a handful of distinct strings, repeated.
        values = st.sampled_from(draw(st.lists(TEXTS, min_size=1, max_size=4)))
    else:
        values = {
            "int": INTS, "bool": st.booleans(), "float": FLOATS,
            "text": TEXTS, "mixed": SCALARS,
        }[kind]
    if draw(st.booleans()):
        values = st.one_of(st.none(), values)
    return draw(st.lists(values, min_size=count, max_size=count))


@st.composite
def chunks(draw):
    count = draw(st.one_of(st.integers(0, 20), st.integers(0, 300)))
    ncols = draw(st.integers(0, 4))
    return count, [draw(value_columns(count)) for _ in range(ncols)]


class TestCodecProperties:
    @settings(max_examples=100, deadline=None)
    @given(chunks())
    def test_round_trip_keeps_every_value_and_type(self, chunk):
        count, columns = chunk
        message = roundtrip(columns, count=count)
        assert message["count"] == count
        assert len(message["columns"]) == len(columns)
        for decoded, sent in zip(message["columns"], columns):
            assert len(decoded) == count
            assert all(map(same_value, decoded, sent)), (decoded, sent)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.data())
    def test_nil_patterns_round_trip_across_byte_boundaries(self, count, data):
        live = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
        values = [i if flag else None for i, flag in enumerate(live)]
        assert roundtrip([values], count=count)["columns"] == [values]


# -- malformed input ------------------------------------------------------------


#: One payload holding every column type, dense and sparse.
EVERY_TYPE = [
    [True, False, None, True],                 # BOOL, sparse
    [1, -2, 300, 4],                           # INT, dense
    [2**70, None, -1, 0],                      # BIGINT, sparse
    [1.5, math.nan, -0.0, math.inf],           # FLOAT8
    [1.0, 2.0, None, -3.0],                    # FLOATC, sparse
    ["ab", "", "\x00", "xyz"],                 # STR, ASCII, split form
    ["é", "日本", None, "ö"],                   # STR, non-ASCII, split form
    ["a\x1fb", "", None, "é"],                 # STR, lengths form
    ["k", "k", "k", "m"],                      # STRDICT
    ["s", 1, 2.5, True],                       # MIXED
    [None, None, None, None],                  # all nil
]


def every_type_payload():
    attributes = [f"C{i}" for i in range(len(EVERY_TYPE))]
    return binary.encode_chunk_payload(9, 1, attributes, EVERY_TYPE, 4)


def decodes_or_refuses(payload):
    try:
        binary.decode_chunk_payload(payload)
    except ProtocolError:
        pass


class TestMalformedInput:
    def test_every_truncation_is_refused_with_protocol_error(self):
        payload = every_type_payload()
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                binary.decode_chunk_payload(payload[:cut])

    def test_single_byte_corruptions_decode_or_raise_protocol_error(self):
        payload = every_type_payload()
        for position in range(len(payload)):
            original = payload[position]
            for byte in {0x00, 0xFF, original ^ 0x01, original ^ 0x80} - {original}:
                corrupt = payload[:position] + bytes([byte]) + payload[position + 1:]
                decodes_or_refuses(corrupt)

    def test_a_bad_attribute_name_is_a_protocol_error(self):
        payload = bytearray(binary.encode_chunk_payload(1, 0, ["A"], [[1]], 1))
        payload[BODY - 1] = 0xFF  # not UTF-8
        with pytest.raises(ProtocolError):
            binary.decode_chunk_payload(bytes(payload))
