"""Wire protocol v3: binary columnar chunk frames.

JSON v1 re-encodes every chunk as row-major text — attribute lists repeat
per frame, every integer is decimal digits, every string is quoted, and a
``ColumnarRelation`` must be rowified before encoding and re-columnarized
after.  The binary chunk frame ships the storage engine's native layout
instead: per-column typed vectors behind a validity marker.  Chunks are
*untagged*, like every relation an LQP ships: source tags are attached at
the PQP when the data arrives (:mod:`repro.lqp.tagging`), never sent.
Whether a connection uses these frames at all is chosen once, when it is
made (:class:`~repro.net.client.RemoteLQP`'s ``wire_format``).

Only ``chunk`` frames have a binary form.  Control frames (hello, end,
result, error, cancel) stay JSON: they are small, rare, and worth keeping
inspectable.  Both kinds interleave on one connection because framing is
unchanged — a 4-byte length prefix, then a payload whose first byte
discriminates: JSON payloads start with ``{`` (0x7B), binary payloads with
:data:`MAGIC_BYTE` (0xB2).  :func:`repro.net.protocol.decode_payload`
routes on that byte, so readers never need out-of-band state to tell the
two apart.

Version 3 writes every vector whole: fixed-width little-endian ``array``
vectors, one UTF-8 blob per string vector, bitmaps packed and unpacked as
one integer.  Encoding and decoding a column is a handful of C-level
calls, not a Python loop per value (version 2's per-value varints cost
more CPU than JSON's C codec).  Payload layout (all integers
little-endian; *uv* = LEB128 unsigned varint, *zz* = zigzag-mapped signed
varint)::

    u8   magic (0xB2)      u8  version (3)
    u8   kind (1 = chunk)  u8  flags (reserved: must be 0)
    u64  request id        u32 seq
    u32  row count         u16 column count
    per column:  u16 name length, utf-8 name
    per column:  u8 validity, [bitmap], [u8 type tag, value vector]

No flag is defined.  A frame whose flags byte is not 0 is refused with a
:class:`~repro.errors.ProtocolError` naming the byte rather than misread
(bit 0 once announced a tag section, which no server sends).

The validity byte says which rows hold a value:

- ``0`` — none: every row is nil, and nothing more follows;
- ``1`` — dense: every row is non-nil, and no bitmap follows;
- ``2`` — a ``ceil(rows/8)``-byte bitmap follows (bit *i* set = row *i*
  non-nil, least significant bit first).

Then one type tag and the *n* non-nil values, in row order.  An *int
vector* is a width byte *w* ∈ {1, 2, 4, 8} — the narrowest that holds the
vector's minimum and maximum — then *n* little-endian *w*-byte integers
(signed for values, unsigned for lengths and indexes).  A *string
vector* takes one of two forms, told apart by its first byte:

- when no value contains U+001F (the unit separator), width byte ``0``,
  a u32 byte length, then the values joined by U+001F as one UTF-8 blob,
  read back with one decode and one ``split`` (*n* ≥ 1; a blob that
  splits into any other number of values is refused);
- otherwise an unsigned int vector of the *n* UTF-8 byte lengths, then
  the values' UTF-8 bytes concatenated into one blob.

The separator form needed no version bump: an int vector's width is
never ``0``, so a peer that knew only the lengths form refused the byte as
malformed rather than misreading it, and both ends of a connection run
one build.

=====  ==========  ====================================================
tag    name        values
=====  ==========  ====================================================
1      ``BOOL``    a ``ceil(n/8)``-byte bitmap, bit set = ``True``
2      ``INT``     a signed int vector (ints within int64)
3      ``FLOAT8``  *n* IEEE-754 doubles (NaN and infinities round-trip)
4      ``FLOATC``  a signed int vector of integral floats ≤ 2⁵³ (not
                   ``-0.0``), decoded through ``float()`` so the type
                   round-trips
5      ``STR``     a string vector
6      ``STRDICT`` u32 entry count *d*, a string vector of the *d*
                   distinct values in first-appearance order, then an
                   unsigned int vector of *n* indexes into it; chosen
                   when at most half the values are distinct
7      ``MIXED``   per value, a value tag + payload (int: zz, float: a
                   double, str: uv length + utf-8, false/true: nothing) —
                   the fallback for columns mixing scalar kinds
8      ``BIGINT``  *n* zz varints: ints beyond int64 (the value domain is
                   arbitrary-precision)
=====  ==========  ====================================================

The value domain is exactly v1's: JSON scalars and nil (strings may hold
lone surrogates, as JSON's escapes allow).  Anything else is refused with
:class:`~repro.errors.ProtocolError` before transmission, and the decoder
raises nothing but :class:`~repro.errors.ProtocolError` on malformed
input, so a corrupt frame fails its request instead of its connection's
reader.
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import partial
from itertools import accumulate, compress, repeat
from math import copysign
from operator import is_not
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.relational.relation import Relation

__all__ = [
    "MAGIC_BYTE",
    "BINARY_VERSION",
    "encode_chunk_payload",
    "decode_chunk_payload",
    "relation_chunk_payloads",
]

#: First payload byte of every binary frame.  JSON payloads start with
#: ``{`` (0x7B); anything else is rejected by the decoder, so the two
#: encodings cannot be confused.
MAGIC_BYTE = 0xB2

#: Version byte inside binary payloads; matches the protocol version that
#: introduced the layout.
BINARY_VERSION = 3

_KIND_CHUNK = 1

_HEADER = struct.Struct("<BBBBQIIH")
_NAME_LEN = struct.Struct("<H")
_U32 = struct.Struct("<I")

# Validity bytes.
_V_NONE = 0
_V_DENSE = 1
_V_BITMAP = 2

# Column type tags.
_T_BOOL = 1
_T_INT = 2
_T_FLOAT8 = 3
_T_FLOATC = 4
_T_STR = 5
_T_STRDICT = 6
_T_MIXED = 7
_T_BIGINT = 8

# Per-value tags inside a MIXED vector.
_MX_INT = 0
_MX_FLOAT = 1
_MX_STR = 2
_MX_FALSE = 3
_MX_TRUE = 4

_DOUBLE = struct.Struct("<d")

#: Largest magnitude an integral float may have and still be packed as an
#: int losslessly (beyond 2⁵³ ``int(v)`` no longer round-trips through float).
_FLOATC_LIMIT = 2 ** 53

#: Vectors are little-endian on the wire; ``array`` is host-order.
_SWAP = sys.byteorder == "big"


def _typecodes(codes: str) -> Dict[int, str]:
    """Width in bytes → the ``array`` typecode of that width."""
    return {array(code).itemsize: code for code in codes}


_SIGNED = _typecodes("bhilq")
_UNSIGNED = _typecodes("BHILQ")

# 0/1 flag bytes ↔ the ASCII digits ``int(…, 2)`` and ``format(…, "b")`` use.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")

#: A string vector's width byte for the separator form (an int vector's
#: width is never 0), and the separator: U+001F, the unit separator.
_W_SPLIT = 0
_SEPARATOR = "\x1f"

#: Exact builtin type → column tag; any other type mix takes ``_classify``.
_EXACT = {bool: _T_BOOL, int: _T_INT, float: _T_FLOAT8, str: _T_STR}

_NIL = type(None)


def _malformed(what: str) -> ProtocolError:
    return ProtocolError(f"truncated or corrupt binary frame: {what}")


# -- varints (BIGINT and MIXED only) -----------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(buffer: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = buffer[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def _text(raw: bytes) -> str:
    return str(raw, "utf-8", "surrogatepass")


# -- whole vectors -------------------------------------------------------------


def _pack_bits(flags: bytes) -> bytes:
    """Non-empty 0/1 flag bytes → a bitmap, least significant bit first."""
    return int(flags[::-1].translate(_TO_DIGITS), 2).to_bytes(
        (len(flags) + 7) >> 3, "little"
    )


def _read_bits(buffer: bytes, pos: int, count: int) -> Tuple[bytes, int]:
    """A ``count``-bit bitmap at ``pos`` → ``(0/1 flag bytes, end)``."""
    end = pos + ((count + 7) >> 3)
    if end > len(buffer):
        raise _malformed("bitmap runs past the payload")
    value = int.from_bytes(buffer[pos:end], "little")
    if value >> count:
        raise _malformed("bitmap sets bits past its last row")
    digits = format(value, f"0{count}b").encode("ascii")[::-1][:count]
    return digits.translate(_FROM_DIGITS), end


def _wire_order(vector: array) -> array:
    """Host-order ``array`` ↔ the wire's little-endian order, in place."""
    if _SWAP:
        vector.byteswap()
    return vector


def _narrowest(values: Sequence[int], codes: Dict[int, str]) -> Optional[array]:
    """``values`` as an ``array`` of the narrowest width whose range holds
    every one of them (the first that does not overflow), in wire byte
    order; ``None`` when not even 8 bytes do."""
    for code in codes.values():
        try:
            return _wire_order(array(code, values))
        except OverflowError:
            continue
    return None


def _write_vector(out: bytearray, vector: array) -> None:
    out.append(vector.itemsize)
    out += vector


def _write_uints(out: bytearray, values: List[int]) -> None:
    """Lengths and indexes: one byte each when they fit, as they mostly do
    (``bytes`` builds that vector several times faster than ``array``)."""
    try:
        raw = bytes(values)
    except ValueError:
        _write_vector(out, _narrowest(values, _UNSIGNED))
        return
    out.append(1)
    out += raw


def _read_array(
    buffer: bytes, pos: int, count: int, code: str, width: int
) -> Tuple[List[Any], int]:
    end = pos + count * width
    if end > len(buffer):
        raise _malformed("vector runs past the payload")
    return _wire_order(array(code, buffer[pos:end])).tolist(), end


def _read_ints(
    buffer: bytes, pos: int, count: int, codes: Dict[int, str]
) -> Tuple[List[int], int]:
    width = buffer[pos]
    code = codes.get(width)
    if code is None:
        raise _malformed(f"vector width byte {width}")
    return _read_array(buffer, pos + 1, count, code, width)


def _write_strings(out: bytearray, values: Sequence[str]) -> None:
    if values and _SEPARATOR not in "".join(values):
        # No value holds the separator, so the separated text splits back
        # into exactly these values.
        blob = _utf8(_SEPARATOR.join(values))
        out.append(_W_SPLIT)
        out += _U32.pack(len(blob))
        out += blob
        return
    raws = list(map(_utf8, values))
    _write_uints(out, list(map(len, raws)))
    out += b"".join(raws)


def _read_split(buffer: bytes, pos: int, count: int) -> Tuple[List[str], int]:
    """The separator form at ``pos`` (just past its width byte)."""
    (size,) = _U32.unpack_from(buffer, pos)
    pos += _U32.size
    end = pos + size
    if end > len(buffer):
        raise _malformed("string blob runs past the payload")
    values = _text(buffer[pos:end]).split(_SEPARATOR)
    if len(values) != count:
        raise _malformed(f"string blob splits into {len(values)} values, not {count}")
    return values, end


def _read_strings(buffer: bytes, pos: int, count: int) -> Tuple[List[str], int]:
    if buffer[pos] == _W_SPLIT:
        return _read_split(buffer, pos + 1, count)
    lengths, pos = _read_ints(buffer, pos, count, _UNSIGNED)
    offsets = list(accumulate(lengths, initial=0))
    end = pos + offsets[-1]
    if end > len(buffer):
        raise _malformed("string blob runs past the payload")
    blob = buffer[pos:end]
    stops = iter(offsets)
    next(stops)
    return [_text(blob[start:stop]) for start, stop in zip(offsets, stops)], end


# -- column vectors ------------------------------------------------------------


def _classify(present: Sequence[Any]) -> int:
    """The column tag for values that are not all one exact builtin type:
    subclasses take their base's vector, scalar mixes take ``MIXED``, and
    anything else is refused."""
    has_bool = has_int = has_float = has_str = False
    for value in present:
        if isinstance(value, bool):
            has_bool = True
        elif isinstance(value, int):
            has_int = True
        elif isinstance(value, float):
            has_float = True
        elif isinstance(value, str):
            has_str = True
        else:
            raise ProtocolError(
                f"value of type {type(value).__name__} is not wire-representable "
                "(the polygen wire protocol carries JSON scalars and nil)"
            )
    if has_bool + has_int + has_float + has_str > 1:
        return _T_MIXED
    if has_bool:
        return _T_BOOL
    if has_int:
        return _T_INT
    return _T_STR if has_str else _T_FLOAT8


def _write_bools(out: bytearray, values: Sequence[bool]) -> None:
    out.append(_T_BOOL)
    out += _pack_bits(bytes(values))


def _write_int_column(out: bytearray, values: Sequence[int]) -> None:
    vector = _narrowest(values, _SIGNED)
    if vector is not None:
        out.append(_T_INT)
        _write_vector(out, vector)
        return
    out.append(_T_BIGINT)
    for value in values:
        _write_uvarint(out, _zigzag(value))


def _compact_floats(values: Sequence[float]) -> Optional[List[int]]:
    """The values as ints when every one is integral, within 2⁵³ and not
    ``-0.0`` (which ``int`` would turn into ``0.0``); else ``None``."""
    if not all(map(float.is_integer, values)):
        return None
    if not -_FLOATC_LIMIT <= min(values) <= max(values) <= _FLOATC_LIMIT:
        return None
    if 0.0 in values and any(copysign(1.0, v) < 0 for v in values if v == 0.0):
        return None
    return list(map(int, values))


def _write_float_column(out: bytearray, values: Sequence[float]) -> None:
    ints = _compact_floats(values)
    if ints is not None:
        out.append(_T_FLOATC)
        _write_vector(out, _narrowest(ints, _SIGNED))
        return
    out.append(_T_FLOAT8)
    out += _wire_order(array("d", values))


def _write_str_column(out: bytearray, values: Sequence[str]) -> None:
    if len(set(values)) * 2 > len(values):
        out.append(_T_STR)
        _write_strings(out, values)
        return
    entries = dict.fromkeys(values)  # first-appearance order
    out.append(_T_STRDICT)
    out += _U32.pack(len(entries))
    _write_strings(out, list(entries))
    index = dict(zip(entries, range(len(entries))))
    _write_uints(out, list(map(index.__getitem__, values)))


def _write_mixed_column(out: bytearray, values: Sequence[Any]) -> None:
    out.append(_T_MIXED)
    for value in values:
        if isinstance(value, bool):
            out.append(_MX_TRUE if value else _MX_FALSE)
        elif isinstance(value, int):
            out.append(_MX_INT)
            _write_uvarint(out, _zigzag(value))
        elif isinstance(value, float):
            out.append(_MX_FLOAT)
            out += _DOUBLE.pack(value)
        else:
            raw = _utf8(value)
            out.append(_MX_STR)
            _write_uvarint(out, len(raw))
            out += raw


_WRITERS: Dict[int, Callable[[bytearray, Sequence[Any]], None]] = {
    _T_BOOL: _write_bools,
    _T_INT: _write_int_column,
    _T_FLOAT8: _write_float_column,
    _T_STR: _write_str_column,
    _T_MIXED: _write_mixed_column,
}


def _encode_column(out: bytearray, values: Sequence[Any], count: int) -> None:
    if len(values) != count:
        raise ProtocolError(
            f"ragged chunk: column of {len(values)} values in a {count}-row chunk"
        )
    types = set(map(type, values))
    sparse = _NIL in types
    types.discard(_NIL)
    if not types:  # every row is nil, or there are no rows
        out.append(_V_NONE)
        return
    if sparse:
        live = bytes(map(is_not, values, repeat(None)))
        out.append(_V_BITMAP)
        out += _pack_bits(live)
        values = list(compress(values, live))
    else:
        out.append(_V_DENSE)
    kind = _EXACT.get(types.pop()) if len(types) == 1 else None
    _WRITERS[kind or _classify(values)](out, values)


def _read_bools(buffer: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
    flags, pos = _read_bits(buffer, pos, count)
    return list(map(bool, flags)), pos


def _read_bigints(buffer: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
    values = []
    for _ in range(count):
        raw, pos = _read_uvarint(buffer, pos)
        values.append(_unzigzag(raw))
    return values, pos


def _read_compact_floats(buffer: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
    ints, pos = _read_ints(buffer, pos, count, _SIGNED)
    return list(map(float, ints)), pos


def _read_dictionary(buffer: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
    (size,) = _U32.unpack_from(buffer, pos)
    entries, pos = _read_strings(buffer, pos + _U32.size, size)
    index, pos = _read_ints(buffer, pos, count, _UNSIGNED)
    if index and max(index) >= size:
        raise _malformed(f"dictionary index {max(index)} of a {size}-entry dictionary")
    return list(map(entries.__getitem__, index)), pos


def _read_mixed(buffer: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
    values: List[Any] = []
    for _ in range(count):
        tag = buffer[pos]
        pos += 1
        if tag == _MX_INT:
            raw, pos = _read_uvarint(buffer, pos)
            values.append(_unzigzag(raw))
        elif tag == _MX_FLOAT:
            (value,) = _DOUBLE.unpack_from(buffer, pos)
            pos += _DOUBLE.size
            values.append(value)
        elif tag == _MX_STR:
            length, pos = _read_uvarint(buffer, pos)
            end = pos + length
            if end > len(buffer):
                raise _malformed("string runs past the payload")
            values.append(_text(buffer[pos:end]))
            pos = end
        elif tag == _MX_FALSE:
            values.append(False)
        elif tag == _MX_TRUE:
            values.append(True)
        else:
            raise _malformed(f"unknown mixed-value tag {tag}")
    return values, pos


_READERS: Dict[int, Callable[[bytes, int, int], Tuple[List[Any], int]]] = {
    _T_BOOL: _read_bools,
    _T_INT: partial(_read_ints, codes=_SIGNED),
    _T_FLOAT8: partial(_read_array, code="d", width=8),
    _T_FLOATC: _read_compact_floats,
    _T_STR: _read_strings,
    _T_STRDICT: _read_dictionary,
    _T_MIXED: _read_mixed,
    _T_BIGINT: _read_bigints,
}


def _decode_column(buffer: bytes, pos: int, count: int) -> Tuple[Optional[List[Any]], int]:
    """One column at ``pos`` → ``(values, end)``; ``None`` stands for an
    all-nil column, which the caller fills once the whole frame checks
    out (a corrupt row count must not allocate before it is caught)."""
    validity = buffer[pos]
    pos += 1
    if validity == _V_NONE:
        return None, pos
    if validity == _V_DENSE:
        flags = None
        present = count
    elif validity == _V_BITMAP:
        flags, pos = _read_bits(buffer, pos, count)
        present = flags.count(1)
    else:
        raise _malformed(f"unknown validity byte {validity}")
    kind = buffer[pos]
    reader = _READERS.get(kind)
    if reader is None:
        raise _malformed(f"unknown column type {kind}")
    values, pos = reader(buffer, pos + 1, present)
    if flags is None:
        return values, pos
    present_values = iter(values)
    return [next(present_values) if live else None for live in flags], pos


# -- chunk payloads ----------------------------------------------------------


def encode_chunk_payload(
    request_id: int,
    seq: int,
    attributes: Sequence[str],
    columns: Sequence[Sequence[Any]],
    count: int,
) -> bytes:
    """One chunk of column vectors → a v3 binary payload (unframed).

    ``columns`` are the data vectors, one per attribute, each ``count``
    long.
    """
    if len(columns) != len(attributes):
        raise ProtocolError(
            f"chunk has {len(columns)} columns for {len(attributes)} attributes"
        )
    out = bytearray(
        _HEADER.pack(
            MAGIC_BYTE, BINARY_VERSION, _KIND_CHUNK, 0,
            request_id, seq, count, len(attributes),
        )
    )
    for name in attributes:
        raw = str(name).encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ProtocolError(f"attribute name of {len(raw)} bytes exceeds the frame limit")
        out += _NAME_LEN.pack(len(raw))
        out += raw
    for column in columns:
        _encode_column(out, column, count)
    return bytes(out)


def decode_chunk_payload(payload: bytes) -> Dict[str, Any]:
    """A v3 binary payload → a chunk message dict.

    The dict mirrors the JSON chunk message (``id``/``kind``/``seq``) but
    carries ``columns`` + ``count`` instead of row-major ``rows``, and
    ``"binary": True`` so the transport can tell it from a JSON chunk that
    :func:`repro.net.protocol.decode_payload` transposed to the same shape.
    Malformed input of any kind raises :class:`ProtocolError`, never
    another exception.
    """
    if len(payload) < _HEADER.size:
        raise ProtocolError(f"binary frame of {len(payload)} bytes is shorter than its header")
    magic, version, kind, flags, request_id, seq, count, ncols = _HEADER.unpack_from(payload)
    if magic != MAGIC_BYTE:
        raise ProtocolError(f"binary frame opens with byte {magic:#x}, expected {MAGIC_BYTE:#x}")
    if version != BINARY_VERSION:
        raise ProtocolError(
            f"binary frame speaks encoding version {version}; "
            f"this peer speaks {BINARY_VERSION}"
        )
    if kind != _KIND_CHUNK:
        raise ProtocolError(f"unknown binary frame kind {kind}")
    if flags:
        raise ProtocolError(
            f"binary frame has flags byte {flags:#04x}; every flag is reserved and must be 0"
        )
    try:
        attributes, columns = _decode_body(payload, _HEADER.size, ncols, count)
    except (struct.error, IndexError, ValueError) as exc:
        # Bounds and UTF-8 are checked where a reader consumes them; this
        # catches what a cut or flipped byte trips elsewhere (a bare index
        # past the end, a bad name) so nothing but ProtocolError escapes.
        raise _malformed(str(exc)) from None
    return {
        "id": request_id,
        "kind": "chunk",
        "seq": seq,
        "attributes": attributes,
        "columns": columns,
        "count": count,
        "binary": True,
    }


def _decode_body(
    payload: bytes, pos: int, ncols: int, count: int
) -> Tuple[List[str], List[List[Any]]]:
    attributes: List[str] = []
    for _ in range(ncols):
        (length,) = _NAME_LEN.unpack_from(payload, pos)
        pos += _NAME_LEN.size
        if pos + length > len(payload):
            raise _malformed("attribute name runs past the payload")
        attributes.append(payload[pos : pos + length].decode("utf-8"))
        pos += length
    columns: List[Optional[List[Any]]] = []
    for _ in range(ncols):
        column, pos = _decode_column(payload, pos, count)
        columns.append(column)
    if pos != len(payload):
        raise ProtocolError(
            f"binary frame has {len(payload) - pos} trailing bytes after its last column"
        )
    return attributes, [[None] * count if column is None else column for column in columns]


# -- relation streams ------------------------------------------------


def relation_chunk_payloads(
    request_id: int, relation: Relation, chunk_size: int
) -> Iterator[Tuple[bytes, int]]:
    """An untagged relation as ``(payload, row_count)`` binary chunks.

    The server-side twin of :func:`repro.net.protocol.relation_chunks`:
    same slicing, same "empty relation ships zero chunks" rule (the JSON
    ``end`` frame carries the heading either way).
    """
    if chunk_size < 1:
        raise ProtocolError(f"chunk_size must be >= 1, got {chunk_size}")
    attributes = relation.attributes
    columns = relation.columns
    cardinality = relation.cardinality
    for seq, start in enumerate(range(0, cardinality, chunk_size)):
        count = min(chunk_size, cardinality - start)
        sub = [column[start : start + count] for column in columns]
        yield encode_chunk_payload(request_id, seq, attributes, sub, count), count
