"""Wire protocol v2: binary columnar chunk frames.

JSON v1 re-encodes every chunk as row-major text — attribute lists repeat
per frame, every integer is decimal digits, every string is quoted, and a
``ColumnarRelation`` must be rowified before encoding and re-columnarized
after.  The v2 chunk frame ships the storage engine's native layout
instead: per-column typed vectors behind a validity bitmap.  Chunks are
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

Payload layout (all integers little-endian; *uv* = LEB128 unsigned
varint, *zz* = zigzag-mapped signed varint)::

    u8   magic (0xB2)      u8  version (2)
    u8   kind (1 = chunk)  u8  flags (reserved: must be 0)
    u64  request id        u32 seq
    u32  row count         u16 column count
    per column:  u16 name length, utf-8 name
    per column: typed value vector

No flag is defined.  A frame whose flags byte is not 0 is refused with a
:class:`~repro.errors.ProtocolError` naming the byte rather than misread
(bit 0 once announced a tag section, which no server sends).

Value vectors open with a one-byte type tag.  Except for ``NILS`` (every
value nil — nothing more follows), a validity bitmap of ``ceil(rows/8)``
bytes comes next (bit set = non-nil, row order), then the non-nil values
only:

- ``BOOL``   — a second bitmap over the non-nil slots,
- ``INT``    — zz per value (arbitrary-precision; small ints are 1 byte),
- ``FLOAT8`` — IEEE-754 doubles (NaN and infinities round-trip),
- ``FLOATC`` — zz of ``int(v)`` for columns of integral floats ≤ 2⁵³
  (measurement columns like counts-stored-as-float collapse to varints;
  decoded through ``float()`` so the type round-trips),
- ``STR``    — uv length + utf-8 per value,
- ``STRDICT``— first-appearance dictionary + uv index per value, chosen
  when at most half the values are distinct,
- ``MIXED``  — per-value type byte + payload, the fallback for columns
  mixing scalar kinds.

The value domain is exactly v1's: JSON scalars and nil.  Anything else is
refused with :class:`~repro.errors.ProtocolError` before transmission.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterator, List, Sequence, Tuple

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
#: introduced the encoding.
BINARY_VERSION = 2

_KIND_CHUNK = 1

_HEADER = struct.Struct("<BBBBQIIH")
_NAME_LEN = struct.Struct("<H")

# Column type tags.
_T_NILS = 0
_T_BOOL = 1
_T_INT = 2
_T_FLOAT8 = 3
_T_FLOATC = 4
_T_STR = 5
_T_STRDICT = 6
_T_MIXED = 7

# Per-value tags inside a MIXED vector.
_MX_INT = 0
_MX_FLOAT = 1
_MX_STR = 2
_MX_FALSE = 3
_MX_TRUE = 4

_DOUBLE = struct.Struct("<d")

#: Largest magnitude an integral float may have and still be varint-packed
#: losslessly (beyond 2⁵³ ``int(v)`` no longer round-trips through float).
_FLOATC_LIMIT = 2 ** 53


# -- varints ----------------------------------------------------------------


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
    try:
        while True:
            byte = buffer[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise ProtocolError("truncated binary frame: varint runs past the payload") from None


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


def _write_text(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _write_uvarint(out, len(raw))
    out += raw


def _read_text(buffer: bytes, pos: int) -> Tuple[str, int]:
    length, pos = _read_uvarint(buffer, pos)
    end = pos + length
    if end > len(buffer):
        raise ProtocolError("truncated binary frame: string runs past the payload")
    return buffer[pos:end].decode("utf-8"), end


# -- column vectors ----------------------------------------------------------


def _classify(present: Sequence[Any]) -> int:
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
    kinds = has_bool + has_int + has_float + has_str
    if kinds > 1:
        return _T_MIXED
    if has_bool:
        return _T_BOOL
    if has_int:
        return _T_INT
    if has_str:
        distinct = len(set(present))
        return _T_STRDICT if distinct * 2 <= len(present) else _T_STR
    # floats: varint-pack when every value is integral and in range
    for value in present:
        if not (value.is_integer() and -_FLOATC_LIMIT <= value <= _FLOATC_LIMIT):
            return _T_FLOAT8
    return _T_FLOATC


def _encode_column(out: bytearray, values: Sequence[Any], count: int) -> None:
    if len(values) != count:
        raise ProtocolError(
            f"ragged chunk: column of {len(values)} values in a {count}-row chunk"
        )
    present = [value for value in values if value is not None]
    if not present:
        out.append(_T_NILS)
        return
    kind = _classify(present)
    out.append(kind)
    validity = bytearray((count + 7) >> 3)
    for i, value in enumerate(values):
        if value is not None:
            validity[i >> 3] |= 1 << (i & 7)
    out += validity
    if kind == _T_BOOL:
        bits = bytearray((len(present) + 7) >> 3)
        for i, value in enumerate(present):
            if value:
                bits[i >> 3] |= 1 << (i & 7)
        out += bits
    elif kind == _T_INT:
        for value in present:
            _write_uvarint(out, _zigzag(value))
    elif kind == _T_FLOAT8:
        out += struct.pack(f"<{len(present)}d", *present)
    elif kind == _T_FLOATC:
        for value in present:
            _write_uvarint(out, _zigzag(int(value)))
    elif kind == _T_STR:
        for value in present:
            _write_text(out, value)
    elif kind == _T_STRDICT:
        order: Dict[str, int] = {}
        for value in present:
            order.setdefault(value, len(order))
        _write_uvarint(out, len(order))
        for value in order:
            _write_text(out, value)
        for value in present:
            _write_uvarint(out, order[value])
    else:  # MIXED
        for value in present:
            if isinstance(value, bool):
                out.append(_MX_TRUE if value else _MX_FALSE)
            elif isinstance(value, int):
                out.append(_MX_INT)
                _write_uvarint(out, _zigzag(value))
            elif isinstance(value, float):
                out.append(_MX_FLOAT)
                out += _DOUBLE.pack(value)
            else:
                out.append(_MX_STR)
                _write_text(out, value)


def _decode_column(buffer: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
    kind = buffer[pos]
    pos += 1
    if kind == _T_NILS:
        return [None] * count, pos
    nbytes = (count + 7) >> 3
    validity = buffer[pos : pos + nbytes]
    if len(validity) < nbytes:
        raise ProtocolError("truncated binary frame: validity bitmap cut short")
    pos += nbytes
    slots = [bool(validity[i >> 3] & (1 << (i & 7))) for i in range(count)]
    npresent = sum(slots)
    present: List[Any]
    if kind == _T_BOOL:
        vbytes = (npresent + 7) >> 3
        bits = buffer[pos : pos + vbytes]
        pos += vbytes
        present = [bool(bits[i >> 3] & (1 << (i & 7))) for i in range(npresent)]
    elif kind == _T_INT:
        present = []
        for _ in range(npresent):
            raw, pos = _read_uvarint(buffer, pos)
            present.append(_unzigzag(raw))
    elif kind == _T_FLOAT8:
        end = pos + 8 * npresent
        if end > len(buffer):
            raise ProtocolError("truncated binary frame: float vector cut short")
        present = list(struct.unpack(f"<{npresent}d", buffer[pos:end]))
        pos = end
    elif kind == _T_FLOATC:
        present = []
        for _ in range(npresent):
            raw, pos = _read_uvarint(buffer, pos)
            present.append(float(_unzigzag(raw)))
    elif kind == _T_STR:
        present = []
        for _ in range(npresent):
            text, pos = _read_text(buffer, pos)
            present.append(text)
    elif kind == _T_STRDICT:
        ndict, pos = _read_uvarint(buffer, pos)
        entries = []
        for _ in range(ndict):
            text, pos = _read_text(buffer, pos)
            entries.append(text)
        present = []
        for _ in range(npresent):
            index, pos = _read_uvarint(buffer, pos)
            try:
                present.append(entries[index])
            except IndexError:
                raise ProtocolError(
                    f"corrupt binary frame: dictionary index {index} out of range"
                ) from None
    elif kind == _T_MIXED:
        present = []
        for _ in range(npresent):
            tag = buffer[pos]
            pos += 1
            if tag == _MX_INT:
                raw, pos = _read_uvarint(buffer, pos)
                present.append(_unzigzag(raw))
            elif tag == _MX_FLOAT:
                (value,) = _DOUBLE.unpack_from(buffer, pos)
                pos += 8
                present.append(value)
            elif tag == _MX_STR:
                text, pos = _read_text(buffer, pos)
                present.append(text)
            elif tag == _MX_FALSE:
                present.append(False)
            elif tag == _MX_TRUE:
                present.append(True)
            else:
                raise ProtocolError(f"corrupt binary frame: unknown mixed-value tag {tag}")
    else:
        raise ProtocolError(f"corrupt binary frame: unknown column type {kind}")
    it = iter(present)
    return [next(it) if live else None for live in slots], pos


# -- chunk payloads ----------------------------------------------------------


def encode_chunk_payload(
    request_id: int,
    seq: int,
    attributes: Sequence[str],
    columns: Sequence[Sequence[Any]],
    count: int,
) -> bytes:
    """One chunk of column vectors → a v2 binary payload (unframed).

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
    """A v2 binary payload → a chunk message dict.

    The dict mirrors the JSON chunk message (``id``/``kind``/``seq``) but
    carries ``columns`` + ``count`` instead of row-major ``rows``, and
    ``"binary": True`` so the transport can tell it from a JSON chunk that
    :func:`repro.net.protocol.decode_payload` transposed to the same shape.
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
    pos = _HEADER.size
    attributes: List[str] = []
    for _ in range(ncols):
        (length,) = _NAME_LEN.unpack_from(payload, pos)
        pos += _NAME_LEN.size
        attributes.append(payload[pos : pos + length].decode("utf-8"))
        pos += length
    columns: List[List[Any]] = []
    for _ in range(ncols):
        column, pos = _decode_column(payload, pos, count)
        columns.append(column)
    if pos != len(payload):
        raise ProtocolError(
            f"binary frame has {len(payload) - pos} trailing bytes after its last column"
        )
    return {
        "id": request_id,
        "kind": "chunk",
        "seq": seq,
        "attributes": attributes,
        "columns": columns,
        "count": count,
        "binary": True,
    }


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
