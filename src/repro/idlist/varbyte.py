"""Vectorised variable-byte (VB / LEB128) integer coding.

Table 3 of the paper lists VB encoding as the final packing stage of the
ID-list pipeline: each integer is stored in the minimum number of 7-bit
groups, with the high bit of each byte flagging continuation; scalar
reference implementations are kept for property tests.  This is the one
coder: :func:`encode` (a pass per byte position, over the values at
least that long) and :func:`decode` (one ``reduceat`` over the stream's
7-bit groups) serve every ID chunk, flat or grouped, and the store's
row-ID spans; up to :data:`SCALAR_MAX` values they hand over to the
scalar references.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError

_U64 = np.uint64
_SEVEN = _U64(7)
_LOW7 = _U64(0x7F)


#: Up to this many values to encode (bytes to decode) the scalar coders
#: run instead: a point query's chunk is a run or two, and numpy's
#: per-call cost would be most of its encode and decode.
SCALAR_MAX = 16


def encode(values: np.ndarray) -> bytes:
    """Encode a uint64 array into a variable-byte stream."""
    v = np.asarray(values, dtype=_U64)
    if v.size <= SCALAR_MAX:
        return encode_scalar(v.tolist())
    return encode_with_offsets(v)[0]


def encode_with_offsets(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode and also return per-value byte offsets (length n+1).

    ``offsets[i]:offsets[i+1]`` is value ``i``'s byte span.
    """
    v = np.asarray(values, dtype=_U64)
    if v.size == 0:
        return b"", np.zeros(1, dtype=np.int64)
    nbytes = np.ones(v.size, dtype=np.int64)
    tmp = v >> _SEVEN
    while tmp.any():
        nbytes += (tmp != 0).astype(np.int64)
        tmp = tmp >> _SEVEN
    offsets = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    starts = offsets[:-1]
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)
    for j in range(int(nbytes.max())):
        sel = nbytes > j
        chunk = ((v[sel] >> _U64(7 * j)) & _LOW7).astype(np.uint8)
        continuation = (nbytes[sel] - 1 > j).astype(np.uint8) << 7
        out[starts[sel] + j] = chunk | continuation
    return out.tobytes(), offsets


def decode(data: bytes | np.ndarray) -> np.ndarray:
    """Decode a variable-byte stream (bytes or a uint8 array) back into a
    uint64 array."""
    if len(data) <= SCALAR_MAX:
        # A 10-byte group wraps past 64 bits, as the reduceat below does.
        values = decode_scalar(bytes(data))
        return np.fromiter((x & 0xFFFF_FFFF_FFFF_FFFF for x in values), _U64, len(values))
    b = np.frombuffer(data, dtype=np.uint8)
    terminal = (b & 0x80) == 0
    if not terminal[-1]:
        raise EncodingError("truncated varbyte stream (dangling continuation)")
    ends = np.flatnonzero(terminal)
    group_starts = np.empty(ends.size, dtype=np.int64)
    group_starts[0] = 0
    group_starts[1:] = ends[:-1] + 1
    lengths = ends - group_starts + 1
    if np.any(lengths > 10):
        raise EncodingError("varbyte group longer than 10 bytes (not a uint64)")
    positions = np.arange(b.size, dtype=np.int64) - np.repeat(group_starts, lengths)
    contributions = (b & 0x7F).astype(_U64) << (positions.astype(_U64) * _SEVEN)
    return np.add.reduceat(contributions, group_starts)


def encode_scalar(values) -> bytes:
    """Reference scalar encoder (used by property tests)."""
    out = bytearray()
    for value in values:
        value = int(value)
        if value < 0:
            raise EncodingError("varbyte encodes unsigned integers only")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def decode_scalar(data: bytes) -> list[int]:
    """Reference scalar decoder (used by property tests)."""
    out: list[int] = []
    acc = 0
    shift = 0
    for byte in data:
        acc |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift > 63:
                raise EncodingError("varbyte group longer than 10 bytes")
        else:
            out.append(acc)
            acc = 0
            shift = 0
    if shift or acc:
        raise EncodingError("truncated varbyte stream (dangling continuation)")
    return out
