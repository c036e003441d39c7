"""Bitmap codecs for ID lists.

Section 6.4 of the paper: "The bitmap algorithms performed poorly, so we
omit them here for brevity."  True of what it measured -- contiguous and
clustered selections, where a few runs beat any bitmap -- and the ablation
benchmark reproduces it:

- :func:`plain_encode` -- one bit per ID over the span ``[first, last]``,
  packed to bytes.  Compact only when the span is dense.
- :func:`wah_encode` -- a word-aligned hybrid in the roaring/WAH spirit:
  63-bit literal words, with runs of identical all-zero/all-one words
  collapsed into fill words.

A *scattered* selection is the other case: a run costs at least two varint
bytes, so once ``2 * runs >= ceil(span / 8)`` the run-coded stream cannot
be smaller than the span's bitmap even before Deflate.  The flat row set's
writer (:func:`repro.idlist.codec.encode_mask`) applies exactly that rule
per partition and writes :func:`plain_write`'s bytes when it holds.  One
9,600-row partition, selected at random (medians over 20 masks):

    selectivity   run-coded + Deflate   chunk written
    50%           1,923 B               1,206 B (bitmap)
    12.5%         1,034 B               1,206 B (bitmap, no encode stages)
    <= 5%         547 B                 unchanged (run-coded)
    clustered     14 B                  unchanged (run-coded)

The container is a function of the selection mask the server computed and
already sees, so choosing it reveals nothing new.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError
from repro.idlist.idlist import IdList
from repro.idlist.varbyte import decode_scalar, encode_scalar

_U64 = np.uint64


def _span_bits(ids: IdList) -> tuple[int, np.ndarray]:
    """Return (offset, dense boolean array over the ID span)."""
    if ids.is_empty():
        return 0, np.empty(0, dtype=bool)
    runs = ids.num_runs
    lengths = np.empty(2 * runs - 1, dtype=np.int64)  # run, gap, run, ..., run
    lengths[0::2] = ids.ends - ids.starts + _U64(1)
    lengths[1::2] = ids.starts[1:] - ids.ends[:-1] - _U64(1)
    return int(ids.starts[0]), np.repeat(np.arange(lengths.size) % 2 == 0, lengths)


def plain_write(offset: int, bits: np.ndarray) -> bytes:
    """The one plain-bitmap format: ``varbyte(offset, nbits)`` + ``packbits``
    of ``bits`` (bit ``j`` set: ID ``offset + j`` is in the set).  The header
    is two scalar varints: ``varbyte.encode``'s numpy passes would cost more
    than packing a partition's bits does."""
    return encode_scalar((offset, bits.size)) + np.packbits(bits).tobytes()


def plain_encode(ids: IdList) -> bytes:
    return plain_write(*_span_bits(ids))


def plain_decode(data: bytes) -> IdList:
    offset, nbits, consumed = _read_header(data)
    payload = np.frombuffer(data[consumed:], dtype=np.uint8)
    if payload.size != (nbits + 7) // 8:
        raise EncodingError("bitmap payload does not match its header")
    return IdList.from_mask(np.unpackbits(payload, count=nbits), offset=offset)


_LITERAL_BITS = 63
_FILL_FLAG = _U64(1) << _U64(63)
_ONES_FLAG = _U64(1) << _U64(62)


def wah_encode(ids: IdList) -> bytes:
    """Word-aligned hybrid: literal 63-bit words or run-length fill words.

    Fill word layout: bit63=1, bit62=fill bit value, low 62 bits=run length
    in words.  Literal word: bit63=0, low 63 bits of payload.
    """
    offset, bits = _span_bits(ids)
    pad = (-bits.size) % _LITERAL_BITS
    padded = np.concatenate([bits, np.zeros(pad, dtype=bool)])
    groups = padded.reshape(-1, _LITERAL_BITS)
    weights = _U64(1) << np.arange(_LITERAL_BITS, dtype=_U64)
    words = (groups.astype(_U64) * weights).sum(axis=1, dtype=_U64)

    all_ones = _U64((1 << _LITERAL_BITS) - 1)
    out: list[int] = []
    i = 0
    n = words.size
    while i < n:
        w = words[i]
        if w == 0 or w == all_ones:
            j = i
            while j < n and words[j] == w:
                j += 1
            fill = int(_FILL_FLAG) | (int(_ONES_FLAG) if w == all_ones else 0) | (j - i)
            out.append(fill)
            i = j
        else:
            out.append(int(w))
            i += 1
    return encode_scalar((offset, bits.size)) + np.asarray(out, dtype=_U64).tobytes()


def wah_decode(data: bytes) -> IdList:
    offset, nbits, consumed = _read_header(data)
    if nbits == 0:
        return IdList.empty()
    if (len(data) - consumed) % 8:
        raise EncodingError("truncated WAH bitmap payload")
    words = np.frombuffer(data[consumed:], dtype=_U64).tolist()
    runs = [w & ((1 << 62) - 1) if w & int(_FILL_FLAG) else 1 for w in words]
    if not nbits <= _LITERAL_BITS * sum(runs) < nbits + _LITERAL_BITS:
        raise EncodingError("WAH words do not cover the bitmap")
    chunks: list[np.ndarray] = []
    for w, run in zip(words, runs):
        if w & int(_FILL_FLAG):
            chunks.append(np.full(run * _LITERAL_BITS, bool(w & int(_ONES_FLAG))))
        else:
            chunks.append((w >> np.arange(_LITERAL_BITS, dtype=_U64)) & _U64(1) > 0)
    bits = np.concatenate(chunks)[:nbits]
    return IdList.from_mask(bits, offset=offset)


def _read_header(data: bytes) -> tuple[int, int, int]:
    """``(offset, nbits, bytes consumed)`` of a bitmap's two-varint header."""
    ends = [i for i, byte in enumerate(data[:20]) if not byte & 0x80][:2]
    if len(ends) < 2:
        raise EncodingError("truncated bitmap header")
    offset, nbits = decode_scalar(data[: ends[1] + 1])
    if offset + max(nbits, 1) > 1 << 64:  # even an empty span's offset is an ID
        raise EncodingError("bitmap span leaves the 64-bit ID space")
    return offset, nbits, ends[1] + 1
