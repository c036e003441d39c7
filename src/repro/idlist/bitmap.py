"""Bitmap codecs for ID lists.

Section 6.4 of the paper: "The bitmap algorithms performed poorly, so we
omit them here for brevity."  We implement them anyway so the ablation
benchmark can reproduce that finding:

- :func:`plain_encode` -- one bit per ID over the span ``[first, last]``,
  packed to bytes.  Compact only when the span is dense.
- :func:`wah_encode` -- a word-aligned hybrid in the roaring/WAH spirit:
  63-bit literal words, with runs of identical all-zero/all-one words
  collapsed into fill words.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError
from repro.idlist.idlist import IdList
from repro.idlist.varbyte import encode as vb_encode

_U64 = np.uint64


def _span_bits(ids: IdList) -> tuple[int, np.ndarray]:
    """Return (offset, dense boolean array over the ID span)."""
    first = int(ids.starts[0])
    last = int(ids.ends[-1])
    bits = np.zeros(last - first + 1, dtype=bool)
    for s, e in ids.runs():
        bits[s - first : e - first + 1] = True
    return first, bits


def plain_encode(ids: IdList) -> bytes:
    """Header ``varbyte(offset, nbits)`` + ``packbits`` payload."""
    if ids.is_empty():
        return vb_encode(np.array([0, 0], _U64)).ljust(2, b"\x00")
    offset, bits = _span_bits(ids)
    header = vb_encode(np.array([offset, bits.size], _U64))
    return header + np.packbits(bits).tobytes()


def plain_decode(data: bytes) -> IdList:
    values, consumed = _read_varints(data, 2)
    offset, nbits = int(values[0]), int(values[1])
    if nbits == 0:
        return IdList.empty()
    payload = np.frombuffer(data[consumed:], dtype=np.uint8)
    if payload.size != (nbits + 7) // 8:
        raise EncodingError("bitmap payload does not match its header")
    bits = np.unpackbits(payload)[:nbits].astype(bool)
    return IdList.from_mask(bits, offset=offset)


_LITERAL_BITS = 63
_FILL_FLAG = _U64(1) << _U64(63)
_ONES_FLAG = _U64(1) << _U64(62)


def wah_encode(ids: IdList) -> bytes:
    """Word-aligned hybrid: literal 63-bit words or run-length fill words.

    Fill word layout: bit63=1, bit62=fill bit value, low 62 bits=run length
    in words.  Literal word: bit63=0, low 63 bits of payload.
    """
    if ids.is_empty():
        return vb_encode(np.array([0, 0], _U64))
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
    header = vb_encode(np.array([offset, bits.size], _U64))
    return header + np.asarray(out, dtype=_U64).tobytes()


def wah_decode(data: bytes) -> IdList:
    values, consumed = _read_varints(data, 2)
    offset, nbits = int(values[0]), int(values[1])
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


def _read_varints(data: bytes, count: int) -> tuple[list[int], int]:
    """Read ``count`` leading varints, returning values and bytes consumed."""
    values: list[int] = []
    acc = 0
    shift = 0
    consumed = 0
    for byte in data:
        consumed += 1
        acc |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            values.append(acc)
            acc, shift = 0, 0
            if len(values) == count:
                return values, consumed
    raise EncodingError("truncated bitmap header")
