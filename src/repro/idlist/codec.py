"""Composable ID-list codec pipelines (paper Section 4.5, Figure 8).

A codec is a self-describing byte format: one header byte of flags, then a
payload.  The stages mirror the paper exactly:

1. optional **range** transform (runs instead of raw IDs);
2. optional **diff** transform (deltas instead of absolutes; applied to a
   range sequence this is the paper's *Combination*);
3. **variable-byte** packing (always -- it is the serialisation);
4. optional **Deflate** at a *fast* (level 1) or *compact* (level 9)
   setting.

Bitmap codecs bypass stages 1-3.  The named combinations in
:data:`CODECS` are the exact series of Figure 8(a)/(b) plus the group-by
codec (VB+Diff without ranges, Section 4.5) and baselines.

A chunk encodes the IDs one partition selected for one request --
never one per aggregate -- and the client decodes each exactly once
(:mod:`repro.core.decryptor`).  A flat request ships one chunk per
partition and ID source; a grouped one ships the same chunk plus a code
column naming each ID's group (:mod:`repro.core.grouped`), so the
``groupby`` codec below is a Figure 8 series, not a wire format.

A flat row set's chunk picks its container from the mask's shape
(:func:`encode_mask`): the ``seabed`` pipeline's bytes for contiguous and
clustered selections -- everything Section 6.4 measured -- and a plain
bitmap of the selected span once the run-coded stream cannot be smaller
(:mod:`repro.idlist.bitmap` has the rule and the sizes).  Both are flags
of the one self-describing format: the decoder is never told.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import EncodingError
from repro.idlist import bitmap, encoding, varbyte
from repro.idlist.idlist import IdList

_FLAG_RANGES = 0x01
_FLAG_DIFF = 0x02
_FLAG_DEFLATE = 0x04
_FLAG_BITMAP_PLAIN = 0x08
_FLAG_BITMAP_WAH = 0x10
_FLAG_FIXED64 = 0x20


@dataclass(frozen=True)
class IdListCodec:
    """One configured encode/decode pipeline."""

    name: str
    use_ranges: bool = True
    use_diff: bool = True
    deflate_level: int | None = None
    bitmap_kind: str | None = None  # None | "plain" | "wah"
    fixed_width: bool = False  # raw 8-byte IDs, the uncompressed baseline

    def encode(self, ids: IdList) -> bytes:
        if self.fixed_width:
            return bytes([_FLAG_FIXED64]) + ids.to_ids().tobytes()
        if self.bitmap_kind == "plain":
            return bytes([_FLAG_BITMAP_PLAIN]) + bitmap.plain_encode(ids)
        if self.bitmap_kind == "wah":
            return bytes([_FLAG_BITMAP_WAH]) + bitmap.wah_encode(ids)

        flags = 0
        if self.use_ranges:
            flags |= _FLAG_RANGES
            if self.use_diff:
                flags |= _FLAG_DIFF
                seq = encoding.combination_encode(ids)
            else:
                seq = encoding.ranges_flatten(ids)
        else:
            seq = ids.to_ids()
            if self.use_diff:
                flags |= _FLAG_DIFF
                seq = encoding.diff_encode(seq)
        payload = varbyte.encode(seq)
        if self.deflate_level is not None:
            flags |= _FLAG_DEFLATE
            payload = zlib.compress(payload, self.deflate_level)
        return bytes([flags]) + payload

    def decode(self, data: bytes) -> IdList:
        return decode(data)

    def encoded_size(self, ids: IdList) -> int:
        return len(self.encode(ids))


def _inflate(payload: bytes) -> bytes:
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise EncodingError(f"damaged Deflate stream in an ID chunk: {exc}") from None


def decode(data: bytes) -> IdList:
    """Decode any codec output (the header byte is self-describing);
    damaged bytes raise :class:`EncodingError`, whichever stage trips."""
    if not data:
        raise EncodingError("empty codec payload")
    flags, payload = data[0], data[1:]
    if flags & _FLAG_FIXED64:
        if len(payload) % 8:
            raise EncodingError("truncated fixed-width ID payload")
        return IdList.from_ids(np.frombuffer(payload, dtype=np.uint64))
    if flags & _FLAG_BITMAP_PLAIN:
        return bitmap.plain_decode(payload)
    if flags & _FLAG_BITMAP_WAH:
        return bitmap.wah_decode(payload)
    if flags & _FLAG_DEFLATE:
        payload = _inflate(payload)
    seq = varbyte.decode(payload)
    if flags & _FLAG_RANGES:
        if flags & _FLAG_DIFF:
            return encoding.combination_decode(seq)
        return encoding.ranges_unflatten(seq)
    if flags & _FLAG_DIFF:
        seq = encoding.diff_decode(seq)
    return IdList.from_ids(seq)


#: Named pipelines. ``seabed`` is the paper's production choice
#: (Section 6.4): ranges + VB + diff + Deflate optimised for speed.
#: ``groupby`` is the paper's group-by path: VB + diff, no ranges.
CODECS: dict[str, IdListCodec] = {
    "fixed64": IdListCodec(
        "fixed64", use_ranges=False, use_diff=False, fixed_width=True
    ),
    "vb": IdListCodec("vb", use_ranges=False, use_diff=False),
    "vb+diff": IdListCodec("vb+diff", use_ranges=False, use_diff=True),
    "ranges+vb": IdListCodec("ranges+vb", use_ranges=True, use_diff=False),
    "ranges+vb+diff": IdListCodec("ranges+vb+diff", use_ranges=True, use_diff=True),
    "ranges+vb+diff+deflate_compact": IdListCodec(
        "ranges+vb+diff+deflate_compact",
        use_ranges=True,
        use_diff=True,
        deflate_level=9,
    ),
    "ranges+vb+diff+deflate_fast": IdListCodec(
        "ranges+vb+diff+deflate_fast",
        use_ranges=True,
        use_diff=True,
        deflate_level=1,
    ),
    "bitmap": IdListCodec("bitmap", bitmap_kind="plain"),
    "bitmap_wah": IdListCodec("bitmap_wah", bitmap_kind="wah"),
}
CODECS["seabed"] = IdListCodec(
    "seabed", use_ranges=True, use_diff=True, deflate_level=1
)
CODECS["groupby"] = IdListCodec("groupby", use_ranges=False, use_diff=True)


def encode_mask(mask: np.ndarray, start_id: int) -> bytes | None:
    """A flat row set's chunk for one partition's selection mask (row ``j``
    has ID ``start_id + j``; ``None``: no row selected): a plain bitmap of
    the selected span where the run-coded stream cannot be smaller, the
    ``seabed`` codec's bytes otherwise."""
    ids = IdList.from_mask(mask, start_id)
    if ids.is_empty():
        return None
    first = int(ids.starts[0])
    span = int(ids.ends[-1]) - first + 1
    if 2 * ids.num_runs >= (span + 7) // 8:
        bits = mask[first - start_id : first - start_id + span]
        return bytes([_FLAG_BITMAP_PLAIN]) + bitmap.plain_write(first, bits)
    return CODECS["seabed"].encode(ids)


_FLAG_MULTISET = 0x40


def encode_multiset(ids: np.ndarray, deflate_level: int | None = 1) -> bytes:
    """Encode an ID *multiset* (duplicates allowed) -- the join path.

    ASHE ID collections are multisets (Section 3.1): when a build-side row
    joins several probe rows its identifier appears once per match.  The
    run-based :class:`IdList` cannot hold duplicates, so joined aggregates
    ship sorted raw IDs through diff + varbyte + Deflate instead.
    """
    arr = np.sort(np.asarray(ids, dtype=np.uint64))
    seq = encoding.diff_encode(arr)
    payload = varbyte.encode(seq)
    flags = _FLAG_MULTISET | _FLAG_DIFF
    if deflate_level is not None:
        flags |= _FLAG_DEFLATE
        payload = zlib.compress(payload, deflate_level)
    return bytes([flags]) + payload


def encode_id_spans(starts: np.ndarray, counts: np.ndarray) -> bytes:
    """Encode per-partition row-ID spans with the ID-list pipeline.

    A partition store's manifest records each partition as the half-open
    row-ID interval ``[start, start + count)``.  Those intervals are
    exactly the (start, length) pairs of the range transform, so the
    store reuses this module's serialisation: interleave
    ``start_0, count_0, start_1, count_1, ...``, diff-encode the starts
    (partition starts are sorted, Section 4.2's consecutive-ID property),
    and variable-byte pack.  Self-describing via the shared flag byte.
    """
    starts = np.asarray(starts, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.uint64)
    if starts.shape != counts.shape:
        raise EncodingError("id spans need one count per start")
    if starts.size and bool(np.any(starts[1:] < starts[:-1])):
        raise EncodingError("id-span starts must be sorted")
    seq = np.empty(2 * starts.size, dtype=np.uint64)
    if starts.size:
        seq[0::2] = encoding.diff_encode(starts)
        seq[1::2] = counts
    return bytes([_FLAG_RANGES | _FLAG_DIFF]) + varbyte.encode(seq)


def decode_id_spans(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode :func:`encode_id_spans` output back to (starts, counts)."""
    if not data or data[0] != (_FLAG_RANGES | _FLAG_DIFF):
        raise EncodingError("not an id-span codec payload")
    seq = varbyte.decode(data[1:])
    if seq.size % 2:
        raise EncodingError("truncated id-span payload")
    starts = encoding.diff_decode(seq[0::2])
    return starts, seq[1::2].copy()


_FLAG_GROUPED = 0x80


def encode_span_groups(groups: list[list[tuple[int, int]]]) -> bytes:
    """Encode per-partition *groups* of (start, count) row-ID spans.

    A freshly written partition covers one contiguous ID interval, but a
    partition produced by store compaction absorbs rows from several
    source partitions, so its manifest entry records multiple spans --
    one group of (start, count) pairs per output partition.  The
    serialisation reuses the ID-span machinery: each group contributes
    its span count followed by its spans, with starts diff-encoded
    across the *whole* stream (groups tile the table's ID space in
    order, so starts are globally sorted) and the sequence
    variable-byte packed under a self-describing flag byte.
    """
    seq: list[int] = []
    prev = 0
    for group in groups:
        if not group:
            raise EncodingError("span groups must hold at least one span each")
        seq.append(len(group))
        for start, count in group:
            if start < prev:
                raise EncodingError("span-group starts must be globally sorted")
            seq.append(start - prev)
            seq.append(count)
            prev = start
    flags = _FLAG_GROUPED | _FLAG_RANGES | _FLAG_DIFF
    return bytes([flags]) + varbyte.encode(np.asarray(seq, dtype=np.uint64))


def decode_span_groups(data: bytes) -> list[list[tuple[int, int]]]:
    """Decode :func:`encode_span_groups` output back to span groups."""
    if not data or data[0] != (_FLAG_GROUPED | _FLAG_RANGES | _FLAG_DIFF):
        raise EncodingError("not a span-group codec payload")
    seq = varbyte.decode(data[1:]).tolist()
    groups: list[list[tuple[int, int]]] = []
    pos = 0
    prev = 0
    while pos < len(seq):
        size = seq[pos]
        pos += 1
        if size == 0 or pos + 2 * size > len(seq):
            raise EncodingError("truncated span-group payload")
        group: list[tuple[int, int]] = []
        for _ in range(size):
            prev += seq[pos]
            group.append((prev, seq[pos + 1]))
            pos += 2
        groups.append(group)
    return groups


def decode_multiset(data: bytes) -> np.ndarray:
    """Decode a multiset payload back to the sorted uint64 ID array."""
    if not data or not data[0] & _FLAG_MULTISET:
        raise EncodingError("not a multiset codec payload")
    flags, payload = data[0], data[1:]
    if flags & _FLAG_DEFLATE:
        payload = _inflate(payload)
    seq = varbyte.decode(payload)
    return encoding.diff_decode(seq)


def is_multiset_payload(data: bytes) -> bool:
    return bool(data) and bool(data[0] & _FLAG_MULTISET)


#: Header bytes of the chunks a query's row set ships: the ``seabed``
#: pipeline's, a plain bitmap's (:func:`encode_mask`) and a multiset's.
ROW_SET_FLAGS = frozenset({
    _FLAG_RANGES | _FLAG_DIFF | _FLAG_DEFLATE,
    _FLAG_BITMAP_PLAIN,
    _FLAG_MULTISET | _FLAG_DIFF | _FLAG_DEFLATE,
})


def get_codec(name: str) -> IdListCodec:
    try:
        return CODECS[name]
    except KeyError:
        raise EncodingError(
            f"unknown ID-list codec {name!r}; choose from {sorted(CODECS)}"
        ) from None
