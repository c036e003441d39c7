"""Length-prefixed binary wire codec for the Seabed service.

Frame layout (everything little-endian)::

    u32  frame length   (bytes after this field)
    4s   magic          b"SBNW"
    u16  wire version   (WIRE_VERSION; skew is rejected, like the store
                         manifest's version field)
    u32  envelope length
    ...  envelope       JSON: {"kind": str, "buffers": [len, ...],
                               "body": <packed value tree>}
    ...  buffers        raw bytes, concatenated in order

Frame kinds: ``hello`` / ``req`` / ``rep`` between client and service,
``wreq`` / ``wrep`` between coordinator and shard worker
(:mod:`repro.engine.transport`); past the ``hello``, every body is a
:mod:`repro.net.rpc` request or reply.

The envelope is a JSON tree: JSON scalars, lists and string-keyed dicts
ship as themselves, and every other value is a tagged object (``{"!":
tag, ...}``): tuples, dicts with other keys (or a ``"!"`` key), bytes,
numpy arrays and scalars, ID pieces, and the registered request/response
dataclasses (:class:`~repro.core.server.ServerQuery`, filter and
aggregate ops, :class:`~repro.core.server.ServerResponse`,
:class:`~repro.engine.metrics.JobMetrics`...).  Bulk payloads -- bytes
and numpy buffers, i.e. the ciphertexts -- are *not* JSON-encoded: the
envelope stores an index into the raw buffer region, so ciphertext
batches and encrypted results ship as flat memory with a JSON envelope
for metadata only.  Every aggregation reply is columns
(:class:`~repro.core.grouped.GroupedRows`): a few buffers whatever its
number of row sets, plus an ID chunk per partition -- a ``p`` node, the
chunk's buffer and, under GROUP BY, its code column; a flat reply's key
and codes are implied and never ship.  It is checked structurally as it
is decoded (every code names a row set of the reply, in the row-set
count's width; implied codes only beside exactly one row set; every
chunk flag is one a row set ships).

Malformed input never escapes as a raw ``struct``/``json``/``OSError``:
truncated frames, bad magic, version skew, unknown tags and oversized
lengths all raise :class:`~repro.errors.CodecError` (a
:class:`~repro.errors.TransportError`).
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import time
from typing import Any

import numpy as np

from repro.core import grouped
from repro.core import server as srv
from repro.engine import metrics as em
from repro.engine.storage import decode_object_column, encode_object_column
from repro.errors import CodecError

MAGIC = b"SBNW"
WIRE_VERSION = 9

#: Upper bound on a single frame; a corrupt length prefix fails fast
#: instead of attempting a multi-gigabyte read.  It therefore also bounds
#: one upload/append batch, on the socket and on a shard worker's pipe.
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct("<4sHI")  # magic, version, envelope length

#: Dataclasses allowed on the wire, with their field names.  Anything
#: outside this registry is rejected at encode *and* decode time, so a
#: peer cannot smuggle arbitrary object construction through the codec.
_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclasses.fields(cls))
    for cls in (
        srv.PlainCmp, srv.DetEq, srv.DetIn, srv.OreCmp, srv.FilterAnd,
        srv.FilterOr, srv.FilterNot, srv.AsheSum, srv.PlainAgg, srv.PaillierSum,
        srv.OreExtreme, srv.OreMedian, srv.ServerJoin, srv.ServerQuery,
        srv.ServerResponse, grouped.GroupedRows,
        em.StageMetrics, em.JobMetrics,
    )
}
_DATACLASSES = {cls.__name__: (cls, frozenset(names)) for cls, names in _FIELDS.items()}

#: Values that are their own JSON form; callers test ``type(v) in
#: _LEAVES`` inline so a leaf costs no call (a subclass takes the slow path).
_LEAVES = frozenset({type(None), bool, int, float, str})


def _pack(value: Any, buffers: list[bytes]) -> Any:
    """Lower ``value`` to a JSON-safe tree, appending bulk payloads to
    ``buffers``."""
    if type(value) in _LEAVES:
        return value
    if isinstance(value, dict):
        if "!" not in value and all(type(k) is str for k in value):
            return {
                k: v if type(v) in _LEAVES else _pack(v, buffers)
                for k, v in value.items()
            }
        return {
            "!": "m",
            "v": [[_pack(k, buffers), _pack(v, buffers)] for k, v in value.items()],
        }
    if isinstance(value, list):
        return [v if type(v) in _LEAVES else _pack(v, buffers) for v in value]
    if type(value) is grouped.IdPiece:  # one per partition: its own compact node
        if not isinstance(value.chunk, bytes):
            raise CodecError("an ID piece's chunk is not encoded bytes")
        buffers.append(value.chunk)
        node = {"!": "p", "i": len(buffers) - 1}
        if value.codes is not None:
            node["c"] = _pack(value.codes, buffers)
        return node
    names = _FIELDS.get(type(value))
    if names is not None:
        fields = {}
        for name in names:
            v = getattr(value, name)
            fields[name] = v if type(v) in _LEAVES else _pack(v, buffers)
        return {"!": "d", "t": type(value).__name__, "f": fields}
    if isinstance(value, (int, float)):
        # Python's json round-trips arbitrary-precision ints (Paillier
        # ciphertexts) and non-finite floats natively.
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        buffers.append(bytes(value))
        return {"!": "b", "i": len(buffers) - 1}
    if isinstance(value, tuple):
        return {"!": "t", "v": [_pack(v, buffers) for v in value]}
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            buffers.append(encode_object_column(value))
            return {"!": "no", "r": int(value.size), "i": len(buffers) - 1}
        buffers.append(np.ascontiguousarray(value).tobytes())
        return {
            "!": "nd",
            "d": value.dtype.str,
            "s": list(value.shape),
            "i": len(buffers) - 1,
        }
    if isinstance(value, np.generic):
        return {"!": "ns", "d": value.dtype.str, "v": value.item()}
    raise CodecError(f"cannot encode {type(value).__name__} on the wire")


def _unpack(tree: Any, buffers: list[memoryview]) -> Any:
    if type(tree) is list:
        return [v if type(v) in _LEAVES else _unpack(v, buffers) for v in tree]
    if type(tree) is not dict:
        if type(tree) in _LEAVES:
            return tree
        raise CodecError(f"malformed envelope node of type {type(tree).__name__}")
    if "!" not in tree:  # a string-keyed dict
        return {k: v if type(v) in _LEAVES else _unpack(v, buffers) for k, v in tree.items()}
    tag = tree["!"]
    try:
        if tag == "b":
            return bytes(buffers[tree["i"]])
        if tag == "t":
            return tuple(_unpack(v, buffers) for v in tree["v"])
        if tag == "p":
            codes = tree.get("c")
            return grouped.IdPiece(bytes(buffers[tree["i"]]),
                                   None if codes is None else _unpack(codes, buffers))
        if tag == "m":
            return {_unpack(k, buffers): _unpack(v, buffers) for k, v in tree["v"]}
        if tag == "nd":
            dtype = np.dtype(tree["d"])
            arr = np.frombuffer(buffers[tree["i"]], dtype=dtype)
            return arr.reshape(tree["s"]).copy()
        if tag == "no":
            return decode_object_column(bytes(buffers[tree["i"]]), tree["r"])
        if tag == "ns":
            return np.dtype(tree["d"]).type(tree["v"])
        if tag == "d":
            cls, known = _DATACLASSES.get(tree["t"], (None, None))
            if cls is None:
                raise CodecError(f"unknown dataclass {tree['t']!r} on the wire")
            if type(tree["f"]) is not dict:
                raise CodecError(f"{tree['t']} fields are not an object")
            if not known.issuperset(tree["f"]):
                raise CodecError(
                    f"unexpected fields for {tree['t']}: {sorted(set(tree['f']) - known)}"
                )
            value = cls(**{
                name: v if type(v) in _LEAVES else _unpack(v, buffers)
                for name, v in tree["f"].items()
            })
            if isinstance(value, grouped.GroupedRows):
                value.validate()  # ragged columns, stray codes, unknown flags
            return value
    except CodecError:
        raise
    except Exception as exc:  # noqa: BLE001 -- any malformed node is a codec error
        raise CodecError(f"malformed {tag!r} node: {exc}") from exc
    raise CodecError(f"unknown envelope tag {tag!r}")


#: One encoder for every frame (``json.dumps`` with options builds one per call).
_ENCODE_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def encode_frame(kind: str, body: Any) -> bytes:
    """Serialise one message to a complete frame (length prefix included)."""
    buffers: list[bytes] = []
    tree = _pack(body, buffers)
    envelope = _ENCODE_JSON(
        {"kind": kind, "buffers": [len(b) for b in buffers], "body": tree}
    ).encode()
    payload = _HEADER.pack(MAGIC, WIRE_VERSION, len(envelope))
    frame = b"".join([payload, envelope, *buffers])
    if len(frame) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(frame)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return struct.pack("<I", len(frame)) + frame


def decode_payload(payload: bytes | memoryview) -> tuple[str, Any]:
    """Decode a frame body (everything after the u32 length prefix)."""
    view = memoryview(payload)
    if len(view) < _HEADER.size:
        raise CodecError(f"truncated frame header ({len(view)} bytes)")
    magic, version, env_len = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise CodecError(f"bad frame magic {bytes(magic)!r}")
    if version != WIRE_VERSION:
        raise CodecError(
            f"wire version skew: peer speaks v{version}, this end v{WIRE_VERSION}"
        )
    if _HEADER.size + env_len > len(view):
        raise CodecError("truncated frame envelope")
    try:
        envelope = json.loads(bytes(view[_HEADER.size : _HEADER.size + env_len]))
        kind = envelope["kind"]
        lengths = envelope["buffers"]
        tree = envelope["body"]
    except Exception as exc:  # noqa: BLE001 -- malformed JSON/shape
        raise CodecError(f"malformed frame envelope: {exc}") from exc
    if not isinstance(kind, str) or not isinstance(lengths, list):
        raise CodecError("malformed frame envelope")
    buffers: list[memoryview] = []
    offset = _HEADER.size + env_len
    for length in lengths:
        if not isinstance(length, int) or length < 0 or offset + length > len(view):
            raise CodecError("truncated frame buffers")
        buffers.append(view[offset : offset + length])
        offset += length
    if offset != len(view):
        raise CodecError(f"{len(view) - offset} trailing bytes after frame buffers")
    return kind, _unpack(tree, buffers)


def decode_frame(frame: bytes) -> tuple[str, Any]:
    """Decode a complete frame as produced by :func:`encode_frame`."""
    if len(frame) < 4:
        raise CodecError(f"truncated frame ({len(frame)} bytes)")
    (length,) = struct.unpack_from("<I", frame, 0)
    if length != len(frame) - 4:
        raise CodecError(f"frame length {length} != {len(frame) - 4} available bytes")
    return decode_payload(memoryview(frame)[4:])


def pack_table(table: Any) -> dict[str, Any]:
    """Wire form of an in-memory ciphertext batch: name plus raw
    partition columns.  No store path, generation or zone map travels --
    appended batches are in-memory by construction, and the receiving end
    derives its own index when it persists the batch."""
    return {
        "name": table.name,
        "partitions": [
            {"start_id": p.start_id, "columns": dict(p.columns)}
            for p in table.partitions
        ],
    }


def unpack_table(data: dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.engine.table.Table` from wire form."""
    from repro.engine.table import Partition, Table

    try:
        return Table(
            data["name"],
            [
                Partition(columns=dict(p["columns"]), start_id=int(p["start_id"]))
                for p in data["partitions"]
            ],
        )
    except Exception as exc:  # noqa: BLE001 -- malformed batch is a codec error
        raise CodecError(f"malformed table batch on the wire: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int, deadline: float | None = None) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        if deadline is not None:  # one budget for every recv, not one each
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"frame past its deadline ({n - remaining}/{n} bytes)")
            sock.settimeout(left)
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise CodecError(f"connection closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES, deadline: float | None = None
) -> tuple[str, Any]:
    """Read and decode one frame from a blocking socket.

    A frame announced longer than ``max_bytes`` is refused before its body
    is read.  With a ``deadline`` (a :func:`time.monotonic` instant) the
    whole frame must have arrived by then, however the peer splits it,
    else :class:`TimeoutError`.
    """
    (length,) = struct.unpack("<I", _recv_exact(sock, 4, deadline))
    if length > max_bytes:
        raise CodecError(f"peer announced a {length}-byte frame (cap {max_bytes})")
    return decode_payload(_recv_exact(sock, length, deadline))


def write_frame(sock: socket.socket, kind: str, body: Any) -> None:
    """Encode and send one frame on a blocking socket."""
    sock.sendall(encode_frame(kind, body))
