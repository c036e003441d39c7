"""Table serialisation and size accounting.

The paper stores tables in HDFS with protobuf serialisation and reports
per-dataset disk and in-memory sizes (Table 5).  This module provides the
equivalent: a compact self-describing binary format for partitioned
columnar tables, plus the size accounting used by the Table 5 benchmark.

Format (all integers little-endian):

    magic  "SBED"  | u16 version | u16 name_len | name bytes
    u32 num_partitions
    per partition: u64 start_id | u32 num_columns
      per column: u16 name_len | name | u8 dtype_tag | u8 ndim |
                  u32 rows | u32 width | u8 compressed | u64 payload_len |
                  payload

dtype tags: 0=int64, 1=uint64, 2=float64, 3=object (varint-framed
big-ints, for Paillier ciphertext columns), 4=bool.
"""

from __future__ import annotations

import errno
import io
import json
import os
import struct
import warnings
import zlib

import numpy as np

from repro.engine.table import Table
from repro.errors import ExecutionError

_MAGIC = b"SBED"
_VERSION = 1

# Errnos meaning "this filesystem does not support fsync on a directory
# fd" (overlayfs and some container volume drivers return these).  Not
# listed -- and therefore still fatal -- are real I/O failures like EIO.
_FSYNC_UNSUPPORTED = frozenset(
    e for e in (
        getattr(errno, "ENOTSUP", None),
        getattr(errno, "EOPNOTSUPP", None),
        errno.EINVAL,
    )
    if e is not None
)

#: Count of directory fsyncs skipped because the filesystem rejected
#: them; tests and operators can check this to see durability degraded.
FSYNC_DIR_FALLBACKS = 0

_warned_fsync_dirs: set[str] = set()


def fsync_dir(path: str) -> None:
    """fsync a directory so renames/creates inside it are durable.

    Filesystems common in CI containers (overlayfs, some network mounts)
    reject ``fsync`` on directory fds with ``EINVAL``/``ENOTSUP``.  Losing
    the directory-entry sync there only weakens durability against power
    loss -- the rename itself is still atomic -- so degrade to a one-time
    warning per directory instead of failing the append.
    """
    global FSYNC_DIR_FALLBACKS
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError as exc:
        if exc.errno not in _FSYNC_UNSUPPORTED:
            raise
        FSYNC_DIR_FALLBACKS += 1
        if path not in _warned_fsync_dirs:
            _warned_fsync_dirs.add(path)
            warnings.warn(
                f"filesystem rejects fsync on directory {path!r} "
                f"({errno.errorcode.get(exc.errno, exc.errno)}); renames "
                "remain atomic but are not durable against power loss",
                RuntimeWarning,
                stacklevel=2,
            )
    finally:
        os.close(fd)


def atomic_write_json(target: str, payload: dict) -> None:
    """Durably publish a JSON document: temp file + fsync + ``os.replace``
    + directory fsync.  Readers see the old document or the new one in
    full, never a partial write -- this is the commit primitive both the
    partition-store manifest and the client-state sidecar rely on.
    Compact ``json.dumps`` runs the C encoder; ``indent`` would not."""
    tmp = target + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)
    fsync_dir(os.path.dirname(target) or ".")

_DTYPE_TAGS: dict[str, int] = {"int64": 0, "uint64": 1, "float64": 2, "object": 3, "bool": 4}


def encode_object_column(arr: np.ndarray) -> bytes:
    """Length-prefixed big-endian big-ints (sign carried in a lead byte).

    Shared with :mod:`repro.engine.store`, which persists Paillier
    ciphertext columns in this framing (big-ints cannot be memory-mapped).
    """
    out = bytearray()
    for x in arr.ravel().tolist():
        x = int(x)
        sign = 1 if x < 0 else 0
        raw = abs(x).to_bytes((abs(x).bit_length() + 7) // 8 or 1, "big")
        out.extend(struct.pack("<BI", sign, len(raw)))
        out.extend(raw)
    return bytes(out)


def decode_object_column(data: bytes, rows: int) -> np.ndarray:
    out = np.empty(rows, dtype=object)
    offset = 0
    for j in range(rows):
        sign, length = struct.unpack_from("<BI", data, offset)
        offset += 5
        value = int.from_bytes(data[offset : offset + length], "big")
        offset += length
        out[j] = -value if sign else value
    return out


def serialize_table(table: Table, compress: bool = False) -> bytes:
    """Serialise a table; ``compress`` applies per-column Deflate."""
    buf = io.BytesIO()
    name = table.name.encode()
    buf.write(_MAGIC)
    buf.write(struct.pack("<HH", _VERSION, len(name)))
    buf.write(name)
    buf.write(struct.pack("<I", table.num_partitions))
    for part in table.partitions:
        buf.write(struct.pack("<QI", part.start_id, len(part.columns)))
        for cname in sorted(part.columns):
            arr = part.columns[cname]
            dtype_name = arr.dtype.name if arr.dtype != object else "object"
            if dtype_name not in _DTYPE_TAGS:
                raise ExecutionError(f"unsupported column dtype {arr.dtype} in {cname!r}")
            if arr.dtype == object:
                payload = encode_object_column(arr)
                width = 1
                rows = len(arr)
            else:
                payload = np.ascontiguousarray(arr).tobytes()
                rows = arr.shape[0]
                width = 1 if arr.ndim == 1 else arr.shape[1]
            compressed = 0
            if compress:
                packed = zlib.compress(payload, 1)
                if len(packed) < len(payload):
                    payload, compressed = packed, 1
            encoded_name = cname.encode()
            buf.write(struct.pack("<H", len(encoded_name)))
            buf.write(encoded_name)
            buf.write(
                struct.pack(
                    "<BBIIBQ",
                    _DTYPE_TAGS[dtype_name],
                    arr.ndim,
                    rows,
                    width,
                    compressed,
                    len(payload),
                )
            )
            buf.write(payload)
    return buf.getvalue()


def disk_size(table: Table, compress: bool = False) -> int:
    """Bytes the table occupies in cloud storage (Table 5, "Disk size")."""
    return len(serialize_table(table, compress=compress))


def memory_size(table: Table) -> int:
    """Bytes the table occupies in worker memory (Table 5, "Memory size").

    Adds a per-partition overhead factor approximating JVM object headers
    in the paper's Spark deployment (their in-memory sizes run ~1.5-3x the
    on-disk sizes).
    """
    raw = table.memory_bytes()
    per_partition_overhead = 64 * 1024
    return int(raw * 1.35) + per_partition_overhead * table.num_partitions
