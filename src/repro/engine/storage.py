"""Durable-write primitives, the big-int column framing, and memory size.

The paper stores tables in HDFS with protobuf serialisation and reports
per-dataset disk and in-memory sizes (Table 5).  Here the disk format is
the partition store (:mod:`repro.engine.store`, whose ``disk_bytes`` is
Table 5's disk column); this module holds what the store and the wire
codec share -- fsync helpers, the atomic JSON publish, the length-prefixed
framing of Paillier big-int columns -- and Table 5's memory estimate.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import warnings

import numpy as np

from repro.engine.table import Table

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


def memory_size(table: Table) -> int:
    """Bytes the table occupies in worker memory (Table 5, "Memory size").

    Adds a per-partition overhead factor approximating JVM object headers
    in the paper's Spark deployment (their in-memory sizes run ~1.5-3x the
    on-disk sizes).
    """
    raw = table.memory_bytes()
    per_partition_overhead = 64 * 1024
    return int(raw * 1.35) + per_partition_overhead * table.num_partitions
