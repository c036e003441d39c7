"""Persistent columnar partition store with generational appends.

The paper's deployment model (Sections 5-6) is a long-lived encrypted
dataset living in untrusted cloud storage -- and the whole argument for
ASHE over Paillier (Section 3.1) is that ad-analytics data arrives
*continuously*, so the store must absorb streaming batches without
re-encrypting what is already there.  This module is that durable layer
for the simulated cluster.

Layout of one store directory::

    <store>/
      manifest.json          # format version, generation log, spans
      part-00000/            # generation 1: the initial bulk upload
        columns.bin          # every column, back to back
      part-00001/columns.bin
      gen-000002/            # one directory per appended generation
        part-00000/columns.bin
      gen-000003/...

A partition is one file: its columns' raw C-contiguous little-endian
buffers in sorted-name order, each starting at an 8-byte-aligned offset
that the reader derives from the manifest's per-column byte counts.  One
fsync makes a partition durable, and one read-only :class:`numpy.memmap`
of the file serves every numeric column as a view, so a partition larger
than RAM streams from the OS page cache.  Paillier ciphertext columns
(``object`` dtype big-ints) reuse the varint framing of
:mod:`repro.engine.storage` and are decoded eagerly from their byte range.

**Dictionary-coded DET columns.**  A DET token column (``*__det``, spec
``"coded": true``) is stored per partition as its sorted distinct tokens
(the *dictionary*, ``k`` little-endian uint64s) followed directly by one
code per row, an index into the dictionary as ``uint8`` / ``uint16`` /
``uint32`` by ``k`` (:func:`~repro.engine.table.code_dtype`); the
partition entry records ``k`` under ``dictionaries``.  The server codes
tokens itself (no key: equal tokens get equal codes, which DET already
reveals) with one ``np.unique`` per column per partition, whenever it
writes a partition -- upload, append and compaction alike -- and the
dictionary is that column's zone-map artifact.  A mapped
partition serves the codes as ``columns[name]`` and the dictionary as
``dictionaries[name]``: GROUP BY and DET equality run over the codes.

**Generations.**  The manifest is a log of *generations*: the initial
bulk write is generation 1 and every :func:`append_store` adds one more,
bumping a monotonic generation counter.  Appends are atomic -- the batch is staged in a temporary
directory, renamed into place, and only then does an ``os.replace`` of
the manifest publish it -- so a writer killed mid-append leaves the
store exactly at its previous generation.  :func:`compact_store` merges
runs of small append generations back into full-size partitions so scan
parallelism stays healthy under a drip of small batches.

**Snapshot consistency.**  :func:`open_store` returns a :class:`Table`
whose partitions are read-only maps of one generation's files, and that
table *is* the snapshot: the server registers it and hands its
:class:`Partition` objects to stage tasks, so a query keeps reading the
generation it was planned over whatever appends, compactions or store
replacements happen meanwhile (a map stays valid after its file is
unlinked).  Generations are append-only, so an older snapshot can also be
re-opened from a newer manifest (``open_store(path, generation=G)``) and a
query sees the store wholly pre- or wholly post-append, never torn.  Only
compaction retires old snapshots; re-opening one fails with a clear
:class:`StorageError` instead of silently reading reshuffled partitions.

**Zone maps.**  Every generation entry carries per-partition zone-map
statistics (:mod:`repro.index.zonemap`): ORE min/max ciphertexts, plain
min/max and row counts -- everything derivable from the ciphertext
columns the server already stores, nothing more.  ``write_store``,
``append_store`` and ``compact_store`` all emit stats for the partitions
they write (:func:`rebuild_stats` recomputes them).  A DET column's
artifact is its dictionary, which the partition file already holds: an
opened snapshot joins it into the partition's zone map
(:func:`~repro.index.zonemap.join_dictionaries`), and the server's
pruning planner consults the result through :attr:`Table.zone_maps`.

Everything stored here is public material: ciphertext columns, row IDs,
and dtype bookkeeping.  Client-side state (plaintext schema,
dictionaries, key-check values, and the row-count watermark that acts as
the append *commit record*) is persisted separately by
:mod:`repro.core.persistence`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from typing import Any

import numpy as np

from repro.engine.storage import (
    atomic_write_json,
    decode_object_column,
    encode_object_column,
    fsync_dir,
)
from repro.engine.table import Partition, Table, code_dtype, dictionary_code
from repro.errors import StorageError
from repro.idlist.codec import decode_id_spans, encode_id_spans, encode_span_groups
from repro.index.zonemap import (
    build_partition_stats,
    classify_column,
    join_dictionaries,
    stats_summary,
)

FORMAT_NAME = "seabed-store"
FORMAT_VERSION = 7
#: Manifest versions this build can read (version 7 keeps no DET stats in
#: the manifest, whose dictionaries are the DET zone maps; no reader for
#: the DET token stats of 6 remains).
READABLE_VERSIONS = (7,)
MANIFEST_NAME = "manifest.json"
#: The one file in a partition directory.
PARTITION_FILE = "columns.bin"
FIRST_GENERATION = 1

#: Crash-injection hook for the crash-safety suite: when this variable
#: names one of the labelled points inside append/compact, the process
#: dies there as abruptly as a killed writer would.
CRASH_POINT_ENV = "SEABED_STORE_CRASH_POINT"

#: numpy dtype name -> on-disk little-endian spec (the manifest records
#: the spec, so byte order is explicit regardless of the writing host).
_DTYPE_SPECS: dict[str, str] = {
    "int64": "<i8",
    "uint64": "<u8",
    "uint32": "<u4",  # ASHE over Z_2^32: SPLASHE indicators
    "float64": "<f8",
    "bool": "|b1",
    "object": "object",
}
_SPEC_DTYPES = {v: k for k, v in _DTYPE_SPECS.items()}


def _partition_dir(index: int) -> str:
    return f"part-{index:05d}"


def _generation_dir(gen_id: int) -> str:
    return f"gen-{gen_id:06d}"


def _maybe_crash(point: str) -> None:
    if os.environ.get(CRASH_POINT_ENV) == point:  # pragma: no cover - dies
        os._exit(70)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _column_spec(name: str, arr: np.ndarray) -> dict:
    dtype_name = "object" if arr.dtype == object else arr.dtype.name
    spec = _DTYPE_SPECS.get(dtype_name)
    if spec is None:
        raise StorageError(
            f"column {name!r} has unsupported dtype {arr.dtype} "
            f"(storable: {sorted(_DTYPE_SPECS)})"
        )
    if arr.ndim not in (1, 2):
        raise StorageError(f"column {name!r} has unsupported ndim {arr.ndim}")
    return {
        "dtype": spec,
        "ndim": int(arr.ndim),
        "width": 1 if arr.ndim == 1 else int(arr.shape[1]),
    }


def _column_specs(table: Table, column_meta: dict[str, str] | None) -> dict[str, dict]:
    if not table.partitions:
        raise StorageError(f"table {table.name!r} has no partitions to store")
    columns: dict[str, dict] = {}
    for name in table.column_names:
        columns[name] = _column_spec(name, table.partitions[0].column(name))
        if column_meta and name in column_meta:
            columns[name]["enc"] = column_meta[name]
        if classify_column(name, columns[name]) == "det":
            columns[name]["coded"] = True
    return columns


def _column_offsets(sizes: dict[str, int]) -> tuple[dict[str, int], int]:
    """Each column's offset in ``columns.bin`` and the file's size, from
    the per-column byte counts: sorted names, 8-byte-aligned starts."""
    offsets: dict[str, int] = {}
    end = 0
    for name in sorted(sizes):
        offsets[name] = end = end + -end % 8
        end += int(sizes[name])
    return offsets, end


def _write_partition(
    store: str, rel_dir: str, columns: dict[str, dict], part: Partition
) -> dict:
    """Write one partition under ``store/rel_dir``; returns its manifest
    entry (files, dictionary sizes, zone-map stats).

    Coded columns are coded here, then every column lands in one
    ``columns.bin``, fsynced once before it is counted: the manifest (and
    then the sidecar watermark) will claim these bytes durable, so they
    must actually reach the platter before that commit record does.
    """
    coded = sorted(n for n, spec in columns.items() if spec.get("coded"))
    for name in coded:
        dictionary, codes = dictionary_code(part.column(name))
        part = Partition({**part.columns, name: codes}, part.start_id,
                         {**part.dictionaries, name: dictionary})
    part_dir = os.path.join(store, rel_dir)
    os.makedirs(part_dir, exist_ok=True)
    sizes: dict[str, int] = {}
    with open(os.path.join(part_dir, PARTITION_FILE), "wb") as fh:
        for name in sorted(columns):
            spec, arr = columns[name], part.columns[name]
            dictionary = part.dictionaries.get(name)
            actual = _column_spec(name, arr if dictionary is None else dictionary)
            if (actual["dtype"], actual["width"]) != (spec["dtype"], spec["width"]):
                raise StorageError(
                    f"column {name!r} changes dtype/shape across partitions"
                )
            if spec["dtype"] == "object":
                buffers = [encode_object_column(arr)]
            elif dictionary is None:
                buffers = [np.ascontiguousarray(arr, dtype=np.dtype(spec["dtype"]))]
            else:
                width = code_dtype(dictionary.size).newbyteorder("<")
                buffers = [np.ascontiguousarray(dictionary, dtype=np.dtype(spec["dtype"])),
                           np.ascontiguousarray(arr, dtype=width)]
            fh.write(bytes(-fh.tell() % 8))
            sizes[name] = sum(fh.write(b) for b in buffers)
        fh.flush()
        os.fsync(fh.fileno())
    fsync_dir(part_dir)
    entry: dict[str, Any] = {"dir": rel_dir, "files": sizes}
    if coded:
        entry["dictionaries"] = {n: int(part.dictionaries[n].size) for n in coded}
    entry["stats"] = build_partition_stats(part, columns)
    return entry


def _generation_entry(
    gen_id: int, dir_name: str, table: Table, partitions: list[dict]
) -> dict:
    starts = np.asarray([p.start_id for p in table.partitions], dtype=np.uint64)
    counts = np.asarray([p.nrows for p in table.partitions], dtype=np.uint64)
    return {
        "id": gen_id,
        "dir": dir_name,
        "num_rows": int(counts.sum()),
        "spans_hex": encode_id_spans(starts, counts).hex(),
        "partitions": partitions,
    }


def write_store(
    table: Table,
    path: str | os.PathLike,
    column_meta: dict[str, str] | None = None,
) -> str:
    """Persist ``table`` under ``path``; returns the absolute store path.

    This is the initial bulk write: the table becomes generation 1 (its
    partitions live at the store root).  ``column_meta`` attaches one opaque
    string per column to the manifest (the session records each physical
    column's encryption class there).  An existing store is refused; the
    directory may hold anything else (a client-state sidecar, partitions
    a dead writer never published -- swept once the manifest lands).
    """
    path = os.path.abspath(os.fspath(path))
    if os.path.exists(os.path.join(path, MANIFEST_NAME)):
        raise StorageError(f"store already exists at {path!r}")
    os.makedirs(path, exist_ok=True)

    columns = _column_specs(table, column_meta)
    partitions = [
        _write_partition(path, _partition_dir(index), columns, part)
        for index, part in enumerate(table.partitions)
    ]

    # No staging rename here: the partitions are written but unpublished,
    # the state an append's two pre-manifest crash points leave behind.
    _maybe_crash("append:before-rename")
    _maybe_crash("append:after-rename")
    generation = _generation_entry(FIRST_GENERATION, "", table, partitions)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "table": table.name,
        # Random identity: preserved by appends/compaction, fresh on every
        # rewrite ("the same store advanced" vs "a different store
        # replaced this path").
        "store_id": os.urandom(8).hex(),
        "generation": FIRST_GENERATION,
        "num_rows": generation["num_rows"],
        "columns": columns,
        "generations": [generation],
    }
    # The manifest replace is the visibility point of every store mutation.
    atomic_write_json(os.path.join(path, MANIFEST_NAME), manifest)
    _maybe_crash("append:after-manifest")
    _sweep_unreferenced(path, manifest)
    return path


def remove_store(path: str | os.PathLike) -> None:
    """Delete the store at ``path``, leaving every other file there (a
    client-state sidecar) in place.  The manifest goes first: a writer
    killed midway leaves unreferenced directories, never a torn store."""
    path = os.path.abspath(os.fspath(path))
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    for entry in os.listdir(path):
        if entry.startswith(("part-", "gen-")):
            shutil.rmtree(os.path.join(path, entry), ignore_errors=True)


# ---------------------------------------------------------------------------
# Manifest reading / normalisation
# ---------------------------------------------------------------------------


def _read_manifest(path: str) -> dict:
    """Parse and validate the manifest."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise StorageError(f"no partition store at {path!r}") from None
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt store manifest at {path!r}: {exc}") from None
    if manifest.get("format") != FORMAT_NAME:
        raise StorageError(f"{path!r} is not a {FORMAT_NAME} directory")
    version = manifest.get("version")
    if version not in READABLE_VERSIONS:
        raise StorageError(
            f"store at {path!r} has format version {version!r}; "
            f"this build reads versions {list(READABLE_VERSIONS)}"
        )
    return manifest


def _store_end_id(manifest: dict) -> int:
    """One past the last row ID currently in the store."""
    last = manifest["generations"][-1]
    starts, counts = decode_id_spans(bytes.fromhex(last["spans_hex"]))
    if starts.size == 0:
        raise StorageError("store manifest holds an empty generation")
    return int(starts[-1]) + int(counts[-1])


def store_num_rows(path: str | os.PathLike) -> int:
    """Total rows the store currently holds (across all generations)."""
    return int(_read_manifest(os.path.abspath(os.fspath(path)))["num_rows"])


def _sweep_stale_tmp(path: str) -> None:
    """Remove staging leftovers from writers that died before renaming."""
    for entry in os.listdir(path):
        if entry.endswith(".tmp") and entry.startswith(("gen-", MANIFEST_NAME)):
            target = os.path.join(path, entry)
            shutil.rmtree(target) if os.path.isdir(target) else os.remove(target)


def _sweep_unreferenced(path: str, manifest: dict) -> None:
    """Remove partition/generation directories no generation references.

    A writer that died between publishing a compacted (or truncated)
    manifest and deleting the retired directories leaks them -- the
    manifest no longer names them, so nothing else ever would.  Writers
    call this after every successful publish.  Safe against concurrent
    readers: an unreferenced directory can only belong to a snapshot the
    manifest already retired, which re-opening refuses anyway.
    """
    referenced = set()
    for gen in manifest["generations"]:
        if gen["dir"]:
            referenced.add(gen["dir"])
        for part in gen["partitions"]:
            referenced.add(part["dir"].split("/", 1)[0])
    for entry in os.listdir(path):
        if entry.endswith(".tmp"):
            continue  # staging: _sweep_stale_tmp's concern
        if entry.startswith(("part-", "gen-")) and entry not in referenced:
            shutil.rmtree(os.path.join(path, entry), ignore_errors=True)


def _remove_generation_dirs(path: str, entries: list[dict]) -> None:
    """Delete the directories of retired generation entries.

    Root-dwelling generations (``dir == ""``, i.e. generation 1) have
    their partition directories removed individually.  Tables already
    holding maps of them keep working (POSIX keeps unlinked bytes
    readable); *re-opening* a retired generation fails at the manifest
    level with a clear error instead.
    """
    for gen in entries:
        if gen["dir"]:
            shutil.rmtree(os.path.join(path, gen["dir"]), ignore_errors=True)
        else:
            for part in gen["partitions"]:
                shutil.rmtree(os.path.join(path, part["dir"]), ignore_errors=True)


def _check_append_columns(manifest: dict, columns: dict[str, dict]) -> None:
    stored = manifest["columns"]
    if set(stored) != set(columns):
        raise StorageError(
            f"append batch columns {sorted(columns)} do not match the "
            f"store's {sorted(stored)}"
        )
    for name, spec in columns.items():
        have = stored[name]
        if (spec["dtype"], spec["ndim"], spec["width"]) != (
            have["dtype"], have["ndim"], have["width"]
        ):
            raise StorageError(
                f"append batch column {name!r} has spec {spec}, "
                f"store expects {have}"
            )


# ---------------------------------------------------------------------------
# Appending and truncation
# ---------------------------------------------------------------------------


def append_store(
    table: Table,
    path: str | os.PathLike,
    column_meta: dict[str, str] | None = None,
) -> int:
    """Append ``table`` (one encrypted batch) as a new generation.

    The batch's ``base_id`` must continue the store's row-ID sequence
    exactly (the high-water mark -- what keeps ASHE pads telescoping and
    ID lists range-compressible).  The write is atomic: partition files are
    staged under ``gen-NNNNNN.tmp``, renamed into place, and the updated
    manifest is published last via ``os.replace``; a writer killed at any
    point leaves the previous generation fully intact.

    Returns the new generation id.
    """
    path = os.path.abspath(os.fspath(path))
    manifest = _read_manifest(path)
    if manifest["table"] != table.name:
        raise StorageError(
            f"store at {path!r} holds table {manifest['table']!r}, "
            f"not {table.name!r}"
        )
    columns = _column_specs(table, column_meta)
    _check_append_columns(manifest, columns)
    end_id = _store_end_id(manifest)
    if table.base_id != end_id:
        raise StorageError(
            f"append batch starts at row ID {table.base_id} but the store "
            f"at {path!r} ends at {end_id}; batches must continue the "
            "row-ID sequence (truncate uncommitted generations first?)"
        )

    gen_id = int(manifest["generation"]) + 1
    dir_name = _generation_dir(gen_id)
    staging = os.path.join(path, dir_name + ".tmp")
    if os.path.exists(staging):
        shutil.rmtree(staging)
    partitions = [
        _write_partition(staging, _partition_dir(index), columns, part)
        for index, part in enumerate(table.partitions)
    ]
    for entry in partitions:
        entry["dir"] = f"{dir_name}/{entry['dir']}"

    _maybe_crash("append:before-rename")
    final = os.path.join(path, dir_name)
    if os.path.exists(final):
        shutil.rmtree(final)  # stray from an earlier crashed writer
    os.rename(staging, final)
    fsync_dir(path)
    _maybe_crash("append:after-rename")

    manifest["generations"].append(_generation_entry(gen_id, dir_name, table, partitions))
    manifest["generation"] = gen_id
    manifest["num_rows"] = int(manifest["num_rows"]) + table.num_rows
    atomic_write_json(os.path.join(path, MANIFEST_NAME), manifest)
    _maybe_crash("append:after-manifest")
    _sweep_stale_tmp(path)
    _sweep_unreferenced(path, manifest)
    return gen_id


def snapshot_generation(path: str | os.PathLike, num_rows: int) -> int | None:
    """The generation counter whose snapshot holds exactly ``num_rows``.

    Walks generation-list prefixes (generations tile the row-ID space in
    list order) and returns the counter value whose ``id <=`` filter
    reproduces that prefix, or ``None`` when no prefix matches -- e.g.
    the rows fall inside a generation, or compaction merged the boundary
    away.
    """
    manifest = _read_manifest(os.path.abspath(os.fspath(path)))
    gens = manifest["generations"]
    total = 0
    for i, gen in enumerate(gens):
        total += int(gen["num_rows"])
        if total == num_rows:
            counter = max(int(e["id"]) for e in gens[: i + 1])
            if all(int(e["id"]) > counter for e in gens[i + 1 :]):
                return counter
            return None
        if total > num_rows:
            return None
    return None


def truncate_store(path: str | os.PathLike, num_rows: int) -> int:
    """Drop whole generations until the store holds ``num_rows`` rows.

    This is the *rollback* half of the append commit protocol: an append
    publishes its generation in the manifest first and commits by
    updating the client-state sidecar's row watermark, so a writer that
    died in between leaves an uncommitted generation the next writer
    rolls back here.  ``num_rows`` must land exactly on a generation
    boundary.  The generation counter is *not* rewound -- retired ids
    are never reused, so a retired snapshot can always be detected.

    Returns the number of generations dropped (0 when already there).
    """
    path = os.path.abspath(os.fspath(path))
    manifest = _read_manifest(path)
    if int(manifest["num_rows"]) == num_rows:
        return 0
    keep: list[dict] = []
    total = 0
    for gen in manifest["generations"]:
        if total == num_rows:
            break
        total += int(gen["num_rows"])
        keep.append(gen)
    if total != num_rows or not keep:
        raise StorageError(
            f"cannot truncate store at {path!r} to {num_rows} rows: no "
            "generation boundary there"
        )
    dropped = manifest["generations"][len(keep):]
    manifest["generations"] = keep
    manifest["num_rows"] = num_rows
    atomic_write_json(os.path.join(path, MANIFEST_NAME), manifest)
    _remove_generation_dirs(path, dropped)
    _sweep_stale_tmp(path)
    _sweep_unreferenced(path, manifest)
    return len(dropped)


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------


def _gen_mean_partition_rows(gen: dict) -> float:
    return int(gen["num_rows"]) / max(len(gen["partitions"]), 1)


def _source_span_groups(
    source_spans: list[tuple[int, int]], out_spans: list[tuple[int, int]]
) -> list[list[tuple[int, int]]]:
    """Per output partition span, the source spans it absorbed."""
    groups: list[list[tuple[int, int]]] = []
    for lo, count in out_spans:
        hi = lo + count
        group = []
        for start, scount in source_spans:
            s, e = max(start, lo), min(start + scount, hi)
            if s < e:
                group.append((s, e - s))
        groups.append(group)
    return groups


def compact_store(
    path: str | os.PathLike, target_rows: int | None = None
) -> dict | None:
    """Merge runs of small append generations into full-size partitions.

    A store fed by streaming appends accumulates generations whose
    partitions are far smaller than the initial upload's, which inflates
    per-task scheduling cost and starves scan parallelism.  This rewrites
    every maximal run of *consecutive* small generations (mean partition
    rows below ``target_rows``, which defaults to the store's own
    largest mean -- its notion of full-size) into one new generation of
    ``target_rows``-sized partitions.  Consecutiveness matters: row IDs
    are contiguous in generation order, so only neighbouring generations
    can merge.

    The rewrite follows the same atomic protocol as appends (stage,
    rename, manifest replace); the merged entry records which generation
    ids it absorbed (``compacted_from``) and, per output partition, the
    source row-ID spans it covers (``source_spans_hex``, the span-group
    codec).  Retired generation directories are deleted after the
    manifest is published -- snapshots older than the compaction can no
    longer be re-opened (tables already open keep their maps).

    Returns a stats dict, or ``None`` when nothing needed compacting.
    """
    path = os.path.abspath(os.fspath(path))
    manifest = _read_manifest(path)
    gens = manifest["generations"]
    if target_rows is None:
        target_rows = max(1, math.ceil(max(_gen_mean_partition_rows(g) for g in gens)))

    # Maximal runs of consecutive small generations worth rewriting.
    runs: list[list[int]] = []
    current: list[int] = []
    for i, gen in enumerate(gens):
        if _gen_mean_partition_rows(gen) < target_rows:
            current.append(i)
        else:
            if current:
                runs.append(current)
            current = []
    if current:
        runs.append(current)

    def worth_it(run: list[int]) -> bool:
        rows = sum(int(gens[i]["num_rows"]) for i in run)
        parts = sum(len(gens[i]["partitions"]) for i in run)
        return len(run) > 1 or math.ceil(rows / target_rows) < parts

    runs = [run for run in runs if worth_it(run)]
    if not runs:
        # Nothing to merge -- but a previous writer may have died between
        # its manifest publish and its directory cleanup, so sweep.
        _sweep_stale_tmp(path)
        _sweep_unreferenced(path, manifest)
        return None

    # Source data resolves through the current snapshot's mmaps; the
    # rewrite streams one *output* partition at a time (and releases
    # fully consumed sources as it goes), so compaction memory is
    # bounded by target_rows x columns even when a run spans a table
    # larger than RAM.
    snapshot = StoreReader(path)
    parts_before = snapshot.num_partitions
    names = snapshot.column_names
    counter = int(manifest["generation"])
    new_generations: list[dict] = list(gens)
    staged: list[tuple[str, str]] = []  # (staging dir, final dir)
    replaced: list[dict] = []
    offsets = np.concatenate([[0], np.cumsum([len(g["partitions"]) for g in gens])])

    for run in runs:
        run_gens = [gens[i] for i in run]
        indices = list(range(int(offsets[run[0]]), int(offsets[run[-1] + 1])))
        source_spans: list[tuple[int, int]] = []
        for gen in run_gens:
            starts, counts = decode_id_spans(bytes.fromhex(gen["spans_hex"]))
            source_spans.extend(zip(starts.tolist(), counts.tolist()))
        rows = sum(count for _, count in source_spans)
        base = source_spans[0][0]
        nparts = max(1, math.ceil(rows / target_rows))
        bounds = np.linspace(0, rows, nparts + 1).astype(np.int64)

        counter += 1
        dir_name = _generation_dir(counter)
        staging = os.path.join(path, dir_name + ".tmp")
        if os.path.exists(staging):
            shutil.rmtree(staging)
        partitions = []
        out_spans: list[tuple[int, int]] = []
        for out in range(nparts):
            lo, hi = int(bounds[out]), int(bounds[out + 1])
            pieces: dict[str, list[np.ndarray]] = {name: [] for name in names}
            offset = 0
            for index, (_, scount) in zip(indices, source_spans):
                s, e = max(lo, offset), min(hi, offset + scount)
                if s < e:
                    # Sources decode to tokens; the merged partition is
                    # coded afresh against its own dictionary.
                    part = snapshot.partition(index).slice(s - offset, e - offset)
                    for name in names:
                        pieces[name].append(part.column(name))
                    if offset + scount <= hi:
                        # Later output partitions start at hi, so this
                        # source is fully consumed: drop its maps now.
                        snapshot.release(index)
                offset += scount
            out_part = Partition(
                columns={n: np.concatenate(p) for n, p in pieces.items()},
                start_id=base + lo,
            )
            entry = _write_partition(
                staging, _partition_dir(out), manifest["columns"], out_part)
            entry["dir"] = f"{dir_name}/{entry['dir']}"
            partitions.append(entry)
            out_spans.append((base + lo, hi - lo))
            del out_part, pieces

        entry = {
            "id": counter,
            "dir": dir_name,
            "num_rows": rows,
            "spans_hex": encode_id_spans(
                np.asarray([s for s, _ in out_spans], dtype=np.uint64),
                np.asarray([c for _, c in out_spans], dtype=np.uint64),
            ).hex(),
            "partitions": partitions,
            "compacted_from": [int(g["id"]) for g in run_gens],
            "source_spans_hex": encode_span_groups(
                _source_span_groups(source_spans, out_spans)
            ).hex(),
        }
        # Replace the run (in ID-space order) with the merged entry.
        pos = new_generations.index(run_gens[0])
        for g in run_gens:
            new_generations.remove(g)
        new_generations.insert(pos, entry)
        replaced.extend(run_gens)
        staged.append((staging, os.path.join(path, dir_name)))

    _maybe_crash("compact:before-rename")
    for staging, final in staged:
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(staging, final)
    fsync_dir(path)
    _maybe_crash("compact:after-rename")
    manifest["generations"] = new_generations
    manifest["generation"] = counter
    atomic_write_json(os.path.join(path, MANIFEST_NAME), manifest)
    _maybe_crash("compact:after-manifest")
    _remove_generation_dirs(path, replaced)
    _sweep_stale_tmp(path)
    _sweep_unreferenced(path, manifest)
    return {
        "merged_runs": len(runs),
        "generations_before": len(gens),
        "generations_after": len(new_generations),
        "partitions_before": parts_before,
        "partitions_after": sum(len(g["partitions"]) for g in new_generations),
        "target_rows": int(target_rows),
        "generation": counter,
    }


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class StoreReader:
    """One opened store snapshot: parsed manifest plus lazily mapped
    partitions.

    ``generation`` selects the snapshot: only generations with ``id <=
    generation`` are visible, which reconstructs any pre-append state
    from the current (append-only) manifest.  ``None`` reads the latest.
    """

    def __init__(self, path: str | os.PathLike, generation: int | None = None):
        self.path = os.path.abspath(os.fspath(path))
        manifest = _read_manifest(self.path)
        self.manifest = manifest
        self.table_name: str = manifest["table"]
        current = int(manifest["generation"])
        self.generation: int = current if generation is None else int(generation)
        if self.generation > current:
            raise StorageError(
                f"store at {self.path!r} has no generation "
                f"{self.generation} yet (manifest is at {current}); the "
                "snapshot is stale or the store was replaced"
            )
        included = [
            g for g in manifest["generations"] if int(g["id"]) <= self.generation
        ]
        # A generation *above* the requested snapshot that absorbed
        # generations at or below it means the snapshot's own files are
        # gone: compaction retires old snapshots, and silently serving
        # the remaining prefix would be a different (smaller) snapshot.
        for gen in manifest["generations"]:
            if int(gen["id"]) <= self.generation:
                continue
            if any(int(m) <= self.generation for m in gen.get("compacted_from", [])):
                raise StorageError(
                    f"store at {self.path!r}: the snapshot at generation "
                    f"{self.generation} was compacted away; re-open the table"
                )
        if not included:
            raise StorageError(
                f"store at {self.path!r} has no snapshot at generation "
                f"{self.generation} (compacted away?)"
            )
        self._entries: list[dict] = []
        #: Each partition's identity.  A directory never names two
        #: contents under one ``store_id``: generation ids are never
        #: rewound, and a rewrite mints a new id.
        self.keys: list[tuple] = []
        starts_all: list[int] = []
        counts_all: list[int] = []
        next_id: int | None = None
        for gen in included:
            starts, counts = decode_id_spans(bytes.fromhex(gen["spans_hex"]))
            if len(starts) != len(gen["partitions"]):
                raise StorageError(
                    f"store at {self.path!r}: generation {gen['id']} span "
                    "count does not match its partitions"
                )
            for part, start, count in zip(
                gen["partitions"], starts.tolist(), counts.tolist()
            ):
                if next_id is not None and start != next_id:
                    raise StorageError(
                        f"store at {self.path!r}: snapshot at generation "
                        f"{self.generation} is not contiguous (expected row "
                        f"ID {next_id}, got {start}); it was compacted "
                        "away or the manifest is corrupt -- re-open the table"
                    )
                next_id = start + count
                self._entries.append(part)
                files = tuple(sorted(part["files"].items()))
                self.keys.append((manifest["store_id"], part["dir"], start, count, files))
                starts_all.append(start)
                counts_all.append(count)
        self._starts = np.asarray(starts_all, dtype=np.uint64)
        self._counts = np.asarray(counts_all, dtype=np.uint64)
        self._partitions: dict[int, Partition] = {}

    @property
    def num_partitions(self) -> int:
        return len(self._entries)

    @property
    def num_rows(self) -> int:
        return int(self._counts.sum())

    @property
    def column_names(self) -> list[str]:
        return sorted(self.manifest["columns"])

    def partition(self, index: int) -> Partition:
        """The partition at ``index``, memory-mapped and cached."""
        part = self._partitions.get(index)
        if part is None:
            part = self._partitions[index] = self._load_partition(index)
        return part

    def release(self, index: int) -> None:
        """Drop the cached partition at ``index`` (its maps close once
        no slice references them); compaction releases fully consumed
        sources so a large run never pins the whole table."""
        self._partitions.pop(index, None)

    def table(self, served: Table | None = None) -> Table:
        """Materialise the snapshot (column data stays memory-mapped),
        sharing the partitions of ``served`` whose ``keys`` it keeps; each
        partition's zone map gains its DET dictionaries."""
        mapped = {}
        if served is not None and served.store_path == self.path:
            mapped = dict(zip(served.store_keys, served.partitions))
        parts = [mapped.get(k) or self.partition(i) for i, k in enumerate(self.keys)]
        return Table(
            self.table_name,
            parts,
            store_path=self.path,
            store_generation=self.generation,
            zone_maps=[join_dictionaries(entry.get("stats"), part.dictionaries)
                       for entry, part in zip(self._entries, parts)],
            store_keys=self.keys,
        )

    # -- internals -----------------------------------------------------------

    def _load_partition(self, index: int) -> Partition:
        if not 0 <= index < self.num_partitions:
            raise StorageError(
                f"store at {self.path!r} has no partition {index} "
                f"(0..{self.num_partitions - 1})"
            )
        entry = self._entries[index]
        rows = int(self._counts[index])
        specs = self.manifest["columns"]
        where = f"store at {self.path!r}: {entry['dir']}/{PARTITION_FILE}"
        if set(entry["files"]) != set(specs):
            raise StorageError(
                f"{where} holds columns {sorted(entry['files'])}, the store "
                f"has {sorted(specs)}"
            )
        offsets, end = _column_offsets(entry["files"])
        target = os.path.join(self.path, entry["dir"], PARTITION_FILE)
        try:
            actual = os.path.getsize(target)
        except OSError:
            raise StorageError(f"{where}: missing column file") from None
        if actual != end:
            raise StorageError(
                f"{where} is {actual} bytes, manifest says {end} (truncated "
                "or overwritten?)"
            )
        # One map per partition; mode="r" maps the ciphertexts read-only:
        # partitions stream from the page cache and no task can mutate
        # stored data in place.  A zero-row partition's file is empty.
        raw = np.memmap(target, mode="r") if end else np.empty(0, np.uint8)
        columns: dict[str, np.ndarray] = {}
        dictionaries: dict[str, np.ndarray] = {}
        dict_sizes = entry.get("dictionaries", {})
        for name, spec in specs.items():
            chunk = raw[offsets[name] : offsets[name] + int(entry["files"][name])]
            if spec["dtype"] == "object":
                columns[name] = decode_object_column(chunk.tobytes(), rows)
                continue
            dtype, width = np.dtype(spec["dtype"]), int(spec["width"])
            shape = (rows,) if spec["ndim"] == 1 else (rows, width)
            if spec.get("coded"):
                tokens = int(dict_sizes.get(name, -1))
                head = tokens * dtype.itemsize
                if not 0 <= head <= chunk.size:
                    raise StorageError(
                        f"{where}: column {name!r} has no valid dictionary size")
                # a plain array: its take() decodes codes into plain arrays
                dictionaries[name] = np.asarray(_view(chunk[:head], dtype, (tokens,)))
                chunk = chunk[head:]
                dtype = code_dtype(tokens).newbyteorder("<")
            if rows * width * dtype.itemsize != chunk.size:
                raise StorageError(
                    f"{where}: column {name!r} holds {chunk.size} bytes but "
                    f"the manifest shape needs {rows * width * dtype.itemsize}"
                )
            columns[name] = _view(chunk, dtype, shape)
        return Partition(columns, int(self._starts[index]), dictionaries)


def _view(chunk: np.ndarray, dtype: np.dtype, shape: tuple) -> np.ndarray:
    """``chunk``'s bytes as a ``shape`` array of ``dtype`` (a map view)."""
    return chunk.view(dtype).reshape(shape) if chunk.size else np.empty(shape, dtype)


def open_store(
    path: str | os.PathLike,
    generation: int | None = None,
    served: Table | None = None,
) -> Table:
    """Attach to a stored table: manifest parse + memory maps, no copies.

    ``generation`` pins a snapshot (see :class:`StoreReader`); the
    default is the store's current state.  Partitions whose files are
    unchanged are shared with ``served``, the table the result replaces;
    the rest are mapped.  A map lives as long as the last table holding it.
    """
    return StoreReader(path, generation).table(served)


def disk_bytes(path: str | os.PathLike) -> int:
    """Total bytes the store occupies on disk (partition files + manifest)."""
    path = os.fspath(path)
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for filename in filenames:
            total += os.path.getsize(os.path.join(dirpath, filename))
    return total


def rebuild_stats(path: str | os.PathLike) -> dict[str, Any]:
    """Recompute zone-map statistics for *every* partition and publish.

    Refreshes stats whose build parameters changed (they are otherwise
    deterministic functions of immutable partition files).  Publishing
    follows the same atomic manifest replace as every other mutation
    (readers see the old stats or the new ones, never a mix).  Returns
    the new index summary (:func:`store_stats`).
    """
    path = os.path.abspath(os.fspath(path))
    manifest = _read_manifest(path)
    entries = [
        part for gen in manifest["generations"] for part in gen["partitions"]
    ]
    snapshot = StoreReader(path)
    for index, part in enumerate(entries):
        part["stats"] = build_partition_stats(
            snapshot.partition(index), manifest["columns"]
        )
        snapshot.release(index)
    atomic_write_json(os.path.join(path, MANIFEST_NAME), manifest)
    return store_stats(path)


def store_stats(path: str | os.PathLike) -> dict[str, Any]:
    """Zone-map index summary of the latest snapshot: coverage and
    per-column artifact counts."""
    snapshot = StoreReader(path)
    summary = stats_summary(snapshot.table().zone_maps)
    summary["generation"] = snapshot.generation
    return summary


def store_generations(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Introspection: per-generation summary (id, rows, partitions, dirs).

    Used by tests, benchmarks and the quickstart's ingestion demo to show
    the generation log without touching manifest internals.
    """
    manifest = _read_manifest(os.path.abspath(os.fspath(path)))
    return [
        {
            "id": int(g["id"]),
            "dir": g["dir"],
            "num_rows": int(g["num_rows"]),
            "num_partitions": len(g["partitions"]),
            "compacted_from": list(g.get("compacted_from", [])),
        }
        for g in manifest["generations"]
    ]
