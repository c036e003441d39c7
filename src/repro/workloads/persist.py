"""Persistence round-trips for workload loaders.

Every workload loader builds a session, plans, and uploads -- and the
first upload already wrote the encrypted table to a partition store
(under ``--persist DIR`` at ``DIR/<table>``).  The helper below
exercises the rest of the paper's deployment loop: attach that store
from a *fresh* session holding the same master key, and verify the
reopened table answers queries identically with zero re-encryption.
This is the cheapest end-to-end proof that a dataset uploaded once
keeps serving analytics jobs from disk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.ops import OPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import AppendStats, EncryptedTable, SeabedSession


def persist_round_trip(
    session: "SeabedSession",
    table: str,
    master_key: bytes,
    **session_kwargs,
) -> tuple["SeabedSession", "EncryptedTable"]:
    """Reattach ``table``'s store from a brand-new session, and prove the
    attach performed zero encryption work.

    ``master_key`` must be the key ``session`` was constructed with (the
    sidecar's key-check rejects any other).  Extra ``session_kwargs``
    (cluster, paillier keys...) are forwarded to the fresh
    session.  Returns ``(fresh_session, handle)``.
    """
    from repro.core.session import SeabedSession

    store_path = session.save_table(table)
    fresh = SeabedSession(
        master_key=master_key, mode=session.mode, **session_kwargs
    )
    before = OPS.snapshot()
    handle = fresh.open_table(store_path)
    encrypt_ops = {
        op: n for op, n in OPS.delta(before).items() if op.startswith("encrypt")
    }
    if encrypt_ops:  # pragma: no cover - guards a regression
        raise AssertionError(
            f"attaching a stored table re-encrypted data: {encrypt_ops}"
        )
    return fresh, handle


def ingest_stream(
    session: "SeabedSession",
    table: str,
    batches: Iterable[Mapping[str, Any]],
    compact_every: int | None = None,
) -> list["AppendStats"]:
    """Drive a batch stream through incremental ingestion.

    Appends every batch to ``table``'s partition store (its first
    ``upload`` created it), compacting
    after every ``compact_every`` appends so a long drip of small
    batches does not erode scan parallelism.  Used with
    :func:`repro.workloads.adanalytics.stream_batches` this replays the
    paper's flagship workload as arriving traffic.  Returns the per-batch
    :class:`~repro.core.session.AppendStats`.
    """
    stats = []
    for i, batch in enumerate(batches):
        stats.append(session.append_rows(table, batch))
        if compact_every and (i + 1) % compact_every == 0:
            session.compact_table(table)
    return stats
