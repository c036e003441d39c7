"""Placement as a test input.

A table's lifecycle (upload, append, compact, attach, crash recovery) has
one implementation whatever the placement, so the lifecycle suites take
the placement as a parameter instead of repeating their scenarios:

- ``single-store``    one partition store behind the in-process transport;
- ``sharded-local``   a worker fleet this process spawns (``shard_table``);
- ``sharded-remote``  the same fleet hosted by a service; every session is
  a ``repro.connect`` client.
"""

import repro
from repro.core.session import SeabedSession

PLACEMENTS = ["single-store", "sharded-local", "sharded-remote"]


class Placement:
    """One persisted table under one placement, and sessions attached to it."""

    def __init__(self, kind, root):
        self.kind = kind
        self.root = root
        self.sharded = kind != "single-store"
        self.remote = kind == "sharded-remote"
        self.service = None
        self._sessions = []
        self._writer_kwargs = {}

    def new_session(self, **kwargs):
        """An unattached local session to plan and build the table with;
        its arguments are what :meth:`persist` re-attaches with when a
        service takes the table over."""
        self._writer_kwargs = {k: v for k, v in kwargs.items() if k != "cluster"}
        session = SeabedSession(**kwargs)
        self._sessions.append(session)
        return session

    def persist(self, session, table, columns, shard_key, num_partitions=None):
        """Give the planned ``table`` its placement, load ``columns`` and
        return ``(writer, path)``: a session attached to the persisted
        table (``session`` itself unless a service now hosts it) and the
        path fresh sessions attach at."""
        if not self.sharded:
            session.upload(
                table, columns, num_partitions=num_partitions or 8,
                path=self.root / table,
            )
            return session, session.save_table(table)
        handle = session.shard_table(
            table, shard_key, str(self.root / table), num_shards=3, replicas=2
        )
        session.upload(table, columns)
        path = handle.root
        if not self.remote:
            return session, path
        session.close()  # the service's fleet takes over the node directories
        self.service = repro.serve(sharded=[path], auth_required=False)
        return self.attach(path, **self._writer_kwargs), path

    def attach(self, path, **kwargs):
        """A fresh session attached to the persisted table."""
        if self.remote:
            kwargs.pop("cluster", None)
            session = repro.connect(self.service.address, **kwargs)
        else:
            session = SeabedSession(**kwargs)
        self._sessions.append(session)
        if self.sharded:
            session.open_sharded(path)
        else:
            session.open_table(path)
        return session

    def stored_rows(self, session, table):
        """Rows physically in the table's store(s), committed or not."""
        return sum(session.encrypted_table(table).shard_rows().values())

    def compactions(self, stats):
        """Per-store compaction results as a list, whatever the placement."""
        return list(stats.values()) if self.sharded else [stats]

    def close(self):
        for session in self._sessions:
            session.close()
        if self.service is not None:
            self.service.stop()
