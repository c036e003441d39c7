"""Client half of the service boundary: :class:`RemoteTransport`.

A blocking socket client for the :mod:`repro.net.service` protocol that
plugs into :class:`~repro.core.session.SeabedSession` via the
:class:`~repro.core.transport.Transport` interface -- queries, scans,
appends, compaction and sharded scatter-gather all flow through the same
method set the in-process :class:`~repro.core.transport.LocalTransport`
implements, so session code is identical either way.

Failure surface is typed, never a raw ``OSError``:

- connection loss / refused / mid-frame close ->
  :class:`~repro.errors.TransportError` (idempotent reads are retried
  with exponential backoff and a fresh connection first);
- bad token or revocation -> :class:`~repro.errors.AuthError`;
- admission-control rejection -> :class:`~repro.errors.Backpressure`
  with its ``retry_after`` hint;
- malformed frames / version skew -> :class:`~repro.errors.CodecError`.

:func:`connect` is the top-level entry point::

    session = repro.connect(("127.0.0.1", 7733), token, master_key=KEY)
    session.open_table("sales")
"""

from __future__ import annotations

import socket
import time
from typing import Any

from repro.core.transport import Transport
from repro.errors import AuthError, Backpressure, CodecError, SeabedError, TransportError
from repro.net import codec, rpc
from repro.obs import trace as obs_trace

#: Ops safe to replay on a fresh connection after a transport failure:
#: pure reads, plus reconcile-style ops whose replay converges.
_IDEMPOTENT = {
    "ping", "execute", "scan", "table_meta", "read_store_state", "store_rows",
    "store_stats", "generations", "audit", "metrics", "trace", "reopen", "attach",
}


#: Seconds to wait for the TCP connect and the hello handshake.
CONNECT_TIMEOUT = 10.0
#: Per-request budget, seconds, when a call passes no ``timeout=``; it
#: rides in the envelope so the service enforces it too.
DEFAULT_TIMEOUT = 60.0
#: Attempts an idempotent op gets, each after a failure on a fresh
#: connection; any other op gets one.
ATTEMPTS = 3
#: Seconds slept before the second attempt, doubling before each later one.
BACKOFF = 0.05


class RemoteTransport(Transport):
    """Socket client for a :class:`~repro.net.service.SeabedService`.

    One connection, one request at a time (the session API is
    synchronous); concurrency comes from multiple sessions, exactly as
    multiple tenants hit the service.  ``timeout`` per call rides in the
    request envelope so the *server* enforces it too; the socket itself
    waits slightly longer so the typed server-side timeout reply wins
    over a raw socket timeout when both trigger.
    """

    local = False

    def __init__(
        self,
        address: tuple[str, int] | str,
        token: str | None = None,
        *,
        user: str | None = None,
    ):
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            if not host or not port.isdigit():
                raise TransportError(
                    f"address {address!r} is not 'host:port' or (host, port)"
                )
            address = (host, int(port))
        self.address = address
        self._token = token
        self._user = user
        self._sock: socket.socket | None = None
        self.server_info: dict[str, Any] | None = None
        self._connect()  # fail fast on bad address / bad token

    # -- connection management ---------------------------------------------

    def _connect(self) -> None:
        try:
            sock = socket.create_connection(self.address, timeout=CONNECT_TIMEOUT)
        except OSError as exc:
            raise TransportError(
                f"cannot reach seabed service at {self.address[0]}:"
                f"{self.address[1]}: {exc}"
            ) from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            codec.write_frame(
                sock, "hello", {"token": self._token, "user": self._user}
            )
            kind, body = codec.read_frame(sock)
            if kind != "hello":
                raise CodecError(f"expected a hello reply, got {kind!r}")
            self.server_info = rpc.unwrap(body) or {}
        except OSError as exc:
            sock.close()
            raise TransportError(f"handshake failed: {exc}") from exc
        except SeabedError:
            sock.close()
            raise
        self._sock = sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._drop()

    # -- request plumbing ---------------------------------------------------

    def _trace_context(self) -> dict[str, Any] | None:
        """The trace context attached to outgoing requests (the ambient
        span's ids, or ``None``).  A separate method so version-skew
        tests can stub a legacy client that never sends one."""
        return obs_trace.current_context()

    def _request(
        self, op: str, args: dict[str, Any], *, timeout: float | None = None
    ) -> Any:
        if not obs_trace.enabled():
            return self._request_inner(op, args, None, timeout)
        # The wire span covers encode + socket + decode + retries; the
        # server parents its own spans under it via the sent context.
        with obs_trace.span(f"wire:{op}"):
            return self._request_inner(op, args, self._trace_context(), timeout)

    def _request_inner(
        self,
        op: str,
        args: dict[str, Any],
        trace_ctx: dict[str, Any] | None,
        timeout: float | None,
    ) -> Any:
        limit = timeout if timeout is not None else DEFAULT_TIMEOUT
        attempts = ATTEMPTS if op in _IDEMPOTENT else 1
        last: Exception | None = None
        envelope = rpc.request(op, args, timeout=limit, trace=trace_ctx)
        for attempt in range(attempts):
            if attempt:
                time.sleep(BACKOFF * (2 ** (attempt - 1)))
            try:
                if self._sock is None:
                    self._connect()
                sock = self._sock
                assert sock is not None
                # Grace beyond the server-side budget so its typed
                # timeout reply arrives before the socket gives up.
                sock.settimeout(limit + 5.0 if limit is not None else None)
                codec.write_frame(sock, "req", envelope)
                kind, body = codec.read_frame(sock)
            except (AuthError, Backpressure):
                raise
            except socket.timeout as exc:
                self._drop()
                raise TransportError(
                    f"request {op!r} timed out after {limit}s on the wire"
                ) from exc
            except (OSError, CodecError) as exc:
                self._drop()
                if isinstance(exc, CodecError) and "version skew" in str(exc):
                    raise  # retrying cannot fix a protocol mismatch
                last = exc
                continue
            if kind != "rep":
                self._drop()
                raise CodecError(f"expected a rep frame, got {kind!r}")
            return rpc.unwrap(body)
        if isinstance(last, CodecError):
            raise last
        raise TransportError(
            f"request {op!r} failed after {attempts} attempt(s): {last}"
        ) from last

    # -- Transport interface ------------------------------------------------

    def execute(self, request, *, timeout: float | None = None):
        started = time.monotonic()
        response = self._request("execute", {"request": request}, timeout=timeout)
        metrics = getattr(response, "metrics", None)
        if metrics is not None:
            # client-observed round trip: serialization + network + service
            metrics.wire_time = time.monotonic() - started
        return response

    def scan(self, table, columns, filt, *, timeout: float | None = None):
        return self._request(
            "scan",
            {"table": table, "columns": list(columns), "filter": filt},
            timeout=timeout,
        )

    def append_batch(self, table, shard, encrypted, column_meta) -> int:
        return int(
            self._request(
                "append_batch",
                {
                    "table": table,
                    "shard": shard,
                    "batch": codec.pack_table(encrypted),
                    "column_meta": dict(column_meta),
                },
            )
        )

    def table_meta(self, table: str) -> dict[str, Any] | None:
        return self._request("table_meta", {"table": table})

    def create_store(self, path: str | None, payload: dict[str, Any]) -> str:
        return self._request("create_store", {"path": path, "payload": payload})

    def commit_state(self, table: str, payload: dict[str, Any]) -> None:
        self._request("commit_state", {"table": table, "payload": payload})

    def read_store_state(self, path: str) -> dict[str, Any]:
        return self._request("read_store_state", {"path": path})

    def store_rows(self, table: str, shard: int) -> int:
        return int(self._request("store_rows", {"table": table, "shard": shard}))

    def truncate_store(self, table: str, shard: int, committed: int) -> None:
        self._request(
            "truncate_store",
            {"table": table, "shard": shard, "committed": committed},
        )

    def reopen(self, table: str) -> None:
        self._request("reopen", {"table": table})

    def compact(self, table: str, target_rows: int | None = None) -> Any:
        return self._request("compact", {"table": table, "target_rows": target_rows})

    def store_stats(self, table: str) -> dict:
        return self._request("store_stats", {"table": table})

    def generations(self, table: str) -> list[dict]:
        return self._request("generations", {"table": table})

    def rebuild_index(self, table: str) -> dict:
        return self._request("rebuild_index", {"table": table})

    def attach(self, path: str) -> dict[str, Any]:
        return self._request("attach", {"path": path})

    # -- extras --------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self._request("ping", {})

    def audit_server(self) -> dict[str, Any]:
        """Run the keyless audit *inside the serving process* and return
        its summary: ``{"ok", "objects_walked", "flagged"}``."""
        return self._request("audit", {})

    def server_metrics(self, fmt: str = "prometheus") -> dict[str, Any]:
        """Scrape the serving process's metrics registry.

        ``fmt="prometheus"`` returns ``{"fmt", "text"}`` with the text
        exposition; ``fmt="json"`` returns ``{"fmt", "metrics"}`` with
        the nested snapshot.
        """
        return self._request("metrics", {"fmt": fmt})

    def server_trace(
        self, trace_id: str | None = None, limit: int = 256
    ) -> dict[str, Any]:
        """Fetch recent spans retained by the serving process (local-only
        traces of untraced requests included), optionally filtered by
        ``trace_id``; returns ``{"spans": [span dicts...]}``."""
        return self._request("trace", {"trace_id": trace_id, "limit": limit})


def connect(
    address: tuple[str, int] | str,
    token: str | None = None,
    *,
    user: str | None = None,
    **session_kwargs: Any,
):
    """Open a :class:`~repro.core.session.SeabedSession` against a remote
    service.  ``session_kwargs`` (``master_key=``, ``mode=``, ...) are the
    usual session arguments -- keys stay on this side of the wire."""
    from repro.core.session import SeabedSession

    transport = RemoteTransport(address, token, user=user)
    try:
        return SeabedSession(transport=transport, **session_kwargs)
    except BaseException:  # a refused argument must not leak the socket
        transport.close()
        raise


__all__ = ["RemoteTransport", "connect"]
