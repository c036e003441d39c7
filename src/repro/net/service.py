"""Threaded Seabed service: the untrusted server as a real process.

Hosts one or more :class:`~repro.core.server.SeabedServer` stores behind
a TCP listener speaking the :mod:`repro.net.codec` frame protocol, with
one blocking thread per connection, so many concurrent sessions (via
:class:`~repro.net.client.RemoteTransport`) can query, scan, append to
and compact the same ciphertext stores from other processes or hosts.

Three properties define the boundary:

- **Keyless.**  The service's state is ciphertexts, DET/ORE tokens and
  key-free sidecar payloads; it never constructs a
  :class:`~repro.crypto.keys.KeyChain` or any scheme object.  Clients
  can verify this live via the ``audit`` RPC, which runs
  :func:`repro.net.audit.audit_keyless` over the service's own object
  graph inside the serving process.
- **Token-gated.**  Bearer tokens are minted from the existing
  :class:`~repro.core.access.AccessController` machinery: a token maps
  to a user whose grant limits the tables it may touch, and revocation
  is instant without re-encryption (paper Section 4.3).
- **Admission-controlled.**  Each tenant gets a bounded in-flight
  budget plus a bounded wait queue; overload is answered with a typed
  ``Backpressure`` (RETRY_LATER) reply, never a hang, and every request
  carries a server-side timeout.

Run standalone with ``python -m repro.net.service --store PATH ...`` or
in-process via :func:`serve`.
"""

from __future__ import annotations

import argparse
import json
import secrets
import signal
import socket
import threading
import time
from collections import Counter
from concurrent import futures
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable

from repro.core import server as srv
from repro.core.access import AccessController
from repro.core.transport import LocalTransport
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.errors import AuthError, Backpressure, CodecError, TransportError
from repro.net import codec, rpc
from repro.net.audit import audit_keyless
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


#: Threads executing request bodies (a connection thread waits for its
#: request's body no longer than the server-side timeout).
EXECUTOR_THREADS = 8

#: Open connections (one thread each); the accept thread refuses more.
MAX_CONNECTIONS = 128

#: Seconds a new connection may take to send its whole hello before it
#: is dropped, however it splits the frame.
HELLO_TIMEOUT = 10.0

#: Largest frame a connection may announce before its hello passes (a
#: hello is a token and a user name); a longer one is refused unread.
HELLO_MAX_BYTES = 1 << 16


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; the bound port is on the handle
    storage_dir: str | None = None
    pruning: bool = True
    auth_required: bool = True
    #: Concurrent requests one tenant may have executing.
    max_in_flight: int = 4
    #: Requests one tenant may have *waiting* beyond the in-flight budget
    #: before the service answers Backpressure (RETRY_LATER).
    queue_depth: int = 16
    #: Server-side cap on any single request, seconds (None = unbounded).
    #: A client's per-call ``timeout=`` can only shorten its own wait; the
    #: body, shard-worker calls included, runs under this cap alone.
    request_timeout: float | None = 30.0
    #: Backoff hint carried in Backpressure replies, seconds.
    retry_after: float = 0.05


#: Ops that are the access check on ``args["table"]`` followed by the
#: :class:`LocalTransport` method of the same name, called with ``args``.
_TABLE_OPS = (
    "table_meta", "commit_state", "store_rows", "truncate_store", "reopen",
    "compact", "store_stats", "generations", "rebuild_index",
)


class SeabedService:
    """One keyless server process: stores, auth, admission, dispatch."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        stores: tuple[str, ...] | list[str] = (),
        sharded: tuple[str, ...] | list[str] = (),
    ):
        self.config = config or ServiceConfig()
        self.cluster = SimulatedCluster(
            ClusterConfig(storage_dir=self.config.storage_dir)
        )
        self.server = srv.SeabedServer(self.cluster, pruning=self.config.pruning)
        self._local = LocalTransport(self.server, self.cluster)
        self.access = AccessController()
        self._ops = self._handlers()
        self._tokens: dict[str, str] = {}  # token -> user
        # Per-tenant admission: requests executing, and waiting for a slot.
        self._running: Counter[str] = Counter()
        self._waiting: Counter[str] = Counter()
        self._pool = futures.ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS,
            thread_name_prefix="seabed-svc",
        )
        # Guards admission, open connections and ``_closed``; admission
        # waiters sleep on it.
        self._cond = threading.Condition()
        self._closed = False
        self._listener: socket.socket | None = None
        self._conns: set[socket.socket] = set()
        self._thread: threading.Thread | None = None  # the accept loop
        if not self.config.auth_required:
            self.access.grant("anonymous")
        # Entirely key-free: a store is served at its committed snapshot,
        # a sharded root through a respawned worker fleet, and the
        # sidecar's schema/cursor metadata is all either needs.
        for path in (*stores, *sharded):
            self._local.attach(path)

    # -- auth --------------------------------------------------------------

    def mint_token(
        self,
        user: str,
        tables: set[str] | None = None,
        *,
        token: str | None = None,
    ) -> str:
        """Grant ``user`` access to ``tables`` (None = all) and return a
        bearer token for the wire.  Tokens are capability handles over
        the proxy-side access machinery: :meth:`revoke` invalidates them
        instantly, without touching ciphertexts."""
        self.access.grant(user, tables)
        value = token or secrets.token_urlsafe(24)
        self._tokens[value] = user
        return value

    def revoke(self, user: str) -> None:
        self.access.revoke(user)

    def _authenticate(self, body: Any) -> str:
        if not isinstance(body, dict):
            raise AuthError("malformed hello")
        token = body.get("token")
        if not self.config.auth_required:
            user = body.get("user") or (
                self._tokens.get(token, "anonymous") if token else "anonymous"
            )
            if not self.access.is_active(user):
                self.access.grant(user)
            return user
        user = self._tokens.get(token) if isinstance(token, str) else None
        if user is None:
            raise AuthError("unknown bearer token")
        if not self.access.is_active(user):
            raise AuthError(f"token for user {user!r} has been revoked")
        return user

    # -- request execution (request pool threads) -------------------------

    def _handlers(self) -> dict[str, Callable[[str, dict[str, Any]], Any]]:
        """Op name -> ``handler(user, args)``: the access check on the
        table(s) the request names, then the :class:`LocalTransport` call."""
        local, check = self._local, self.access.check

        def on_table(method: Callable[..., Any]) -> Callable[..., Any]:
            def handler(user: str, args: dict[str, Any]) -> Any:
                check(user, args["table"])
                return method(**args)

            return handler

        def execute(user: str, args: dict[str, Any]) -> Any:
            request = args["request"]
            if not isinstance(request, srv.ServerQuery):
                raise CodecError("execute expects a ServerQuery request")
            check(user, request.table)
            if request.join is not None:
                check(user, request.join.build_table)
            return local.execute(request)

        def scan(user: str, args: dict[str, Any]) -> Any:
            check(user, args["table"])
            return local.scan(args["table"], args["columns"], args.get("filter"))

        def append_batch(user: str, args: dict[str, Any]) -> int:
            check(user, args["table"])
            batch = codec.unpack_table(args["batch"])
            return local.append_batch(
                args["table"], int(args["shard"]), batch, args["column_meta"]
            )

        def read_store_state(user: str, args: dict[str, Any]) -> dict[str, Any]:
            payload = local.read_store_state(args["path"])
            check(user, payload["schema"]["name"])
            return payload

        def create_store(user: str, args: dict[str, Any]) -> str:
            check(user, args["payload"]["schema"]["name"])
            return local.create_store(args["path"], args["payload"])

        def attach(user: str, args: dict[str, Any]) -> dict[str, Any]:
            read_store_state(user, args)
            return local.attach(args["path"])

        def audit(user: str, args: dict[str, Any]) -> dict[str, Any]:
            return asdict(audit_keyless(self))  # ok, objects_walked, flagged

        def metrics(user: str, args: dict[str, Any]) -> dict[str, Any]:
            # Live introspection: the serving process's own registry.
            # Auth-gated like every op (the connection already passed
            # _authenticate); contains only names, labels and numbers.
            reg = obs_metrics.get_registry()
            if args.get("fmt") == "json":
                return {"fmt": "json", "metrics": reg.snapshot()}
            return {"fmt": "prometheus", "text": reg.prometheus()}

        def trace(user: str, args: dict[str, Any]) -> dict[str, Any]:
            limit = args.get("limit")
            spans = obs_trace.get_tracer().spans(
                trace_id=args.get("trace_id"),
                limit=int(limit) if limit is not None else 256,
            )
            return {"spans": [s.to_dict() for s in spans]}

        handlers = {op: on_table(getattr(local, op)) for op in _TABLE_OPS}
        for fn in (execute, scan, append_batch, read_store_state, create_store,
                   attach, audit, metrics, trace):
            handlers[fn.__name__] = fn
        return handlers

    def _run_op(self, user: str, op: str, args: dict[str, Any]) -> Any:
        return rpc.handler(self._ops, "service", op)(user, args)

    def _admitted(
        self, user: str, queue_wait: float, deadline: float | None,
        op: str, args: dict[str, Any],
    ) -> Any:
        """Pool-thread body of one admitted request, run by
        :func:`rpc.answer` inside the ``service:<op>`` span: the op, under
        the request's deadline, plus the service's own accounting (queue
        wait, latency histogram)."""
        started = time.perf_counter()
        if queue_wait > 0:
            obs_trace.record_span("service:queue_wait", started - queue_wait, started)
        try:
            with rpc.deadline(deadline):
                result = self._run_op(user, op, args)
        finally:
            obs_metrics.get_registry().histogram(
                "seabed_service_request_seconds",
                "Service request latency by operation and tenant.",
                labelnames=("op", "tenant"),
            ).observe(time.perf_counter() - started, op=op, tenant=user)
        if isinstance(result, srv.ServerResponse) and result.metrics is not None:
            result.metrics.queue_wait = queue_wait
        return result

    # -- admission + dispatch (connection threads) -------------------------

    def _admit(self, user: str) -> bool:
        """Take one of ``user``'s in-flight slots, or report overload.  The
        wait queue is bounded: beyond ``queue_depth`` waiters the caller
        gets an immediate Backpressure reply instead of an unbounded stall."""
        running, waiting, limit = self._running, self._waiting, self.config.max_in_flight
        with self._cond:
            if running[user] >= limit:
                if waiting[user] >= self.config.queue_depth:
                    return False
                waiting[user] += 1
                while running[user] >= limit and not self._closed:
                    self._cond.wait()
                waiting[user] -= 1
                if self._closed:
                    return False
            running[user] += 1
            return True

    def _release(self, user: str) -> None:
        with self._cond:
            self._running[user] -= 1
            self._cond.notify_all()

    def _dispatch(self, user: str, body: Any) -> dict[str, Any]:
        try:
            op, args, requested, trace = rpc.parse(body)
        except CodecError as exc:
            return rpc.error_reply(exc)
        if op == "ping":
            return {"ok": True, "result": {"server": "seabed", "user": user}}
        queued_at = time.monotonic()
        if not self._admit(user):
            obs_metrics.get_registry().counter(
                "seabed_backpressure_total",
                "Requests rejected by per-tenant admission control.",
                labelnames=("tenant",),
            ).inc(1.0, tenant=user)
            return rpc.error_reply(
                Backpressure(
                    f"tenant {user!r} is over its admission budget "
                    f"({self.config.max_in_flight} in flight, "
                    f"{self.config.queue_depth} queued); retry later",
                    retry_after=self.config.retry_after,
                )
            )
        admitted = time.monotonic()
        # The client's per-call budget can only tighten how long it waits.
        # The body's own RPCs get what is left of the service's cap alone: a
        # shard worker that overruns it is killed, and no client picks that.
        cap = self.config.request_timeout
        timeout = min((t for t in (requested, cap) if t is not None), default=None)
        future = self._pool.submit(
            rpc.answer, op, args, trace,
            partial(
                self._admitted, user, admitted - queued_at,
                None if cap is None else admitted + cap,
            ),
            "service", tenant=user,
        )
        # The slot is held until the pool thread actually finishes -- a
        # timed-out request keeps consuming its budget rather than letting
        # a tenant stack abandoned work.
        future.add_done_callback(lambda _: self._release(user))
        try:
            return future.result(timeout)
        except futures.TimeoutError:
            return rpc.error_reply(
                TransportError(f"request {op!r} timed out after {timeout}s server-side")
            )

    # -- connection handling -----------------------------------------------

    def _write(self, sock: socket.socket, kind: str, body: Any) -> None:
        try:
            frame = codec.encode_frame(kind, body)
        except CodecError as exc:  # unencodable or oversized result
            frame = codec.encode_frame(kind, rpc.error_reply(exc))
        sock.sendall(frame)

    def _serve_conn(self, sock: socket.socket) -> None:
        """One connection's thread: hello, then request/reply until the
        peer hangs up or :meth:`stop` shuts the socket down."""
        user, reply_kind = None, "hello"
        # Both bounds are lifted once the hello passes.
        max_bytes, deadline = HELLO_MAX_BYTES, time.monotonic() + HELLO_TIMEOUT
        try:
            while True:
                try:
                    kind, body = codec.read_frame(sock, max_bytes, deadline)
                    if user is None:
                        if kind != "hello":
                            raise AuthError(f"expected hello, got {kind!r} frame")
                        user = self._authenticate(body)
                        max_bytes, deadline = codec.MAX_FRAME_BYTES, None
                        sock.settimeout(None)
                        reply = {"ok": True, "result": {
                            "server": "seabed", "wire_version": codec.WIRE_VERSION, "user": user,
                        }}
                    elif kind != "req":
                        raise CodecError(f"unexpected {kind!r} frame")
                    else:
                        reply = self._dispatch(user, body)
                except (CodecError, AuthError) as exc:
                    # Unparseable input, a failed hello or a hang-up
                    # (mid-)frame: answer typed, then drop the connection.
                    self._write(sock, reply_kind, rpc.error_reply(exc))
                    return
                self._write(sock, reply_kind, reply)
                reply_kind = "rep"
        except (OSError, RuntimeError, futures.CancelledError):
            pass  # peer vanished mid-write, or the service stopped (pool shut down)
        finally:
            with self._cond:
                self._conns.discard(sock)
            sock.close()

    # -- lifecycle ---------------------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # stop() shut the listener down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._cond:
                if self._closed or len(self._conns) >= MAX_CONNECTIONS:
                    sock.close()  # full, or stopping (the next accept fails)
                    continue
                self._conns.add(sock)
            threading.Thread(
                target=self._serve_conn, args=(sock,),
                name="seabed-svc-conn", daemon=True,
            ).start()

    def start(self) -> "ServiceHandle":
        """Bind the listener and accept on a background thread; returns a
        handle with the bound address."""
        if self._thread is not None:
            raise TransportError("service already started")
        host, port = self.config.host, self.config.port
        try:
            family = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][0]
            self._listener = socket.create_server((host, port), family=family, backlog=128)
        except OSError as exc:
            raise TransportError(f"service failed to start: {exc}") from exc
        host, port = self._listener.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._accept, args=(self._listener,), name="seabed-service", daemon=True
        )
        self._thread.start()
        return ServiceHandle(self, host, port)

    def stop(self) -> None:
        """Stop accepting, hang up every connection (an in-flight request's
        thread ends with its body) and join the accept thread.  Idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            for sock in [self._listener, *self._conns]:
                try:
                    if sock is not None:
                        sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # never connected, or already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._listener.close()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._local.close()


@dataclass
class ServiceHandle:
    """A running service: address, token minting, and shutdown."""

    service: SeabedService
    host: str
    port: int

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def mint_token(
        self, user: str, tables: set[str] | None = None, *, token: str | None = None
    ) -> str:
        return self.service.mint_token(user, tables, token=token)

    def revoke(self, user: str) -> None:
        self.service.revoke(user)

    def stop(self) -> None:
        self.service.stop()

    close = stop

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def serve(
    stores: tuple[str, ...] | list[str] = (),
    *,
    sharded: tuple[str, ...] | list[str] = (),
    config: ServiceConfig | None = None,
    **overrides: Any,
) -> ServiceHandle:
    """Host ``stores`` (and ``sharded`` roots) on a background service and
    return its handle::

        handle = repro.serve(stores=["/data/stores/sales"])
        token = handle.mint_token("alice")
        session = repro.connect(handle.address, token, master_key=KEY)
    """
    if config is None:
        config = ServiceConfig(**overrides)
    elif overrides:
        raise TransportError("pass either config= or keyword overrides, not both")
    service = SeabedService(config, stores=tuple(stores), sharded=tuple(sharded))
    return service.start()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.service",
        description="Host Seabed partition stores behind a TCP service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--store", action="append", default=[], help="partition store path (repeat)"
    )
    parser.add_argument(
        "--sharded", action="append", default=[], help="sharded table root (repeat)"
    )
    parser.add_argument("--storage-dir", default=None)
    parser.add_argument("--max-in-flight", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--request-timeout", type=float, default=30.0)
    parser.add_argument("--no-pruning", action="store_true")
    parser.add_argument("--no-auth", action="store_true")
    parser.add_argument(
        "--grant",
        action="append",
        default=[],
        metavar="USER:TOKEN",
        help="pre-mint a bearer token (repeat); USER gets all tables",
    )
    parser.add_argument(
        "--info-file",
        default=None,
        help="write {'host','port'} JSON here once the socket is bound",
    )
    args = parser.parse_args(argv)
    # Standalone serving process: name it in exported traces.
    obs_trace.set_process_label("seabed-service")
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        storage_dir=args.storage_dir,
        pruning=not args.no_pruning,
        auth_required=not args.no_auth,
        max_in_flight=args.max_in_flight,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
    )
    service = SeabedService(
        config, stores=tuple(args.store), sharded=tuple(args.sharded)
    )
    for grant in args.grant:
        user, _, token = grant.partition(":")
        if not user or not token:
            parser.error(f"--grant wants USER:TOKEN, got {grant!r}")
        service.mint_token(user, token=token)
    handle = service.start()
    if args.info_file:
        with open(args.info_file, "w", encoding="utf-8") as fh:
            json.dump({"host": handle.host, "port": handle.port}, fh)
    print(f"seabed service listening on {handle.host}:{handle.port}", flush=True)
    # SIGTERM stops the service like SIGINT does: dying without stop()
    # would orphan the shard workers (later-forked workers inherit the
    # earlier workers' pipe ends, so none of them ever sees EOF).
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        assert service._thread is not None
        service._thread.join()
    except KeyboardInterrupt:
        handle.stop()


if __name__ == "__main__":
    main()
