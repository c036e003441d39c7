"""Service-layer behavior: auth, admission control, timeouts, typed
wire errors.  Everything here runs the real threaded listener on
localhost -- only the client and server share a process."""

from __future__ import annotations

import gc
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import (
    AuthError,
    Backpressure,
    CodecError,
    CryptoError,
    StorageError,
    TransportError,
)
from repro.net import client as client_mod
from repro.net import codec
from repro.net import service as service_mod
from repro.net.client import RemoteTransport
from repro.net.service import SeabedService, ServiceConfig

KEY = b"t" * 32

SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True,
               distinct_values=["us", "eu", "apac"]),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
SAMPLES = [
    "SELECT sum(amount) FROM sales WHERE region = 'us'",
    "SELECT count(*) FROM sales WHERE amount > 100",
]


def _data(n=120, seed=9):
    rng = np.random.default_rng(seed)
    return {
        "region": rng.choice(["us", "eu", "apac"], n),
        "amount": rng.integers(-20, 500, n),
    }


def _session(handle, token, **kw):
    session = repro.connect(handle.address, token, master_key=KEY, seed=3, **kw)
    session.create_plan(SCHEMA, SAMPLES)
    return session


@pytest.fixture
def handle():
    h = repro.serve()
    yield h
    h.stop()


class TestAuth:
    def test_bad_token_rejected_typed(self, handle):
        with pytest.raises(AuthError, match="unknown bearer token"):
            repro.connect(handle.address, "not-a-token", master_key=KEY)

    def test_missing_token_rejected(self, handle):
        with pytest.raises(AuthError):
            repro.connect(handle.address, None, master_key=KEY)

    def test_revocation_is_instant(self, handle):
        token = handle.mint_token("alice")
        session = _session(handle, token)
        session.upload("sales", _data())
        assert session.query("SELECT count(*) FROM sales").rows
        handle.revoke("alice")
        from repro.core.access import AccessError

        with pytest.raises(AccessError, match="revoked"):
            session.query("SELECT count(*) FROM sales")
        # and new connections with the stale token fail at the handshake
        with pytest.raises(AuthError, match="revoked"):
            repro.connect(handle.address, token, master_key=KEY)
        session.close()

    def test_table_scoped_grant(self, handle):
        token = handle.mint_token("bob", tables={"other"})
        session = _session(handle, token)
        from repro.core.access import AccessError

        with pytest.raises(AccessError, match="may not query"):
            session.upload("sales", _data())
        session.close()

    def test_tenant_keys_isolated(self, handle):
        """Two tenants, two keychains: each decrypts only its own table."""
        t1 = handle.mint_token("alice")
        t2 = handle.mint_token("carol")
        s1 = repro.connect(handle.address, t1, master_key=b"a" * 32, seed=3)
        s2 = repro.connect(handle.address, t2, master_key=b"c" * 32, seed=3)
        schema2 = TableSchema("orders", [
            ColumnSpec("amount", dtype="int", sensitive=True, nbits=32)])
        s1.create_plan(SCHEMA, SAMPLES)
        s2.create_plan(schema2, ["SELECT sum(amount) FROM orders"])
        s1.upload("sales", _data())
        s2.upload("orders", {"amount": np.arange(50, dtype=np.int64)})
        assert s1.query("SELECT count(*) FROM sales").rows[0]["count(*)"] == 120
        assert s2.query("SELECT sum(amount) FROM orders").rows[0][
            "sum(amount)"] == int(np.arange(50).sum())
        s1.close()
        s2.close()


class TestRemoteCreate:
    def test_first_upload_creates_the_store_service_side(self):
        """A remote first upload creates its store under the service's
        scratch root, refuses a second table at that path, and the
        root goes when the service stops."""
        h = repro.serve()
        try:
            token = h.mint_token("alice")
            session = _session(h, token)
            session.upload("sales", _data())
            path = session.save_table("sales")
            root = os.path.dirname(path)
            assert os.path.basename(root).startswith("seabed-")
            other = _session(h, token)
            with pytest.raises(StorageError, match="already holds a store"):
                other.upload("sales", _data(seed=2))
            fresh = repro.connect(h.address, token, master_key=KEY)
            fresh.open_table(path)
            for s in (session, fresh):
                assert s.query("SELECT count(*) FROM sales").rows[0]["count(*)"] == 120
            for s in (session, other, fresh):
                s.close()
        finally:
            h.stop()
        assert not os.path.exists(root)

    def test_a_served_name_is_not_replaced_from_another_path(self, tmp_path):
        """Another tenant's table of the same name at another path is
        refused: it must not silently take over what the first serves."""
        h = repro.serve(auth_required=False)
        try:
            first = repro.connect(h.address, master_key=b"a" * 32, seed=3)
            first.create_plan(SCHEMA, SAMPLES)
            first.upload("sales", _data(), path=tmp_path / "one")
            second = repro.connect(h.address, master_key=b"b" * 32, seed=3)
            second.create_plan(SCHEMA, SAMPLES)
            with pytest.raises(StorageError, match="already served from"):
                second.upload("sales", _data(seed=2), path=tmp_path / "two")
            assert not os.path.exists(tmp_path / "two")
            assert first.query("SELECT count(*) FROM sales").rows[0]["count(*)"] == 120
            first.close()
            second.close()
        finally:
            h.stop()


class TestAdmission:
    @pytest.fixture
    def tight_handle(self):
        h = repro.serve(config=ServiceConfig(max_in_flight=1, queue_depth=0))
        yield h
        h.stop()

    def _slow_service(self, h, delay=0.4, op="table_meta"):
        service = h.service
        orig = service._run_op

        def slow(user, operation, args):
            if operation == op:
                time.sleep(delay)
            return orig(user, operation, args)

        service._run_op = slow

    def test_overload_returns_backpressure_not_hang(self, tight_handle):
        self._slow_service(tight_handle)
        token = tight_handle.mint_token("alice")
        transports = [
            RemoteTransport(tight_handle.address, token) for _ in range(4)
        ]
        outcomes: list[str] = []
        lock = threading.Lock()

        def hit(transport):
            try:
                transport.table_meta("sales")
                with lock:
                    outcomes.append("ok")
            except Backpressure as exc:
                assert exc.retry_after is not None and exc.retry_after > 0
                with lock:
                    outcomes.append("backpressure")

        threads = [
            threading.Thread(target=hit, args=(t,)) for t in transports
        ]
        start = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert time.monotonic() - start < 25  # never a hang
        assert len(outcomes) == 4
        assert "backpressure" in outcomes  # overload surfaced, typed
        assert "ok" in outcomes  # and the admitted request completed
        for t in transports:
            t.close()

    def test_retry_after_admission_drains(self, tight_handle):
        token = tight_handle.mint_token("alice")
        transport = RemoteTransport(tight_handle.address, token)
        # No contention: the same budget admits sequential requests forever.
        for _ in range(5):
            assert transport.table_meta("nope") is None
        transport.close()


class TestTimeouts:
    @pytest.fixture
    def slow_handle(self):
        h = repro.serve(config=ServiceConfig(request_timeout=10.0))
        service = h.service
        orig = service._run_op

        def slow(user, operation, args):
            # A missing table's metadata is the probe; the uploads these
            # tests make look up their own table and stay fast.
            if operation == "execute" or (
                operation == "table_meta" and args["table"] == "nope"
            ):
                time.sleep(1.0)
            return orig(user, operation, args)

        service._run_op = slow
        yield h
        h.stop()

    def test_per_call_timeout_is_typed(self, slow_handle):
        token = slow_handle.mint_token("alice")
        session = _session(slow_handle, token)
        session.upload("sales", _data())
        with pytest.raises(TransportError, match="timed out"):
            session.query("SELECT count(*) FROM sales", timeout=0.2)
        # the connection survives the timeout; later requests still work
        assert session.query("SELECT count(*) FROM sales").rows
        session.close()

    def test_query_timeout_parameter_threads_through(self, slow_handle):
        token = slow_handle.mint_token("alice")
        session = _session(slow_handle, token)
        session.upload("sales", _data())
        # generous timeout: passes through the whole prepared path
        result = session.query("SELECT count(*) FROM sales", timeout=20.0)
        assert result.rows[0]["count(*)"] == 120
        session.close()

    def test_table_meta_timeout_overridden_per_call(self, slow_handle):
        token = slow_handle.mint_token("alice")
        transport = RemoteTransport(slow_handle.address, token)
        with pytest.raises(TransportError, match="timed out"):
            transport._request("table_meta", {"table": "nope"}, timeout=0.1)
        transport.close()


class TestQueueWait:
    def test_queue_wait_metric_surfaces_under_contention(self):
        handle = repro.serve(config=ServiceConfig(max_in_flight=1, queue_depth=4))
        try:
            service = handle.service
            orig = service._run_op

            def slow(user, operation, args):
                if operation == "execute":
                    time.sleep(0.2)
                return orig(user, operation, args)

            service._run_op = slow
            token = handle.mint_token("alice")
            sessions = [_session(handle, token) for _ in range(2)]
            sessions[0].upload("sales", _data())
            waits = []

            def run(session):
                result = session.query("SELECT count(*) FROM sales")
                waits.append(result.queue_wait)

            threads = [threading.Thread(target=run, args=(s,)) for s in sessions]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(waits) == 2
            # one request queued behind the other's 0.2s execution
            assert max(waits) > 0.05
            for s in sessions:
                s.close()
        finally:
            handle.stop()


class TestWireErrors:
    def test_version_skew_rejected_at_hello(self, handle):
        frame = bytearray(codec.encode_frame("hello", {"token": "x"}))
        frame[8:10] = struct.pack("<H", codec.WIRE_VERSION + 1)
        with socket.create_connection(handle.address, timeout=10) as sock:
            sock.sendall(bytes(frame))
            kind, body = codec.read_frame(sock)
        assert kind == "hello"
        assert body["ok"] is False
        assert body["error"] == "CodecError"
        assert "version skew" in body["message"]

    def test_garbage_frame_answered_typed_then_closed(self, handle):
        token = handle.mint_token("alice")
        with socket.create_connection(handle.address, timeout=10) as sock:
            codec.write_frame(sock, "hello", {"token": token})
            kind, body = codec.read_frame(sock)
            assert body["ok"] is True
            sock.sendall(struct.pack("<I", 8) + b"GARBAGE!")
            kind, body = codec.read_frame(sock)
            assert kind == "rep" and body["error"] == "CodecError"

    def test_oversized_frame_announcement_rejected(self, handle):
        token = handle.mint_token("alice")
        with socket.create_connection(handle.address, timeout=10) as sock:
            codec.write_frame(sock, "hello", {"token": token})
            codec.read_frame(sock)
            sock.sendall(struct.pack("<I", codec.MAX_FRAME_BYTES + 1))
            kind, body = codec.read_frame(sock)
            assert body["error"] == "CodecError"

    def test_unknown_op_is_typed(self, handle):
        token = handle.mint_token("alice")
        transport = RemoteTransport(handle.address, token)
        with pytest.raises(TransportError, match="unknown service operation"):
            transport._request("frobnicate", {})
        transport.close()

    def test_unencodable_reply_is_typed_and_connection_survives(self, handle):
        service = handle.service
        orig = service._run_op

        def unencodable(user, operation, args):
            if operation == "table_meta":
                return object()
            return orig(user, operation, args)

        service._run_op = unencodable
        transport = RemoteTransport(handle.address, handle.mint_token("alice"))
        sock = transport._sock
        with pytest.raises(CodecError, match="cannot encode object"):
            transport._request("table_meta", {"table": "nope"})
        assert transport._request("metrics", {"fmt": "json"})["fmt"] == "json"
        assert transport._sock is sock  # same connection, never re-dialled
        transport.close()

    def test_connection_refused_is_transport_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(TransportError, match="cannot reach"):
            RemoteTransport(("127.0.0.1", free_port), "tok")

    def test_no_auth_mode_accepts_anonymous(self):
        h = repro.serve(config=ServiceConfig(auth_required=False))
        try:
            session = repro.connect(h.address, master_key=KEY, seed=3)
            session.create_plan(SCHEMA, SAMPLES)
            session.upload("sales", _data())
            assert session.query("SELECT count(*) FROM sales").rows
            session.close()
        finally:
            h.stop()


class TestRetries:
    """A transport failure replays an idempotent op on a fresh connection
    after the client's backoff; any other op fails after one attempt."""

    @pytest.fixture
    def spied(self, handle, monkeypatch):
        """A connected session, plus the ops it writes and the
        reconnects and sleeps it makes from here on."""
        session = _session(handle, handle.mint_token("alice"))
        session.upload("sales", _data())
        transport = session.transport
        seen = {"ops": [], "connects": 0, "sleeps": []}
        real_connect, real_write = transport._connect, codec.write_frame

        def connect():
            seen["connects"] += 1
            real_connect()

        def write_frame(sock, kind, body):
            if kind == "req":
                seen["ops"].append(body["op"])
            return real_write(sock, kind, body)

        monkeypatch.setattr(transport, "_connect", connect)
        monkeypatch.setattr(codec, "write_frame", write_frame)
        monkeypatch.setattr(client_mod.time, "sleep", seen["sleeps"].append)
        yield session, seen
        session.close()

    def test_idempotent_op_replays_once_on_a_fresh_connection(self, spied):
        session, seen = spied
        query = "SELECT count(*) FROM sales"
        want = session.query(query).rows
        seen["ops"].clear()
        old = session.transport._sock
        old.shutdown(socket.SHUT_RDWR)  # the connection dies underneath
        assert session.query(query).rows == want
        assert seen["ops"] == ["execute", "execute"]
        assert seen["connects"] == 1
        assert seen["sleeps"] == [client_mod.BACKOFF]
        assert session.transport._sock is not old

    def test_non_idempotent_op_is_not_replayed(self, spied):
        session, seen = spied
        transport = session.transport
        transport._sock.shutdown(socket.SHUT_RDWR)
        with pytest.raises(TransportError, match="after 1 attempt"):
            transport.commit_state("sales", {})
        assert seen["ops"] == ["commit_state"]
        assert seen["connects"] == 0 and seen["sleeps"] == []
        assert transport._sock is None  # dropped; the next op re-dials
        assert session.query("SELECT count(*) FROM sales").rows[0]["count(*)"] == 120
        assert seen["connects"] == 1


class TestServiceLifecycle:
    def test_handle_context_manager_and_server_property(self):
        with repro.serve() as h:
            token = h.mint_token("alice")
            session = _session(h, token)
            # remote sessions have no in-process server to poke
            with pytest.raises(TransportError, match="remote"):
                _ = session.server
            # ...and nothing to replace either: the property is read-only
            with pytest.raises(AttributeError):
                session.server = object()
            session.close()

    def test_connect_with_another_prf_is_refused_and_hangs_up(self):
        with repro.serve() as h:
            with pytest.raises(CryptoError, match="'aes-ni' PRF only"):
                repro.connect(h.address, h.mint_token("alice"), master_key=KEY,
                              prf_backend="splitmix64")
            assert _settles(lambda: not h.service._conns)

    def test_serve_rejects_config_plus_overrides(self):
        with pytest.raises(TransportError):
            repro.serve(config=ServiceConfig(), max_in_flight=2)

    def test_double_start_rejected(self):
        service = SeabedService(ServiceConfig())
        handle = service.start()
        try:
            with pytest.raises(TransportError, match="already started"):
                service.start()
        finally:
            handle.stop()


def _service_threads(exclude=()):
    return [
        t for t in threading.enumerate()
        if t.name.startswith(("seabed-svc", "seabed-service")) and t not in exclude
    ]


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settles(predicate, seconds=10.0) -> bool:
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


class TestThreadHygiene:
    """stop() hangs up every connection: no service thread and no socket
    outlives it for longer than the request bodies still running."""

    @staticmethod
    def _baseline():
        """(threads, open fds) once one serve/stop cycle has created the
        process-wide state and earlier tests' service threads are gone."""
        handle = repro.serve()
        transport = RemoteTransport(handle.address, handle.mint_token("alice"))
        transport._request("table_meta", {"table": "nope"})  # a pooled request
        transport.close()
        handle.stop()
        assert _settles(lambda: not _service_threads())
        gc.collect()
        return set(threading.enumerate()), _open_fds()

    def test_stop_with_an_idle_client_and_a_request_in_flight(self):
        before, fds = self._baseline()
        handle = repro.serve()
        orig = handle.service._run_op
        entered = threading.Event()

        def slow(user, operation, args):
            if operation == "compact":
                entered.set()
                time.sleep(1.0)
            return orig(user, operation, args)

        handle.service._run_op = slow
        token = handle.mint_token("alice")
        idle = RemoteTransport(handle.address, token)
        busy = RemoteTransport(handle.address, token)
        outcome = []

        def call():
            try:
                busy._request("compact", {"table": "nope"})
            except Exception as exc:  # noqa: BLE001 -- the connection is cut
                outcome.append(exc)

        caller = threading.Thread(target=call)
        caller.start()
        assert entered.wait(10)
        handle.stop()
        for thread in _service_threads(before):
            thread.join(timeout=5)
        assert not [t.name for t in _service_threads(before) if t.is_alive()]
        caller.join(timeout=10)
        assert isinstance(outcome[0], TransportError)
        idle.close()
        busy.close()
        assert _settles(lambda: _open_fds() == fds), (_open_fds(), fds)

    def test_serve_stop_cycles_grow_neither_threads_nor_fds(self):
        before, fds = self._baseline()
        for _ in range(20):
            self._baseline()
        assert threading.active_count() <= len(before)
        assert _settles(lambda: _open_fds() == fds), (_open_fds(), fds)


def _hung_up(sock: socket.socket) -> bool:
    sock.settimeout(0.2)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


class TestUnauthenticatedPeers:
    """A peer that never says hello costs a bounded thread for a bounded
    time: the service holds at most MAX_CONNECTIONS connections and drops
    one that has not passed its hello within HELLO_TIMEOUT."""

    @staticmethod
    def _idle(handle, n):
        socks = [socket.create_connection(handle.address) for _ in range(n)]
        time.sleep(0.3)  # let the accept thread take (or refuse) each one
        return socks

    def test_connections_past_the_cap_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(service_mod, "MAX_CONNECTIONS", 4)
        handle = repro.serve()
        try:
            socks = self._idle(handle, 12)
            conns = [t for t in _service_threads() if t.name == "seabed-svc-conn"]
            assert len(conns) == 4
            assert sum(map(_hung_up, socks)) == 8  # refused at once
            for sock in socks:
                sock.close()
            assert _settles(lambda: not [
                t for t in _service_threads() if t.name == "seabed-svc-conn"
            ])
            transport = RemoteTransport(handle.address, handle.mint_token("alice"))
            assert transport._request("ping", {})["server"] == "seabed"
            transport.close()
        finally:
            handle.stop()

    def test_a_silent_peer_is_dropped_after_the_hello_timeout(self, monkeypatch):
        monkeypatch.setattr(service_mod, "HELLO_TIMEOUT", 0.3)
        handle = repro.serve()
        try:
            transport = RemoteTransport(handle.address, handle.mint_token("alice"))
            (silent,) = self._idle(handle, 1)
            silent.settimeout(5.0)
            assert silent.recv(1) == b""  # the service hung up
            silent.close()
            time.sleep(0.4)  # past the hello timeout: an authenticated
            # connection has none, so the idle client still gets answers
            assert transport._request("ping", {})["server"] == "seabed"
            transport.close()
        finally:
            handle.stop()

    @pytest.mark.parametrize("length", [service_mod.HELLO_MAX_BYTES + 1, 1 << 29,
                                        codec.MAX_FRAME_BYTES])
    def test_an_oversized_hello_is_refused_before_its_body(self, monkeypatch, length):
        """A peer that has not said hello may announce no more than
        HELLO_MAX_BYTES: a longer announcement (2^29 bytes, say) is
        answered typed at once, with none of its body read, and the
        connection dropped."""
        monkeypatch.setattr(service_mod, "HELLO_TIMEOUT", 0.3)
        handle = repro.serve()
        try:
            with socket.create_connection(handle.address, timeout=5) as sock:
                sock.sendall(struct.pack("<I", length))
                t0 = time.monotonic()
                kind, body = codec.read_frame(sock)
                assert time.monotonic() - t0 < 0.3  # not left to the timeout
                assert kind == "hello" and body["error"] == "CodecError"
                assert f"cap {service_mod.HELLO_MAX_BYTES}" in body["message"]
                assert _hung_up(sock)
            transport = RemoteTransport(handle.address, handle.mint_token("alice"))
            assert transport._request("ping", {})["server"] == "seabed"
            transport.close()
        finally:
            handle.stop()

    def test_a_hello_of_exactly_the_cap_is_read(self, handle):
        """The cap is inclusive: a HELLO_MAX_BYTES hello is read whole and
        judged on its token (refused here, typed, for a made-up one)."""
        pad = service_mod.HELLO_MAX_BYTES - (len(codec.encode_frame("hello", {"token": ""})) - 4)
        frame = codec.encode_frame("hello", {"token": "x" * pad})
        assert struct.unpack("<I", frame[:4])[0] == service_mod.HELLO_MAX_BYTES
        with socket.create_connection(handle.address, timeout=5) as sock:
            sock.sendall(frame)
            kind, body = codec.read_frame(sock)
        assert kind == "hello" and body["error"] == "AuthError"

    def test_a_trickled_hello_is_dropped_at_one_deadline(self, monkeypatch):
        """HELLO_TIMEOUT bounds the whole hello, not each read: a peer
        that sends one byte every 0.1 s is dropped after about 0.3 s."""
        monkeypatch.setattr(service_mod, "HELLO_TIMEOUT", 0.3)
        handle = repro.serve()
        try:
            frame = codec.encode_frame("hello", {"token": "x" * 64})
            sock = socket.create_connection(handle.address, timeout=5)
            t0 = time.monotonic()
            with pytest.raises(OSError):  # a send after the hang-up: reset or broken pipe
                for byte in frame:
                    sock.sendall(bytes([byte]))
                    time.sleep(0.1)
            assert time.monotonic() - t0 < 2.0 < 0.1 * len(frame)
            sock.close()
            assert _settles(lambda: not [
                t for t in _service_threads() if t.name == "seabed-svc-conn"
            ])
        finally:
            handle.stop()

