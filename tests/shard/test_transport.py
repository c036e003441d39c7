"""Unit tests for the worker transport (repro.engine.transport)."""

import os
import pickle
import struct
import threading
import time

import pytest

from repro.engine.transport import CALL, CRASH_STATUS, REPLY, WorkerDied, WorkerHandle
from repro.errors import CodecError, ExecutionError, ShardUnavailable, StorageError, TransportError
from repro.net import codec, rpc


def _arith_main(conn, base=0):
    """Module-level worker entry point (picklable for any start method)."""
    from repro.engine import transport

    def add(a, b):
        return base + a + b

    def boom():
        raise ValueError("intentional worker-side failure")

    def stale():
        raise StorageError("intentional typed failure")

    transport.serve(conn, {"add": add, "boom": boom, "stale": stale, "unencodable": set})


def _garbage_main(conn):
    """A worker whose first reply is not a frame at all."""
    conn.recv_bytes()
    conn.send_bytes(b"\x80\x04garbage")
    conn.recv_bytes()  # hold the pipe open until the parent hangs up


def _suicide_main(conn):
    """A worker that dies before serving its first request -- the
    handshake-failure shape: the parent's pipe end is live, the child is
    already gone."""
    os._exit(CRASH_STATUS)


@pytest.fixture
def worker():
    handle = WorkerHandle("test-arith", _arith_main, base=10)
    yield handle
    handle.kill()


class TestCalls:
    def test_roundtrip_with_spawn_kwargs(self, worker):
        assert worker.call("add", a=1, b=2) == 13
        assert worker.alive

    def test_remote_exception_carries_type(self, worker):
        with pytest.raises(TransportError, match="ValueError: intentional"):
            worker.call("boom")
        # The worker survives its handler's exception.
        assert worker.call("add", a=0, b=0) == 10

    def test_seabed_error_keeps_its_class(self, worker):
        with pytest.raises(StorageError, match="intentional typed failure"):
            worker.call("stale")
        assert worker.call("add", a=0, b=0) == 10

    def test_unknown_method_is_typed(self, worker):
        with pytest.raises(TransportError, match="unknown worker operation 'nope'"):
            worker.call("nope")

    def test_unencodable_result_is_typed(self, worker):
        with pytest.raises(CodecError, match="cannot encode set"):
            worker.call("unencodable")
        assert worker.call("add", a=0, b=0) == 10


class TestUntrustedBytes:
    """The pipe is a trust boundary: whatever bytes arrive, the outcome is
    a typed ``CodecError`` and a worker that keeps serving -- never a
    ``struct.error``, an ``UnpicklingError`` or a hang."""

    @staticmethod
    def _raw(worker, data):
        """Write ``data`` to the worker's pipe as-is; return its reply body."""
        worker._conn.send_bytes(data)
        kind, reply = codec.decode_frame(worker._conn.recv_bytes())
        assert kind == REPLY
        return reply

    @pytest.mark.parametrize("mangle", [
        lambda frame: frame[: len(frame) // 2],  # truncated
        lambda frame: frame[:3],  # shorter than the length prefix
        lambda frame: frame[:4] + b"XXXX" + frame[8:],  # bad magic
        lambda frame: pickle.dumps((1, "add", {"a": 1, "b": 2})),  # old protocol
        lambda frame: struct.pack("<I", 2**31) + frame[4:],  # lying length
    ], ids=["truncated", "tiny", "bad-magic", "pickled-tuple", "bad-length"])
    def test_malformed_frame_gets_typed_reply(self, worker, mangle):
        frame = codec.encode_frame(CALL, rpc.request("add", {"a": 1, "b": 2}))
        reply = self._raw(worker, mangle(frame))
        assert reply["ok"] is False and reply["error"] == "CodecError"
        with pytest.raises(CodecError):
            rpc.unwrap(reply)
        assert worker.call("add", a=1, b=2) == 13

    @pytest.mark.parametrize("kind, body", [
        ("req", rpc.request("add", {"a": 1, "b": 2})),  # a client<->service frame
        (CALL, ["add", {"a": 1, "b": 2}]),
        (CALL, {"op": "add", "args": [1, 2]}),
    ], ids=["wrong-kind", "body-not-a-dict", "args-not-a-dict"])
    def test_malformed_request_gets_typed_reply(self, worker, kind, body):
        reply = self._raw(worker, codec.encode_frame(kind, body))
        assert reply["ok"] is False and reply["error"] == "CodecError"
        assert worker.call("add", a=1, b=2) == 13

    def test_garbage_reply_raises_codec_error(self):
        handle = WorkerHandle("test-garbage", _garbage_main)
        try:
            with pytest.raises(CodecError):
                handle.call("add", a=1, b=1)
        finally:
            handle.kill()


class TestLifecycle:
    def test_kill_then_call_raises_worker_died(self, worker):
        worker.kill()
        assert not worker.alive
        with pytest.raises(WorkerDied):
            worker.call("add", a=1, b=1)

    def test_shutdown_is_clean(self):
        handle = WorkerHandle("test-shutdown", _arith_main)
        assert handle.call("add", a=2, b=3) == 5
        handle.shutdown()
        assert not handle.alive

    def test_arm_exit_kills_mid_call(self, worker):
        worker.arm_exit("add", after=2)
        assert worker.call("add", a=1, b=1) == 12  # first call survives
        with pytest.raises(WorkerDied):
            worker.call("add", a=1, b=1)  # second dies before replying
        assert not worker.alive


class TestDeadline:
    """Under a request's deadline a call waits no longer than what is left
    of it: a hung worker is killed, not waited on."""

    def test_a_stalled_worker_is_killed_at_the_deadline(self, worker):
        worker.arm_stall("add", 30.0)
        started = time.monotonic()
        with rpc.deadline(started + 0.5), pytest.raises(
            WorkerDied, match="overran the request's deadline"
        ):
            worker.call("add", a=1, b=1)
        assert 0.4 < time.monotonic() - started < 5.0
        assert not worker.alive

    def test_a_call_with_no_budget_left_leaves_the_worker_alone(self, worker):
        with rpc.deadline(time.monotonic() - 1.0), pytest.raises(
            ExecutionError, match="no time left"
        ):
            worker.call("add", a=1, b=1)
        assert worker.alive and worker.call("add", a=1, b=1) == 12

    def test_a_stall_inside_the_budget_is_answered(self, worker):
        worker.arm_stall("add", 0.2)
        with rpc.deadline(time.monotonic() + 20.0):
            assert worker.call("add", a=2, b=2) == 14
        assert worker.call("add", a=0, b=0) == 10  # the stall fired once

    def test_a_deadline_spent_waiting_for_the_worker_leaves_it_alone(self, worker):
        worker.arm_stall("add", 1.0)
        first = []
        holder = threading.Thread(target=lambda: first.append(worker.call("add", a=1, b=2)))
        holder.start()
        time.sleep(0.2)  # the holder's call has the worker
        started = time.monotonic()
        with rpc.deadline(started + 0.3), pytest.raises(ShardUnavailable, match="no time left"):
            worker.call("add", a=0, b=0)
        assert time.monotonic() - started < 0.8  # did not wait out the stall
        holder.join(timeout=10)
        assert first == [13]
        assert worker.alive and worker.call("add", a=0, b=0) == 10

    def test_the_deadline_is_scoped_to_its_block(self, worker):
        assert rpc.remaining() is None
        with rpc.deadline(time.monotonic() + 5.0):
            assert 4.0 < rpc.remaining() <= 5.0
            assert worker.call("add", a=0, b=0) == 10
        assert rpc.remaining() is None


class TestFdHygiene:
    """A worker that dies mid-call must not leak its pipe fds.

    Regression: the ``WorkerDied`` path used to join the child but leave
    the parent-side pipe end open for the handle's lifetime, so a
    coordinator holding handles to dead nodes (it keeps them for the
    failover bookkeeping) accumulated one fd pair per death."""

    @staticmethod
    def _open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    def test_handshake_death_releases_pipe_fds(self):
        # Warm up multiprocessing's lazily created machinery (semaphore
        # tracker, resource tracker fds) so the baseline is stable.
        warmup = WorkerHandle("fd-warmup", _arith_main)
        warmup.call("add", a=1, b=1)
        warmup.shutdown()
        baseline = self._open_fds()
        handles = []
        for i in range(5):
            handle = WorkerHandle(f"fd-suicide-{i}", _suicide_main)
            with pytest.raises(WorkerDied):
                handle.call("add", a=1, b=1)
            assert not handle.alive
            handles.append(handle)  # keep referenced, as a coordinator would
        assert self._open_fds() <= baseline

    def test_mid_call_death_releases_pipe_fds(self):
        warmup = WorkerHandle("fd-warmup-2", _arith_main)
        warmup.call("add", a=1, b=1)
        warmup.shutdown()
        baseline = self._open_fds()
        handles = []
        for i in range(3):
            handle = WorkerHandle(f"fd-armed-{i}", _arith_main)
            handle.arm_exit("add", after=1)
            with pytest.raises(WorkerDied):
                handle.call("add", a=1, b=1)
            handles.append(handle)
        assert self._open_fds() <= baseline

    def test_double_kill_and_call_after_kill_stay_typed(self):
        handle = WorkerHandle("fd-double-kill", _arith_main)
        handle.kill()
        handle.kill()  # idempotent on a released handle
        assert not handle.alive
        with pytest.raises(WorkerDied):
            handle.call("add", a=1, b=1)
