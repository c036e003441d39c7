"""Process-isolated worker transport: spawn, call, kill, detect death.

The sharded tier (:mod:`repro.shard`) runs each shard's server in its
own OS process so that a crash -- injected by the fail-point machinery
below, or real -- takes down exactly one shard and the coordinator can
observe it as a dead pipe rather than a poisoned interpreter.  This
module is the generic half: a request/reply loop over a
``multiprocessing`` pipe, with nothing shard-specific in it.

Wire: one :mod:`repro.net.codec` frame per message over
``send_bytes``/``recv_bytes``, holding the :mod:`repro.net.rpc` request
or reply body -- the envelope the service's socket carries, under frame
kinds of its own (:data:`CALL`, :data:`REPLY`).  Trace context, typed
errors and the ``timeout`` field therefore travel exactly as they do
between client and service: handlers run in a ``worker:<method>`` span
whose spans ride home on the reply, and a worker-side
:class:`~repro.errors.SeabedError` is re-raised here as the same class.
Nothing is pickled.  A worker treats its pipe as untrusted input: bytes
it cannot decode get a typed :class:`~repro.errors.CodecError` reply and
it keeps serving.  ``codec.MAX_FRAME_BYTES`` bounds one message, and so
one shard append batch.  A call is two halves, :meth:`WorkerHandle.begin`
(take the handle's lock, send the request) and :meth:`WorkerHandle.finish`
(read the reply, release the lock), so one thread can have a request in
flight on every worker at once -- the coordinator's scatter -- while the
lock still serialises callers of one handle across threads.

Failure model: a worker that dies mid-call surfaces as
:class:`WorkerDied` (an :class:`~repro.errors.ExecutionError`), raised
from ``EOFError``/``BrokenPipeError`` or from a dead-process check --
never as a hang, and never confused with an error the worker reported.
Under a :func:`repro.net.rpc.deadline` a call waits only for what is left
of it: a worker that overruns is killed and reported as dead too.

Fail points: ``arm_exit(method, after)`` arms the *server* loop to call
``os._exit(70)`` immediately before replying to the ``after``-th
subsequent invocation of ``method`` -- the same hard-kill style the
store's crash fail points use, simulating a machine loss at the worst
moment (work done, reply lost); ``arm_stall`` hangs one instead.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import weakref
from multiprocessing import Pipe, Process, connection
from typing import Any, Callable, Mapping, NoReturn

from repro.errors import CodecError, ExecutionError, SeabedError, ShardUnavailable
from repro.net import codec, rpc
from repro.obs import trace as obs_trace

#: Exit status for fail-point kills (matches the store's crash points).
CRASH_STATUS = 70

#: Frame kinds on the coordinator<->worker pipe.
CALL, REPLY = "wreq", "wrep"

# Live handles, reaped at interpreter exit.  Workers are non-daemonic
# (see WorkerHandle.__init__), so multiprocessing's own atexit hook
# would *join* them -- and a parent that crashed before shutting its
# workers down would hang on workers still blocked in recv().  This
# hook registers later, therefore runs earlier (LIFO), and kills every
# surviving worker first.
_LIVE_HANDLES: "weakref.WeakSet[WorkerHandle]" = weakref.WeakSet()


@atexit.register
def _reap_workers() -> None:
    for handle in list(_LIVE_HANDLES):
        try:
            handle.kill()
        except Exception:  # noqa: BLE001 -- best-effort at shutdown
            pass


class WorkerDied(ExecutionError):
    """The worker process died before replying (transport-level loss)."""


def serve(conn: connection.Connection, handlers: Mapping[str, Callable[..., Any]]) -> None:
    """Run a worker's request loop until ``shutdown`` or a closed pipe.

    ``handlers`` maps method names to callables invoked as
    ``handler(**args)``.  Three methods are built in: ``__arm_exit__``
    and ``__arm_stall__`` (install a fail point) and ``shutdown`` (clean
    exit; a handler named ``shutdown`` runs first if provided).
    """
    armed: dict[str, int] = {}  # method -> calls left before os._exit
    stalls: dict[str, float] = {}  # method -> seconds its next call sleeps
    handlers = {
        "shutdown": lambda: None, **handlers,
        "__arm_exit__": lambda method, after: armed.update({method: int(after)}),
        "__arm_stall__": lambda method, seconds: stalls.update({method: float(seconds)}),
    }

    def run(op: str, args: dict[str, Any]) -> Any:
        return rpc.handler(handlers, "worker", op)(**args)

    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return  # coordinator went away; nothing to reply to
        op = None
        try:
            kind, body = codec.decode_frame(data)
            if kind != CALL:
                raise CodecError(f"expected a {CALL!r} frame, got {kind!r}")
            op, args, _, trace = rpc.parse(body)
        except CodecError as exc:
            reply = rpc.error_reply(exc)
        else:
            if op in stalls:
                time.sleep(stalls.pop(op))
            reply = rpc.answer(op, args, trace, run, "worker")
        if reply["ok"] and op in armed:
            armed[op] -= 1
            if armed[op] <= 0:
                os._exit(CRASH_STATUS)  # die with the reply unsent
        try:
            frame = codec.encode_frame(REPLY, reply)
        except CodecError as exc:  # unencodable or oversized result
            frame = codec.encode_frame(REPLY, rpc.error_reply(exc))
        conn.send_bytes(frame)
        if op == "shutdown":
            return


class WorkerHandle:
    """Client side of one worker process.

    ``main`` is a top-level function invoked in the child as
    ``main(conn, **spawn_kwargs)``; it is expected to call :func:`serve`.
    The parent keeps the other pipe end and drives the protocol.
    """

    def __init__(self, name: str, main: Callable[..., None], **spawn_kwargs: Any):
        self.name = name
        parent, child = Pipe()
        self._conn = parent
        self._lock = threading.Lock()
        # Not daemonic: a worker stops through close() or _reap_workers,
        # never through multiprocessing's exit-time terminate().  The
        # orphan guard is the serve loop -- when the parent dies, its
        # pipe end closes and the loop exits on EOF.
        self.process = Process(
            target=main,
            args=(child,),
            kwargs=spawn_kwargs,
            name=name,
            daemon=False,
        )
        self.process.start()
        child.close()  # the child's copy lives in the child
        _LIVE_HANDLES.add(self)

    @property
    def alive(self) -> bool:
        try:
            return self.process.is_alive()
        except ValueError:
            return False  # process object released after death

    @staticmethod
    def request_frame(method: str, /, **kwargs: Any) -> bytes:
        """The encoded ``CALL`` frame of ``method(**kwargs)``, which
        :meth:`begin` can take to any number of workers."""
        return codec.encode_frame(
            CALL, rpc.request(method, kwargs, trace=obs_trace.current_context())
        )

    def call(self, method: str, /, **kwargs: Any) -> Any:
        """Invoke ``method`` on the worker and wait for its reply."""
        self.begin(method, self.request_frame(method, **kwargs))
        return self.finish(method)

    def begin(self, method: str, frame: bytes) -> None:
        """Take the worker until :meth:`finish` and send it ``method``'s
        encoded request.  Waiting for another caller's turn counts against
        the deadline; a request not sent in time leaves the worker alone."""
        budget = rpc.remaining()
        locked = self._lock.acquire(timeout=-1 if budget is None else max(budget, 0))
        try:
            budget = rpc.remaining()
            if not locked or (budget is not None and budget <= 0):
                raise ShardUnavailable(f"no time left to call {method!r} on {self.name!r}")
            try:
                self._conn.send_bytes(frame)
            except (EOFError, BrokenPipeError, OSError) as exc:
                self._died(method, exc)
        except BaseException:
            if locked:
                self._lock.release()
            raise

    def finish(self, method: str) -> Any:
        """Read the reply to :meth:`begin`'s request, waiting no longer
        than what is left of the deadline, and release the worker."""
        try:
            budget = rpc.remaining()
            if budget is not None and not self._conn.poll(max(budget, 0)):
                raise TimeoutError("it overran the request's deadline")
            data = self._conn.recv_bytes()
        except (EOFError, BrokenPipeError, OSError) as exc:
            self._died(method, exc)
        finally:
            self._lock.release()
        kind, reply = codec.decode_frame(data)
        if kind != REPLY:
            raise CodecError(f"expected a {REPLY!r} frame, got {kind!r}")
        return rpc.unwrap(reply)

    def _died(self, method: str, exc: BaseException) -> NoReturn:
        # Kill a hung worker (finish's TimeoutError).  A dead one's pipe fd
        # closes a beat before it is reapable: join it so ``alive`` reads
        # False by the time callers handle this, and release our pipe end
        # (a worker that died in the handshake used to leak it).
        self.kill()
        raise WorkerDied(
            f"worker {self.name!r} died during {method!r}: "
            f"{str(exc) or type(exc).__name__}"
        ) from exc

    def arm_exit(self, method: str, after: int = 1) -> None:
        """Arm the worker to ``os._exit`` before replying to the
        ``after``-th subsequent call of ``method`` (fail-point injection)."""
        self.call("__arm_exit__", method=method, after=after)

    def arm_stall(self, method: str, seconds: float) -> None:
        """Arm the worker to sleep ``seconds`` before serving the next
        call of ``method`` (fail-point injection)."""
        self.call("__arm_stall__", method=method, seconds=seconds)

    def _release(self) -> None:
        """Close the parent-side pipe fd and collect the child process
        object; idempotent, tolerant of an already-closed handle."""
        try:
            self.process.join(timeout=5)
        except ValueError:
            pass  # process object already released
        try:
            self._conn.close()
        except OSError:
            pass
        try:
            if not self.process.is_alive():
                self.process.close()
        except ValueError:
            pass  # already closed, or still winding down

    def kill(self) -> None:
        """Hard-kill the worker (SIGKILL); safe to call twice."""
        try:
            if self.process.is_alive():
                self.process.kill()
        except ValueError:
            return  # process object already closed by a prior release
        self._release()

    def shutdown(self) -> None:
        """Ask the worker to exit cleanly; falls back to :meth:`kill`."""
        try:
            self.call("shutdown")
        except (SeabedError, OSError):
            pass  # dead or broken worker: the kill below covers it
        try:
            if self.process.is_alive():
                self.process.join(timeout=5)
            if self.process.is_alive():
                self.process.kill()
        except ValueError:
            return  # already released
        self._release()
