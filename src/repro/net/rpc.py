"""The one request/reply envelope, spoken on both RPC hops.

Seabed's trust split is crossed twice -- session -> service over a
socket, coordinator -> shard worker over a pipe -- and both hops carry
the same two bodies inside a :mod:`repro.net.codec` frame::

    request  {"op": str, "args": {...}, "timeout": s | None[, "trace": ctx]}
    reply    {"ok": True,  "result": value[, "spans": [span dicts]]}
             {"ok": False, "error": class name, "message": str
              [, "retry_after": s]}

This module holds the only copy of each direction: :func:`request` /
:func:`parse` for the request, :func:`answer` (continue the caller's
trace, span the handler, exception -> typed reply, finished spans ride
home) for the serving end, and :func:`unwrap` (ingest the spans, re-raise
the :mod:`repro.errors` class) for the calling end.  ``trace`` is the
:func:`repro.obs.trace.current_context` pair; a peer that sends none, or
something malformed, just gets a local-only trace.  The service answers
a request within its ``timeout`` and runs the handler under a
:func:`deadline` of its own cap, never the client's: a shard-worker call
waits only for what is left of it, then kills the worker.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator, Mapping

from repro.core.access import AccessError  # noqa: F401 -- a wire-visible SeabedError
from repro.errors import Backpressure, CodecError, SeabedError, TransportError
from repro.obs import trace as obs_trace

#: ``time.monotonic()`` by which the request being served must be answered.
_DEADLINE: ContextVar[float | None] = ContextVar("rpc_deadline", default=None)


@contextmanager
def deadline(at: float | None) -> Iterator[None]:
    """Run the block under the absolute deadline ``at`` (monotonic
    seconds; None = unbounded), which :func:`remaining` reports."""
    token = _DEADLINE.set(at)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def remaining() -> float | None:
    """Seconds left before the current deadline, or None if there is none."""
    at = _DEADLINE.get()
    return None if at is None else at - time.monotonic()


def request(
    op: str,
    args: dict[str, Any],
    *,
    timeout: float | None = None,
    trace: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The request body; ``trace`` is omitted, not null, when absent."""
    body: dict[str, Any] = {"op": op, "args": args, "timeout": timeout}
    if trace is not None:
        body["trace"] = trace
    return body


def parse(body: Any) -> tuple[str, dict[str, Any], float | None, dict | None]:
    """Validate a received request body into ``(op, args, timeout, trace)``."""
    if not isinstance(body, dict) or not isinstance(body.get("op"), str):
        raise CodecError("malformed request body")
    args = body.get("args") or {}
    if not isinstance(args, dict):
        raise CodecError("malformed request args")
    timeout, trace = body.get("timeout"), body.get("trace")
    return (
        body["op"],
        args,
        float(timeout) if isinstance(timeout, (int, float)) else None,
        trace if isinstance(trace, dict) else None,
    )


def handler(handlers: Mapping[str, Callable[..., Any]], tier: str, op: str) -> Any:
    """The handler for ``op``, or the typed unknown-operation error."""
    found = handlers.get(op)
    if found is None:
        raise TransportError(f"unknown {tier} operation {op!r}")
    return found


def answer(
    op: str,
    args: dict[str, Any],
    trace: dict[str, Any] | None,
    run: Callable[[str, dict[str, Any]], Any],
    tier: str,
    **attributes: Any,
) -> dict[str, Any]:
    """Serve one parsed request: ``run(op, args)`` inside a ``<tier>:<op>``
    span parented under the caller's ``trace``.  Never raises -- a failure
    is the typed error reply.  The spans of a trace the caller sent ride
    home; a local-only trace stays in this process's tracer."""
    try:
        with obs_trace.continue_context(trace), obs_trace.span(f"{tier}:{op}", **attributes):
            result = run(op, args)
    except Exception as exc:  # noqa: BLE001 -- the boundary: typed reply, keep serving
        return error_reply(exc)
    reply: dict[str, Any] = {"ok": True, "result": result}
    spans = trace and obs_trace.get_tracer().take(str(trace.get("trace_id")))
    if spans:
        reply["spans"] = [s.to_dict() for s in spans]
    return reply


def error_reply(exc: Exception) -> dict[str, Any]:
    name, message = type(exc).__name__, str(exc)
    if not isinstance(exc, SeabedError):
        # Unexpected failure: the class name survives in the message,
        # the caller sees a generic TransportError.
        name, message = "TransportError", f"{name}: {message}"
    reply: dict[str, Any] = {"ok": False, "error": name, "message": message}
    if isinstance(exc, Backpressure):
        reply["retry_after"] = exc.retry_after
    return reply


def unwrap(reply: Any) -> Any:
    """The result of a received reply body, or its error re-raised as the
    :class:`~repro.errors.SeabedError` subclass the peer named."""
    if not isinstance(reply, dict):
        raise CodecError(f"malformed reply body of type {type(reply).__name__}")
    if reply.get("ok"):
        obs_trace.get_tracer().ingest(reply.get("spans"))
        return reply.get("result")
    name = reply.get("error", "TransportError")
    message = str(reply.get("message", "remote error"))
    if name == "Backpressure":
        retry_after = reply.get("retry_after")
        raise Backpressure(
            message,
            retry_after=float(retry_after) if retry_after is not None else None,
        )
    stack = [SeabedError]
    while stack:
        cls = stack.pop()
        if cls.__name__ == name and cls is not SeabedError:
            raise cls(message)
        stack.extend(cls.__subclasses__())
    raise TransportError(f"{name}: {message}")
