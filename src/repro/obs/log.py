"""Structured event logging for the telemetry layer.

One named logger (``repro.obs``) and one helper, :func:`log_event`, that
renders an event name plus sorted ``key=value`` fields into the message
and also attaches them machine-readably on the log record (``record.event``
/ ``record.fields``) so a JSON formatter can emit them verbatim.

The canonical consumer is the slow-query log: queries whose measured time
crosses ``ClusterConfig.slow_query_s`` emit a ``slow_query`` event with
timings, table, and row counts -- never plaintexts or key material (the
same rule every telemetry surface follows; see
``repro.attacks.telemetry``).
"""

from __future__ import annotations

import logging

__all__ = ["get_logger", "log_event"]

LOGGER_NAME = "repro.obs"


def get_logger(suffix: str = "") -> logging.Logger:
    """The telemetry logger, or a dotted child (``get_logger("slow")``)."""
    name = f"{LOGGER_NAME}.{suffix}" if suffix else LOGGER_NAME
    return logging.getLogger(name)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def log_event(event: str, *, level: int = logging.INFO,
              logger: logging.Logger | None = None, **fields) -> None:
    """Emit one structured event: ``event key=value ...``.

    Fields are sorted for stable output; the raw dict rides on the record
    as ``record.fields`` for structured sinks.
    """
    log = logger or get_logger()
    if not log.isEnabledFor(level):
        return
    rendered = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(fields.items()))
    message = f"{event} {rendered}" if rendered else event
    log.log(level, message, extra={"event": event, "fields": fields})
