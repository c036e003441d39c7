"""Exception hierarchy for the Seabed reproduction.

Every error raised deliberately by this package derives from
:class:`SeabedError`, so callers can catch one type at the proxy boundary.

A class here names a condition that arises at run time: bad input from
outside the program, a failed check on stored or received data, a lost
peer.  Using a scheme for an operation it does not support is a
programming error, not such a condition: each crypto scheme has only the
batch operations it can run (see :mod:`repro.crypto.kernel`), so calling
a missing one raises ``AttributeError`` and no class here stands for it.
"""

from __future__ import annotations


class SeabedError(Exception):
    """Base class for all errors raised by the repro package."""


class CryptoError(SeabedError):
    """A cryptographic operation failed (bad key size, domain overflow...)."""


class EncodingError(SeabedError):
    """An ID-list codec was fed malformed bytes or an invalid ID sequence."""


class PlanningError(SeabedError):
    """The data planner could not produce an encrypted schema."""


class TranslationError(SeabedError):
    """A query cannot be rewritten against the encrypted schema."""


class ExecutionError(SeabedError):
    """The engine failed while executing a physical plan."""


class ShardUnavailable(ExecutionError):
    """No shard worker could take a call: every replica is dead, or the
    request's deadline passed before the call could start."""


class StorageError(SeabedError):
    """A persistent partition store is missing, corrupt, or incompatible."""


class DecryptionError(SeabedError):
    """The client-side decryption module received an inconsistent result."""


class ParseError(SeabedError):
    """The SQL-subset parser rejected the query text."""


class TransportError(SeabedError):
    """A transport could not complete a call (connection loss, timeout,
    or an operation the transport does not support)."""


class CodecError(TransportError):
    """A wire frame was truncated, corrupt, or of an unsupported version."""


class AuthError(SeabedError):
    """The service rejected the session's bearer token."""


class Backpressure(SeabedError):
    """The service shed the request under admission control (RETRY_LATER).

    ``retry_after`` is the server's suggested delay in seconds before
    retrying, or ``None`` when it offered no hint.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after
