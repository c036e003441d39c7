"""Network service layer: the repo's first real process boundary.

Seabed's threat model (Section 3) is a *keyless* cloud server executing
analytics over ciphertexts on behalf of remote clients.  This package
makes that boundary real: :mod:`repro.net.service` hosts one or more
:class:`~repro.core.server.SeabedServer` stores behind a threaded TCP
listener with bearer-token auth and per-tenant admission control;
:mod:`repro.net.client` provides :class:`RemoteTransport`, a socket
client that plugs into :class:`~repro.core.session.SeabedSession`
unchanged; :mod:`repro.net.codec` is the versioned, length-prefixed
binary wire format and :mod:`repro.net.rpc` the request/reply envelope
both ends -- and the shard workers behind the service -- speak; and
:mod:`repro.net.audit` proves the serving process holds no key material.

Entry points::

    handle = repro.serve(stores=["/data/stores/sales"])
    token = handle.mint_token("alice")
    session = repro.connect(handle.address, token, master_key=KEY)
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

# Lazy re-exports (same idiom as the package root): importing
# ``repro.net.codec`` alone must not drag in the service machinery.
_LAZY = {
    "RemoteTransport": "repro.net.client",
    "connect": "repro.net.client",
    "SeabedService": "repro.net.service",
    "ServiceConfig": "repro.net.service",
    "ServiceHandle": "repro.net.service",
    "serve": "repro.net.service",
    "audit_keyless": "repro.net.audit",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.net' has no attribute {name!r}") from None
    return getattr(import_module(module), name)
