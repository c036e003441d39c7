"""Keyless-server audit: prove the serving process holds no key material.

Seabed's security argument (Section 3) needs the cloud half of the
system to be *keyless*: the server sees ciphertexts, DET/ORE tokens and
key-free sidecar payloads, never a :class:`~repro.crypto.keys.KeyChain`
or any scheme object derived from one.  :func:`audit_keyless` walks the
object graph reachable from a service (or any root object) and flags
every instance of a key-bearing class, mirroring how
:func:`repro.attacks.frequency.audit_zone_maps` audits the index layer.

The walk is deliberately *structural* -- dicts, sequences, sets,
instance ``__dict__``/``__slots__`` -- rather than ``gc.get_referents``
over classes and modules, which would chase module globals into
unrelated objects of the hosting process (e.g. a client session living
in the same test process).  What the audit covers is exactly the state
the service can reach from its own roots, which is what a compromised
server could exfiltrate.
"""

from __future__ import annotations

import types
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.crypto_factory import CryptoFactory
from repro.core.decryptor import DecryptionModule
from repro.core.encryptor import EncryptionModule
from repro.crypto.ashe import AsheScheme
from repro.crypto.det import DetScheme
from repro.crypto.keys import KeyChain
from repro.crypto.ore import OreScheme
from repro.crypto.paillier import PaillierKeyPair, PaillierScheme
from repro.crypto.prf import AesNiCtrPrf
from repro.errors import SeabedError

#: Classes whose instances constitute key material.  Reaching any of
#: these from server-side state breaks the keyless invariant.
KEY_BEARING: tuple[type, ...] = (
    KeyChain,
    CryptoFactory,
    EncryptionModule,
    DecryptionModule,
    PaillierKeyPair,
    PaillierScheme,
    AsheScheme,
    DetScheme,
    OreScheme,
    AesNiCtrPrf,
)

#: Leaf types never descended into: either they hold no user-object
#: references, or (modules, functions, frames) they are code-layer
#: boundaries whose globals would drag in the whole interpreter.
_OPAQUE = (
    str,
    bytes,
    bytearray,
    memoryview,
    int,
    float,
    complex,
    bool,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.FrameType,
    types.GeneratorType,
)


class KeylessAuditError(SeabedError):
    """The audited object graph reaches key material."""


@dataclass
class KeylessAuditResult:
    ok: bool
    objects_walked: int
    flagged: list[str] = field(default_factory=list)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise KeylessAuditError(str(self))

    def __str__(self) -> str:
        state = "keyless" if self.ok else f"{len(self.flagged)} key object(s)"
        detail = "" if self.ok else ": " + "; ".join(self.flagged[:5])
        return f"keyless audit: {self.objects_walked} objects walked -- {state}{detail}"


def _children(obj: Any) -> Iterator[tuple[str, Any]]:
    """(edge-label, child) pairs for one object: container elements and
    instance attributes.  Classes, modules and functions are boundaries,
    not children -- the audit checks state, not code."""
    if isinstance(obj, dict):
        for key, value in list(obj.items()):
            label = key if isinstance(key, str) else repr(key)
            yield f"[{label!r}]", key
            yield f"[{label!r}]", value
        return
    if isinstance(obj, (list, tuple, deque)):
        for index, value in enumerate(list(obj)):
            yield f"[{index}]", value
        return
    if isinstance(obj, (set, frozenset)):
        for value in list(obj):
            yield "{...}", value
        return
    inst = getattr(obj, "__dict__", None)
    if isinstance(inst, dict):
        for name, value in list(inst.items()):
            yield f".{name}", value
    for name in getattr(type(obj), "__slots__", ()) or ():
        if isinstance(name, str) and hasattr(obj, name):
            yield f".{name}", getattr(obj, name)


def audit_keyless(root: Any, *, max_objects: int = 1_000_000) -> KeylessAuditResult:
    """Walk every object reachable from ``root`` and flag key material.

    Returns a :class:`KeylessAuditResult`; callers wanting an exception
    use :meth:`KeylessAuditResult.raise_if_failed`.  ``max_objects``
    bounds the walk so a pathological graph cannot hang the audit --
    hitting the bound is reported as a failure (the invariant was not
    fully checked).
    """
    seen: set[int] = set()
    flagged: list[str] = []
    queue: deque[tuple[Any, str]] = deque([(root, "root")])
    walked = 0
    while queue:
        obj, path = queue.popleft()
        if isinstance(obj, type) or obj is None or isinstance(obj, _OPAQUE):
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        walked += 1
        if walked > max_objects:
            flagged.append(f"{path}: walk truncated at {max_objects} objects")
            break
        if isinstance(obj, KEY_BEARING):
            flagged.append(f"{path}: {type(obj).__name__}")
            continue  # no need to look inside confirmed key material
        for label, child in _children(obj):
            queue.append((child, path + label))
    return KeylessAuditResult(ok=not flagged, objects_walked=walked, flagged=flagged)
