"""Consistent-hash ring: shard routing and replica placement.

The sharded tier splits a table across N shard workers by the DET token
of a designated shard-key column.  DET tokens are already uniformly
distributed 64-bit values (a keyed PRP output), so hashing them once
more with a public mixer and walking a virtual-node ring gives the three
properties the coordinator needs:

- **balance** -- with enough virtual nodes per member, each member owns
  a near-equal arc of the token space;
- **minimal movement** -- adding or removing a member only reassigns the
  keys that land on that member's arcs; keys never move *between*
  surviving members (the property the hypothesis suite pins down);
- **routability** -- a ``DetEq``/``DetIn`` predicate's tokens identify
  the owning shards without touching any data.

Replica chains are placed at *member* granularity, not per key: shard
``s``'s store is replicated on the next ``R - 1`` distinct members of a
hash-ordered member circle.  Per-vnode successor sets would scatter one
shard's rows across differing replica groups, which is useless when the
unit of storage (and failover) is a whole generation-logged store.

Everything here is deterministic and keyless -- the ring can be rebuilt
from the topology record alone, in any process, and two rings built from
the same member list are bit-identical.  The mixer is the public
splitmix64 finaliser (:func:`mix64`), with fixed constants and no key.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ExecutionError

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

# splitmix64 finaliser steps: (shift, multiplier) -- fixed and public, so
# any process rebuilds the same ring from the topology alone.
_MIX_STEPS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_MIX_STEPS_U64 = tuple((_U64(s), _U64(m)) for s, m in _MIX_STEPS)


def mix64(x: np.ndarray | int) -> np.ndarray | int:
    """The public splitmix64 finaliser (a bijection), over a uint64 array
    -- whose multiplies wrap -- or over one Python int, masked to 64 bits
    after each multiply (a single key skips numpy's per-call overhead)."""
    array = isinstance(x, np.ndarray)
    for shift, mul in _MIX_STEPS_U64 if array else _MIX_STEPS:
        x = (x ^ (x >> shift)) * mul
        if not array:
            x &= _MASK64
    return x ^ (x >> (_U64(31) if array else 31))


def hash_key(key: int) -> int:
    """Public 64-bit mix of an integer key (DET tokens route through this)."""
    return mix64(int(key) & _MASK64)


def _point(member: str | int, vnode: int) -> int:
    """Ring position of one virtual node (stable across processes)."""
    digest = hashlib.blake2b(
        f"{member}#{vnode}".encode(), digest_size=8, person=b"seabedRING"
    ).digest()
    return int.from_bytes(digest, "little")


class HashRing:
    """A virtual-node consistent-hash ring over shard members.

    ``members`` is the ordered member list (shard identifiers -- ints in
    the sharded store, but any string/int works); ``vnodes`` virtual
    nodes per member smooth the arc lengths; ``replicas`` is the R-way
    placement factor used by :meth:`replica_chain`.
    """

    def __init__(
        self,
        members: Sequence[str | int],
        vnodes: int = 64,
        replicas: int = 1,
    ):
        members = list(members)
        if not members:
            raise ExecutionError("a hash ring needs at least one member")
        if len(set(members)) != len(members):
            raise ExecutionError(f"duplicate ring members in {members!r}")
        if vnodes < 1:
            raise ExecutionError(f"vnodes must be positive, got {vnodes}")
        if not 1 <= replicas <= len(members):
            raise ExecutionError(
                f"replicas must be in [1, {len(members)}] for "
                f"{len(members)} member(s), got {replicas}"
            )
        self.members = tuple(members)
        self.vnodes = int(vnodes)
        self.replicas = int(replicas)
        points: list[tuple[int, int]] = []
        for idx, member in enumerate(members):
            for v in range(vnodes):
                points.append((_point(member, v), idx))
        # Ties between distinct members at one point are broken by member
        # order -- astronomically unlikely at 64 bits, but deterministic.
        points.sort()
        self._points = np.asarray([p for p, _ in points], dtype=_U64)
        self._point_owner = np.asarray([i for _, i in points], dtype=np.int64)
        # Member circle for replica chains: hash-ordered, vnode-free.
        self._circle = sorted(
            range(len(members)), key=lambda i: (_point(members[i], -1), i)
        )

    # -- key routing ---------------------------------------------------------

    def owner(self, key: int) -> str | int:
        """The member owning ``key`` (first vnode at or after its hash)."""
        idx = int(
            np.searchsorted(self._points, _U64(hash_key(key)), side="left")
        )
        if idx == len(self._points):
            idx = 0  # wrap past the last vnode
        return self.members[int(self._point_owner[idx])]

    def owners(self, keys: np.ndarray | Iterable[int]) -> np.ndarray:
        """Vectorised :meth:`owner`: member *indices* for a key array."""
        hashed = mix64(np.asarray(list(keys) if not isinstance(
            keys, np.ndarray) else keys, dtype=_U64))
        idx = np.searchsorted(self._points, hashed, side="left")
        idx[idx == len(self._points)] = 0
        return self._point_owner[idx]

    # -- replica placement ---------------------------------------------------

    def replica_chain(self, member: str | int) -> tuple[str | int, ...]:
        """``member`` plus the next R-1 distinct members of the member
        circle -- where the member's shard store is replicated, and the
        order the coordinator fails over in."""
        try:
            idx = self.members.index(member)
        except ValueError:
            raise ExecutionError(f"{member!r} is not a ring member") from None
        pos = self._circle.index(idx)
        chain = [
            self.members[self._circle[(pos + step) % len(self._circle)]]
            for step in range(self.replicas)
        ]
        return tuple(chain)

    def __repr__(self) -> str:
        return (
            f"HashRing(members={len(self.members)}, vnodes={self.vnodes}, "
            f"replicas={self.replicas})"
        )
