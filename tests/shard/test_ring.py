"""Property tests for the consistent-hash ring (repro.shard.ring).

The three properties the sharded tier leans on, pinned with hypothesis:
balance (vnode smoothing keeps member loads comparable), minimal key
movement (growing or shrinking the member set only moves keys touching
the changed member's arcs), and deterministic replica placement (two
rings built from the same topology agree on every chain).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import server as srv
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.errors import ExecutionError
from repro.shard.coordinator import ShardCoordinator
from repro.shard.ring import HashRing, hash_key, mix64

KEYS = np.arange(5_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def loads(ring: HashRing, keys: np.ndarray) -> dict[int, int]:
    idx = ring.owners(keys)
    return {m: int((idx == i).sum()) for i, m in enumerate(ring.members)}


class TestValidation:
    def test_empty_members_rejected(self):
        with pytest.raises(ExecutionError, match="at least one member"):
            HashRing([])

    def test_duplicate_members_rejected(self):
        with pytest.raises(ExecutionError, match="duplicate"):
            HashRing([0, 1, 1])

    def test_nonpositive_vnodes_rejected(self):
        with pytest.raises(ExecutionError, match="vnodes"):
            HashRing([0, 1], vnodes=0)

    def test_replicas_bounds(self):
        with pytest.raises(ExecutionError, match="replicas"):
            HashRing([0, 1], replicas=3)
        with pytest.raises(ExecutionError, match="replicas"):
            HashRing([0, 1], replicas=0)

    def test_unknown_member_chain(self):
        with pytest.raises(ExecutionError, match="not a ring member"):
            HashRing([0, 1]).replica_chain(7)


class TestRouting:
    def test_owner_matches_vectorised_owners(self):
        ring = HashRing(list(range(5)), vnodes=32)
        idx = ring.owners(KEYS[:512])
        for key, i in zip(KEYS[:512].tolist(), idx.tolist()):
            assert ring.owner(key) == ring.members[i]

    def test_known_outputs_pinned(self):
        """The mixer's outputs, through its one-int and its array path,
        and the owners they give: pinned so that moving the mixer moves
        no key to another shard."""
        keys = np.array([0, 1, 2**63, 2**64 - 1, 0x0123456789ABCDEF, 12345],
                        dtype=np.uint64)
        pinned = [0, 0x5692161D100B05E5, 0x25C26EA579CEA98A, 0xB4D055FCF2CBBD7B,
                  0xB2C058E4EBB5112C]
        assert [hash_key(int(k)) for k in keys[:5]] == pinned
        assert mix64(keys[:5]).tolist() == pinned
        ring = HashRing(list(range(4)), vnodes=16)
        assert ring.owners(keys).tolist() == [0, 3, 2, 2, 3, 3]
        assert [ring.owner(int(k)) for k in keys] == [0, 3, 2, 2, 3, 3]

    def test_hash_key_is_a_permutation_step(self):
        # Distinct inputs keep distinct mixes (splitmix64 is bijective).
        mixed = {hash_key(k) for k in range(2_000)}
        assert len(mixed) == 2_000

    def test_mix64_leaves_its_input_array_unchanged(self):
        keys = KEYS[:64].copy()
        mixed = mix64(keys)
        assert mixed.dtype == np.uint64
        assert np.array_equal(keys, KEYS[:64])
        assert not np.array_equal(mixed, keys)

    def test_rebuilt_ring_routes_identically(self):
        a = HashRing(list(range(6)), vnodes=48, replicas=2)
        b = HashRing(list(range(6)), vnodes=48, replicas=2)
        assert np.array_equal(a.owners(KEYS), b.owners(KEYS))


@given(keys=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
                     max_size=32))
@settings(max_examples=100, deadline=None)
def test_mix64_int_and_array_paths_agree(keys):
    """The one-int path (masking after each multiply) and the wrapping
    uint64 array path are the same function on every 64-bit key."""
    assert [mix64(k) for k in keys] == mix64(np.asarray(keys, dtype=np.uint64)).tolist()
    assert all(0 <= mix64(k) < 2**64 for k in keys)


@given(members=st.integers(min_value=2, max_value=12))
@settings(max_examples=12, deadline=None)
def test_balance_within_bound(members):
    """Vnode smoothing: no member owns more than ~3x its fair share of a
    large uniform key set (and every member owns something)."""
    ring = HashRing(list(range(members)), vnodes=64)
    counts = loads(ring, KEYS)
    fair = len(KEYS) / members
    assert all(c > 0 for c in counts.values())
    assert max(counts.values()) <= 3.0 * fair


@given(members=st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_adding_a_member_only_moves_keys_to_it(members):
    """Minimal movement, exactly: when member N joins, every key either
    keeps its owner or moves to N -- never between survivors."""
    before = HashRing(list(range(members)), vnodes=32)
    after = HashRing(list(range(members + 1)), vnodes=32)
    owners_before = before.owners(KEYS)
    owners_after = after.owners(KEYS)
    moved = owners_before != owners_after
    assert np.all(owners_after[moved] == members)
    if members >= 2:  # with 32 vnodes the newcomer always lands some arc
        assert moved.any()


@given(members=st.integers(min_value=2, max_value=10))
@settings(max_examples=10, deadline=None)
def test_removing_a_member_only_moves_its_keys(members):
    """The inverse direction: dropping the last member reassigns only
    the keys it owned; everyone else's keys stay put."""
    big = HashRing(list(range(members)), vnodes=32)
    small = HashRing(list(range(members - 1)), vnodes=32)
    owners_big = big.owners(KEYS)
    owners_small = small.owners(KEYS)
    kept = owners_big != members - 1
    assert np.array_equal(owners_big[kept], owners_small[kept])


@given(
    members=st.integers(min_value=2, max_value=10),
    replicas=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_replica_chains_deterministic_and_distinct(members, replicas):
    replicas = min(replicas, members)
    a = HashRing(list(range(members)), vnodes=16, replicas=replicas)
    b = HashRing(list(range(members)), vnodes=16, replicas=replicas)
    for m in a.members:
        chain = a.replica_chain(m)
        assert chain == b.replica_chain(m)
        assert chain[0] == m  # the member is its own primary
        assert len(chain) == replicas
        assert len(set(chain)) == replicas  # R *distinct* nodes

    def coverage(ring):
        hosted = {m: 0 for m in ring.members}
        for m in ring.members:
            for node in ring.replica_chain(m):
                hosted[node] += 1
        return hosted

    # Chains walk one shared circle, so hosting duty is exactly R each.
    assert all(n == replicas for n in coverage(a).values())


class TestCoordinatorRouting:
    """The coordinator routes shard-key predicates through the ring."""

    @staticmethod
    def coordinator():
        store = SimpleNamespace(topology=SimpleNamespace(key_column="k__det"),
                                ring=HashRing(list(range(4)), vnodes=16))
        return ShardCoordinator(store, cluster=SimulatedCluster(ClusterConfig()))

    def test_in_list_routes_to_its_tokens_owners(self):
        coord = self.coordinator()
        tokens = tuple(int(k) for k in KEYS[:40])
        want = {coord.store.ring.owner(t) for t in tokens}
        assert 1 < len(want) <= 4
        assert coord.route_filter(srv.DetIn("k__det", tokens)) == want
        for t in tokens[:5]:
            assert coord.route_filter(srv.DetIn("k__det", (t,))) == \
                coord.route_filter(srv.DetEq("k__det", t)) == {coord.store.ring.owner(t)}
        assert coord.route_filter(srv.DetIn("other__det", tokens)) is None
