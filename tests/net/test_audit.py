"""The keyless-server invariant, checked structurally.

:func:`repro.net.audit.audit_keyless` must flag key material wherever it
hides in an object graph (sessions, nested containers, smuggled
attributes) and must pass a real service hosting real ciphertext stores
-- that pass is the paper's threat model made testable."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.schema import ColumnSpec, TableSchema
from repro.crypto.ashe import AsheScheme
from repro.crypto.det import DetScheme
from repro.crypto.keys import KeyChain
from repro.crypto.ore import OreScheme
from repro.crypto.prf import AesNiCtrPrf
from repro.net.audit import KeylessAuditError, audit_keyless

KEY = b"a" * 32

SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True,
               distinct_values=["us", "eu"]),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
SAMPLES = ["SELECT sum(amount) FROM sales WHERE region = 'us'"]


def _loaded_session():
    session = repro.SeabedSession(master_key=KEY, seed=3)
    session.create_plan(SCHEMA, SAMPLES)
    session.upload("sales", {
        "region": np.array(["us", "eu"] * 30),
        "amount": np.arange(60, dtype=np.int64),
    })
    return session


class TestDetection:
    def test_session_is_flagged(self):
        result = audit_keyless(_loaded_session())
        assert not result.ok
        assert any("KeyChain" in f for f in result.flagged)
        with pytest.raises(KeylessAuditError):
            result.raise_if_failed()

    def test_bare_keychain_flagged(self):
        assert not audit_keyless(KeyChain.generate()).ok

    def test_keychain_nested_in_containers_flagged(self):
        graph = {"a": [({"deep": (KeyChain.generate(),)},)]}
        result = audit_keyless(graph)
        assert not result.ok and "KeyChain" in result.flagged[0]

    @pytest.mark.parametrize("make", [
        lambda: AesNiCtrPrf(KEY),
        lambda: AsheScheme(AesNiCtrPrf(KEY)),
        lambda: DetScheme(KEY),
        lambda: OreScheme(KEY),
    ], ids=["prf", "ashe", "det", "ore"])
    def test_keyed_scheme_objects_flagged(self, make):
        """The PRF and every scheme built on a column key are key material
        in their own right, wherever they sit."""
        obj = make()
        result = audit_keyless({"cache": [obj]})
        assert result.flagged == [f"root['cache'][0]: {type(obj).__name__}"]

    def test_clean_graph_passes(self):
        result = audit_keyless({"rows": np.arange(5), "name": "sales", "n": 3})
        assert result.ok and result.flagged == []

    def test_walk_bound_reported_as_failure(self):
        wide = {i: list(range(3)) for i in range(200)}
        result = audit_keyless(wide, max_objects=50)
        assert not result.ok
        assert "truncated" in result.flagged[0]

    def test_cycles_terminate(self):
        a: dict = {}
        a["self"] = a
        assert audit_keyless(a).ok


class TestServiceIsKeyless:
    def test_service_hosting_ciphertexts_passes(self):
        """The full service -- server, stores, tokens, admission state --
        holds no key material even while serving a session that does."""
        handle = repro.serve()
        try:
            token = handle.mint_token("alice")
            session = repro.connect(handle.address, token, master_key=KEY, seed=3)
            session.create_plan(SCHEMA, SAMPLES)
            session.upload("sales", {
                "region": np.array(["us", "eu"] * 30),
                "amount": np.arange(60, dtype=np.int64),
            })
            assert session.query("SELECT count(*) FROM sales").rows
            result = audit_keyless(handle.service)
            assert result.ok, result.flagged
            # the same audit over the RPC boundary
            remote = session.transport.audit_server()
            assert remote["ok"], remote["flagged"]
            assert remote["objects_walked"] > 0
            session.close()
        finally:
            handle.stop()

    def test_smuggled_key_is_caught(self):
        """If key material ever does land in service state, the audit is
        the tripwire -- including over the RPC."""
        handle = repro.serve()
        try:
            handle.service.smuggled = KeyChain.generate()
            result = audit_keyless(handle.service)
            assert not result.ok
            assert any("smuggled" in f and "KeyChain" in f for f in result.flagged)
            token = handle.mint_token("alice")
            from repro.net.client import RemoteTransport

            transport = RemoteTransport(handle.address, token)
            remote = transport.audit_server()
            assert remote["ok"] is False
            transport.close()
        finally:
            handle.stop()

    def test_sidecar_payloads_shipped_are_key_free(self):
        """What the client commits over the wire is the same key-free
        document persistence already proves safe: audit the payload the
        server would hold."""
        session = _loaded_session()
        path = session.save_table("sales")
        import json
        import os

        with open(os.path.join(path, "client_state.json")) as fh:
            payload = json.load(fh)
        assert audit_keyless(payload).ok
        assert "key_check" in payload  # a PRF check value, not a key
