"""Tests for proxy-side access control (repro.core.access)."""

import numpy as np
import pytest

from repro.core.access import AccessController, AccessError
from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema


class TestController:
    def test_grant_and_check(self):
        ac = AccessController()
        ac.grant("alice")
        ac.check("alice", "any_table")  # no exception

    def test_table_scoped_grant(self):
        ac = AccessController()
        ac.grant("bob", {"sales"})
        ac.check("bob", "sales")
        with pytest.raises(AccessError, match="may not query"):
            ac.check("bob", "salaries")

    def test_revocation_is_immediate(self):
        ac = AccessController()
        ac.grant("carol")
        ac.revoke("carol")
        with pytest.raises(AccessError, match="revoked"):
            ac.check("carol", "sales")
        assert not ac.is_active("carol")

    def test_regrant_unrevokes(self):
        ac = AccessController()
        ac.grant("dave")
        ac.revoke("dave")
        ac.grant("dave", {"sales"})
        ac.check("dave", "sales")

    def test_limit_narrows_access(self):
        ac = AccessController()
        ac.grant("erin")
        ac.limit("erin", {"sales"})
        with pytest.raises(AccessError):
            ac.check("erin", "other")

    def test_limit_requires_active_grant(self):
        ac = AccessController()
        with pytest.raises(AccessError, match="no active grant"):
            ac.limit("nobody", {"sales"})

    def test_unknown_user_rejected(self):
        ac = AccessController()
        with pytest.raises(AccessError, match="no grant"):
            ac.check("mallory", "sales")
        with pytest.raises(AccessError, match="never granted"):
            ac.revoke("mallory")

    def test_missing_user_rejected(self):
        ac = AccessController()
        with pytest.raises(AccessError, match="user is required"):
            ac.check(None, "sales")


class TestProxyIntegration:
    @pytest.fixture(scope="class")
    def client(self):
        schema = TableSchema("sales", [
            ColumnSpec("amount", dtype="int", sensitive=True),
        ])
        client = SeabedSession(mode="seabed", access_control=True, seed=1)
        client.create_plan(schema, ["SELECT sum(amount) FROM sales"])
        client.upload("sales", {"amount": np.arange(100)})
        return client

    def test_authorised_query(self, client):
        client.access.grant("analyst", {"sales"})
        result = client.query("SELECT sum(amount) FROM sales", user="analyst")
        assert result.rows == [{"sum(amount)": 4950}]

    def test_anonymous_rejected(self, client):
        with pytest.raises(AccessError, match="user is required"):
            client.query("SELECT sum(amount) FROM sales")

    def test_revoked_without_reencryption(self, client):
        """Revocation takes effect while the server data is untouched --
        the paper's point about proxy-held symmetric keys."""
        client.access.grant("temp", {"sales"})
        before = client.server.table("sales").memory_bytes()
        client.access.revoke("temp")
        with pytest.raises(AccessError, match="revoked"):
            client.query("SELECT sum(amount) FROM sales", user="temp")
        assert client.server.table("sales").memory_bytes() == before

    def test_disabled_by_default(self):
        schema = TableSchema("t", [ColumnSpec("a", dtype="int", sensitive=True)])
        client = SeabedSession(mode="seabed", seed=1)
        client.create_plan(schema, ["SELECT sum(a) FROM t"])
        client.upload("t", {"a": np.arange(10)})
        assert client.query("SELECT sum(a) FROM t").rows[0]["sum(a)"] == 45


class TestSharedExecutionPathChecks:
    """Regression: every read path must consult the access controller.

    ``scan()`` and ``linear_regression()`` historically skipped the
    check (only ``query()`` called ``access.check``), so a revoked user
    could still pull decrypted rows through a projection.  All verbs now
    route through the shared ``PreparedQuery.execute`` path, which
    checks every table the query touches.
    """

    @pytest.fixture(scope="class")
    def client(self):
        schema = TableSchema("readings", [
            ColumnSpec("x", dtype="int", sensitive=True, nbits=32),
            ColumnSpec("y", dtype="int", sensitive=True, nbits=32),
        ])
        client = SeabedSession(mode="seabed", access_control=True, seed=1)
        client.create_plan(schema, [
            "SELECT sum(x), sum(y) FROM readings",
            "SELECT sum(x) FROM readings WHERE y > 10",
        ])
        rng = np.random.default_rng(3)
        x = rng.integers(0, 50, 200)
        client.upload("readings", {"x": x, "y": 3 * x + 7})
        client.access.grant("analyst", {"readings"})
        return client

    def test_scan_requires_user(self, client):
        with pytest.raises(AccessError, match="user is required"):
            client.scan("SELECT x, y FROM readings")

    def test_scan_rejects_unauthorised(self, client):
        with pytest.raises(AccessError, match="no grant"):
            client.scan("SELECT x, y FROM readings", user="intruder")

    def test_scan_allows_granted_user(self, client):
        result = client.scan("SELECT x, y FROM readings", user="analyst")
        assert len(result.rows) == 200

    def test_linear_regression_requires_user(self, client):
        with pytest.raises(AccessError, match="user is required"):
            client.linear_regression("readings", "x", "y")

    def test_linear_regression_allows_granted_user(self, client):
        fit = client.linear_regression("readings", "x", "y", user="analyst")
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(7.0)

    def test_prepared_execute_checks_every_call(self, client):
        prepared = client.prepare("SELECT sum(x) FROM readings WHERE y > :t")
        assert prepared.execute(t=0, user="analyst").rows
        with pytest.raises(AccessError, match="no grant"):
            prepared.execute(t=0, user="intruder")
        client.access.grant("shortlived", {"readings"})
        assert prepared.execute(t=0, user="shortlived").rows
        client.access.revoke("shortlived")
        with pytest.raises(AccessError, match="revoked"):
            prepared.execute(t=0, user="shortlived")

    def test_query_rejects_ungranted_user(self, client):
        with pytest.raises(AccessError, match="no grant"):
            client.query("SELECT sum(x) FROM readings", user="intruder")
