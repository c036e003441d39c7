"""Leakage audit of zone-map artifacts (satellite of the frequency
attacks): everything the index publishes must be recomputable by a
keyless server from the ciphertext columns it already stores.
"""

import numpy as np
import pytest

from repro.attacks.frequency import audit_zone_maps
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession

MASTER_KEY = b"audit-zone-maps-master-key-32byt"
COUNTRIES = ["us", "ca", "in", "uk", "de"]


@pytest.fixture(scope="module")
def stored_session(tmp_path_factory):
    rng = np.random.default_rng(11)
    n = 600
    data = {
        "country": rng.choice(COUNTRIES, n, p=[0.5, 0.2, 0.15, 0.1, 0.05]),
        "amount": rng.integers(0, 5000, n).astype(np.int64),
        "user": np.sort(rng.integers(0, 40, n)).astype(np.int64),
        "year": rng.integers(2013, 2017, n).astype(np.int64),
    }
    schema = TableSchema("sales", [
        ColumnSpec("country", dtype="str", sensitive=True,
                   distinct_values=COUNTRIES,
                   value_counts={c: int((data["country"] == c).sum())
                                 for c in COUNTRIES}),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])
    session = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=4)
    session.create_plan(schema, [
        "SELECT sum(amount) FROM sales WHERE country = 'us'",
        "SELECT sum(amount), min(amount), max(amount) FROM sales WHERE amount > 5",
        "SELECT sum(amount) FROM sales WHERE user = 3",
    ])
    session.upload(
        "sales", data, num_partitions=6,
        path=tmp_path_factory.mktemp("audit") / "sales",
    )
    return session


def _table_and_meta(session):
    table = session.server.table("sales")
    meta = session._column_meta(session.table_state("sales"))
    return table, meta


def test_real_store_passes_the_audit(stored_session):
    table, meta = _table_and_meta(stored_session)
    result = audit_zone_maps(table, meta)
    assert result.ok, result.violations
    assert result.partitions_checked == table.num_partitions
    assert result.artifacts_checked > 0
    assert "ok" in result.summary()


def test_manifest_enc_meta_names_real_schemes(stored_session):
    """The manifest records per-physical schemes (not plan kinds), so the
    ORE companion of the ASHE measure is auditable as ORE."""
    _, meta = _table_and_meta(stored_session)
    assert meta["amount__ore"] == "ore"
    assert meta["user__det"] == "det"
    assert meta["amount__ashe"] == "ashe"
    assert meta["year"] == "plain"


def test_plaintext_derived_token_is_flagged(stored_session):
    """A token that never appears in the stored column can only come from
    plaintext knowledge -- the audit must refuse it."""
    table, meta = _table_and_meta(stored_session)
    doctored = [dict(z, columns=dict(z["columns"])) for z in table.zone_maps]
    col = dict(doctored[0]["columns"]["user__det"])
    col["tokens"] = sorted(col["tokens"] + [123456789])
    doctored[0]["columns"]["user__det"] = col
    backup, table.zone_maps = table.zone_maps, doctored
    try:
        result = audit_zone_maps(table, meta)
        assert not result.ok
        assert any("not recomputable" in v for v in result.violations)
    finally:
        table.zone_maps = backup


def test_foreign_ore_bound_is_flagged(stored_session):
    table, meta = _table_and_meta(stored_session)
    doctored = [dict(z, columns=dict(z["columns"])) for z in table.zone_maps]
    col = dict(doctored[0]["columns"]["amount__ore"])
    col["min"] = [0] * len(col["min"])  # not a stored ciphertext row
    doctored[0]["columns"]["amount__ore"] = col
    backup, table.zone_maps = table.zone_maps, doctored
    try:
        result = audit_zone_maps(table, meta)
        assert not result.ok
        assert any("amount__ore" in v for v in result.violations)
    finally:
        table.zone_maps = backup


def test_artifact_on_semantically_secure_column_is_flagged(stored_session):
    """ASHE ciphertexts are semantically secure; *any* published statistic
    on them is treated as leakage even before recomputation."""
    table, meta = _table_and_meta(stored_session)
    doctored = [dict(z, columns=dict(z["columns"])) for z in table.zone_maps]
    doctored[0]["columns"]["amount__ashe"] = {
        "kind": "plain", "min": 0, "max": 10,
    }
    backup, table.zone_maps = table.zone_maps, doctored
    try:
        result = audit_zone_maps(table, meta)
        assert not result.ok
        assert any("semantically secure" in v for v in result.violations)
    finally:
        table.zone_maps = backup


def test_row_count_mismatch_and_phantom_column_flagged(stored_session):
    table, meta = _table_and_meta(stored_session)
    doctored = [dict(z, columns=dict(z["columns"])) for z in table.zone_maps]
    doctored[0]["rows"] = doctored[0]["rows"] + 1
    doctored[1]["columns"]["ghost"] = {"kind": "plain", "min": 0, "max": 1}
    backup, table.zone_maps = table.zone_maps, doctored
    try:
        result = audit_zone_maps(table, meta)
        assert sum("rows" in v for v in result.violations) == 1
        assert any("does not even store" in v for v in result.violations)
    finally:
        table.zone_maps = backup


def test_table_without_zone_maps_audits_clean():
    from repro.engine.table import Table

    table = Table.from_columns(
        "t", {"year": np.arange(4, dtype=np.int64)}, num_partitions=2
    )
    result = audit_zone_maps(table)
    assert result.ok and result.partitions_checked == 0
