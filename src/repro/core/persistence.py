"""Client-state (de)serialisation for persistent encrypted tables.

A stored table has two halves:

- the **server half** -- ciphertext column files plus a public manifest,
  written by :mod:`repro.engine.store`; safe to hand to untrusted cloud
  storage as-is (the paper's upload-once model, Section 5);
- the **client half** -- the plaintext schema, the planner's encrypted
  schema, dictionary encoders, and the row-ID cursor.  This is the proxy
  state of Section 4.2 that lets a fresh session attach to the stored
  ciphertexts *without re-encrypting anything*.  It contains plaintext
  dictionary values, so in a real deployment this sidecar stays on the
  trusted side (or is itself encrypted); it never contains key material.

No key is ever written.  Instead the sidecar records a *key-check* value
derived from the session keychain, so attaching with the wrong master key
fails with :class:`~repro.errors.StorageError` instead of decrypting
garbage.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.core import schema as sc
from repro.core.encryptor import ClientTableState
from repro.crypto.det import DictionaryEncoder
from repro.crypto.keys import KeyChain
from repro.engine.storage import atomic_write_json
from repro.errors import StorageError

SIDECAR_NAME = "client_state.json"
SIDECAR_FORMAT = "seabed-client-state"
# Version 2: ASHE runs on AES only, so the sidecar names no PRF.  A
# version-1 sidecar may describe ciphertexts under another PRF, which the
# key check cannot tell apart, so it is refused rather than read.
SIDECAR_VERSION = 2

# A sharded table's sidecar embeds the ordinary client state plus the
# topology and per-shard row cursors; see state_to_dict.
SHARDED_SIDECAR_NAME = "sharded_state.json"
SHARDED_FORMAT = "seabed-sharded-state"
SHARDED_VERSION = 2

_PLAN_CLASSES: dict[str, type] = {
    "plain": sc.PlainPlan,
    "ashe": sc.AshePlan,
    "paillier": sc.PaillierPlan,
    "det": sc.DetPlan,
    "ore": sc.OrePlan,
    "splashe_basic": sc.SplasheBasicPlan,
    "splashe_enhanced": sc.SplasheEnhancedPlan,
}


def key_check_value(keychain: KeyChain, table: str) -> str:
    """Hex check value proving a keychain can decrypt a stored table."""
    return keychain.derive(table, "__store__", "key-check").hex()


# ---------------------------------------------------------------------------
# Column plans
# ---------------------------------------------------------------------------


def plan_to_dict(plan: sc.ColumnPlan) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": plan.kind, "column": plan.column}
    if isinstance(plan, (sc.AshePlan, sc.PaillierPlan)):
        out.update(
            cipher_column=plan.cipher_column,
            squares_column=plan.squares_column,
            ore_column=plan.ore_column,
            det_column=plan.det_column,
        )
    elif isinstance(plan, sc.DetPlan):
        out.update(
            cipher_column=plan.cipher_column,
            dtype=plan.dtype,
            join_group=plan.join_group,
        )
    elif isinstance(plan, sc.OrePlan):
        out.update(cipher_column=plan.cipher_column, nbits=plan.nbits)
    elif isinstance(plan, sc.SplasheBasicPlan):
        out.update(
            values=plan.values,
            indicator_columns=plan.indicator_columns,
            measure_columns=plan.measure_columns,
        )
    elif isinstance(plan, sc.SplasheEnhancedPlan):
        out.update(
            values=plan.values,
            frequent_codes=plan.frequent_codes,
            det_column=plan.det_column,
            # JSON objects have string keys; code-keyed maps are stored
            # as pair lists so the integer codes survive the round trip.
            indicator_columns=sorted(plan.indicator_columns.items()),
            others_indicator=plan.others_indicator,
            measure_columns={
                measure: sorted(per_code.items())
                for measure, per_code in plan.measure_columns.items()
            },
            others_measure=plan.others_measure,
        )
    elif not isinstance(plan, sc.PlainPlan):
        raise StorageError(f"cannot serialise plan kind {plan.kind!r}")
    return out


def plan_from_dict(data: dict[str, Any]) -> sc.ColumnPlan:
    kind = data.get("kind")
    cls = _PLAN_CLASSES.get(kind)
    if cls is None:
        raise StorageError(f"unknown column-plan kind {kind!r} in client state")
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    if kind == "splashe_enhanced":
        kwargs["indicator_columns"] = {
            int(code): col for code, col in kwargs["indicator_columns"]
        }
        kwargs["measure_columns"] = {
            measure: {int(code): col for code, col in per_code}
            for measure, per_code in kwargs["measure_columns"].items()
        }
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Schemas and dictionaries
# ---------------------------------------------------------------------------


def _spec_to_dict(spec: sc.ColumnSpec) -> dict[str, Any]:
    return {
        "name": spec.name,
        "dtype": spec.dtype,
        "sensitive": spec.sensitive,
        "distinct_values": spec.distinct_values,
        # Pair list: JSON would stringify integer keys of a plain object.
        "value_counts": (
            None
            if spec.value_counts is None
            else [[k, int(v)] for k, v in spec.value_counts.items()]
        ),
        "max_abs": spec.max_abs,
        "nbits": spec.nbits,
    }


def _spec_from_dict(data: dict[str, Any]) -> sc.ColumnSpec:
    counts = data.get("value_counts")
    return sc.ColumnSpec(
        name=data["name"],
        dtype=data["dtype"],
        sensitive=data["sensitive"],
        distinct_values=data["distinct_values"],
        value_counts=None if counts is None else {k: v for k, v in counts},
        max_abs=data["max_abs"],
        nbits=data["nbits"],
    )


def _dictionary_to_list(encoder: DictionaryEncoder) -> list[Any]:
    values = [encoder.value(code) for code in range(encoder.cardinality)]
    for v in values:
        if not isinstance(v, (str, int)):
            raise StorageError(
                f"dictionary value {v!r} ({type(v).__name__}) is not "
                "JSON-serialisable"
            )
    return values


def _dictionary_from_list(values: list[Any]) -> DictionaryEncoder:
    encoder = DictionaryEncoder()
    for value in values:  # codes are first-seen order
        encoder.code(value)
    return encoder


# ---------------------------------------------------------------------------
# The sidecar
# ---------------------------------------------------------------------------


def state_to_dict(
    state: ClientTableState,
    mode: str,
    keychain: KeyChain,
    cursors: dict[int, ClientTableState],
    topology: dict[str, Any] | None = None,
    paillier_n: int | None = None,
) -> dict[str, Any]:
    """The key-free sidecar payload: the *commit record* of ingestion.

    An appended generation counts as durable only once its row watermark
    (``next_row_id`` / ``num_rows``, plus any dictionary growth) lands in
    the sidecar.  A single-store table (one cursor, no ``topology``)
    records its cursor at the top level; a sharded table adds a
    ``sharding`` section with the ring topology (``ShardTopology.to_dict``)
    and one cursor per shard -- shard row-ID spaces are disjoint strides,
    so every shard keeps its own high-water mark.
    """
    watermark = state if topology is not None else cursors[0]
    payload = {
        "format": SIDECAR_FORMAT if topology is None else SHARDED_FORMAT,
        "version": SIDECAR_VERSION if topology is None else SHARDED_VERSION,
        "mode": mode,
        "key_check": key_check_value(keychain, state.schema.name),
        # The Paillier public modulus is public material; recording it lets
        # attach fail fast when the session holds a different key pair.
        "paillier_n": None if paillier_n is None else str(paillier_n),
        "schema": {
            "name": state.schema.name,
            "columns": [_spec_to_dict(spec) for spec in state.schema.columns],
        },
        "enc_schema": {
            "table": state.enc_schema.table,
            "mode": state.enc_schema.mode,
            "plans": {
                name: plan_to_dict(plan)
                for name, plan in state.enc_schema.plans.items()
            },
            "warnings": list(state.enc_schema.warnings),
        },
        "dictionaries": {
            name: _dictionary_to_list(encoder)
            for name, encoder in state.dictionaries.items()
        },
        "next_row_id": watermark.next_row_id,
        "num_rows": state.num_rows,
    }
    if topology is not None:
        payload["sharding"] = {
            "topology": dict(topology),
            "shards": {
                str(shard): {
                    "next_row_id": int(cursor.next_row_id),
                    "num_rows": int(cursor.num_rows),
                }
                for shard, cursor in cursors.items()
            },
        }
    return payload


def state_from_dict(data: dict[str, Any]) -> tuple[ClientTableState, dict[str, Any]]:
    """Rebuild the client state; returns ``(state, attach_info)`` where
    ``attach_info`` carries mode / key_check / paillier_n for the session
    to verify before registering the table, plus the placement:
    ``cursors`` (shard id -> ``(next_row_id, num_rows)``; a single store
    is shard 0) and ``topology`` (``None`` for a single store)."""
    sharding = data.get("sharding")
    fmt, expected = (
        (SIDECAR_FORMAT, SIDECAR_VERSION)
        if sharding is None
        else (SHARDED_FORMAT, SHARDED_VERSION)
    )
    if data.get("format") != fmt:
        raise StorageError("not a seabed client-state sidecar")
    version = data.get("version")
    if version != expected:
        raise StorageError(
            f"client-state version {version!r} is not readable by this build "
            f"(expected {expected})"
        )
    schema = sc.TableSchema(
        data["schema"]["name"],
        [_spec_from_dict(spec) for spec in data["schema"]["columns"]],
    )
    enc = data["enc_schema"]
    enc_schema = sc.EncryptedSchema(
        table=enc["table"],
        mode=enc["mode"],
        plans={name: plan_from_dict(plan) for name, plan in enc["plans"].items()},
        warnings=list(enc["warnings"]),
    )
    state = ClientTableState(
        schema=schema,
        enc_schema=enc_schema,
        dictionaries={
            name: _dictionary_from_list(values)
            for name, values in data["dictionaries"].items()
        },
        next_row_id=int(data["next_row_id"]),
        num_rows=int(data["num_rows"]),
    )
    paillier_n = data.get("paillier_n")
    attach_info = {
        "mode": data["mode"],
        "key_check": data["key_check"],
        "paillier_n": None if paillier_n is None else int(paillier_n),
        "cursors": committed_cursors(data),
        "topology": None if sharding is None else dict(sharding["topology"]),
    }
    return state, attach_info


def committed_cursors(data: dict[str, Any]) -> dict[int, tuple[int, int]]:
    """The row watermarks a sidecar payload commits: shard id ->
    ``(next_row_id, num_rows)``; a single store is shard 0."""
    sharding = data.get("sharding")
    if sharding is None:
        return {0: (int(data["next_row_id"]), int(data["num_rows"]))}
    # JSON stringifies the shard ids; this undoes that.
    return {
        int(shard): (int(cursor["next_row_id"]), int(cursor["num_rows"]))
        for shard, cursor in sharding["shards"].items()
    }


#: Payload format -> sidecar file name.  A sharded table's sidecar lives
#: at the *sharded root*, above the per-node directories.
_SIDECAR_FILES = {
    SIDECAR_FORMAT: SIDECAR_NAME,
    SHARDED_FORMAT: SHARDED_SIDECAR_NAME,
}


def read_state_payload(path: str) -> dict[str, Any]:
    """The raw (still-JSON) sidecar payload of the store or sharded root
    at ``path``.

    Sidecars are key-free by construction, so the payload may ship over
    the wire as-is and be parsed client-side by :func:`state_from_dict`.
    """
    for name in _SIDECAR_FILES.values():
        try:
            with open(os.path.join(path, name)) as fh:
                return json.load(fh)
        except FileNotFoundError:
            continue
        except json.JSONDecodeError as exc:
            raise StorageError(f"corrupt client-state sidecar: {exc}") from None
    raise StorageError(
        f"store at {path!r} has no client-state sidecar; it cannot "
        "be attached without re-planning"
    )


def write_state_payload(path: str, payload: dict[str, Any]) -> str:
    """Atomically write an already-built sidecar payload under ``path``
    (a store, or a sharded root); this is how transports commit on behalf
    of a session that may live in another process.  The durable publish
    primitive is shared with the store manifest."""
    name = _SIDECAR_FILES.get(payload.get("format"))
    if name is None:
        raise StorageError("refusing to write a non-client-state payload as a sidecar")
    target = os.path.join(path, name)
    atomic_write_json(target, payload)
    return target
