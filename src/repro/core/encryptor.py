"""The client-side encryption module (paper Section 4.3).

Takes plaintext columns and the planner's encrypted schema and produces
the physical (server-side) table: ASHE ciphertext columns with contiguous
row identifiers, DET/ORE dimension columns, SPLASHE splayed columns with
enhanced-mode frequency balancing, and -- in the baseline mode -- Paillier
ciphertext columns.

Uploads are incremental: each batch continues the table's row-ID sequence
(``start_id``), which is what keeps ID lists range-compressible
(Section 4.2, "to enable compression, we assign consecutive row IDs").
String columns are dictionary-encoded client-side; the dictionary never
leaves the proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core import schema as sc
from repro.core import splashe
from repro.core.crypto_factory import CryptoFactory
from repro.crypto.ashe import check_overflow_headroom
from repro.crypto.det import DictionaryEncoder
from repro.crypto.paillier import PaillierScheme
from repro.engine.table import Table
from repro.errors import DecryptionError, PlanningError
from repro.ops import OPS

_I64 = np.int64

#: Squaring must stay inside int64: |v| below 2^31 keeps v^2 below 2^62.
_MAX_SQUARABLE = 1 << 31


@dataclass
class ClientTableState:
    """Everything the proxy must remember about one uploaded table."""

    schema: sc.TableSchema
    enc_schema: sc.EncryptedSchema
    dictionaries: dict[str, DictionaryEncoder] = field(default_factory=dict)
    next_row_id: int = 0
    num_rows: int = 0


class EncryptionModule:
    """Encrypts plaintext batches into the physical schema."""

    def __init__(
        self,
        factory: CryptoFactory,
        paillier: PaillierScheme | None = None,
        seed: int | None = None,
    ):
        self._factory = factory
        self._paillier = paillier
        self._rng = np.random.default_rng(seed)

    def balance_splashe(
        self, state: ClientTableState, columns: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Every enhanced-SPLASHE column's frequency-balanced DET codes over
        one batch, by column name.

        A sharded append balances its whole batch here, before the batch
        is split by owner, and hands each shard its slice: a slice is
        never balanced on its own, so a placement accepts every batch one
        store accepts, and the shards together show the server exactly the
        DET cells one store would (the split is a public function of the
        shard key's tokens, which every shard stores)."""
        return {
            name: splashe.balance_det_codes(
                encode_domain(plan.values, columns[name]),
                plan.frequent_codes, plan.cardinality, self._rng,
            )
            for name, plan in state.enc_schema.plans.items()
            if plan.kind == "splashe_enhanced" and name in columns
        }

    def encrypt_batch(
        self,
        state: ClientTableState,
        columns: Mapping[str, Any],
        balanced: Mapping[str, np.ndarray],
        num_partitions: int = 8,
    ) -> Table:
        """Encrypt one batch of rows, advancing the table's row-ID cursor.

        ``balanced`` is :meth:`balance_splashe` of these rows, or of a
        larger batch sliced to them."""
        arrays = {name: np.asarray(col) for name, col in columns.items()}
        expected = set(state.schema.column_names())
        if set(arrays) != expected:
            raise PlanningError(
                f"batch columns {sorted(arrays)} do not match the schema "
                f"{sorted(expected)}"
            )
        nrows = len(next(iter(arrays.values())))
        start_id = state.next_row_id
        physical: dict[str, np.ndarray] = {}
        # Counted so persistence tests can *prove* that attaching a stored
        # table performs zero re-encryption (the upload-once model) and so
        # the ingest benchmark can prove an append encrypts only its batch.
        OPS.bump("encrypt_batch")
        OPS.bump("encrypt_rows", nrows)
        for name, plan in state.enc_schema.plans.items():
            OPS.bump("encrypt_column")
            self._encrypt_column(state, plan, arrays[name], arrays, start_id, physical,
                                 balanced.get(name))
        table = Table.from_columns(
            state.schema.name,
            physical,
            num_partitions=num_partitions,
            base_id=start_id,
        )
        state.next_row_id = start_id + nrows
        state.num_rows += nrows
        return table

    # -- per-plan encryption -----------------------------------------------------

    def _encrypt_column(
        self,
        state: ClientTableState,
        plan: sc.ColumnPlan,
        values: np.ndarray,
        all_columns: Mapping[str, np.ndarray],
        start_id: int,
        out: dict[str, np.ndarray],
        balanced: np.ndarray | None,
    ) -> None:
        spec = state.schema.column(plan.column)
        if plan.kind == "plain":
            out[plan.column] = self._plain_column(state, spec, values)
            return
        if plan.kind in ("ashe", "paillier"):
            self._encrypt_measure(state, plan, spec, values, start_id, out)
            return
        if plan.kind == "det":
            codes = self._codes_for_det(state, spec, values)
            det = self._factory.det(plan.cipher_column, plan.join_group)
            out[plan.cipher_column] = det.encrypt_column(codes)
            return
        if plan.kind == "ore":
            ore = self._factory.ore(plan.cipher_column, nbits=plan.nbits)
            out[plan.cipher_column] = ore.encrypt_column(values.astype(_I64))
            return
        if plan.kind == "splashe_basic":
            self._encrypt_splashe_basic(plan, values, all_columns, start_id, out)
            return
        if plan.kind == "splashe_enhanced":
            self._encrypt_splashe_enhanced(plan, values, balanced, all_columns, start_id, out)
            return
        raise PlanningError(f"unknown plan kind {plan.kind!r}")

    def _plain_column(
        self, state: ClientTableState, spec: sc.ColumnSpec, values: np.ndarray
    ) -> np.ndarray:
        if spec.dtype == "str":
            encoder = state.dictionaries.setdefault(spec.name, DictionaryEncoder())
            return encoder.encode_column(values.tolist())
        return values.astype(_I64)

    def _encrypt_measure(
        self,
        state: ClientTableState,
        plan: sc.AshePlan | sc.PaillierPlan,
        spec: sc.ColumnSpec,
        values: np.ndarray,
        start_id: int,
        out: dict[str, np.ndarray],
    ) -> None:
        ints = values.astype(_I64)
        if plan.kind == "paillier":
            if self._paillier is None:
                raise PlanningError("paillier mode requires a PaillierScheme")
            out[plan.cipher_column] = self._paillier.encrypt_column(ints)
            if plan.squares_column:
                self._check_squarable(spec.name, ints)
                out[plan.squares_column] = self._paillier.encrypt_column(ints * ints)
        else:
            ashe = self._factory.ashe(plan.cipher_column)
            out[plan.cipher_column] = ashe.encrypt_column(ints, start_id)
            if plan.squares_column:
                self._check_squarable(spec.name, ints)
                sq = self._factory.ashe(plan.squares_column)
                out[plan.squares_column] = sq.encrypt_column(ints * ints, start_id)
        if plan.ore_column:
            ore = self._factory.ore(plan.ore_column, nbits=spec.nbits)
            out[plan.ore_column] = ore.encrypt_column(ints)
        if plan.det_column:
            det = self._factory.det(plan.det_column)
            out[plan.det_column] = det.encrypt_column(ints)

    @staticmethod
    def _check_squarable(name: str, ints: np.ndarray) -> None:
        if ints.size and int(np.abs(ints).max()) >= _MAX_SQUARABLE:
            raise PlanningError(
                f"column {name!r} holds values too large to square within "
                "int64; rescale before upload"
            )

    def _codes_for_det(
        self, state: ClientTableState, spec: sc.ColumnSpec, values: np.ndarray
    ) -> np.ndarray:
        if spec.dtype == "str":
            encoder = state.dictionaries.setdefault(spec.name, DictionaryEncoder())
            return encoder.encode_column(values.tolist())
        return values.astype(_I64)

    # -- SPLASHE -------------------------------------------------------------

    def _encrypt_splashe_basic(
        self,
        plan: sc.SplasheBasicPlan,
        values: np.ndarray,
        all_columns: Mapping[str, np.ndarray],
        start_id: int,
        out: dict[str, np.ndarray],
    ) -> None:
        codes = encode_domain(plan.values, values)
        d = plan.cardinality
        for code, column in enumerate(plan.indicator_columns):
            indicator = (codes == code).astype(_I64)
            out[column] = self._factory.ashe(column).encrypt_column(indicator, start_id)
        for measure, per_code in plan.measure_columns.items():
            mvalues = all_columns[measure].astype(_I64)
            splayed = splashe.splay_measure(codes, mvalues, d)
            for code, column in enumerate(per_code):
                out[column] = self._factory.ashe(column).encrypt_column(
                    splayed[code], start_id
                )

    def _encrypt_splashe_enhanced(
        self,
        plan: sc.SplasheEnhancedPlan,
        values: np.ndarray,
        balanced: np.ndarray,
        all_columns: Mapping[str, np.ndarray],
        start_id: int,
        out: dict[str, np.ndarray],
    ) -> None:
        codes = encode_domain(plan.values, values)
        d = plan.cardinality
        det = self._factory.det(plan.det_column)
        out[plan.det_column] = det.encrypt_column(balanced)

        per_frequent, others = splashe.splay_enhanced_indicators(
            codes, plan.frequent_codes, d
        )
        for code, column in plan.indicator_columns.items():
            out[column] = self._factory.ashe(column).encrypt_column(
                per_frequent[code], start_id
            )
        out[plan.others_indicator] = self._factory.ashe(
            plan.others_indicator
        ).encrypt_column(others, start_id)

        for measure, per_code in plan.measure_columns.items():
            mvalues = all_columns[measure].astype(_I64)
            freq_cols, other_col = splashe.splay_enhanced_measure(
                codes, mvalues, plan.frequent_codes, d
            )
            for code, column in per_code.items():
                out[column] = self._factory.ashe(column).encrypt_column(
                    freq_cols[code], start_id
                )
            others_column = plan.others_measure[measure]
            out[others_column] = self._factory.ashe(others_column).encrypt_column(
                other_col, start_id
            )


def check_headroom(state: ClientTableState, rows: int) -> None:
    """Refuse a table of ``rows`` rows (summed over its shards) whose ASHE
    sums could wrap: a ``Z_2^32`` indicator counts at most ``2^32 - 1``
    rows, and a measure with a declared ``max_abs`` keeps ``max_abs x rows``
    below ``2^63``.  Uploads and appends call it before encrypting."""
    enc = state.enc_schema
    if rows >= 1 << 32 and enc.ashe_bits():
        raise PlanningError(
            f"table {enc.table!r} would hold {rows} rows, but its SPLASHE "
            "indicators are ASHE over Z_2^32 and count at most 2^32 - 1"
        )
    measures = {name for name, plan in enc.plans.items() if plan.kind == "ashe"}
    for plan in enc.plans.values():
        if isinstance(plan, (sc.SplasheBasicPlan, sc.SplasheEnhancedPlan)):
            measures.update(plan.measure_columns)
    for name in sorted(measures):
        bound = state.schema.column(name).max_abs
        try:
            if bound is not None:
                check_overflow_headroom(bound, rows)
        except DecryptionError as exc:
            raise PlanningError(f"column {name!r}: {exc}") from None


def encode_domain(domain: list[Any], values: np.ndarray) -> np.ndarray:
    """Map column values to their code (index) in the declared domain."""
    domain_arr = np.asarray(domain)
    order = np.argsort(domain_arr, kind="stable")
    sorted_domain = domain_arr[order]
    idx = np.searchsorted(sorted_domain, values)
    idx_clipped = np.minimum(idx, len(domain) - 1)
    matched = sorted_domain[idx_clipped] == values
    if not bool(np.all(matched)):
        bad = np.asarray(values)[~matched]
        raise PlanningError(
            f"value {bad[0]!r} not in the declared domain of this dimension"
        )
    return order[idx_clipped].astype(_I64)
