"""The client-side decryption module (paper Section 4.6).

Takes a :class:`~repro.core.translator.TranslatedQuery` and the server's
responses and produces plaintext result rows identical to what the
plaintext executor would return:

- ASHE aggregates: every reply is its request's row sets as columns
  (:class:`~repro.core.grouped.GroupedRows`; a flat request's is its one
  row set, or none) and carries the ID set of each *row set* once, beside
  the aggregates.  The pad rule depends on the number of row sets, not on
  the request: a reply with one row set (a flat request's, or a one-group
  GROUP BY) decodes its chunks once into one run list (chunks of adjacent
  partitions coalesce, so an unfiltered scan is one run) and every ASHE
  column summed over those rows then costs one PRF pad over the runs (two
  evaluations per run; per occurrence for join multisets).  With several
  row sets, each partition's chunk carries a code per ID naming its row
  set: chunks are decoded once, in blocks of pieces, and each ASHE column
  pads a block from one PRF stream over its hull, summed per row set;
- counts: read off the row set's ID count, or decrypt indicator sums;
- averages / variances: the client-side division and combination
  (Monomi-style query splitting, Section 4.2);
- group keys: DET-decrypt and dictionary-decode (a reply holds one row
  set per key);
- SPLASHE group-by: assemble per-value rows from the splayed sums and the
  enhanced-mode catch-all grouped request, using indicator counts to
  suppress empty groups (dummy rows decrypt to zero and vanish here).

Nothing decoded or padded outlives the call.  No integrity checks are
performed: the threat model is honest-but-curious (Section 4.6), so a
malicious server could return bogus sums undetected; a reply that is
*malformed* (an ASHE sum without its ID set, a truncated chunk, ragged
or unsorted group columns, a repeated group key, codes that do not match
their chunk, implied codes beside several row sets) is a typed
:class:`~repro.errors.DecryptionError`, never a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from repro.core import server as srv
from repro.core.crypto_factory import CryptoFactory
from repro.core.encryptor import ClientTableState
from repro.core.grouped import IdPiece
from repro.core.translator import OutputItem, Ref, TranslatedQuery
from repro.crypto.ashe import AsheScheme
from repro.crypto.paillier import PaillierScheme
from repro.crypto.prf import MASK64
from repro.errors import DecryptionError, EncodingError
from repro.idlist import IdList
from repro.idlist import codec as idcodec
from repro.query.executor import order_and_limit


#: IDs a reply's open holds at a time, unless one piece alone is
#: larger: 128 KB of uint64, L2-sized.
BLOCK_IDS = 16_384


def _blocks(pieces: list[IdPiece]) -> Iterator[tuple[list, list, int, int, bool]]:
    """One source's pieces decoded in blocks ``(parts, codes, lo, hi, seamless)``,
    a piece's runs or multiset IDs counted against its codes before any ID
    exists.  A block closes before a piece that would take it past
    :data:`BLOCK_IDS` IDs or its hull past two PRF evaluations per ID."""
    parts: list = []  # seamless: the parts, in order, are the IDs lo..hi
    for piece in pieces:
        if idcodec.is_multiset_payload(piece.chunk):
            part = idcodec.decode_multiset(piece.chunk)
            size, run = part.size, False
        else:
            part = idcodec.decode(piece.chunk)
            run = part.num_runs == 1
            size = int(part.ends[0] - part.starts[0]) + 1 if run else part.count()
        if size != piece.codes.size:
            raise DecryptionError("a code column does not match its chunk's IDs")
        a, b = ((int(part.starts[0]), int(part.ends[-1])) if isinstance(part, IdList)
                else (int(part.min()), int(part.max())))
        if parts and n + size <= BLOCK_IDS and max(b, hi) - min(a, lo) + 2 <= 2 * (n + size):
            parts.append(part)
            codes.append(piece.codes)
            lo, hi, n, seamless = min(a, lo), max(b, hi), n + size, seamless and run and a == hi + 1
            continue
        if parts:
            yield parts, codes, lo, hi, seamless
        parts, codes, lo, hi, n, seamless = [part], [piece.codes], a, b, size, run
    if parts:
        yield parts, codes, lo, hi, seamless


def _open_pieces(pieces: list[IdPiece], schemes: dict[str, AsheScheme],
                 entries: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One ID source's row-set counts and its row-set pad sums per ASHE
    column (by alias), a block at a time: one stream over a block's hull,
    continued from the block below where they touch (a contiguous selection
    costs rows + 1 evaluations), or a lone sparse piece's scattered pads."""
    counts = np.zeros(entries, dtype=np.int64)
    sums = {alias: np.zeros(entries, dtype=np.uint64) for alias in schemes}  # adds wrap
    priors: dict[str, int | None] = {}
    last = None  # the previous block's highest ID, if its streams reach it
    for parts, codes, lo, hi, seamless in _blocks(pieces):
        codes = np.concatenate(codes)
        counts += np.bincount(codes, minlength=entries)
        ids = None if seamless else np.concatenate(
            [part.to_ids() if isinstance(part, IdList) else part for part in parts])
        dense = hi - lo + 2 <= 2 * codes.size
        priors = priors if dense and lo - 1 == last else dict.fromkeys(schemes)
        last = hi if dense else None
        at = slice(None) if seamless else (ids - np.uint64(lo)).view(np.int64)
        for alias, scheme in schemes.items():
            if dense:
                pads, priors[alias] = scheme.pad_stream(lo, hi - lo + 1, priors[alias])
            np.add.at(sums[alias], codes, pads[at] if dense else scheme.pad_array(ids))
    return counts, sums


def _open_one(pieces: list[IdPiece], schemes: dict[str, AsheScheme]
              ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """:func:`_open_pieces` for a reply's one row set: its runs unioned
    (the pieces arrive in ID order, so the union only joins them and
    coalesces touching seams) and padded by telescoping, two PRF
    evaluations per run in chunk-sized calls, and multiset IDs once per
    occurrence."""
    runs: list[IdList] = []
    multiset = [np.empty(0, np.uint64)]
    for piece in pieces:
        if idcodec.is_multiset_payload(piece.chunk):
            multiset.append(idcodec.decode_multiset(piece.chunk))
            size = multiset[-1].size
        else:
            runs.append(idcodec.decode(piece.chunk))
            size = None if piece.codes is None else runs[-1].count()
        if piece.codes is not None and piece.codes.size != size:
            raise DecryptionError("a code column does not match its chunk's IDs")
    merged, dupes = IdList.union_all(runs), np.concatenate(multiset)
    sums = {alias: np.array([(scheme.pad_for(merged) + scheme.pad_for_multiset(dupes))
                             & MASK64], dtype=np.uint64)
            for alias, scheme in schemes.items()}
    return np.array([merged.count() + dupes.size]), sums


@dataclass
class _RowSet:
    """One row set of a reply, opened once: every aggregate's plaintext by
    alias (``None``: no row selected; ORE extremes are left to
    ``_decrypt_extreme``) and the row count by ID source."""

    values: dict[str, Any]
    counts: dict[str, int]


class _Reply(NamedTuple):
    response: srv.ServerResponse
    aggs: dict[str, srv.AggOp]
    opened: dict[int | None, _RowSet]  # by group key; None: a flat request's
    grouped: bool  # the request has a GROUP BY (its reply's keys ship)


class DecryptionModule:
    """Decrypts server responses for one table's client state."""

    def __init__(
        self,
        state: ClientTableState,
        factory: CryptoFactory,
        paillier: PaillierScheme | None = None,
    ):
        self._state = state
        self._factory = factory
        self._paillier = paillier

    # -- entry point -------------------------------------------------------------

    def decrypt(
        self, tq: TranslatedQuery, responses: list[srv.ServerResponse]
    ) -> list[dict[str, Any]]:
        if len(responses) != len(tq.requests):
            raise DecryptionError(
                f"expected {len(tq.requests)} responses, got {len(responses)}"
            )
        replies = []
        for request, response in zip(tq.requests, responses):
            aggs = {agg.alias: agg for agg in request.aggs}
            grouped = request.group_by is not None
            try:  # the ID-list decoders' one error type: damaged chunk bytes
                opened = self._open(response, aggs, grouped)
            except EncodingError as exc:
                raise DecryptionError(f"malformed ID set in the reply: {exc}") from exc
            replies.append(_Reply(response, aggs, opened, grouped))
        if tq.shape == "flat":
            row = {
                item.name: self._assemble_item(item, replies, lambda r: r.opened.get(None))
                for item in tq.outputs
            }
            rows = [row] if row else []
        elif tq.shape == "grouped":
            rows = self._assemble_grouped(tq, replies)
        elif tq.shape == "splashe_group":
            rows = self._assemble_splashe_group(tq, replies)
        else:
            raise DecryptionError(f"unknown result shape {tq.shape!r}")
        return order_and_limit(rows, tq.query)

    # -- scan (projection) results ------------------------------------------------

    def decrypt_scan(
        self,
        requested: list[str],
        physical: dict[str, tuple[str, str]],
        response: srv.ServerResponse,
    ) -> list[dict[str, Any]]:
        """Decrypt a projection (scan) response row-by-row.

        ``physical`` maps each requested logical column to its
        ``(physical column, scheme kind)`` pair, resolved once at
        preparation time (Section 4.6: two PRF evaluations per ASHE
        cell).
        """
        cols = response.projection["columns"]
        ids = response.projection["ids"]
        decoded: dict[str, Any] = {}
        for name, (col, kind) in physical.items():
            raw = cols[col]
            if kind == "plain":
                spec = self._state.schema.column(name)
                if spec.dtype == "str":
                    decoded[name] = self._state.dictionaries[name].decode_column(raw)
                else:
                    decoded[name] = raw.tolist()
            elif kind == "ashe":
                scheme = self._factory.ashe(col)
                decoded[name] = scheme.decrypt_rows(raw, ids).tolist()
            elif kind == "paillier":
                if self._paillier is None:
                    raise DecryptionError("paillier scan without a scheme")
                decoded[name] = self._paillier.decrypt_column(raw).tolist()
            else:
                plan = self._state.enc_schema.plan(name)
                det = self._factory.det(col, getattr(plan, "join_group", None))
                codes = det.decrypt_column(raw)
                spec = self._state.schema.column(name)
                if spec.dtype == "str":
                    decoded[name] = self._state.dictionaries[name].decode_column(codes)
                else:
                    decoded[name] = codes.tolist()
        return [
            {name: decoded[name][j] for name in requested}
            for j in range(len(ids))
        ]

    # -- opening a reply -----------------------------------------------------------

    def _open(
        self, response: srv.ServerResponse, aggs: dict[str, srv.AggOp], grouped: bool = False
    ) -> dict[int | None, _RowSet]:
        """Open every row set of a reply in one pass.

        A validated reply holds one row set per key (implied keys: at most
        one).  One row set's IDs open by telescoping (:func:`_open_one`);
        with several, each ID source's pieces open in blocks of at most
        :data:`BLOCK_IDS` IDs (:func:`_open_pieces`), summed per key by
        their codes: a few numpy passes per block whatever the number of
        groups, and no array as large as the reply (the paper's batched
        PRF, partition by partition, Sections 4.3 and 4.6).
        """
        rows = response.groups
        columnar = {alias for alias, agg in aggs.items() if not srv.is_side(agg)}
        if (rows is None or set(rows.values) != columnar or (rows.keys is None) == grouped
                or not set(rows.side) <= set(aggs) - columnar):
            raise DecryptionError("a reply's columns do not match its request")
        try:
            rows.validate(distinct=True)
        except EncodingError as exc:
            raise DecryptionError(f"malformed reply: {exc}") from exc
        keys = [None] * len(rows) if rows.keys is None else rows.keys.tolist()
        opened = {key: _RowSet({}, {}) for key in keys}
        if not opened:
            return opened
        pads: dict[str, np.ndarray] = {}
        schemes = {alias: self._factory.ashe(agg.column) for alias, agg in aggs.items()
                   if isinstance(agg, srv.AsheSum)}
        for source, pieces in rows.ids.items():
            own = {alias: scheme for alias, scheme in schemes.items()
                   if aggs[alias].id_source == source}
            counts, sums = (_open_one(pieces, own) if len(rows) == 1
                            else _open_pieces(pieces, own, len(rows)))
            if counts.all():  # no row set of an ASHE sum may be empty
                pads.update(sums)
            for row_set, count in zip(opened.values(), counts.tolist()):
                row_set.counts[source] = count
        for alias, column in rows.values.items():
            agg = aggs[alias]
            if isinstance(agg, srv.AsheSum):
                if alias not in pads or column.dtype != np.uint64:
                    raise DecryptionError("an ASHE sum arrived without its ID set")
                values = schemes[alias].wrap(column + pads[alias]).tolist()
            elif isinstance(agg, srv.PaillierSum):
                if self._paillier is None:
                    raise DecryptionError("paillier response without a scheme")
                values = [self._paillier.decrypt_crt(v) for v in column.tolist()]
            else:
                values = column.tolist()
            for row_set, value in zip(opened.values(), values):
                row_set.values[alias] = value
        return opened

    def _decrypt_extreme(self, pieces: list[tuple], agg: srv.AggOp, mode: str) -> Any:
        want = ("plain", 2) if mode == "plain" else ("extreme", 4)
        if len(pieces) != 1 or (pieces[0][0], len(pieces[0])) != want:
            raise DecryptionError("an extreme or median arrived unmerged")
        payload = pieces[0]
        if mode == "plain":
            # NoEnc: the server computed the median directly.
            return payload[1]
        _, value, row_id, _ct = payload
        if mode == "paillier":
            if self._paillier is None:
                raise DecryptionError("paillier response without a scheme")
            return self._paillier.decrypt_crt(value)
        column = agg.payload_column  # type: ignore[union-attr]
        scheme = self._factory.ashe(column)
        return scheme.decrypt_sum(value, IdList.from_range(row_id, row_id + 1))

    # -- assembling output rows -----------------------------------------------------

    def _assemble_item(
        self,
        item: OutputItem,
        replies: list[_Reply],
        row_set_of: Callable[[_Reply], _RowSet | None],
    ) -> Any:
        """One output cell from opened row sets (``row_set_of`` picks the
        flat row set, or one group's)."""

        def sum_over(refs: list[Ref]) -> int | None:
            total: int | None = None
            for req, alias in refs:
                row_set = row_set_of(replies[req])
                value = row_set.values.get(alias) if row_set is not None else None
                if value is not None:
                    total = value if total is None else total + value
            return total

        def count_of() -> int:
            total = 0
            for req, alias in item.count_refs:
                row_set = row_set_of(replies[req])
                if row_set is None:
                    continue
                if item.count_mode == "ids":
                    # Free with any ASHE aggregate: its row set's ID count.
                    agg = replies[req].aggs[alias]
                    if not isinstance(agg, srv.AsheSum):
                        raise DecryptionError("count_ids requires an ASHE aggregate")
                    total += row_set.counts.get(agg.id_source, 0)
                else:
                    total += int(row_set.values.get(alias) or 0)
            return total

        if item.kind == "sum":
            return sum_over(item.sum_refs)
        if item.kind == "count":
            return count_of()
        if item.kind == "avg":
            total = sum_over(item.sum_refs)
            count = count_of()
            return None if not count else total / count
        if item.kind in ("var", "stddev"):
            total = sum_over(item.sum_refs)
            sumsq = sum_over(item.sumsq_refs)
            count = count_of()
            if not count or total is None or sumsq is None:
                return None
            mean = total / count
            variance = max(sumsq / count - mean * mean, 0.0)
            return variance if item.kind == "var" else math.sqrt(variance)
        if item.kind in ("min", "max", "median"):
            assert item.extreme_ref is not None and item.extreme_mode is not None
            req, alias = item.extreme_ref
            reply = replies[req]
            pieces = reply.response.groups.side.get(alias)
            if pieces is None:  # a column's value (NoEnc; a public one per group)
                row_set = row_set_of(reply)
                return None if row_set is None else row_set.values.get(alias)
            value = self._decrypt_extreme(pieces, reply.aggs[alias], item.extreme_mode)
            return float(value) if item.kind == "median" else value
        raise DecryptionError(f"cannot assemble output kind {item.kind!r}")

    # -- grouped results -------------------------------------------------------------

    def _decode_group_keys(self, tq: TranslatedQuery, keys: list[int]) -> dict[int, Any]:
        """Decode every group key in one batch-kernel call (key -> value)."""
        dim = tq.group_dim
        assert dim is not None
        spec = self._state.schema.column(dim)
        arr = np.fromiter(keys, dtype=np.uint64, count=len(keys))
        if tq.group_decode == "plain":
            codes = arr.view(np.int64)
        elif tq.group_decode == "det":
            plan = self._state.enc_schema.plan(dim)
            det = self._factory.det(plan.cipher_column, getattr(plan, "join_group", None))
            codes = det.decrypt_column(arr)
        else:
            raise DecryptionError(f"unknown group decode {tq.group_decode!r}")
        if spec.dtype == "str":
            dictionary = self._state.dictionaries[dim]
            return {
                k: dictionary.value(c)
                for k, c in zip(keys, codes.tolist())
            }
        return dict(zip(keys, codes.tolist()))

    def _assemble_grouped(
        self, tq: TranslatedQuery, replies: list[_Reply]
    ) -> list[dict[str, Any]]:
        sorted_keys = sorted(
            {
                key
                for reply in replies
                if reply.grouped
                for key in reply.opened
            }
        )
        key_values = self._decode_group_keys(tq, sorted_keys)

        rows: list[dict[str, Any]] = []
        for key in sorted_keys:

            def group_row_set(reply: _Reply, key: int = key) -> _RowSet | None:
                if not reply.grouped:
                    return None
                return reply.opened.get(key)

            row: dict[str, Any] = {}
            non_empty = False
            for item in tq.outputs:
                if item.kind == "group_key":
                    row[item.name] = key_values[key]
                    continue
                value = self._assemble_item(item, replies, group_row_set)
                row[item.name] = value
                if item.kind == "count":
                    non_empty = non_empty or bool(value)
                else:
                    non_empty = non_empty or value is not None
            if non_empty:
                rows.append(row)
        return rows

    # -- SPLASHE group-by -------------------------------------------------------------

    def _assemble_splashe_group(
        self, tq: TranslatedQuery, replies: list[_Reply]
    ) -> list[dict[str, Any]]:
        dim = tq.group_dim
        assert dim is not None
        plan = self._state.enc_schema.plan(dim)
        values = plan.values  # type: ignore[union-attr]

        # Enhanced mode: the catch-all grouped request's row sets per code.
        others_by_code: dict[int, _RowSet] = {}
        if tq.group_request is not None:
            opened = replies[tq.group_request].opened
            det = self._factory.det(plan.det_column)  # type: ignore[union-attr]
            keys = list(opened)
            codes = det.decrypt_column(np.fromiter(keys, dtype=np.uint64, count=len(keys)))
            for key, code in zip(keys, codes.tolist()):
                others_by_code[int(code)] = opened[key]

        def cell_value(item: OutputItem, role: str, code: int) -> Any:
            """A frequent value's cell: its own splayed column's flat sum."""
            ref = item.splashe.get(role, {}).get(code)
            row_set = None if ref is None else replies[ref[0]].opened.get(None)
            return None if row_set is None else row_set.values.get(ref[1])

        def cell_value_others(item: OutputItem, role: str, code: int) -> Any:
            """An infrequent value's cell: its group of the catch-all request."""
            ref = item.splashe.get(role, {}).get(-1)
            if ref is None or code not in others_by_code:
                return None
            return others_by_code[code].values.get(ref[1])

        rows: list[dict[str, Any]] = []
        frequent_codes = set(tq.splashe_group_codes)
        all_codes = sorted(frequent_codes | set(others_by_code))
        if tq.group_request is None:
            all_codes = sorted(frequent_codes)
        for code in all_codes:
            from_others = code not in frequent_codes
            reader = cell_value_others if from_others else cell_value
            row: dict[str, Any] = {}
            count_nonzero = False
            for item in tq.outputs:
                if item.kind == "group_key":
                    row[item.name] = values[code]
                    continue
                count = reader(item, "count", code)
                count = int(count) if count else 0
                if item.kind == "count":
                    row[item.name] = count
                elif item.kind == "sum":
                    total = reader(item, "sum", code)
                    row[item.name] = total if count else None
                elif item.kind == "avg":
                    total = reader(item, "sum", code)
                    row[item.name] = (
                        total / count if count and total is not None else None
                    )
                else:
                    raise DecryptionError(
                        f"{item.kind!r} is unsupported under SPLASHE group-by"
                    )
                count_nonzero = count_nonzero or count > 0
            if count_nonzero:
                rows.append(row)
        return rows
