"""The client-side decryption module (paper Section 4.6).

Takes a :class:`~repro.core.translator.TranslatedQuery` and the server's
responses and produces plaintext result rows identical to what the
plaintext executor would return, as a batch step over columns:

- ASHE aggregates: every reply is its request's row sets as columns
  (:class:`~repro.core.grouped.GroupedRows`; a flat request's is its one
  row set, or none) with the ID set of each *row set* once.  A reply with
  one row set decodes its chunks into one run list (adjacent partitions
  coalesce) and pads each ASHE column by telescoping, two PRF evaluations
  per run (per occurrence for join multisets); with several, each chunk
  carries a code per ID naming its row set, and chunks open in blocks of
  pieces, each ASHE column padded from one PRF stream over a block's hull
  and summed per row set;
- an opened reply is sorted ``uint64`` keys, one plaintext column per
  alias (Paillier: exact Python ints in an object column) and one count
  column per ID source; a query's replies align on their key union by
  ``searchsorted`` (a flat query: its one row);
- each output item is one array expression: sums, counts (ID counts or
  count / indicator sums), averages and variances (the client-side
  combination, Section 4.2, dividing as Python's exact ``int / int``),
  NoEnc's per-group extremes, and the mask that drops empty row sets;
  group keys DET-decrypt and dictionary-decode in one batch call;
- SPLASHE group-by: the same columns, a row per value code, from the
  splayed sums and the enhanced-mode catch-all grouped request; zero
  indicator counts (dummy rows) suppress a group;
- ORDER BY, the default group order (``str`` of the key), LIMIT and the
  unselected group keys run on the columns (stable sorts, ties kept as
  Python's ``sort(reverse=True)`` keeps them, scans too), and the row
  dicts are built once, at the end.

Nothing decoded or padded outlives the call.  No integrity checks are
performed: the threat model is honest-but-curious (Section 4.6), so a
malicious server could return bogus sums undetected; a reply that is
*malformed* (an ASHE sum without its ID set, a truncated chunk, ragged
or unsorted group columns, a repeated group key, codes that do not match
their chunk, implied codes beside several row sets) is a typed
:class:`~repro.errors.DecryptionError`, never a number.
"""

from __future__ import annotations

import functools
from typing import Any, Iterator, NamedTuple

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
from repro.query.ast import Query


#: IDs a reply's open holds at a time, unless one piece alone is larger:
#: 256 KB of uint64.  A 307,200-row, 32-partition, 512-group open took
#: 3.7 ms at 16,384 (a partition a block), 3.3-3.5 ms at 32,768-131,072.
BLOCK_IDS = 32_768


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
        codes = np.concatenate(codes, dtype=np.intp)  # add.at's own index type
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
    """:func:`_open_pieces` for a reply's one row set: its runs unioned (in
    ID order, so touching seams coalesce) and padded by telescoping, two PRF
    evaluations per run, and multiset IDs once per occurrence."""
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


class _Reply(NamedTuple):
    """A reply's row sets as columns (``keys`` ``None``: a flat request's)."""

    response: srv.ServerResponse
    aggs: dict[str, srv.AggOp]
    size: int  # row sets
    keys: np.ndarray | None
    values: dict[str, np.ndarray]
    counts: dict[str, np.ndarray]


#: Output cells: values, and where a cell has one (``None``: everywhere).
_Cells = tuple[np.ndarray, np.ndarray | None]
_EXACT = 2**53  # past this an int64 is not exactly a float64


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` cell by cell as Python divides (``den`` 0: no value)."""
    den = den + (den == 0)
    if num.dtype == object:
        return np.array([t / c for t, c in zip(num.tolist(), den.tolist())], np.float64)
    out = num / den
    if num.dtype.kind in "iu":
        big = np.flatnonzero((num > _EXACT) | (num < -_EXACT))
        out[big] = [t / c for t, c in zip(num[big].tolist(), den[big].tolist())]
    return out


class _Aligned:
    """A query's replies aligned on its output rows (``keys``: the grouped
    replies' key union; ``None``: a flat query's one row)."""

    def __init__(self, replies: list[_Reply], keys: np.ndarray | None):
        self.replies, self.size = replies, 1 if keys is None else keys.size
        # Per reply: False (no row set here), None (the same keys), or each
        # output row's position and whether its row set is there.
        self._at: list[tuple[np.ndarray, np.ndarray] | bool | None] = []
        for reply in replies:
            if not reply.size or (keys is None) != (reply.keys is None):
                self._at.append(False)
            elif keys is None or reply.keys.size == keys.size:
                self._at.append(None)
            else:
                at = np.minimum(np.searchsorted(reply.keys, keys), reply.keys.size - 1)
                self._at.append((at, reply.keys[at] == keys))

    def _take(self, req: int, column: np.ndarray | None) -> _Cells:
        at = self._at[req]  # reply req's column on the output rows, 0 where absent
        if column is None or at is False:
            return np.zeros(self.size, np.int64), np.zeros(self.size, bool)
        if at is None:
            return column, None
        return np.where(at[1], column[at[0]], 0), at[1]

    def value(self, ref: Ref) -> _Cells:
        req, alias = ref
        return self._take(req, self.replies[req].values.get(alias))

    def sum(self, refs: list[Ref]) -> _Cells:
        """The refs' values added where any is there: one ref's column, or
        several added as Python ints (a SPLASHE IN's ASHE sums)."""
        if len(refs) == 1:
            return self.value(refs[0])
        cells = [self.value(ref) for ref in refs] or [self._take(0, None)]
        masks = [present for _, present in cells]
        return (functools.reduce(np.add, [values.astype(object) for values, _ in cells]),
                None if None in masks else functools.reduce(np.logical_or, masks))

    def count(self, item: OutputItem) -> np.ndarray:
        """An item's count per output row: its refs' ID counts (free with
        any ASHE aggregate), or their count / indicator sums."""
        parts = []
        for req, alias in item.count_refs:
            reply, agg = self.replies[req], self.replies[req].aggs[alias]
            if item.count_mode == "ids" and not isinstance(agg, srv.AsheSum):
                if reply.size:
                    raise DecryptionError("count_ids requires an ASHE aggregate")
                continue
            parts.append(self._take(req, reply.counts.get(agg.id_source) if item.count_mode
                                    == "ids" else reply.values.get(alias))[0])
        return functools.reduce(np.add, parts) if parts else np.zeros(self.size, np.int64)


def _argsort(column: np.ndarray, descending: bool) -> np.ndarray:
    """A stable sort's order; descending, ties keep their order, as in
    Python's ``sort(reverse=True)``."""
    if not descending:
        return np.argsort(column, kind="stable")
    return column.size - 1 - np.argsort(column[::-1], kind="stable")[::-1]


def _sortable(values: np.ndarray, present: np.ndarray | None) -> np.ndarray:
    if present is None or present.all():
        return values
    return np.where(present, values.astype(object), None)


def _as_str(column: np.ndarray) -> np.ndarray:
    if column.dtype.kind in "iu":
        return column.astype(np.str_)
    return np.array([str(v) for v in column.tolist()], dtype=object)


def _cells(values: np.ndarray, present: np.ndarray | None) -> list:
    cells = values.tolist()
    for i in () if present is None else np.flatnonzero(~present).tolist():
        cells[i] = None
    return cells


def _ordered_rows(query: Query, columns: dict[str, _Cells],
                  keep: np.ndarray | None = None) -> list[dict[str, Any]]:
    """The rows ``keep`` marks (``None``: all) built once from output columns,
    in ORDER BY order (else the group keys' ``str`` order, a stable pass a
    key), LIMITed, without the group keys the query does not select."""
    order = None if keep is None else np.flatnonzero(keep)
    for name, descending in reversed(query.order_by or [(g, None) for g in query.group_by]):
        column = _sortable(*columns[name])
        column = column if order is None else column[order]
        step = (_argsort(column, descending) if descending is not None
                else np.argsort(_as_str(column), kind="stable"))
        order = step if order is None else order[step]
    if query.limit is not None:
        size = len(next(iter(columns.values()))[0]) if columns else 0
        order = (np.arange(size) if order is None else order)[:query.limit]
    if query.group_by:
        selected = {item.output_name() for item in query.select}
        columns = {name: cells for name, cells in columns.items()
                   if name in selected or name not in query.group_by}
    if order is not None:
        columns = {name: (values[order], None if present is None else present[order])
                   for name, (values, present) in columns.items()}
    lists = [_cells(*cells) for cells in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*lists)]


class DecryptionModule:
    """Decrypts server responses for one table's client state."""

    def __init__(self, state: ClientTableState, factory: CryptoFactory,
                 paillier: PaillierScheme | None = None):
        self._state, self._factory, self._paillier = state, factory, paillier

    # -- entry point -------------------------------------------------------------

    def decrypt(self, tq: TranslatedQuery,
                responses: list[srv.ServerResponse]) -> list[dict[str, Any]]:
        if len(responses) != len(tq.requests):
            raise DecryptionError(f"expected {len(tq.requests)} responses, got {len(responses)}")
        replies = []
        for request, response in zip(tq.requests, responses):
            aggs = {agg.alias: agg for agg in request.aggs}
            try:  # the ID-list decoders' one error type: damaged chunk bytes
                replies.append(self._open(response, aggs, request.group_by is not None))
            except EncodingError as exc:
                raise DecryptionError(f"malformed ID set in the reply: {exc}") from exc
        if tq.shape == "flat":
            aligned = _Aligned(replies, None)
            return _ordered_rows(tq.query, {o.name: self._item(o, aligned) for o in tq.outputs})
        if tq.shape == "grouped":
            return self._assemble_grouped(tq, replies)
        if tq.shape == "splashe_group":
            return self._assemble_splashe_group(tq, replies)
        raise DecryptionError(f"unknown result shape {tq.shape!r}")

    # -- scan (projection) results ------------------------------------------------

    def decrypt_scan(self, query: Query, physical: dict[str, tuple[str, str]],
                     response: srv.ServerResponse) -> list[dict[str, Any]]:
        """Decrypt a projection (scan) response a column at a time, then
        order, limit and build its rows once.  ``physical`` maps each
        requested logical column to its ``(physical column, scheme kind)``
        pair (Section 4.6: two PRF evaluations per ASHE cell)."""
        cols, ids = response.projection["columns"], response.projection["ids"]
        decoded: dict[str, np.ndarray] = {}
        for name, (col, kind) in physical.items():
            raw = cols[col]
            if kind == "ashe":
                decoded[name] = self._factory.ashe(col).decrypt_rows(raw, ids)
            elif kind == "paillier":
                if self._paillier is None:
                    raise DecryptionError("paillier scan without a scheme")
                decoded[name] = self._paillier.decrypt_column(raw)
            elif kind == "plain":
                decoded[name] = self._decoded(name, raw)
            else:
                det = self._factory.det(col, getattr(self._state.enc_schema.plan(name),
                                                     "join_group", None))
                decoded[name] = self._decoded(name, det.decrypt_column(raw))
        return _ordered_rows(query, {c.name: (decoded[c.name], None) for c in query.select})

    def _decoded(self, name: str, codes: np.ndarray) -> np.ndarray:
        """A column's plaintexts: a string column's codes decoded."""
        if self._state.schema.column(name).dtype != "str":
            return codes
        values = self._state.dictionaries[name].decode_column(codes)
        return np.fromiter(values, dtype=object, count=len(values))

    # -- opening a reply -----------------------------------------------------------

    def _open(
        self, response: srv.ServerResponse, aggs: dict[str, srv.AggOp], grouped: bool = False
    ) -> _Reply:
        """Open every row set of a validated reply into columns in one pass:
        one row set's IDs by telescoping (:func:`_open_one`), several a block
        of at most :data:`BLOCK_IDS` IDs at a time (:func:`_open_pieces`),
        so no array is as large as the reply (Sections 4.3 and 4.6)."""
        rows = response.groups
        columnar = {alias for alias, agg in aggs.items() if not srv.is_side(agg)}
        if (rows is None or set(rows.values) != columnar or (rows.keys is None) == grouped
                or not set(rows.side) <= set(aggs) - columnar):
            raise DecryptionError("a reply's columns do not match its request")
        try:
            rows.validate(distinct=True)
        except EncodingError as exc:
            raise DecryptionError(f"malformed reply: {exc}") from exc
        values: dict[str, np.ndarray] = {}
        counts: dict[str, np.ndarray] = {}
        size = len(rows)
        if not size:
            return _Reply(response, aggs, size, rows.keys, values, counts)
        pads: dict[str, np.ndarray] = {}
        schemes = {alias: self._factory.ashe(agg.column) for alias, agg in aggs.items()
                   if isinstance(agg, srv.AsheSum)}
        for source, pieces in rows.ids.items():
            own = {alias: scheme for alias, scheme in schemes.items()
                   if aggs[alias].id_source == source}
            counts[source], sums = (_open_one(pieces, own) if size == 1
                                    else _open_pieces(pieces, own, size))
            if counts[source].all():  # no row set of an ASHE sum may be empty
                pads.update(sums)
        for alias, column in rows.values.items():
            agg = aggs[alias]
            if isinstance(agg, srv.AsheSum):
                if alias not in pads or column.dtype != np.uint64:
                    raise DecryptionError("an ASHE sum arrived without its ID set")
                values[alias] = schemes[alias].wrap(column + pads[alias])
            elif isinstance(agg, srv.PaillierSum):
                if self._paillier is None:
                    raise DecryptionError("paillier response without a scheme")
                values[alias] = np.array([self._paillier.decrypt_crt(v)
                                          for v in column.tolist()], dtype=object)
            else:
                values[alias] = column
        return _Reply(response, aggs, size, rows.keys, values, counts)

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
        scheme = self._factory.ashe(agg.payload_column)  # type: ignore[union-attr]
        return scheme.decrypt_sum(value, IdList.from_range(row_id, row_id + 1))

    def _item(self, item: OutputItem, aligned: _Aligned) -> _Cells:
        """One output item's cells on the aligned rows."""
        if item.kind == "sum":
            return aligned.sum(item.sum_refs)
        if item.kind == "count":
            return aligned.count(item), None
        if item.kind == "avg":
            count = aligned.count(item)
            return _divide(aligned.sum(item.sum_refs)[0], count), count != 0
        if item.kind in ("var", "stddev"):
            count = aligned.count(item)
            (total, has_total), (sumsq, has_sumsq) = (
                aligned.sum(item.sum_refs), aligned.sum(item.sumsq_refs))
            mean = _divide(total, count)
            variance = _divide(sumsq, count) - mean * mean
            variance = np.where(variance < 0.0, 0.0, variance)  # Python's max(v, 0.0)
            return (variance if item.kind == "var" else np.sqrt(variance),
                    (count != 0) & (True if has_total is None else has_total)
                    & (True if has_sumsq is None else has_sumsq))
        if item.kind in ("min", "max", "median"):
            assert item.extreme_ref is not None and item.extreme_mode is not None
            reply, alias = aligned.replies[item.extreme_ref[0]], item.extreme_ref[1]
            pieces = reply.response.groups.side.get(alias)
            if pieces is None:  # a column's value (NoEnc; a public one per group)
                return aligned.value(item.extreme_ref)
            value = self._decrypt_extreme(pieces, reply.aggs[alias], item.extreme_mode)
            value = float(value) if item.kind == "median" else value
            return (np.array([value] * aligned.size, dtype=object),
                    None if value is not None else np.zeros(aligned.size, bool))
        raise DecryptionError(f"cannot assemble output kind {item.kind!r}")

    # -- grouped results -------------------------------------------------------------

    def _decode_group_keys(self, tq: TranslatedQuery, keys: np.ndarray) -> np.ndarray:
        """Every group key's value (uint64 keys in, one batch-kernel call)."""
        plan = self._state.enc_schema.plan(tq.group_dim)
        if tq.group_decode == "plain":
            codes = keys.view(np.int64)
        elif tq.group_decode == "det":
            det = self._factory.det(plan.cipher_column, getattr(plan, "join_group", None))
            codes = det.decrypt_column(keys)
        else:
            raise DecryptionError(f"unknown group decode {tq.group_decode!r}")
        return self._decoded(tq.group_dim, codes)

    def _assemble_grouped(self, tq: TranslatedQuery, replies: list[_Reply]) -> list[dict]:
        """One output row per key any reply holds, kept where an item has a
        value or a non-zero count."""
        grouped = [reply.keys for reply in replies if reply.keys is not None]
        keys = grouped[0] if len(grouped) == 1 else functools.reduce(np.union1d, grouped)
        aligned = _Aligned(replies, keys)
        key_values = self._decode_group_keys(tq, keys)
        columns: dict[str, _Cells] = {}
        keep = np.zeros(aligned.size, bool)
        for item in tq.outputs:
            if item.kind == "group_key":
                columns[item.name] = key_values, None
                continue
            values, present = columns[item.name] = self._item(item, aligned)
            keep |= values != 0 if item.kind == "count" else True if present is None else present
        return _ordered_rows(tq.query, columns, keep)

    # -- SPLASHE group-by -------------------------------------------------------------

    def _assemble_splashe_group(self, tq: TranslatedQuery, replies: list[_Reply]) -> list[dict]:
        """One output row per value code: a frequent value's cells are its
        own splayed columns' flat sums, an infrequent value's its group of
        the enhanced-mode catch-all request; kept where a count is not 0."""
        plan = self._state.enc_schema.plan(tq.group_dim)
        frequent = np.array(tq.splashe_group_codes, dtype=np.int64)
        codes, others, at = frequent, None, None
        if tq.group_request is not None:  # the catch-all row sets' codes
            others = replies[tq.group_request]
            det = self._factory.det(plan.det_column)  # type: ignore[union-attr]
            other_codes = det.decrypt_column(others.keys)
            codes = np.union1d(frequent, other_codes)
            rows = np.flatnonzero(~np.isin(codes, frequent))
            by_code = np.argsort(other_codes, kind="stable")
            at = by_code[np.searchsorted(other_codes, codes[rows], sorter=by_code)]
        frequent_rows = np.searchsorted(codes, frequent).tolist()

        def cells(item: OutputItem, role: str) -> _Cells:
            refs = item.splashe.get(role, {})
            values, present = np.zeros(codes.size, np.int64), np.zeros(codes.size, bool)
            for row, ref in zip(frequent_rows, map(refs.get, tq.splashe_group_codes)):
                column = None if ref is None else replies[ref[0]].values.get(ref[1])
                if column is not None and column.size:
                    values[row], present[row] = column[0], True
            ref = refs.get(-1)
            if ref is not None and others is not None and others.size:
                values[rows], present[rows] = others.values[ref[1]][at], True
            return values, present

        columns: dict[str, _Cells] = {}
        keep = np.zeros(codes.size, bool)
        for item in tq.outputs:
            if item.kind == "group_key":
                values = plan.values  # type: ignore[union-attr]
                columns[item.name] = np.fromiter(values, object, len(values))[codes], None
                continue
            if item.kind not in ("count", "sum", "avg"):
                raise DecryptionError(f"{item.kind!r} is unsupported under SPLASHE group-by")
            count, _ = cells(item, "count")
            keep |= count > 0
            if item.kind == "count":
                columns[item.name] = count, None
                continue
            total, has_total = cells(item, "sum")
            columns[item.name] = (total if item.kind == "sum" else _divide(total, count),
                                  (count != 0) & has_total)
        return _ordered_rows(tq.query, columns, keep)
