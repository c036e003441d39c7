"""Unit tests for the decryption module (repro.core.decryptor).

The integration suite covers value correctness end-to-end; here we check
the decryptor's own contract: payload handling, chunk accumulation,
validation, and group-key decoding.
"""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import server as srv
from repro.core.crypto_factory import CryptoFactory
from repro.core.decryptor import DecryptionModule
from repro.core.encryptor import ClientTableState, EncryptionModule
from repro.core.grouped import GroupedRows, IdPiece, code_dtype
from repro.core.planner import Planner
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.translator import QueryTranslator
from repro.crypto.keys import KeyChain
from repro.errors import CodecError, DecryptionError
from repro.idlist import IdList, get_codec
from repro.idlist.codec import ROW_SET_FLAGS, encode_mask, encode_multiset
from repro.net import codec as wire
from repro.query.parser import parse_query

KEY = b"d" * 32


@pytest.fixture(scope="module")
def env():
    schema = TableSchema("t", [
        ColumnSpec("x", dtype="int", sensitive=True),
        ColumnSpec("g", dtype="int", sensitive=True),
    ])
    samples = [parse_query("SELECT g, sum(x) FROM t GROUP BY g")]
    enc, _ = Planner("seabed").plan(schema, samples)
    state = ClientTableState(schema=schema, enc_schema=enc)
    factory = CryptoFactory(KeyChain(KEY), "t")
    rng = np.random.default_rng(0)
    cols = {"x": rng.integers(0, 50, 100), "g": rng.integers(0, 4, 100)}
    module = EncryptionModule(factory, seed=0)
    module.encrypt_batch(state, cols, module.balance_splashe(state, cols), num_partitions=2)
    translator = QueryTranslator(state, factory)
    return state, factory, translator


AGGS = {"a": srv.AsheSum("x__ashe", "a")}


def flat_reply(values, ids=None):
    """A flat reply: its one row set's uint64 ``values`` by alias (all
    ``None``: no row selected, so no row set) and per ID source its
    chunks, whose codes are implied."""
    n = int(any(v is not None for v in values.values()))
    return srv.ServerResponse(groups=GroupedRows(
        None, {a: np.array([v] * n, dtype=np.uint64) for a, v in values.items()},
        {source: [IdPiece(c, None) for c in chunks] for source, chunks in (ids or {}).items()},
    ))


def lists(columns):
    """An opened reply's columns as lists, by alias or ID source."""
    return {name: column.tolist() for name, column in columns.items()}


def grouped_reply(alias, keys, sums, pieces):
    """A grouped reply: key ``i``'s ASHE sum ``sums[i]``, and the row-ID
    ``pieces`` as (chunk, the index of each of its IDs' key) pairs."""
    dtype = code_dtype(len(keys))
    return srv.ServerResponse(groups=GroupedRows(
        np.array(keys, dtype=np.uint64),
        {alias: np.array(sums, dtype=np.uint64)},
        {srv.ROW_IDS: [IdPiece(chunk, np.array(codes, dtype=dtype)) for chunk, codes in pieces]},
    ))


class TestPayloadDecryption:
    def test_ashe_chunk_accumulation(self, env):
        """A row set's chunks are unioned once, then padded per column."""
        state, factory, _ = env
        scheme = factory.ashe("x__ashe")
        values = np.array([10, 20, 30, 40], dtype=np.int64)
        cipher = scheme.encrypt_column(values, start_id=0)
        codec = get_codec("seabed")
        chunk1 = codec.encode(IdList.from_range(0, 2))
        chunk2 = codec.encode(IdList.from_range(2, 4))
        total = int(cipher.sum()) & (2**64 - 1)
        module = DecryptionModule(state, factory)
        before = scheme.prf_evals
        opened = module._open(flat_reply({"a": total}, {srv.ROW_IDS: [chunk1, chunk2]}), AGGS)
        assert lists(opened.values) == {"a": [100]}
        assert lists(opened.counts) == {srv.ROW_IDS: [4]}
        # The touching chunks coalesced into one run: two PRF evaluations.
        assert scheme.prf_evals - before == 2

    def test_one_group_telescopes_and_several_stream(self, env):
        """The pad rule follows the number of row sets, not the request: a
        one-group GROUP BY pads its coalesced run by telescoping (two PRF
        evaluations), two groups stream one pad per ID."""
        state, factory, _ = env
        scheme = factory.ashe("x__ashe")
        cipher = scheme.encrypt_column(np.arange(12) * 5, start_id=0)
        chunks = [get_codec("seabed").encode(IdList.from_range(lo, lo + 6)) for lo in (0, 6)]
        module = DecryptionModule(state, factory)
        one = grouped_reply("a", [9], [int(cipher.sum()) & (2**64 - 1)],
                            [(chunk, [0] * 6) for chunk in chunks])
        before = scheme.prf_evals
        opened = module._open(one, AGGS, grouped=True)
        assert scheme.prf_evals - before == 2
        assert opened.keys.tolist() == [9]
        assert lists(opened.values) == {"a": [5 * sum(range(12))]}
        assert lists(opened.counts) == {srv.ROW_IDS: [12]}
        two = grouped_reply("a", [8, 9], [int(cipher[:6].sum()), int(cipher[6:].sum())],
                            [(chunks[0], [0] * 6), (chunks[1], [1] * 6)])
        before = scheme.prf_evals
        opened = module._open(two, AGGS, grouped=True)
        assert scheme.prf_evals - before == 12 + 1
        assert opened.keys.tolist() == [8, 9]
        assert lists(opened.values) == {"a": [5 * 15, 5 * 51]}

    def test_multiset_chunk(self, env):
        state, factory, _ = env
        scheme = factory.ashe("x__ashe")
        values = np.array([7, 8], dtype=np.int64)
        cipher = scheme.encrypt_column(values, start_id=0)
        # Row 0 counted twice, row 1 once: a join-replicated collection.
        total = int(cipher[0]) * 2 + int(cipher[1])
        chunk = encode_multiset(np.array([0, 0, 1], dtype=np.uint64))
        module = DecryptionModule(state, factory)
        aggs = {"a": srv.AsheSum("x__ashe", "a", srv.BUILD_IDS)}
        opened = module._open(
            flat_reply({"a": total & (2**64 - 1)}, {srv.BUILD_IDS: [chunk]}), aggs
        )
        assert lists(opened.values) == {"a": [7 * 2 + 8]}
        assert lists(opened.counts) == {srv.BUILD_IDS: [3]}

    def test_mixed_run_and_multiset_chunks(self, env):
        """A probe-side set may mix run-coded and multiset chunks (one
        partition saw duplicate build keys, another did not)."""
        state, factory, _ = env
        scheme = factory.ashe("x__ashe")
        cipher = scheme.encrypt_column(np.array([1, 2, 3], dtype=np.int64), start_id=0)
        total = (int(cipher[0]) + 2 * int(cipher[1]) + int(cipher[2])) & (2**64 - 1)
        chunks = [
            get_codec("seabed").encode(IdList.from_range(0, 1)),
            encode_multiset(np.array([1, 1, 2], dtype=np.uint64)),
        ]
        opened = DecryptionModule(state, factory)._open(
            flat_reply({"a": total}, {srv.ROW_IDS: chunks}), AGGS
        )
        assert lists(opened.values) == {"a": [1 + 2 * 2 + 3]}
        assert lists(opened.counts) == {srv.ROW_IDS: [4]}

    def test_no_row_set(self, env):
        """Nothing selected: the reply has no row set to open."""
        state, factory, _ = env
        module = DecryptionModule(state, factory)
        opened = module._open(flat_reply({"a": None}), AGGS)
        assert opened.size == 0 and opened.values == {} and opened.counts == {}

    def test_plain_value(self, env):
        state, factory, _ = env
        module = DecryptionModule(state, factory)
        opened = module._open(flat_reply({"a": 42}), {"a": srv.PlainAgg("x", "sum", "a")})
        assert lists(opened.values) == {"a": [42]}

    def test_paillier_without_scheme_rejected(self, env):
        state, factory, _ = env
        module = DecryptionModule(state, factory, paillier=None)
        reply = srv.ServerResponse(groups=GroupedRows(
            None, {"a": np.array([123], dtype=object)}, {}))
        with pytest.raises(DecryptionError, match="paillier"):
            module._open(reply, {"a": srv.PaillierSum("c", "a", 99)})

    def test_columns_must_match_the_request(self, env):
        """Its aliases, and its keys: implied exactly when it has no GROUP BY."""
        state, factory, _ = env
        module = DecryptionModule(state, factory)
        chunk = get_codec("seabed").encode(IdList.from_range(0, 2))
        for reply, grouped in ((flat_reply({"b": 1}), False),
                               (flat_reply({"a": 1}, {srv.ROW_IDS: [chunk]}), True),
                               (grouped_reply("a", [4], [1], [(chunk, [0, 0])]), False)):
            with pytest.raises(DecryptionError, match="do not match its request"):
                module._open(reply, AGGS, grouped)

    def test_unmerged_side_piece_rejected(self, env):
        """A median's gathers are merged before the reply: raw ones, or an
        extreme in two pieces, never decrypt."""
        state, factory, _ = env
        gather = ("median_gather", np.zeros((1, 2), np.uint64), np.zeros(1, np.uint64),
                  np.zeros(1, np.uint64))
        extreme = ("extreme", 1, 0, ())
        median = srv.OreMedian("x__ore", "x__ashe", "m")
        for side in ([gather], [extreme, extreme]):
            with pytest.raises(DecryptionError, match="unmerged"):
                DecryptionModule(state, factory)._decrypt_extreme(side, median, "ashe")


class TestMalformedReplies:
    """A reply whose ASHE sum lost its ID set, or whose set is damaged,
    is a typed DecryptionError -- never an unpadded (wrong) number."""

    CHUNK = get_codec("seabed").encode(IdList.from_range(5, 15))
    BITMAP = encode_mask(np.arange(64) % 2 == 0, 1000)  # offset: a 2-byte varint

    @pytest.mark.parametrize("ids", [
        {},  # no set at all
        {srv.BUILD_IDS: [CHUNK]},  # only the other source's set
        {srv.ROW_IDS: []},  # a set with no chunk
        {srv.ROW_IDS: [get_codec("seabed").encode(IdList.empty())]},  # an empty set
    ], ids=["missing", "wrong-source", "no-chunks", "empty"])
    def test_flat_sum_without_ids(self, env, ids):
        state, factory, translator = env
        tq = translator.translate(parse_query("SELECT sum(x), count(*) FROM t"))
        alias = tq.requests[0].aggs[0].alias
        reply = flat_reply({alias: 12345}, ids)
        with pytest.raises(DecryptionError, match="without its ID set"):
            DecryptionModule(state, factory).decrypt(tq, [reply])

    @pytest.mark.parametrize("mangle", [
        lambda c: c[: len(c) // 2],  # truncated Deflate stream
        lambda c: c[:1],  # header only
        lambda c: b"",  # empty chunk
        lambda c: bytes([c[0] & ~0x04]) + c[1:],  # Deflate flag cleared
        lambda c: TestMalformedReplies.BITMAP[:-1],  # header/payload mismatch
        lambda c: TestMalformedReplies.BITMAP[:2],  # header ends mid-varint
        lambda c: b"\x08\x05\x00\xff",  # nbits = 0 with a payload
    ], ids=["truncated", "header-only", "empty", "flag-flip",
            "bitmap-mismatch", "bitmap-header", "bitmap-zero-bits"])
    def test_flat_damaged_chunk(self, env, mangle):
        state, factory, translator = env
        tq = translator.translate(parse_query("SELECT sum(x), count(*) FROM t"))
        alias = tq.requests[0].aggs[0].alias
        reply = flat_reply({alias: 12345}, {srv.ROW_IDS: [mangle(self.CHUNK)]})
        with pytest.raises(DecryptionError):
            DecryptionModule(state, factory).decrypt(tq, [reply])

    def test_grouped_sum_without_ids(self, env):
        state, factory, translator = env
        tq = translator.translate(parse_query("SELECT g, sum(x) FROM t GROUP BY g"))
        alias = tq.requests[0].aggs[0].alias
        key = factory.det("g__det").encrypt_one(3)
        reply = grouped_reply(alias, [key, key + 1], [1, 2], [(self.CHUNK, [0] * 10)])
        with pytest.raises(DecryptionError, match="without its ID set"):
            DecryptionModule(state, factory).decrypt(tq, [reply])

    @pytest.mark.parametrize("chunk", [
        CHUNK[: len(CHUNK) // 2],  # truncated Deflate stream
        BITMAP[:-1],  # header/payload mismatch
        b"\x08\x05\x00\xff",  # nbits = 0 with a payload
    ], ids=["truncated", "bitmap-mismatch", "bitmap-zero-bits"])
    def test_grouped_damaged_chunk(self, env, chunk):
        state, factory, translator = env
        tq = translator.translate(parse_query("SELECT g, sum(x) FROM t GROUP BY g"))
        alias = tq.requests[0].aggs[0].alias
        key = factory.det("g__det").encrypt_one(3)
        reply = grouped_reply(alias, [key], [1], [(chunk, [0])])
        with pytest.raises(DecryptionError, match="malformed ID set"):
            DecryptionModule(state, factory).decrypt(tq, [reply])

    @given(chunks=st.lists(st.binary(max_size=40), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_chunk_bytes_never_escape_untyped(self, env, chunks):
        """Whatever bytes arrive as an ID set, flat or grouped, the outcome
        is rows or a DecryptionError -- never a zlib / numpy exception."""
        state, factory, translator = env
        module = DecryptionModule(state, factory)
        flat = translator.translate(parse_query("SELECT sum(x), count(*) FROM t"))
        grouped = translator.translate(parse_query("SELECT g, sum(x) FROM t GROUP BY g"))
        key = factory.det("g__det").encrypt_one(3)
        for tq, reply in (
            (flat, flat_reply({flat.requests[0].aggs[0].alias: 7}, {srv.ROW_IDS: chunks})),
            (grouped, grouped_reply(grouped.requests[0].aggs[0].alias, [key], [7],
                                    [(chunk, [0] * (1 + len(chunk) % 3)) for chunk in chunks])),
        ):
            try:
                module.decrypt(tq, [reply])
            except DecryptionError:
                pass

    def test_count_ids_requires_ashe(self, env):
        state, factory, translator = env
        tq = translator.translate(parse_query("SELECT sum(x), count(*) FROM t"))
        (agg,) = tq.requests[0].aggs
        forged = [srv.ServerQuery(table="t", aggs=(srv.PlainAgg("x", "sum", agg.alias),))]
        tq = dataclasses.replace(tq, requests=forged)
        with pytest.raises(DecryptionError, match="ASHE aggregate"):
            DecryptionModule(state, factory).decrypt(
                tq, [flat_reply({agg.alias: 3})]
            )


@pytest.fixture(scope="module")
def grouped_case(env):
    """A well-formed grouped reply over twelve rows in two partitions
    (IDs 0-5, 6-11; one piece each), three groups, and the rows it
    decrypts to."""
    state, factory, translator = env
    tq = translator.translate(parse_query("SELECT g, sum(x), count(*) FROM t GROUP BY g"))
    cipher = factory.ashe("x__ashe").encrypt_column(np.arange(12) * 5, start_id=0)
    det = factory.det("g__det")
    tokens = {det.encrypt_one(g): g for g in range(3)}
    keys = sorted(tokens)
    sums = [int(cipher[np.arange(12) % 3 == tokens[token]].sum()) for token in keys]
    code_of = {tokens[token]: code for code, token in enumerate(keys)}
    pieces = [(get_codec("seabed").encode(IdList.from_range(lo, lo + 6)),
               [code_of[i % 3] for i in range(lo, lo + 6)]) for lo in (0, 6)]
    reply = grouped_reply(tq.requests[0].aggs[0].alias, keys, sums, pieces)
    rows = [{"g": g, "sum(x)": int((np.arange(12)[np.arange(12) % 3 == g] * 5).sum()),
             "count(*)": 4} for g in range(3)]
    return tq, reply, rows


def _swap(arr, data):
    i, j = data.draw(st.lists(st.integers(0, arr.size - 1), min_size=2, max_size=2,
                              unique=True).map(sorted))
    arr[[i, j]] = arr[[j, i]]


def _mutate(rows, kind, data):
    """Break one field of ``rows`` the way ``kind`` names."""
    pieces = rows.ids[srv.ROW_IDS]
    piece = pieces[data.draw(st.integers(0, len(pieces) - 1))]
    entries = len(rows)
    alias = next(iter(rows.values))
    other_size = st.integers(0, 2 * entries).filter(lambda n: n != entries)
    if kind == "ragged-values":
        rows.values[alias] = np.resize(rows.values[alias], data.draw(other_size))
    elif kind == "repeated-key":  # still sorted: two row sets share a key
        i = data.draw(st.integers(0, entries - 2))
        rows.keys[i + 1] = rows.keys[i]
    elif kind == "ragged-keys":
        rows.keys = np.resize(rows.keys, data.draw(other_size))
    elif kind == "unsorted-keys":
        _swap(rows.keys, data)
    elif kind == "duplicate-keys":
        i, j = data.draw(st.lists(st.integers(0, entries - 1), min_size=2, max_size=2,
                                  unique=True))
        rows.keys[j] = rows.keys[i]
    elif kind == "code-past-the-end":
        piece.codes[data.draw(st.integers(0, piece.codes.size - 1))] = data.draw(
            st.integers(entries, 255))
    elif kind == "code-length":
        size = data.draw(st.integers(0, 2 * piece.codes.size).filter(
            lambda n: n != piece.codes.size))
        piece.codes = np.resize(piece.codes, size)
    elif kind == "code-dtype":
        piece.codes = piece.codes.astype(data.draw(st.sampled_from(
            [np.int8, np.int64, np.uint16, np.uint32, np.uint64, np.float64, bool])))
    elif kind == "unknown-flag":
        flag = data.draw(st.integers(0, 255).filter(lambda f: f not in ROW_SET_FLAGS))
        piece.chunk = bytes([flag]) + piece.chunk[1:]
    elif kind == "truncated-chunk":
        piece.chunk = piece.chunk[:data.draw(st.integers(0, len(piece.chunk) - 1))]
    elif kind == "huge-run":  # 13 bytes claiming 2^40 IDs
        piece.chunk = get_codec("seabed").encode(IdList.from_range(0, 1 << 40))
    elif kind == "implied-codes":  # only a reply's one row set may imply them
        piece.codes = None
    elif kind == "empty-group":
        g = data.draw(st.integers(0, entries - 1))
        for p in pieces:
            p.codes[p.codes == g] = (g + 1) % entries
    else:
        raise AssertionError(kind)


class TestMalformedGroupedReplies:
    """Every field a grouped reply is made of, broken: the client answers
    with a DecryptionError, the wire with a CodecError -- never an
    IndexError / ValueError, never a number."""

    KINDS = ["ragged-values", "repeated-key", "ragged-keys", "unsorted-keys",
             "duplicate-keys", "code-past-the-end", "code-length", "code-dtype",
             "unknown-flag", "truncated-chunk", "huge-run", "implied-codes", "empty-group"]

    def test_the_unbroken_reply_decrypts(self, env, grouped_case):
        state, factory, _ = env
        tq, reply, rows = grouped_case
        assert DecryptionModule(state, factory).decrypt(tq, [reply]) == rows

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_broken_field_stays_typed(self, env, grouped_case, kind, data):
        state, factory, _ = env
        tq, reply, _ = grouped_case
        broken = copy.deepcopy(reply)
        _mutate(broken.groups, kind, data)
        module = DecryptionModule(state, factory)
        with pytest.raises(DecryptionError):
            module.decrypt(tq, [broken])
        try:
            _, arrived = wire.decode_frame(wire.encode_frame("rep", broken))
        except CodecError:
            return
        with pytest.raises(DecryptionError):
            module.decrypt(tq, [arrived])


class TestBlockedOpen:
    """A grouped reply is opened in blocks of pieces: nothing in the open is
    as large as the reply."""

    GROUPS, PARTITIONS, ROWS = 512, 32, 9_600

    def test_peak_memory_is_bounded_by_the_block(self, env):
        """512 groups over 32 partitions of 9,600 rows: 307,200 IDs, whose
        uint64 IDs alone would be 2.4 MB; decrypting traces under 2 MB."""
        state, factory, translator = env
        tq = translator.translate(parse_query("SELECT g, sum(x), count(*) FROM t GROUP BY g"))
        rng = np.random.default_rng(31)
        keys = np.sort(factory.det("g__det").encrypt_column(np.arange(self.GROUPS)))
        codes = [rng.permutation(np.arange(self.ROWS) % self.GROUPS).astype(np.uint16)
                 for _ in range(self.PARTITIONS)]
        pieces = [(get_codec("seabed").encode(IdList.from_range(p * self.ROWS,
                                                                 (p + 1) * self.ROWS)), c)
                  for p, c in enumerate(codes)]
        reply = grouped_reply(tq.requests[0].aggs[0].alias, keys,
                              rng.integers(0, 1 << 63, self.GROUPS), pieces)
        module = DecryptionModule(state, factory)
        tracemalloc.start()
        try:
            rows = module.decrypt(tq, [reply])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == self.GROUPS
        assert sum(row["count(*)"] for row in rows) == self.PARTITIONS * self.ROWS
        assert peak < 2 << 20, f"decrypt peaked at {peak / 2**20:.2f} MB"


class TestResponseValidation:
    def test_response_count_mismatch(self, env):
        state, factory, translator = env
        module = DecryptionModule(state, factory)
        tq = translator.translate(parse_query("SELECT sum(x) FROM t"))
        with pytest.raises(DecryptionError, match="expected 1 responses"):
            module.decrypt(tq, [])

    def test_group_key_det_decode(self, env):
        state, factory, translator = env
        tq = translator.translate(
            parse_query("SELECT g, sum(x) FROM t GROUP BY g")
        )
        module = DecryptionModule(state, factory)
        token = factory.det("g__det").encrypt_one(3)
        keys = np.array([token], dtype=np.uint64)
        assert module._decode_group_keys(tq, keys).tolist() == [3]
