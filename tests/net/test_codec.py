"""Wire-codec round trips: arbitrary payloads survive bit-identically,
malformed frames raise typed :class:`CodecError`s, never raw struct/json
errors."""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import server as srv
from repro.core.grouped import GroupedRows, IdPiece, code_dtype
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.metrics import JobMetrics, StageMetrics
from repro.engine.table import Partition, Table
from repro.engine.transport import CALL, REPLY
from repro.errors import CodecError
from repro.idlist import IdList
from repro.idlist.codec import ROW_SET_FLAGS, encode_mask
from repro.net import codec, rpc
from repro.shard.worker import _ShardWorker


def same(a, b) -> bool:
    """Structural bit-identity, tolerating NaN and comparing arrays."""
    if type(a) is not type(b):
        # numpy scalar types survive exactly; int vs float must not blur.
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and (
            np.array_equal(a, b) if a.dtype == object else bool((a == b).all())
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return set(a) == set(b) and all(same(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a):
        return all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return a == b


def roundtrip(body, kind="req"):
    got_kind, got = codec.decode_frame(codec.encode_frame(kind, body))
    assert got_kind == kind
    return got


# -- hypothesis strategies ------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),  # Paillier-sized bigints
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=64),
)

ciphertext_arrays = st.one_of(
    # ASHE / DET ciphertexts and ORE trit words
    st.lists(st.integers(0, 2**64 - 1), max_size=16).map(
        lambda xs: np.array(xs, dtype=np.uint64)
    ),
    st.lists(st.integers(-(2**62), 2**62), max_size=16).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    st.lists(
        st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3),
        max_size=8,
    ).map(lambda xs: np.array(xs, dtype=np.uint64).reshape(-1, 3)),
    # Paillier big-int object columns
    st.lists(st.integers(-(10**50), 10**50), min_size=1, max_size=6).map(
        lambda xs: np.array(xs, dtype=object)
    ),
)

trees = st.recursive(
    st.one_of(scalars, ciphertext_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.integers(), st.tuples(st.integers())),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@given(trees)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_arbitrary_payloads_roundtrip(body):
    assert same(roundtrip(body), body)


@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_ciphertext_batches_bit_identical(values, seed):
    batch = {
        "ashe": np.array(values, dtype=np.uint64),
        "ore": np.array(values * 3, dtype=np.uint64)[: 3 * len(values)].reshape(-1, 3),
        "paillier": np.array([pow(3, seed % 200 + 1, 10**30) for _ in values], dtype=object),
        "blob": np.array(values, dtype=np.uint64).tobytes(),
    }
    got = roundtrip(batch)
    assert got["ashe"].tobytes() == batch["ashe"].tobytes()
    assert got["ore"].tobytes() == batch["ore"].tobytes()
    assert got["blob"] == batch["blob"]
    assert list(got["paillier"]) == list(batch["paillier"])


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_truncation_raises_codec_error(data):
    frame = codec.encode_frame("req", data.draw(trees))
    cut = data.draw(st.integers(min_value=0, max_value=max(len(frame) - 1, 0)))
    with pytest.raises(CodecError):
        codec.decode_frame(frame[:cut])


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_corruption_never_escapes_untyped(data):
    frame = bytearray(codec.encode_frame("req", data.draw(trees)))
    pos = data.draw(st.integers(min_value=4, max_value=len(frame) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    frame[pos] ^= flip
    try:
        codec.decode_frame(bytes(frame))
    except CodecError:
        pass  # the typed outcome; a lucky flip may also decode cleanly


# -- request/response shapes ----------------------------------------------


def test_server_query_roundtrip():
    q = srv.ServerQuery(
        table="sales",
        aggs=(
            srv.AsheSum(column="rev_ashe", alias="s", id_source=srv.BUILD_IDS),
            srv.PaillierSum(column="rev_phe", alias="p", n_squared=7**40),
            srv.OreExtreme(kind="max", ore_column="c_ore", payload_column="c", alias="m"),
            srv.PlainAgg(column=None, func="count", alias="n"),
        ),
        filter=srv.FilterAnd(
            children=(
                srv.DetEq(column="region_det", token=2**63 + 11, negate=True),
                srv.FilterOr(
                    children=(
                        srv.OreCmp(column="c_ore", op="<", token=(1, 2, 0), nbits=32),
                        srv.FilterNot(child=srv.DetIn(column="x", tokens=(1, 2, 3))),
                    )
                ),
            )
        ),
        join=srv.ServerJoin(
            build_table="dim",
            probe_key_column="k_det",
            build_key_column="k_det",
            payload_columns=("d1", "d2"),
        ),
        group_by="region_det",
        compress_at="driver",
    )
    got = roundtrip(q)
    assert got == q  # frozen dataclasses compare by value


def test_server_response_roundtrip():
    metrics = JobMetrics(shuffles=[(96, 4)], result_bytes=128, queue_wait=0.5)
    metrics.add_stage(StageMetrics("map", [0.1, 0.2], wall_time=0.05))
    metrics.add_stage(StageMetrics("merge", [0.01], wall_time=0.01, driver=True))
    resp = srv.ServerResponse(
        groups=GroupedRows(
            np.array([7, 2**64 - 1], dtype=np.uint64),
            {"s": np.array([10**45, 3], dtype=object), "n": np.array([4, -1])},
            {srv.ROW_IDS: [IdPiece(b"\x08\x02\x05", np.array([1, 0, 1], dtype=np.uint8)),
                           IdPiece(b"\x07\x01", np.array([0], dtype=np.uint8))]},
        ),
        metrics=metrics,
        payload_bytes=4096,
    )
    got = roundtrip(resp, kind="rep")
    assert same(got, resp)


def test_flat_reply_roundtrip():
    """A flat request's reply: its one row set, key and codes implied,
    and the side pieces -- an ORE extreme's winner, raw median gathers."""
    gather = ("median_gather", np.arange(6, dtype=np.uint64).reshape(3, 2),
              np.array([4, 5, 6], dtype=np.uint64), np.array([0, 9, 2], dtype=np.uint64))
    resp = srv.ServerResponse(groups=GroupedRows(
        None,
        {"total": np.array([2**64 - 1], dtype=np.uint64), "n": np.array([3])},
        {srv.BUILD_IDS: [IdPiece(b"\x08\x02\x05", None), IdPiece(b"\x07\x01", None)]},
        {"lo": [("extreme", 17, 4, (1, 2**64 - 1))], "md": [gather, gather]},
    ), payload_bytes=77)
    got = roundtrip(resp, kind="rep")
    assert same(got, resp) and got.groups.keys is None
    assert [p.codes for p in got.groups.ids[srv.BUILD_IDS]] == [None, None]


@pytest.mark.parametrize("keys", [None, np.array([3, 5], dtype=np.uint64)],
                         ids=["implied-keys", "two-keys"])
def test_implied_codes_need_exactly_one_row_set(keys):
    """Implied codes name a reply's one row set: beside two row sets (or
    none) they are a typed error, never IDs credited to a guessed group."""
    piece = IdPiece(encode_mask(np.ones(4, bool), 0), None)
    for values in ({"a": np.ones(2, dtype=np.uint64)}, {"a": np.ones(0, dtype=np.uint64)}):
        if keys is not None and values["a"].size != keys.size:
            continue
        reply = srv.ServerResponse(groups=GroupedRows(
            keys, values, {srv.ROW_IDS: [piece]}))
        with pytest.raises(CodecError, match="implied"):
            codec.decode_frame(codec.encode_frame("rep", reply))


def test_an_id_piece_ships_as_a_compact_node():
    """One per partition, so no dataclass node: its chunk's buffer and,
    under GROUP BY, its code column; the dataclass form is refused."""
    frame = codec.encode_frame("rep", _pieces_reply(np.array([0, 1, 2, 2], np.uint8)))
    assert b"IdPiece" not in frame and b'{"!":"p","i":' in frame
    forged = {"!": "d", "t": "IdPiece", "f": {"chunk": {"!": "b", "i": 0}, "codes": None}}
    with pytest.raises(CodecError, match="unknown dataclass 'IdPiece'"):
        codec.decode_frame(_forged(forged))
    with pytest.raises(CodecError, match="not encoded bytes"):
        codec.encode_frame("rep", IdPiece(IdList.from_range(0, 4), None))


def test_a_reply_in_the_v8_flat_form_is_rejected():
    """v8's flat reply shipped ``flat`` payload tuples and ``id_sets``;
    neither field exists any more."""
    frame = codec.encode_frame("rep", srv.ServerResponse())
    codec.decode_frame(frame)
    for name in ("flat", "id_sets"):
        match = rf"unexpected fields for ServerResponse: \['{name}'\]"
        with pytest.raises(CodecError, match=match):
            codec.decode_frame(_with_field(frame, "ServerResponse", name, {}))


def test_unknown_dataclass_rejected():
    frame = codec.encode_frame("req", None)
    # splice a forged envelope naming a class outside the registry
    env = json.dumps(
        {"kind": "req", "buffers": [], "body": {"!": "d", "t": "KeyChain", "f": {}}}
    ).encode()
    payload = struct.pack("<4sHI", codec.MAGIC, codec.WIRE_VERSION, len(env)) + env
    forged = struct.pack("<I", len(payload)) + payload
    with pytest.raises(CodecError, match="unknown dataclass"):
        codec.decode_frame(forged)
    assert codec.decode_frame(frame) == ("req", None)


def test_version_skew_rejected():
    frame = bytearray(codec.encode_frame("req", {"a": 1}))
    # bump the u16 version field (after u32 length + 4-byte magic)
    frame[8:10] = struct.pack("<H", codec.WIRE_VERSION + 1)
    with pytest.raises(CodecError, match="version skew"):
        codec.decode_frame(bytes(frame))


def test_previous_wire_version_rejected():
    """v8 shipped a flat request's reply in its own form (``flat`` payload
    tuples beside ``id_sets``); v9 ships every aggregation reply as row
    sets, so a v8 peer's reply has no reader here: it must fail the
    handshake typed."""
    assert codec.WIRE_VERSION == 9
    frame = bytearray(codec.encode_frame("hello", {"token": "t"}))
    frame[8:10] = struct.pack("<H", 8)
    with pytest.raises(CodecError, match="peer speaks v8, this end v9"):
        codec.decode_frame(bytes(frame))


def _forged(body) -> bytes:
    """A frame whose envelope body is the raw JSON tree ``body``."""
    env = json.dumps({"kind": "req", "buffers": [], "body": body}).encode()
    payload = struct.pack("<4sHI", codec.MAGIC, codec.WIRE_VERSION, len(env)) + env
    return struct.pack("<I", len(payload)) + payload


def _envelope_body(frame: bytes):
    _, _, env_len = struct.unpack_from("<4sHI", frame, 4)
    return json.loads(frame[14:14 + env_len])["body"]


def test_a_string_keyed_dict_ships_as_a_plain_object():
    body = {"op": "execute", "args": {"limit": 3, "names": ["a", None]}}
    assert _envelope_body(codec.encode_frame("req", body)) == body
    assert roundtrip(body) == body


def test_a_string_keyed_dict_holding_a_bang_key_roundtrips():
    body = {"!": "b", "i": 0, "nested": {"!": "d", "t": "KeyChain", "f": {}}}
    tree = _envelope_body(codec.encode_frame("req", body))
    assert tree["!"] == "m"  # tagged, so it cannot pass for a tag node
    assert same(roundtrip(body), body)


def test_a_dict_mixing_str_and_int_keys_roundtrips():
    body = {"a": 1, 2: "b", "c": {3: (4, "d")}}
    assert same(roundtrip(body), body)


def test_a_plain_object_with_an_unknown_bang_value_is_a_codec_error():
    with pytest.raises(CodecError, match="unknown envelope tag 'zz'"):
        codec.decode_frame(_forged({"op": "x", "args": {"!": "zz", "v": []}}))
    with pytest.raises(CodecError, match="unknown envelope tag None"):
        codec.decode_frame(_forged({"!": None}))


@pytest.mark.parametrize("fields", [[], "x", 7, None, [["table", "t"]]])
def test_a_dataclass_node_whose_fields_are_not_an_object_is_a_codec_error(fields):
    with pytest.raises(CodecError, match="fields are not an object"):
        codec.decode_frame(_forged({"!": "d", "t": "DetEq", "f": fields}))


def _with_field(frame: bytes, cls: str, name: str, node, buffer: bytes = b"") -> bytes:
    """``frame`` re-spliced with one more field ``name`` (envelope ``node``,
    whose ``"i"`` -- if any -- indexes the appended ``buffer``) on its
    ``cls`` dataclass: a field this wire version no longer has."""
    _, _, env_len = struct.unpack_from("<4sHI", frame, 4)
    envelope = json.loads(frame[14:14 + env_len])

    def splice(tree) -> bool:
        if isinstance(tree, list):
            return any(splice(v) for v in tree)
        if not isinstance(tree, dict):
            return False
        if tree.get("!") == "d" and tree["t"] == cls:
            tree["f"][name] = node
            return True
        return any(splice(v) for v in tree.values())

    assert splice(envelope["body"])
    if buffer:
        node["i"] = len(envelope["buffers"])
        envelope["buffers"].append(len(buffer))
    env = json.dumps(envelope).encode()
    payload = (struct.pack("<4sHI", codec.MAGIC, codec.WIRE_VERSION, len(env)) + env
               + frame[14 + env_len:] + buffer)
    return struct.pack("<I", len(payload)) + payload


def test_a_request_with_an_inflation_factor_is_rejected():
    frame = codec.encode_frame("req", GROUPED_Q)
    assert codec.decode_frame(frame) == ("req", GROUPED_Q)
    with pytest.raises(CodecError, match=r"unexpected fields for ServerQuery: \['inflation'\]"):
        codec.decode_frame(_with_field(frame, "ServerQuery", "inflation", 4))


def test_a_reply_with_group_suffixes_is_rejected():
    frame = codec.encode_frame("rep", _pieces_reply(np.array([0, 1, 2, 2], np.uint8)))
    codec.decode_frame(frame)
    suffixes = np.zeros(3, dtype=np.int64)
    node = {"!": "nd", "d": suffixes.dtype.str, "s": [3]}
    with pytest.raises(CodecError, match=r"unexpected fields for GroupedRows: \['suffixes'\]"):
        codec.decode_frame(_with_field(frame, "GroupedRows", "suffixes", node, suffixes.tobytes()))


def _pieces_reply(codes, chunk=None, entries=3):
    """A grouped reply of ``entries`` row sets over IDs 0-3 in one piece."""
    return srv.ServerResponse(groups=GroupedRows(
        np.arange(entries, dtype=np.uint64),
        {"a": np.ones(entries, dtype=np.uint64)},
        {srv.ROW_IDS: [IdPiece(chunk or encode_mask(np.ones(4, bool), 0), codes)]},
    ))


@pytest.mark.parametrize("codes, chunk, match", [
    (np.array([0, 1, 3, 2], np.uint8), None, "a code names no row set"),
    (np.array([0, 1, 255, 2], np.uint8), None, "a code names no row set"),
    (np.array([0, 1, 2, 2], np.int64), None, "row-set count's width"),
    (np.array([0, 1, 2, 2], np.uint16), None, "row-set count's width"),
    (np.array([0.0, 1.0, 2.0, 2.0]), None, "row-set count's width"),
    (np.array([[0, 1], [2, 2]], np.uint8), None, "row-set count's width"),
    (np.array([], np.uint8), None, "row-set count's width"),
    (np.array([0, 1, 2, 2], np.uint8), b"\x02\x00\x01\x01\x01", "unknown flag"),
    (np.array([0, 1, 2, 2], np.uint8), b"\x80\x00", "unknown flag"),
], ids=["code-past-the-end", "code-255", "int64-codes", "wider-codes", "float-codes",
        "2-d-codes", "no-codes", "vb-diff-flag", "grouped-span-flag"])
def test_a_malformed_id_piece_is_a_codec_error(codes, chunk, match):
    """What the codec can see without decoding a chunk: every code names a
    row set, in the row-set count's width, and every chunk flag is one a
    row set ships.  (A code column whose length differs from its chunk's
    ID count needs the decode: the decryptor raises DecryptionError.)"""
    frame = codec.encode_frame("rep", _pieces_reply(codes, chunk))
    with pytest.raises(CodecError, match=match):
        codec.decode_frame(frame)


def test_a_code_column_is_not_checked_against_its_chunk_on_the_wire():
    short = _pieces_reply(np.array([0, 1, 2], np.uint8))
    assert same(roundtrip(short, kind="rep"), short)


@pytest.mark.parametrize("entries, dtype", [
    (1, np.uint8), (255, np.uint8), (256, np.uint16), (65_535, np.uint16),
    (65_536, np.uint32), (65_537, np.uint32),
])
def test_the_code_width_is_the_narrowest_that_holds_the_row_set_count(entries, dtype):
    assert code_dtype(entries) == dtype
    codes = np.array([0, entries - 1, 0, entries - 1], dtype=dtype)
    reply = _pieces_reply(codes, entries=entries)
    got = roundtrip(reply, kind="rep")
    assert got.groups.ids[srv.ROW_IDS][0].codes.dtype == dtype and same(got, reply)


def test_reply_frame_carries_an_id_chunk_once_per_row_set():
    def reply(n, chunk):
        return srv.ServerResponse(groups=GroupedRows(
            None, {f"a{i}": np.array([i], dtype=np.uint64) for i in range(n)},
            {srv.ROW_IDS: [IdPiece(chunk, None)]},
        ))
    def frames(chunk):
        one, twelve = (codec.encode_frame("rep", reply(n, chunk)) for n in (1, 12))
        assert twelve.count(chunk) == 1
        return one, twelve
    chunk = b"\x07" + bytes(range(256)) * 2
    one, twelve = frames(chunk)
    big_one, big_twelve = frames(b"\x07" + bytes(range(256)) * 16)
    # Eleven more sums cost the same bytes whatever the chunk's size: no
    # aggregate carries IDs of its own.
    assert len(twelve) - len(one) == len(big_twelve) - len(big_one)
    got = codec.decode_frame(twelve)[1].groups
    assert [p.chunk for p in got.ids[srv.ROW_IDS]] == [chunk]
    assert got.values["a11"].tolist() == [11]
    # A reply cut short inside its ID chunk is a typed codec error.
    with pytest.raises(CodecError):
        codec.decode_frame(twelve[:-100])
    with pytest.raises(CodecError, match="truncated frame buffers"):
        codec.decode_payload(twelve[4:-100])


def test_bad_magic_rejected():
    frame = bytearray(codec.encode_frame("req", {"a": 1}))
    frame[4:8] = b"HTTP"
    with pytest.raises(CodecError, match="magic"):
        codec.decode_frame(bytes(frame))


def test_trailing_garbage_rejected():
    frame = codec.encode_frame("req", [1, 2, 3])
    grown = struct.pack("<I", len(frame)) + frame[4:] + b"xx"
    with pytest.raises(CodecError):
        codec.decode_frame(grown)


def test_unencodable_type_rejected():
    with pytest.raises(CodecError, match="cannot encode"):
        codec.encode_frame("req", object())


# -- coordinator <-> shard-worker RPC shapes --------------------------------
#
# Everything repro.shard sends over a worker pipe (repro.engine.transport):
# the rpc envelope around queries, partial / grouped / scan responses with
# their JobMetrics, rollups, compaction stats and append batches.

u64 = st.integers(0, 2**64 - 1)
seconds = st.floats(0, 10, allow_nan=False)
names = st.sampled_from(["amount__ashe", "amount__ore", "day__ore", "region__det"])
u64_arrays = st.lists(u64, max_size=12).map(lambda xs: np.array(xs, dtype=np.uint64))

filters = st.recursive(
    st.one_of(
        st.builds(srv.DetEq, column=names, token=u64, negate=st.booleans()),
        st.builds(srv.DetIn, column=names, tokens=st.lists(u64, max_size=4).map(tuple)),
        st.builds(
            srv.OreCmp,
            column=names,
            op=st.sampled_from(["<", "<=", ">", ">="]),
            token=st.tuples(u64, u64, u64),
            nbits=st.sampled_from([16, 32]),
        ),
    ),
    lambda children: st.one_of(
        st.builds(srv.FilterAnd, children=st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(srv.FilterOr, children=st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(srv.FilterNot, child=children),
    ),
    max_leaves=5,
)
aggregates = st.one_of(
    st.builds(srv.AsheSum, column=names, alias=st.text(max_size=4),
              id_source=st.sampled_from([srv.ROW_IDS, srv.BUILD_IDS])),
    st.builds(srv.PaillierSum, column=names, alias=st.text(max_size=4),
              n_squared=st.integers(2, 10**80)),
    st.builds(srv.OreExtreme, kind=st.sampled_from(["min", "max"]), ore_column=names,
              payload_column=names, alias=st.text(max_size=4)),
    st.builds(srv.OreMedian, ore_column=names, payload_column=names,
              alias=st.text(max_size=4)),
    st.builds(srv.PlainAgg, column=st.none(), func=st.just("count"),
              alias=st.text(max_size=4)),
)
queries = st.builds(
    srv.ServerQuery,
    table=st.just("sales"),
    aggs=st.lists(aggregates, min_size=1, max_size=3).map(tuple),
    filter=st.none() | filters,
    group_by=st.none() | names,
)
side_pieces = st.one_of(
    st.tuples(st.just("extreme"), u64, u64, st.lists(u64, max_size=2).map(tuple)),
    st.tuples(st.just("plain"), st.floats(allow_nan=False)),
    u64_arrays.map(lambda a: ("median_gather", a.reshape(-1, 1), a, a)),
    u64_arrays.map(lambda a: ("median_gather_plain", a.view(np.int64))),
)
job_metrics = st.builds(
    JobMetrics,
    stages=st.lists(
        st.builds(StageMetrics, name=st.sampled_from(["aggregate", "partial-merge", "scan"]),
                  task_times=st.lists(seconds, max_size=3),
                  wall_time=seconds, partitions_total=st.integers(0, 64),
                  partitions_skipped=st.integers(0, 64), driver=st.booleans()),
        max_size=2,
    ),
    shuffles=st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 128)),
                      max_size=2),
    result_bytes=st.integers(0, 2**40),
    queue_wait=seconds,
)
aliases = st.text(max_size=4)
responses = st.one_of(
    st.builds(srv.ServerResponse,
              groups=st.integers(0, 1).flatmap(
                  lambda n: st.builds(
                      lambda values, pieces, side: GroupedRows(
                          None, values, {srv.ROW_IDS: pieces}, side),
                      st.dictionaries(aliases, st.lists(
                          u64, min_size=n, max_size=n,
                      ).map(lambda xs: np.array(xs, dtype=np.uint64)), min_size=1, max_size=3),
                      st.lists(st.builds(
                          lambda flag, payload: IdPiece(bytes([flag]) + payload, None),
                          st.sampled_from(sorted(ROW_SET_FLAGS)), st.binary(max_size=12),
                      ), max_size=3 * n),
                      st.dictionaries(aliases, st.lists(side_pieces, min_size=1, max_size=2),
                                      max_size=2),
                  )),
              metrics=job_metrics, payload_bytes=st.integers(0, 2**40)),
    st.builds(srv.ServerResponse,
              groups=st.integers(0, 4).flatmap(
                  lambda n: st.builds(
                      lambda keys, values, pieces: GroupedRows(
                          np.sort(np.array(keys, dtype=np.uint64)), values,
                          {srv.ROW_IDS: pieces},
                      ),
                      st.lists(u64, min_size=n, max_size=n),
                      st.dictionaries(aliases, st.lists(
                          u64, min_size=n, max_size=n,
                      ).map(lambda xs: np.array(xs, dtype=np.uint64)), max_size=3),
                      st.lists(st.builds(
                          lambda flag, payload, codes: IdPiece(
                              bytes([flag]) + payload, np.array(codes, dtype=code_dtype(n))),
                          st.sampled_from(sorted(ROW_SET_FLAGS)), st.binary(max_size=12),
                          st.lists(st.integers(0, max(n - 1, 0)), min_size=1, max_size=6),
                      ), max_size=3 * (n > 0)),
                  )),
              metrics=job_metrics, payload_bytes=st.integers(0, 2**40)),
    st.builds(srv.ServerResponse,
              projection=st.fixed_dictionaries({
                  "columns": st.dictionaries(names, ciphertext_arrays, max_size=3),
                  "ids": u64_arrays,
              }),
              metrics=job_metrics),
)
zone_stats = st.one_of(
    st.fixed_dictionaries({"kind": st.just("ore"), "min": st.lists(u64, max_size=3),
                           "max": st.lists(u64, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("det"), "tokens": st.lists(u64, max_size=4)}),
)
rollups = st.tuples(
    st.integers(0, 2**31),
    st.none() | st.fixed_dictionaries({
        "rows": st.integers(0, 2**40), "nulls": st.integers(0, 2**40),
        "columns": st.dictionaries(names, zone_stats, max_size=3),
    }),
)
compactions = st.none() | st.dictionaries(
    st.sampled_from(["merged_runs", "generations_before", "generations_after",
                     "partitions_before", "partitions_after", "target_rows", "generation"]),
    st.integers(0, 2**31),
)
batches = st.fixed_dictionaries({  # what codec.pack_table produces
    "name": st.just("sales"),
    "partitions": st.lists(
        st.fixed_dictionaries({
            "start_id": st.integers(0, 2**60),
            "columns": st.dictionaries(names, ciphertext_arrays, max_size=3),
        }),
        max_size=2,
    ),
})
contexts = st.none() | st.fixed_dictionaries(
    {"trace_id": st.text("0123456789abcdef", min_size=16, max_size=16),
     "span_id": st.text(max_size=12)}
)
spans = st.lists(
    st.fixed_dictionaries({"name": st.text(max_size=12), "trace_id": st.text(max_size=16),
                           "span_id": st.text(max_size=12), "parent_id": st.none() | st.text(),
                           "start": seconds, "end": seconds,
                           "attributes": st.dictionaries(st.text(max_size=6), scalars, max_size=2),
                           "process": st.text(max_size=12), "pid": st.integers(0, 2**22)}),
    max_size=3,
)
shard_requests = st.one_of(
    st.fixed_dictionaries({"shard_id": st.integers(0, 63), "q": queries}).map(
        lambda args: ("execute", args)),
    st.fixed_dictionaries({"table": st.just("sales"), "shard_id": st.integers(0, 63),
                           "columns": st.lists(names, max_size=3).map(tuple),
                           "filt": st.none() | filters}).map(lambda args: ("scan", args)),
    st.fixed_dictionaries({"table": st.just("sales"), "shard_id": st.integers(0, 63),
                           "batch": batches,
                           "column_meta": st.none() | st.dictionaries(
                               names, st.sampled_from(["ashe", "ore", "det"]))}).map(
        lambda args: ("append", args)),
)


@given(shard_requests, contexts, st.none() | seconds)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_shard_request_shapes_roundtrip(request, trace, timeout):
    op, args = request
    body = rpc.request(op, args, timeout=timeout, trace=trace)
    got = roundtrip(body, kind=CALL)
    assert same(got, body)
    assert same(rpc.parse(got), (op, args, timeout, trace))


@given(st.one_of(responses, rollups, compactions, st.integers(0, 2**40)), spans)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_shard_reply_shapes_roundtrip(result, spans):
    reply = {"ok": True, "result": result}
    if spans:
        reply["spans"] = spans
    got = roundtrip(reply, kind=REPLY)
    assert same(got, reply)
    assert same(rpc.unwrap(got), result)


def test_append_batch_with_paillier_columns_roundtrips():
    paillier = np.array([3**200, -(7**150), 0], dtype=object)
    batch = Table("sales", [
        Partition(columns={"amount__phe": paillier,
                           "amount__ashe": np.arange(3, dtype=np.uint64)}, start_id=1 << 44),
    ])
    got = codec.unpack_table(roundtrip(codec.pack_table(batch), kind=CALL))
    assert got.name == "sales" and got.partitions[0].start_id == 1 << 44
    assert got.partitions[0].columns["amount__phe"].dtype == object
    assert list(got.partitions[0].columns["amount__phe"]) == list(paillier)
    assert same(got.partitions[0].columns["amount__ashe"], np.arange(3, dtype=np.uint64))


# -- a grouped reply is a few buffers, whatever its groups -------------------------


def frame_shape(frame: bytes) -> tuple[int, int]:
    """(raw buffers, JSON envelope bytes) of one encoded frame."""
    _, _, env_len = struct.unpack_from("<4sHI", frame, 4)
    envelope = json.loads(frame[14 : 14 + env_len])
    return len(envelope["buffers"]), env_len


def _grouped_table(name: str = "t") -> Table:
    """512 groups in every one of 32 partitions, three ASHE columns."""
    rows = 32 * 2048
    rng = np.random.default_rng(5)
    return Table.from_columns(name, {
        "k": (np.arange(rows) % 512).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15),
        **{c: rng.integers(0, 2**63, rows).astype(np.uint64) for c in ("a", "b", "c")},
    }, num_partitions=32)


GROUPED_Q = srv.ServerQuery(table="t", aggs=tuple(srv.AsheSum(c, c) for c in "abc"),
                            group_by="k")


def _check_grouped_frame(frame: bytes, reply) -> None:
    buffers, envelope = frame_shape(frame)
    assert buffers <= 8 + 2 * 32 and envelope < 8192, (buffers, envelope)
    pieces = reply.groups.ids[srv.ROW_IDS]
    assert (len(reply.groups), len(pieces)) == (512, 32)
    assert all(p.codes.dtype == np.uint16 and p.codes.size == 2048 for p in pieces)


def test_a_grouped_reply_frame_is_a_few_buffers():
    """512 groups x 32 partitions: one buffer per column, and a chunk and
    a code column per partition, not one buffer per (group, partition)."""
    server = srv.SeabedServer(SimulatedCluster(ClusterConfig()))
    server.register(_grouped_table())
    reply = server.execute(GROUPED_Q)
    frame = codec.encode_frame("rep", reply)
    _check_grouped_frame(frame, reply)
    assert same(codec.decode_frame(frame)[1], reply)


def test_a_shard_workers_grouped_reply_frame_is_a_few_buffers(tmp_path):
    worker = _ShardWorker(0, str(tmp_path), ClusterConfig())
    worker.append("t", 0, codec.pack_table(_grouped_table()), None)
    worker.reopen("t", 0)  # serve the committed generation
    reply = worker.execute(0, GROUPED_Q)
    _check_grouped_frame(codec.encode_frame(REPLY, {"ok": True, "result": reply}), reply)
