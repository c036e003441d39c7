"""Tests for the encryption module (repro.core.encryptor)."""

import numpy as np
import pytest

from repro.core.crypto_factory import CryptoFactory
from repro.core.encryptor import ClientTableState, EncryptionModule, encode_domain
from repro.core.planner import Planner
from repro.core.schema import ColumnSpec, TableSchema
from repro.crypto.keys import KeyChain
from repro.errors import PlanningError
from repro.query.parser import parse_query

KEY = b"k" * 32


def make_state(mode="seabed"):
    schema = TableSchema("t", [
        ColumnSpec("amount", dtype="int", sensitive=True),
        ColumnSpec("gender", dtype="str", sensitive=True, distinct_values=["m", "f"]),
        ColumnSpec("label", dtype="str", sensitive=False),
    ])
    samples = [
        parse_query("SELECT sum(amount) FROM t WHERE gender = 'm'"),
        parse_query("SELECT var(amount) FROM t"),
    ]
    enc_schema, _ = Planner(mode=mode).plan(schema, samples)
    return ClientTableState(schema=schema, enc_schema=enc_schema)


def columns(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "amount": rng.integers(0, 100, n),
        "gender": rng.choice(["m", "f"], n),
        "label": rng.choice(["x", "y", "z"], n),
    }


def encrypt(module, state, cols, **kwargs):
    return module.encrypt_batch(state, cols, module.balance_splashe(state, cols), **kwargs)


class TestEncryptBatch:
    def test_physical_columns_match_plan(self):
        state = make_state()
        module = EncryptionModule(CryptoFactory(KeyChain(KEY), "t"), seed=0)
        table = encrypt(module, state, columns(), num_partitions=3)
        assert set(table.column_names) == set(state.enc_schema.physical_columns())

    def test_row_id_cursor_advances(self):
        state = make_state()
        module = EncryptionModule(CryptoFactory(KeyChain(KEY), "t"), seed=0)
        encrypt(module, state, columns(50))
        t2 = encrypt(module, state, columns(30, seed=1))
        assert state.next_row_id == 80
        assert t2.partitions[0].start_id == 50  # contiguous across batches

    def test_dictionary_persists_across_batches(self):
        state = make_state()
        module = EncryptionModule(CryptoFactory(KeyChain(KEY), "t"), seed=0)
        encrypt(module, state, columns(20))
        first = dict(state.dictionaries["label"]._index)
        encrypt(module, state, columns(20, seed=3))
        for value, code in first.items():
            assert state.dictionaries["label"].lookup(value) == code

    def test_missing_column_rejected(self):
        state = make_state()
        module = EncryptionModule(CryptoFactory(KeyChain(KEY), "t"), seed=0)
        bad = columns()
        del bad["amount"]
        with pytest.raises(PlanningError, match="do not match"):
            encrypt(module, state, bad)

    def test_ciphertexts_differ_from_plaintext(self):
        state = make_state()
        module = EncryptionModule(CryptoFactory(KeyChain(KEY), "t"), seed=0)
        cols = columns()
        table = encrypt(module, state, cols)
        enc = table.column("amount__ashe")
        assert not np.array_equal(enc.astype(np.int64), cols["amount"])

    def test_squares_column_encrypts_squares(self):
        state = make_state()
        factory = CryptoFactory(KeyChain(KEY), "t")
        module = EncryptionModule(factory, seed=0)
        cols = columns()
        table = encrypt(module, state, cols, num_partitions=1)
        sq_scheme = factory.ashe("amount__sq__ashe")
        decrypted = sq_scheme.decrypt_column(table.column("amount__sq__ashe"), 0)
        assert decrypted.tolist() == (cols["amount"] ** 2).tolist()

    def test_unsquarable_values_rejected(self):
        state = make_state()
        module = EncryptionModule(CryptoFactory(KeyChain(KEY), "t"), seed=0)
        bad = columns()
        bad["amount"] = np.array([1 << 40] * 50)
        with pytest.raises(PlanningError, match="too large to square"):
            encrypt(module, state, bad)

    def test_paillier_mode_requires_scheme(self):
        state = make_state(mode="paillier")
        module = EncryptionModule(CryptoFactory(KeyChain(KEY), "t"), paillier=None)
        with pytest.raises(PlanningError, match="requires a PaillierScheme"):
            encrypt(module, state, columns())

    def test_splashe_columns_sum_to_measure(self):
        """The SPLASHE invariant: splayed columns partition the measure."""
        state = make_state()
        factory = CryptoFactory(KeyChain(KEY), "t")
        module = EncryptionModule(factory, seed=0)
        cols = columns()
        table = encrypt(module, state, cols, num_partitions=1)
        total = 0
        for code in (0, 1):
            col = f"amount@gender@{code}__ashe"
            scheme = factory.ashe(col)
            total += scheme.decrypt_column(table.column(col), 0).sum()
        assert total == cols["amount"].sum()


class TestEncodeDomain:
    def test_int_domain(self):
        codes = encode_domain([10, 20, 30], np.array([20, 10, 30, 20]))
        assert codes.tolist() == [1, 0, 2, 1]

    def test_str_domain(self):
        codes = encode_domain(["b", "a"], np.array(["a", "b", "a"], dtype=object))
        assert codes.tolist() == [1, 0, 1]

    def test_unknown_value_rejected(self):
        with pytest.raises(PlanningError, match="not in the declared domain"):
            encode_domain([1, 2], np.array([3]))
